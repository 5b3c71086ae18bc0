"""Seeded input generation for the benchmark workloads.

Inputs are written with the program's own writers, as a user's dataset
would be, and the program later reads them back through its command line.
Everything here is a pure function of the workload parameters and the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wassmap.geometry import Rotation
from wassmap.io import TrajectoryEntry, write_edge_list, write_graph, write_pcd, write_tum
from wassmap.synth import (
    NoiseModel,
    ScanSpec,
    build_session_graph,
    compose_odometry,
    corridor_path,
    generate_scene,
    generate_two_session,
    loop_path,
    simulate_scan,
)


@dataclass(frozen=True)
class KeyframeInputs:
    """A loop_course sequence for the `keyframes` command."""

    frames_per_lap: int
    laps: int
    points: int
    voxel_size: float
    tau: float
    radius: float
    commit: str          # "keyframes" or "always"
    scan_noise: float = 0.01
    max_range: float = 20.0

    @property
    def frames(self) -> int:
        return self.frames_per_lap * self.laps

    def cli_args(self, clouds: Path, trajectory: Path, out: Path) -> list[str]:
        return ["keyframes", "--clouds", str(clouds), "--trajectory", str(trajectory),
                "--voxel-size", repr(self.voxel_size), "--tau", repr(self.tau),
                "--radius", repr(self.radius), "--commit", self.commit,
                "--out", str(out)]


@dataclass(frozen=True)
class MergeInputs:
    """A two-session corridor for the `merge` command, built as AC-5 builds it."""

    nodes1: int
    nodes2: int
    loops: int
    max_iterations: int
    length: float = 40.0
    sigma_t: float = 0.01
    sigma_r_deg: float = 0.1
    loop_radius: float = 2.0

    @property
    def frames(self) -> int:
        return self.nodes2

    @staticmethod
    def t_init() -> list[float]:
        """Initial alignment as `--t-init` takes it: x, y, z, qx, qy, qz, qw."""
        # the two paths share the world frame, so the true alignment is the
        # identity; start the merge 0.5 m and 5 degrees away from it
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        shift = np.array([1.0, -1.0, 0.5])
        shift *= 0.5 / np.linalg.norm(shift)
        q = Rotation.from_rotvec(axis * math.radians(5.0))
        return [*map(float, shift), q.x, q.y, q.z, q.w]

    def cli_args(self, d: Path, out: Path) -> list[str]:
        return ["merge", "--graph", str(d / "session1.g2o"),
                "--trajectory", str(d / "session2_estimate.tum"),
                "--odometry", str(d / "session2_odometry.txt"),
                "--loops", str(d / "loops.txt"),
                "--t-init", *("%.17g" % v for v in self.t_init()),
                "--max-iterations", str(self.max_iterations),
                "--out", str(out)]


def write_keyframe_inputs(spec: KeyframeInputs, seed: int, clouds: Path,
                          trajectory: Path, warm: Path, warm_frames: int) -> None:
    """Write `clouds/*.pcd` and a TUM trajectory; the first `warm_frames`
    frames also go to `warm/` as a small warm-up sequence."""
    scene = generate_scene("loop_course")
    path = loop_path(n_frames=spec.frames_per_lap, laps=spec.laps)
    for d in (clouds, warm / "clouds"):
        d.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, pose in enumerate(path):
        stamp = 0.1 * k
        scan = ScanSpec(spec.max_range, spec.scan_noise, spec.points,
                        seed=seed * 100_003 + k)
        cloud = simulate_scan(scene, pose, scan, frame_index=k, timestamp=stamp)
        name = f"{stamp:012.6f}.pcd"
        write_pcd(clouds / name, cloud.points)
        if k < warm_frames:
            write_pcd(warm / "clouds" / name, cloud.points)
        entries.append(TrajectoryEntry(stamp, pose))
    write_tum(trajectory, entries)
    write_tum(warm / "trajectory.tum", entries[:warm_frames])


def write_merge_inputs(spec: MergeInputs, seed: int, d: Path) -> None:
    """Session-1 graph at its true poses, session-2 odometry estimate,
    odometry and loop edge lists, and session-2 ground truth."""
    d.mkdir(parents=True, exist_ok=True)
    paths = (corridor_path(spec.length, spec.nodes1, height=1.5),
             corridor_path(spec.length, spec.nodes2, height=1.6))
    noise = NoiseModel(sigma_t=spec.sigma_t, sigma_r=math.radians(spec.sigma_r_deg))
    data = generate_two_session(None, paths, noise=noise, seed=seed,
                                n_loops=spec.loops, loop_radius=spec.loop_radius)
    if len(data.loops) != spec.loops:
        raise RuntimeError(f"scenario produced {len(data.loops)} loops, not {spec.loops}")
    truth1 = [e.pose for e in data.truth1]
    write_graph(d / "session1.g2o", build_session_graph(truth1, data.odometry1, session=1))
    estimate2 = compose_odometry(data.truth2[0].pose, data.odometry2)
    write_tum(d / "session2_estimate.tum",
              [TrajectoryEntry(e.timestamp, p) for e, p in zip(data.truth2, estimate2)])
    write_tum(d / "session2_truth.tum", data.truth2)
    write_edge_list(d / "session2_odometry.txt", data.odometry2)
    write_edge_list(d / "loops.txt", data.loops)
