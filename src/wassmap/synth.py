"""Synthetic scenes, scans, and two-session datasets with known ground truth.

Scenes are collections of axis-aligned rectangular patches (walls, floors,
ceilings). Scans sample patch surfaces directly instead of casting rays: the
tests need controllable coverage and density, not sensor realism. Everything
is a pure function of its arguments plus an explicit seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from wassmap.geometry import Pose, Rotation, se3_exp
from wassmap.io import TrajectoryEntry
from wassmap.pose_graph import Edges, PoseGraph


@dataclass
class CloudFrame:
    frame_index: int
    timestamp: float
    points: np.ndarray


@dataclass(frozen=True)
class Patch:
    """Axis-aligned rectangle: origin corner plus two edge vectors."""

    origin: tuple[float, float, float]
    u: tuple[float, float, float]
    v: tuple[float, float, float]

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.origin, *self.u, *self.v))):
            raise ValueError("patch coordinates must be finite")
        if not self.area > 0.0:
            raise ValueError("patch must have positive area")
        if not self.area < math.inf:
            raise ValueError("patch area must be finite")

    @property
    def area(self) -> float:
        nu = math.sqrt(sum(c * c for c in self.u))
        nv = math.sqrt(sum(c * c for c in self.v))
        return nu * nv


@dataclass(frozen=True)
class Scene:
    patches: tuple[Patch, ...]
    density: float = 100.0  # surface sampling budget, points per square meter

    def __post_init__(self):
        if not self.patches:
            raise ValueError("scene needs at least one patch")
        if not 0.0 < self.density < math.inf:
            raise ValueError("density must be positive")
        object.__setattr__(self, "patches", tuple(self.patches))
        if not self.total_area * self.density < math.inf:
            raise ValueError("candidate budget (area x density) must be finite")

    @property
    def total_area(self) -> float:
        return sum(p.area for p in self.patches)


@dataclass(frozen=True)
class ScanSpec:
    max_range: float = 30.0
    sigma: float = 0.01
    points_per_frame: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not self.max_range > 0.0:
            raise ValueError("max_range must be positive")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be >= 0")
        if not self.sigma < math.inf:
            raise ValueError("sigma must be finite")
        if self.points_per_frame < 0:
            raise ValueError("points_per_frame must be >= 0")


def _box_patches(x0, x1, y0, y1, z0, z1) -> list[Patch]:
    """Interior faces of an axis-aligned box: 4 walls, floor, ceiling."""
    dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
    return [
        Patch((x0, y0, z0), (dx, 0, 0), (0, 0, dz)),   # wall y = y0
        Patch((x0, y1, z0), (dx, 0, 0), (0, 0, dz)),   # wall y = y1
        Patch((x0, y0, z0), (0, dy, 0), (0, 0, dz)),   # wall x = x0
        Patch((x1, y0, z0), (0, dy, 0), (0, 0, dz)),   # wall x = x1
        Patch((x0, y0, z0), (dx, 0, 0), (0, dy, 0)),   # floor
        Patch((x0, y0, z1), (dx, 0, 0), (0, dy, 0)),   # ceiling
    ]


def generate_scene(kind: str, dims=None, density: float = 100.0) -> Scene:
    """Deterministic patch lists for the two built-in layouts.

    corridor dims are (length, width, height); loop_course dims are
    (outer side, corridor width, height) for a closed rectangular circuit.
    """
    if kind == "corridor":
        length, width, height = dims or (40.0, 4.0, 3.0)
        if not all(0 < d < math.inf for d in (length, width, height)):
            raise ValueError("dimensions must be positive")
        patches = _box_patches(0.0, length, -width / 2.0, width / 2.0, 0.0, height)
    elif kind == "loop_course":
        side, width, height = dims or (30.0, 4.0, 3.0)
        if not all(0 < d < math.inf for d in (side, width, height)) or width * 2.0 >= side:
            raise ValueError("need positive dims with corridor width < side/2")
        s, w, h = side, width, height
        patches = [
            # outer walls
            Patch((0, 0, 0), (s, 0, 0), (0, 0, h)),
            Patch((0, s, 0), (s, 0, 0), (0, 0, h)),
            Patch((0, 0, 0), (0, s, 0), (0, 0, h)),
            Patch((s, 0, 0), (0, s, 0), (0, 0, h)),
            # inner walls around the hole
            Patch((w, w, 0), (s - 2 * w, 0, 0), (0, 0, h)),
            Patch((w, s - w, 0), (s - 2 * w, 0, 0), (0, 0, h)),
            Patch((w, w, 0), (0, s - 2 * w, 0), (0, 0, h)),
            Patch((s - w, w, 0), (0, s - 2 * w, 0), (0, 0, h)),
        ]
        for z in (0.0, h):  # ring floor and ceiling, four strips each
            patches += [
                Patch((0, 0, z), (s, 0, 0), (0, w, 0)),
                Patch((0, s - w, z), (s, 0, 0), (0, w, 0)),
                Patch((0, w, z), (w, 0, 0), (0, s - 2 * w, 0)),
                Patch((s - w, w, z), (w, 0, 0), (0, s - 2 * w, 0)),
            ]
    else:
        raise ValueError(f"unknown scene kind {kind!r}")
    return Scene(tuple(patches), density)


def simulate_scan(scene: Scene, pose: Pose, spec: ScanSpec,
                  frame_index: int = 0, timestamp: float = 0.0) -> CloudFrame:
    """Sample visible surface around a pose; returns sensor-frame points.

    Visibility is a pure range test. Candidates are drawn in chunks, each
    split over the patches by one multinomial draw in proportion to area; the
    total candidate budget is the scene surface area times its density, so
    sparse scenes yield short frames. With sigma = 0 the points lie exactly
    on their patch planes.
    """
    rng = np.random.default_rng(spec.seed)
    areas = np.array([p.area for p in scene.patches])
    weights = areas / areas.sum()
    budget = int(math.ceil(scene.total_area * scene.density))
    center = np.asarray(pose.translation)
    # (3, P): x, y and z rows of the patches' origin corners and edge vectors
    origin, u, v = (np.array([getattr(p, name) for p in scene.patches], dtype=float).T
                    for name in ("origin", "u", "v"))

    kept = [np.empty((0, 3))]  # (k, 3) blocks of in-range points, in draw order
    n_kept = 0
    while n_kept < spec.points_per_frame and budget > 0:
        chunk = min(max(2 * spec.points_per_frame, 1024), budget)
        budget -= chunk
        counts = rng.multinomial(chunk, weights)
        # one draw takes the stream that one draw per patch takes in turn;
        # built a coordinate at a time, each temporary is one (chunk,) row
        a, b = rng.random((chunk, 2)).T
        xyz = [np.repeat(o, counts) + a * np.repeat(e1, counts) + b * np.repeat(e2, counts)
               for o, e1, e2 in zip(origin, u, v)]
        d0, d1, d2 = (row - c for row, c in zip(xyz, center))
        # summed in np.linalg.norm(axis=1)'s order, so the same points pass
        near = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2) <= spec.max_range
        kept.append(np.stack([row[near] for row in xyz], axis=1))
        n_kept += len(kept[-1])

    world = np.concatenate(kept)
    if len(world) > spec.points_per_frame:
        # unbiased truncation: drop surplus uniformly, not per patch order
        order = rng.permutation(len(world))[: spec.points_per_frame]
        world = world[np.sort(order)]
    if spec.sigma > 0.0 and len(world):
        world = world + rng.normal(scale=spec.sigma, size=world.shape)
    sensor = pose.inverse().transform_points(world) if len(world) else world
    return CloudFrame(frame_index, timestamp, sensor)


# ---------------------------------------------------------------------------
# Nominal paths

def corridor_path(length: float = 40.0, n_frames: int = 40, height: float = 1.5) -> list[Pose]:
    """Straight walk along the corridor axis, 2 m from either end, sensor facing +x."""
    xs = np.linspace(2.0, length - 2.0, n_frames)
    return [Pose(Rotation.identity(), (float(x), 0.0, height)) for x in xs]


def loop_path(n_frames: int = 60, laps: int = 1) -> list[Pose]:
    """Centerline circuit of the default loop course (30 m side, 4 m wide)
    at 1.5 m height, yaw following travel direction."""
    lo, hi = 2.0, 28.0
    seg = hi - lo
    perimeter = 4.0 * seg
    poses = []
    for k in range(n_frames * laps):
        s = (perimeter * k / float(n_frames)) % perimeter
        leg, r = int(s // seg), s % seg
        if leg == 0:
            xy, yaw = (lo + r, lo), 0.0
        elif leg == 1:
            xy, yaw = (hi, lo + r), math.pi / 2.0
        elif leg == 2:
            xy, yaw = (hi - r, hi), math.pi
        else:
            xy, yaw = (lo, hi - r), -math.pi / 2.0
        rotation = Rotation.from_rotvec((0.0, 0.0, yaw))
        poses.append(Pose(rotation, (xy[0], xy[1], 1.5)))
    return poses


# ---------------------------------------------------------------------------
# Two-session dataset

# numpy's normal draws stay below 13.71 (its ziggurat's tail ends at
# r + 53 ln 2 / r, r = 3.654), so with 14 sigma per axis a rotation-vector
# draw is shorter than 14 sqrt(3) sigma_r, and `se3_exp`, which divides by the
# cube of that length, stays finite below this sigma_r
ROTATION_SIGMA_LIMIT = float(np.cbrt(sys.float_info.max)) / (14.0 * math.sqrt(3.0))


@dataclass(frozen=True)
class NoiseModel:
    sigma_t: float = 0.01                      # odometry translation noise, m
    sigma_r: float = math.radians(0.1)         # odometry rotation noise, rad

    def __post_init__(self):
        if not (self.sigma_t >= 0 and self.sigma_r >= 0):
            raise ValueError("noise sigmas must be >= 0")
        if not max(self.sigma_t, self.sigma_r) < math.inf:
            raise ValueError("noise sigmas must be finite")
        # `information` takes 1 / sigma^2, which is positive only while the square is finite
        if not max(self.sigma_t, self.sigma_r) < math.sqrt(sys.float_info.max):
            raise ValueError("noise sigmas must be below %.3g" % math.sqrt(sys.float_info.max))
        if not self.sigma_r < ROTATION_SIGMA_LIMIT:
            raise ValueError("rotation noise sigma must be below %.3g rad" % ROTATION_SIGMA_LIMIT)

    def information(self) -> np.ndarray:
        # rotation block first, matching the residual tangent ordering;
        # zero sigma degrades to a stiff but finite precision
        sr = max(self.sigma_r, 1e-6)
        st = max(self.sigma_t, 1e-6)
        return np.diag([1.0 / sr**2] * 3 + [1.0 / st**2] * 3)


@dataclass
class TwoSessionData:
    truth1: list[TrajectoryEntry]
    truth2: list[TrajectoryEntry]
    odometry1: Edges
    odometry2: Edges
    loops: Edges  # i: session-1 index, j: session-2 index
    scans1: list[CloudFrame] = field(default_factory=list)
    scans2: list[CloudFrame] = field(default_factory=list)


def _perturbed_relative(a: Pose, b: Pose, noise: NoiseModel, rng) -> Pose:
    true_rel = a.inverse() * b
    xi = np.concatenate([
        rng.normal(scale=noise.sigma_r, size=3) if noise.sigma_r > 0 else np.zeros(3),
        rng.normal(scale=noise.sigma_t, size=3) if noise.sigma_t > 0 else np.zeros(3),
    ])
    return true_rel * se3_exp(xi)


def generate_two_session(scene: Scene | None, paths, noise: NoiseModel = NoiseModel(),
                         seed: int = 0, n_loops: int = 10, loop_radius: float = 2.0,
                         scan_spec: ScanSpec | None = None) -> TwoSessionData:
    """Ground truth, perturbed odometry, and inter-session loops for two paths.

    Loops pair session-1 and session-2 poses whose true positions fall
    within `loop_radius`, spread evenly over the overlap; n_loops = 0 or no
    overlap yields an empty loop list. Scans are generated only when a
    ScanSpec is supplied (each frame gets its own derived seed).
    """
    path1, path2 = [list(p) for p in paths]
    if not path1 or not path2:
        raise ValueError("both paths must be non-empty")
    if n_loops < 0:
        raise ValueError("n_loops must be >= 0")
    rng = np.random.default_rng(seed)

    truth1 = [TrajectoryEntry(0.1 * k, p) for k, p in enumerate(path1)]
    truth2 = [TrajectoryEntry(0.1 * k, p) for k, p in enumerate(path2)]
    info = noise.information()

    def odometry(path):
        return Edges("odometry", range(len(path) - 1), range(1, len(path)),
                     [_perturbed_relative(a, b, noise, rng) for a, b in zip(path, path[1:])],
                     info)
    odometry1, odometry2 = odometry(path1), odometry(path2)

    candidates = []
    t1 = np.array([p.translation for p in path1])
    for j, pose2 in enumerate(path2):
        gaps = np.linalg.norm(t1 - np.asarray(pose2.translation), axis=1)
        i = int(np.argmin(gaps))
        if gaps[i] <= loop_radius:
            candidates.append((i, j))
    picks = []
    if candidates and n_loops > 0:
        picks = np.unique(np.linspace(0, len(candidates) - 1,
                                      min(n_loops, len(candidates))).astype(int))
    ends = [candidates[k] for k in picks]
    loops = Edges("loop", [i for i, _ in ends], [j for _, j in ends],
                  [_perturbed_relative(path1[i], path2[j], noise, rng) for i, j in ends], info)

    scans1, scans2 = [], []
    if scan_spec is not None:
        if scene is None:
            raise ValueError("scan generation needs a scene")
        for session, (path, out) in enumerate(((path1, scans1), (path2, scans2)), 1):
            for k, pose in enumerate(path):
                spec_k = replace(scan_spec, seed=scan_spec.seed + 100_000 * session + k)
                out.append(simulate_scan(scene, pose, spec_k, frame_index=k,
                                         timestamp=0.1 * k))
    return TwoSessionData(truth1, truth2, odometry1, odometry2, loops, scans1, scans2)


def compose_odometry(initial: Pose, odometry: Edges) -> list[Pose]:
    """Chain relative measurements from an initial pose; the usual estimate."""
    poses = [initial]
    for measurement in odometry.measurement:
        poses.append(poses[-1] * measurement)
    return poses


def build_session_graph(poses, odometry: Edges, session: int = 1) -> PoseGraph:
    """Nodes 0..n-1 at the given poses, joined by the odometry table."""
    graph = PoseGraph()
    for k, pose in enumerate(poses):
        graph.add_node(k, pose, session=session)
    graph.edges = odometry
    return graph
