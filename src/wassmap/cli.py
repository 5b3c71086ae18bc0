"""Command line front end.

Subcommands: keyframes, calibrate, merge, synth. Shared knobs resolve
with flag > config-file > built-in default precedence, and every command
echoes its effective configuration into the output directory so results are
reproducible from their artifacts alone.

Exit codes: 0 success, 1 usage or I/O error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from wassmap.geometry import Pose, Rotation
from wassmap.io import (
    ParseError,
    TrajectoryEntry,
    pair_frames,
    read_cloud_dir,
    read_edge_list,
    read_graph,
    read_tum,
    write_decisions_csv,
    write_edge_list,
    write_graph,
    write_pcd,
    write_tum,
)
from wassmap.keyframe import KeyframeSelector, SelectorConfig, keyframe_indices
from wassmap.pose_graph import (
    GaugeUnderdeterminedError,
    LMParams,
    merge_sessions,
    optimize,
)
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
from wassmap.wasserstein import InvalidCovarianceError

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError so
    # usage problems map to exit code 1 instead
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    tau: float = 0.5
    voxel_size: float = 4.0
    radius: float = 100.0
    estimator: str = "sample"
    min_points: int = 5
    agg: str = "affected"
    commit: str = "keyframes"
    seed: int = 0
    max_dt: float = 0.05

    def selector_config(self) -> SelectorConfig:
        policy = {"keyframes": "keyframes-only", "always": "always"}.get(self.commit)
        if policy is None:
            raise UsageError(f"unknown commit policy {self.commit!r}")
        return SelectorConfig(
            tau=self.tau,
            voxel_size=self.voxel_size,
            radius=self.radius,
            estimator=self.estimator,
            min_points=self.min_points,
            aggregation=self.agg,
            commit_policy=policy,
        )


def _read_config_file(path) -> dict:
    casts = {f.name: type(f.default) for f in fields(RunConfig)}
    out = {}
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in casts:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            out[key] = casts[key](value.strip())
        except ValueError:
            raise UsageError(f"{path}:{line_no}: bad value for {key}") from None
    return out


def resolve_config(args) -> RunConfig:
    """Layer defaults, config file, then flags; flags win."""
    values = {f.name: f.default for f in fields(RunConfig)}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for name in values:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return RunConfig(**values)


def _echo_config(out_dir: Path, command: str, cfg: RunConfig) -> None:
    lines = [f"command={command}"]
    lines += [f"{f.name}={getattr(cfg, f.name)}" for f in fields(RunConfig)]
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# keyframes / calibrate

def _run_selection(args, cfg: RunConfig):
    clouds = read_cloud_dir(args.clouds)
    if not clouds:
        raise UsageError(f"no .pcd files under {args.clouds}")
    trajectory = read_tum(args.trajectory)
    pairs, dropped = pair_frames(clouds, trajectory, max_dt=cfg.max_dt)
    selector = KeyframeSelector(cfg.selector_config())
    decisions = selector.run_sequence(
        (cloud.points, pose, cloud.timestamp) for cloud, pose in pairs
    )
    return decisions, dropped


def cmd_keyframes(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    decisions, dropped = _run_selection(args, cfg)
    _echo_config(out, "keyframes", cfg)

    write_decisions_csv(out / "decisions.csv", decisions)
    selected = keyframe_indices(decisions)
    (out / "keyframes.txt").write_text(
        "".join(f"{k}\n" for k in selected)
    )
    score_lines = ["frame,dw"]
    score_lines += ["%d,%.9g" % (d.frame_index, d.dw) for d in decisions]
    (out / "scores.csv").write_text("\n".join(score_lines) + "\n")

    errors = sum(d.flag == "error" for d in decisions)
    print(f"frames={len(decisions)} keyframes={len(selected)} dropped={dropped} "
          f"errors={errors}")
    print(f"wrote {out / 'decisions.csv'}")
    return 0


def cmd_calibrate(args) -> int:
    # score every frame against the always-updated map so the distribution
    # reflects self-distance, independent of any particular threshold
    cfg = dataclasses.replace(resolve_config(args), commit="always")
    out = _out_dir(args)
    decisions, _ = _run_selection(args, cfg)
    _echo_config(out, "calibrate", cfg)

    scores = np.array([d.dw for d in decisions
                       if d.flag == "scored" and math.isfinite(d.dw)])
    if len(scores) == 0:
        raise UsageError("insufficient frames: need at least two paired frames to score")
    quantiles = {
        "min": scores.min(),
        "p10": np.quantile(scores, 0.10),
        "p25": np.quantile(scores, 0.25),
        "median": np.quantile(scores, 0.50),
        "p75": np.quantile(scores, 0.75),
        "p90": np.quantile(scores, 0.90),
        "max": scores.max(),
    }
    suggested = quantiles["p90"]
    errors = sum(d.flag == "error" for d in decisions)
    lines = [f"scored={len(scores)}", f"errors={errors}"]
    lines += ["%s=%.9g" % (k, v) for k, v in quantiles.items()]
    lines.append("suggested_tau=%.9g" % suggested)
    (out / "calibration.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# merge

def _parse_t_init(values) -> Pose:
    if values is None:
        return Pose.identity()
    x, y, z, qx, qy, qz, qw = values
    try:
        rotation = Rotation(qw, qx, qy, qz)
    except ValueError as err:
        raise UsageError(f"bad --t-init quaternion: {err}") from None
    return Pose(rotation, (x, y, z))


def cmd_merge(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    _echo_config(out, "merge", cfg)

    graph1 = read_graph(args.graph)
    trajectory2 = read_tum(args.trajectory)
    odometry2 = read_edge_list(args.odometry)
    if args.loops and Path(args.loops).exists():
        loops = read_edge_list(args.loops)
    else:
        loops = []
        logger.warning("no loop file; sessions are tied only by the initial alignment")

    merged = merge_sessions(
        graph1,
        [entry.pose for entry in trajectory2],
        odometry2,
        loops,
        _parse_t_init(args.t_init),
        t_init_prior=args.t_init_prior,
    )
    params = LMParams(max_iterations=args.max_iterations)
    report = optimize(merged, params=params)

    write_graph(out / "merged.g2o", merged)
    session2 = [node for node in merged.nodes.values() if node.session == 2]
    session2.sort(key=lambda node: node.id)
    write_tum(out / "session2.tum",
              [TrajectoryEntry(entry.timestamp, node.pose)
               for entry, node in zip(trajectory2, session2)])
    lines = [
        f"iterations={report.iterations}",
        "initial_cost=%.9g" % report.initial_cost,
        "final_cost=%.9g" % report.final_cost,
        f"reason={report.reason}",
        f"accepted={report.accepted_steps} rejected={report.rejected_steps}",
        "cost_trace=" + " ".join("%.9g" % c for c in report.cost_trace),
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    print(f"nodes={len(merged.nodes)} edges={len(merged.edges)}")
    for line in lines[:4]:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    _echo_config(out, "synth", cfg)

    if args.kind in ("corridor", "room", "loop_course"):
        scene = generate_scene(args.kind)
        if args.kind == "loop_course":
            path = loop_path(n_frames=args.frames)
        else:
            length = 40.0 if args.kind == "corridor" else 10.0
            path = corridor_path(length, args.frames)
        clouds_dir = out / "clouds"
        clouds_dir.mkdir(exist_ok=True)
        entries = []
        for k, pose in enumerate(path):
            stamp = 0.1 * k
            spec = ScanSpec(args.max_range, args.noise, args.points,
                            seed=cfg.seed + k)
            cloud = simulate_scan(scene, pose, spec, frame_index=k, timestamp=stamp)
            write_pcd(clouds_dir / f"{stamp:012.6f}.pcd", cloud.points)
            entries.append(TrajectoryEntry(stamp, pose))
        write_tum(out / "trajectory.tum", entries)
        print(f"kind={args.kind} frames={len(path)} out={out}")
        return 0

    if args.kind == "two_session":
        paths = (corridor_path(40.0, args.frames, height=1.5),
                 corridor_path(40.0, args.frames, height=1.6))
        # rotation noise tracks translation noise unless set explicitly, so
        # --noise 0 really produces exact measurements
        if args.noise_rot is None:
            sigma_r = math.radians(10.0 * args.noise)
        else:
            sigma_r = math.radians(args.noise_rot)
        noise = NoiseModel(sigma_t=args.noise, sigma_r=sigma_r)
        data = generate_two_session(None, paths, noise, seed=cfg.seed,
                                    n_loops=args.loops)
        write_tum(out / "session1_truth.tum", data.truth1)
        write_tum(out / "session2_truth.tum", data.truth2)
        estimate1 = compose_odometry(data.truth1[0].pose, data.odometry1)
        write_graph(out / "session1.g2o",
                    build_session_graph(estimate1, data.odometry1, session=1))
        estimate2 = compose_odometry(data.truth2[0].pose, data.odometry2)
        write_tum(out / "session2_estimate.tum",
                  [TrajectoryEntry(e.timestamp, p)
                   for e, p in zip(data.truth2, estimate2)])
        write_edge_list(out / "session2_odometry.txt", data.odometry2)
        write_edge_list(out / "loops.txt", data.loops)
        print(f"kind=two_session frames={args.frames} loops={len(data.loops)} out={out}")
        return 0

    raise UsageError(f"unknown synth kind {args.kind!r}")


# ---------------------------------------------------------------------------
# wiring

def _add_shared_flags(sub):
    sub.add_argument("--voxel-size", dest="voxel_size", type=float, default=None)
    sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--radius", type=float, default=None)
    sub.add_argument("--estimator", choices=["sample", "population"], default=None)
    sub.add_argument("--min-points", dest="min_points", type=int, default=None)
    sub.add_argument("--agg", choices=["affected", "all", "mass"], default=None)
    sub.add_argument("--commit", choices=["keyframes", "always"], default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", default=None, help="key=value config file")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--max-dt", dest="max_dt", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wassmap", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    kf = commands.add_parser("keyframes", help="select keyframes from clouds + poses")
    kf.add_argument("--clouds", required=True, help="directory of .pcd files")
    kf.add_argument("--trajectory", required=True, help="poses in TUM format")
    _add_shared_flags(kf)
    kf.set_defaults(func=cmd_keyframes)

    cal = commands.add_parser("calibrate", help="score distribution and suggested tau")
    cal.add_argument("--clouds", required=True)
    cal.add_argument("--trajectory", required=True)
    _add_shared_flags(cal)
    cal.set_defaults(func=cmd_calibrate)

    mg = commands.add_parser("merge", help="merge a second session into a graph")
    mg.add_argument("--graph", required=True, help="session-1 graph file")
    mg.add_argument("--trajectory", required=True, help="session-2 estimate, TUM")
    mg.add_argument("--odometry", required=True, help="session-2 odometry edges")
    mg.add_argument("--loops", default=None, help="inter-session loop edges")
    mg.add_argument("--t-init", dest="t_init", type=float, nargs=7, default=None,
                    metavar=("X", "Y", "Z", "QX", "QY", "QZ", "QW"))
    mg.add_argument("--t-init-prior", dest="t_init_prior", action="store_true")
    mg.add_argument("--max-iterations", type=int, default=100)
    _add_shared_flags(mg)
    mg.set_defaults(func=cmd_merge)

    sy = commands.add_parser("synth", help="generate a synthetic dataset")
    sy.add_argument("--kind", default="corridor",
                    choices=["corridor", "room", "loop_course", "two_session"])
    sy.add_argument("--frames", type=int, default=40)
    sy.add_argument("--points", type=int, default=2000)
    sy.add_argument("--noise", type=float, default=0.01,
                    help="scan / odometry translation noise sigma, meters")
    sy.add_argument("--noise-rot", dest="noise_rot", type=float, default=None,
                    help="odometry rotation noise sigma, degrees; "
                         "defaults to 10 deg per meter of --noise")
    sy.add_argument("--max-range", dest="max_range", type=float, default=20.0)
    sy.add_argument("--loops", type=int, default=10)
    _add_shared_flags(sy)
    sy.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s",
                            stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except GaugeUnderdeterminedError as err:
        print(f"error: gauge underdetermined: {err}", file=sys.stderr)
        return 2
    except (InvalidCovarianceError, np.linalg.LinAlgError) as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return 2
    except (ParseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
