"""Command line front end.

Subcommands: keyframes, calibrate, merge, synth; each accepts only the
options it reads. The selector's settings (keyframes and calibrate) resolve
with flag > config-file > built-in default precedence, and every command
that succeeds writes each option it accepts but --out, as resolved, to
config.txt in the output directory, so results are reproducible from their
artifacts alone; a command that fails writes nothing.

Exit codes: 0 success, 1 usage or I/O error, 2 gauge underdetermined (merge).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import fields, replace
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
    read_pcd,
    read_tum,
    write_decisions_csv,
    write_edge_list,
    write_graph,
    write_pcd,
    write_tum,
)
from wassmap.keyframe import COMMIT_POLICIES, KeyframeSelector, SelectorConfig, keyframe_indices
from wassmap.pose_graph import Edges, GaugeUnderdeterminedError, merge_sessions, optimize
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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError so
    # usage problems map to exit code 1 instead
    def error(self, message):
        raise UsageError(message)


def _read_config_file(path, defaults: dict) -> dict:
    """key=value lines; each value is cast to the type of its key's default."""
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
        if key not in defaults:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            out[key] = type(defaults[key])(value.strip())
        except ValueError:
            raise UsageError(f"{path}:{line_no}: bad value for {key}") from None
    return out


def resolve_config(args):
    """Fill the selector's settings and pairing's `max_dt` that the command
    takes into `args` where no flag set them: from the config file, else the
    default. Returns `args`."""
    defaults = {f.name: f.default for f in fields(SelectorConfig)}
    defaults["max_dt"] = 0.05
    defaults = {name: value for name, value in defaults.items() if hasattr(args, name)}
    from_file = _read_config_file(args.config, defaults) if args.config is not None else {}
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, from_file.get(name, default))
    return args


def _out_dir(args) -> Path:
    """The output directory, created, with config.txt: the command, then each
    option it accepts but --out. A command calls it once it has read, checked
    and computed what it writes, so a failed command writes nothing."""
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"command={args.command}"]
    for name, value in vars(args).items():
        if name not in ("command", "func", "out"):
            if isinstance(value, list):
                value = " ".join(map(str, value))
            lines.append(f"{name}={value}")
    (out / "config.txt").write_text("\n".join(lines) + "\n")
    return out


# ---------------------------------------------------------------------------
# keyframes / calibrate

def _run_selection(args, **settings):
    """One decision per cloud under `args.clouds`, in time order. `settings`
    fix selector settings the command does not take as options."""
    resolve_config(args)
    clouds = read_cloud_dir(args.clouds)
    if not clouds:
        raise UsageError(f"no .pcd files under {args.clouds}")
    trajectory = read_tum(args.trajectory)
    poses = pair_frames([stamp for _, stamp in clouds], trajectory, max_dt=args.max_dt)
    taken = {f.name: getattr(args, f.name) for f in fields(SelectorConfig) if hasattr(args, f.name)}
    selector = KeyframeSelector(SelectorConfig(**taken, **settings))
    return selector.run_sequence(_read_frames(clouds, poses))


def _read_frames(clouds, poses):
    """(points, pose, timestamp) of each cloud, read only when its turn
    comes; an unpaired cloud is not read, and a read that fails takes the
    place of the points, as a `ParseError` naming the file, so that the frame
    gets an error row."""
    for (path, stamp), pose in zip(clouds, poses):
        points = None
        if pose is not None:
            try:
                points = read_pcd(path)
            except ParseError as err:
                points = err
            except OSError as err:  # a directory, a file without read permission
                points = ParseError(path, err.strerror or str(err))
        yield points, pose, stamp


def cmd_keyframes(args) -> int:
    decisions = _run_selection(args)
    out = _out_dir(args)
    write_decisions_csv(out / "decisions.csv", decisions)
    selected = keyframe_indices(decisions)
    (out / "keyframes.txt").write_text(
        "".join(f"{k}\n" for k in selected)
    )
    score_lines = ["frame,dw"]
    score_lines += ["%d,%.9g" % (d.frame_index, d.dw) for d in decisions]
    (out / "scores.csv").write_text("\n".join(score_lines) + "\n")

    errors = sum(d.flag == "error" for d in decisions)
    dropped = sum(d.flag == "unpaired" for d in decisions)
    print(f"frames={len(decisions)} keyframes={len(selected)} dropped={dropped} "
          f"errors={errors}")
    print(f"wrote {out / 'decisions.csv'}")
    return 0


def cmd_calibrate(args) -> int:
    # score every frame against the always-updated map so the distribution
    # reflects self-distance, independent of any particular threshold
    decisions = _run_selection(args, commit="always")
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
    (_out_dir(args) / "calibration.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


# ---------------------------------------------------------------------------
# merge

def _parse_t_init(values) -> Pose:
    if values is None:
        return Pose.identity()
    if not all(map(math.isfinite, values)):
        raise UsageError(f"non-finite --t-init value: {' '.join(map(str, values))}")
    x, y, z, qx, qy, qz, qw = values
    try:
        rotation = Rotation(qw, qx, qy, qz)
    except ValueError as err:
        raise UsageError(f"bad --t-init quaternion: {err}") from None
    return Pose(rotation, (x, y, z))


def cmd_merge(args) -> int:
    if args.max_iterations < 0:
        raise UsageError(f"negative --max-iterations: {args.max_iterations}")
    graph1 = read_graph(args.graph)
    trajectory2 = read_tum(args.trajectory)
    odometry2 = read_edge_list(args.odometry)
    if args.loops is not None and not Path(args.loops).exists():
        raise UsageError(f"loop file not found: {args.loops}")
    loops = read_edge_list(args.loops) if args.loops is not None else Edges()

    merged = merge_sessions(
        graph1,
        [entry.pose for entry in trajectory2],
        odometry2,
        loops,
        _parse_t_init(args.t_init),
        t_init_prior=args.t_init_prior,
    )
    report = optimize(merged, max_iterations=args.max_iterations)

    # the label `merge_sessions` gives the new session
    label = max(node.session for node in graph1.nodes.values()) + 1
    new = sorted((node for node in merged.nodes.values() if node.session == label),
                 key=lambda node: node.id)
    out = _out_dir(args)
    write_graph(out / "merged.g2o", merged)
    write_tum(out / f"session{label}.tum",
              [TrajectoryEntry(entry.timestamp, node.pose)
               for entry, node in zip(trajectory2, new)])
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
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if args.kind in ("corridor", "loop_course"):
        if args.frames < 1:
            raise UsageError("--frames must be >= 1")
        scene = generate_scene(args.kind)
        if args.kind == "loop_course":
            path = loop_path(n_frames=args.frames)
        else:
            path = corridor_path(40.0, args.frames)
        spec = ScanSpec(args.max_range, args.noise, args.points, seed=args.seed)
        # numpy's normal draws stay below 13.7 and a rotation puts at most
        # sqrt(3) of an offset on one axis, so 64 sigma bounds every coordinate
        bound = float(np.finfo(np.float32).max) / 64.0
        if not args.noise < bound:
            raise UsageError(f"--noise must be below {bound:.3g} m for the points to fit "
                             "a float32 PCD")
        out = _out_dir(args)
        clouds_dir = out / "clouds"
        clouds_dir.mkdir(exist_ok=True)
        entries = []
        for k, pose in enumerate(path):
            stamp = 0.1 * k
            cloud = simulate_scan(scene, pose, replace(spec, seed=args.seed + k),
                                  frame_index=k, timestamp=stamp)
            write_pcd(clouds_dir / f"{stamp:012.6f}.pcd", cloud.points)
            entries.append(TrajectoryEntry(stamp, pose))
        write_tum(out / "trajectory.tum", entries)
        print(f"kind={args.kind} frames={len(path)} out={out}")
        return 0

    if args.loops < 0:
        raise UsageError("--loops must be >= 0")
    paths = (corridor_path(40.0, args.frames, height=1.5),
             corridor_path(40.0, args.frames, height=1.6))
    # rotation noise tracks translation noise unless set explicitly, so
    # --noise 0 really produces exact measurements
    if args.noise_rot is None:
        sigma_r = math.radians(10.0 * args.noise)
    else:
        sigma_r = math.radians(args.noise_rot)
    noise = NoiseModel(sigma_t=args.noise, sigma_r=sigma_r)
    data = generate_two_session(None, paths, noise, seed=args.seed,
                                n_loops=args.loops)
    estimate1 = compose_odometry(data.truth1[0].pose, data.odometry1)
    estimate2 = compose_odometry(data.truth2[0].pose, data.odometry2)
    out = _out_dir(args)
    write_tum(out / "session1_truth.tum", data.truth1)
    write_tum(out / "session2_truth.tum", data.truth2)
    write_graph(out / "session1.g2o",
                build_session_graph(estimate1, data.odometry1, session=1))
    write_tum(out / "session2_estimate.tum",
              [TrajectoryEntry(e.timestamp, p)
               for e, p in zip(data.truth2, estimate2)])
    write_edge_list(out / "session2_odometry.txt", data.odometry2)
    write_edge_list(out / "loops.txt", data.loops)
    print(f"kind=two_session frames={args.frames} loops={len(data.loops)} out={out}")
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_selector_flags(sub, threshold: bool):
    """The inputs and selector settings; `--tau` and `--commit` only when
    the command reports keyframes (`threshold`)."""
    sub.add_argument("--clouds", required=True, help="directory of .pcd files")
    sub.add_argument("--trajectory", required=True, help="poses in TUM format")
    sub.add_argument("--voxel-size", dest="voxel_size", type=float, default=None)
    if threshold:
        sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--radius", type=float, default=None)
    sub.add_argument("--min-points", dest="min_points", type=int, default=None)
    if threshold:
        sub.add_argument("--commit", choices=COMMIT_POLICIES, default=None)
    sub.add_argument("--max-dt", dest="max_dt", type=float, default=None)
    sub.add_argument("--config", default=None, help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wassmap", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    kf = commands.add_parser("keyframes", help="select keyframes from clouds + poses")
    _add_selector_flags(kf, threshold=True)
    kf.set_defaults(func=cmd_keyframes)

    # calibrate commits every frame and reports no keyframe bit
    cal = commands.add_parser("calibrate", help="score distribution and suggested tau")
    _add_selector_flags(cal, threshold=False)
    cal.set_defaults(func=cmd_calibrate)

    mg = commands.add_parser("merge", help="merge a new session into a graph")
    mg.add_argument("--graph", required=True, help="session-1 graph file")
    mg.add_argument("--trajectory", required=True, help="session-2 estimate, TUM")
    mg.add_argument("--odometry", required=True, help="session-2 odometry edges")
    mg.add_argument("--loops", default=None, help="inter-session loop edges")
    mg.add_argument("--t-init", dest="t_init", type=float, nargs=7, default=None,
                    metavar=("X", "Y", "Z", "QX", "QY", "QZ", "QW"))
    mg.add_argument("--t-init-prior", dest="t_init_prior", action="store_true")
    mg.add_argument("--max-iterations", type=int, default=100)
    mg.set_defaults(func=cmd_merge)

    sy = commands.add_parser("synth", help="generate a synthetic dataset")
    sy.add_argument("--kind", default="corridor",
                    choices=["corridor", "loop_course", "two_session"])
    sy.add_argument("--frames", type=int, default=40)
    sy.add_argument("--points", type=int, default=2000)
    sy.add_argument("--noise", type=float, default=0.01,
                    help="scan / odometry translation noise sigma, meters")
    sy.add_argument("--noise-rot", dest="noise_rot", type=float, default=None,
                    help="odometry rotation noise sigma, degrees; "
                         "defaults to 10 deg per meter of --noise")
    sy.add_argument("--max-range", dest="max_range", type=float, default=20.0)
    sy.add_argument("--loops", type=int, default=10)
    sy.add_argument("--seed", type=int, default=0)
    sy.set_defaults(func=cmd_synth)

    for sub in (kf, cal, mg, sy):
        sub.add_argument("--out", default=None, help="output directory")
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
    except (ParseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
