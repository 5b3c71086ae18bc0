"""Benchmark of `wassmap keyframes` and `wassmap merge`, end to end and per layer.

    python3 perfbench/run.py --workload kf_select --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from
`src/`. One process runs one workload: it pins BLAS and OpenMP to one
thread, generates the workload's inputs from the seed, warms up, then calls
the real command line entry point (`wassmap.cli.main`) in a loop for the
given number of seconds. Outputs are checked apart from the program (see
`checks.py`) after the timed region. The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones. With `--trace 1`,
untraced and traced commands alternate; the traced ones record spans (see
`spans.py`) from which the per-layer metrics are derived, the spans go to
`perfbench/work/spans-<workload>-seed<seed>.csv`, and the tracing overhead
is the traced command time over the untraced one.
"""

import os
import sys
import time

T0 = time.perf_counter()
# must precede the first numpy import: OpenBLAS would otherwise start one
# thread per core, and timings would depend on what else those cores run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

SETUP_REPEATS = 3
WARM_FRAMES = 8
CHECK_SAMPLE = 3          # scored frames whose dw is recomputed per run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["kf_select", "kf_churn", "merge"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def workloads(gen):
    return {
        # read path: few frames clear tau, so commit does almost nothing and
        # the map stays small; stage and score dominate each frame
        "kf_select": gen.KeyframeInputs(frames_per_lap=120, laps=1, points=20_000,
                                        voxel_size=0.5, tau=0.1, radius=100.0,
                                        commit="keyframes"),
        # write path: every frame commits and the 10 m radius is smaller than
        # the 30 m course, so voxels leave the map and come back each lap
        "kf_churn": gen.KeyframeInputs(frames_per_lap=60, laps=2, points=20_000,
                                       voxel_size=0.5, tau=0.1, radius=10.0,
                                       commit="always"),
        # a fixed LM budget makes every seed do the same number of
        # iterations; 300 free nodes make the dense solve a real share
        "merge": gen.MergeInputs(nodes1=100, nodes2=300, loops=10, max_iterations=6),
    }


def percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values):
    return float(statistics.median(values)) if values else 0.0


def yardstick_ms() -> float:
    """Median time of a fixed numpy kernel, to show core-speed drift in logs."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20_000, 3, 3))
    batch = a @ np.swapaxes(a, -1, -2)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.linalg.eigh(batch)
        times.append(1e3 * (time.perf_counter() - start))
    return median(times)


class Workload:
    """Inputs, one command line, and the checks of one workload."""

    def __init__(self, name, spec, seed, work, gen, checks):
        self.spec, self.seed, self.gen, self.checks = spec, seed, gen, checks
        self.kf = name.startswith("kf_")
        self.inputs = work / "inputs"
        self.warm = work / "warm"

    def setup(self, cli) -> None:
        """Generate the inputs and run a short warm-up command."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        shutil.rmtree(self.warm, ignore_errors=True)
        if self.kf:
            self.gen.write_keyframe_inputs(self.spec, self.seed, self.inputs / "clouds",
                                           self.inputs / "trajectory.tum", self.warm,
                                           WARM_FRAMES)
            argv = self.spec.cli_args(self.warm / "clouds", self.warm / "trajectory.tum",
                                      self.warm / "out")
        else:
            self.gen.write_merge_inputs(self.spec, self.seed, self.inputs)
            one_step = dataclasses.replace(self.spec, max_iterations=1)
            argv = one_step.cli_args(self.inputs, self.warm / "out")
        if run_command(cli.main, argv) != 0:
            raise RuntimeError("warm-up command failed")

    def argv(self, out: Path) -> list[str]:
        if self.kf:
            return self.spec.cli_args(self.inputs / "clouds", self.inputs / "trajectory.tum", out)
        return self.spec.cli_args(self.inputs, out)

    def clouds(self) -> list[Path]:
        return sorted((self.inputs / "clouds").glob("*.pcd"), key=lambda p: float(p.stem))

    def input_bytes(self) -> int:
        if self.kf:
            files = self.clouds() + [self.inputs / "trajectory.tum"]
        else:
            files = [self.inputs / n for n in ("session1.g2o", "session2_estimate.tum",
                                               "session2_odometry.txt", "loops.txt")]
        return sum(p.stat().st_size for p in files)

    def decided(self, out: Path) -> int:
        """Operations of one command that ended with a result."""
        if self.kf:
            path = out / "decisions.csv"
            return len(path.read_text().splitlines()) - 1 if path.exists() else 0
        return 1 if (out / "report.txt").exists() else 0

    def check(self, outs: list[Path]) -> list[str]:
        """Check the first output in full, the others for equality with it."""
        import numpy as np
        spec, first = self.spec, outs[0]
        if self.kf:
            failures = self.checks.check_keyframes(
                self.clouds(), self.inputs / "trajectory.tum", first, spec.tau,
                spec.voxel_size, spec.radius, spec.commit == "always",
                np.random.default_rng(self.seed), CHECK_SAMPLE)
            same = ["keyframes.txt", "scores.csv"]
        else:
            failures = self.checks.check_merge(self.inputs, first, spec.t_init())
            same = ["merged.g2o", "session2.tum", "report.txt"]
        for out in outs[1:]:
            for name in same:
                if (out / name).read_bytes() != (first / name).read_bytes():
                    failures.append(f"{out.name}/{name} differs from {first.name}/{name}")
        return failures


def run_command(main, argv) -> int:
    """One command through `main`; an escaping exception counts as a failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except Exception:
            traceback.print_exc()
            return -1


def install_tracer(tracer, modules):
    cli, keyframe, voxel_map, geometry, pose_graph = modules
    for name in ("read_cloud_dir", "read_tum", "pair_frames", "write_decisions_csv",
                 "read_graph", "read_edge_list", "write_graph", "write_tum"):
        tracer.patch(cli, name, f"io.{name}")
    tracer.patch(cli, "merge_sessions", "pose_graph.merge_sessions",
                 keep=lambda a, graph: sum(not n.fixed for n in graph.nodes.values()))
    tracer.patch(cli, "optimize", "pose_graph.optimize", keep=lambda a, report: report)
    tracer.patch(pose_graph, "whitened_residual_and_jacobians", "pose_graph.linearize")
    tracer.patch(pose_graph, "robust_cost", "pose_graph.robust_cost")
    selector = keyframe.KeyframeSelector
    tracer.patch(selector, "run_sequence", "keyframe.run_sequence")
    tracer.patch(selector, "bootstrap", "keyframe.bootstrap")
    tracer.patch(selector, "process_frame", "keyframe.process_frame",
                 keep=lambda a, decision: (decision, len(a[0].map)))
    tracer.patch(keyframe, "map_dissimilarity", "wasserstein.map_dissimilarity")
    grid = voxel_map.GmmMap
    tracer.patch(grid, "insert_points", "voxel_map.insert_points")
    tracer.patch(grid, "stage_frame", "voxel_map.stage_frame")
    tracer.patch(grid, "commit", "voxel_map.commit")
    tracer.patch(grid, "prune_outside", "voxel_map.prune_outside", keep=lambda a, n: n)
    tracer.patch(geometry.Pose, "transform_points", "geometry.transform_points")
    tracer.patch(geometry.Rotation, "rotate", "geometry.rotate", counter=True)


def layer_metrics(tr, mains, rotate, overhead_pct, input_bytes):
    """Per-layer metrics from the spans of the traced commands.

    `mains` holds the index of each traced command's `cli.main` span; the
    command's other spans follow it up to the next one. `rotate` holds
    (calls, seconds) of `Rotation.rotate` per traced command. Per-command
    quantities are medians over the traced commands; `_p50` quantities are
    medians over every call in them.
    """
    selves = tr.self_times()
    ends = mains[1:] + [len(tr.names)]
    per_cmd = [range(m + 1, end) for m, end in zip(mains, ends)]

    def calls(name):
        return [i for spans_ in per_cmd for i in spans_ if tr.names[i] == name]

    def cmd_sum(name, value=tr.duration):
        return [sum(value(i) for i in spans_ if tr.names[i] == name) for spans_ in per_cmd]

    def cmd_ms(name, value=tr.duration):
        return median([1e3 * v for v in cmd_sum(name, value)])

    def p50_ms(name):
        return median([1e3 * tr.duration(i) for i in calls(name)])

    def count(name):
        return median(cmd_sum(name, lambda i: 1))

    def ratio(num, den):
        return median([a / b for a, b in zip(num, den) if b]) if any(den) else 0.0

    frames = calls("keyframe.process_frame")
    decisions = [[tr.kept[i][0] for i in spans_ if tr.names[i] == "keyframe.process_frame"]
                 for spans_ in per_cmd]
    staged = [sum(d.affected_count + d.new_count + d.skipped_count for d in ds)
              for ds in decisions]
    new = [sum(d.new_count for d in ds) for ds in decisions]
    compared = [sum(d.affected_count for d in ds) for ds in decisions]
    keyframes = [sum(d.keyframe for d in ds) + n
                 for ds, n in zip(decisions, cmd_sum("keyframe.bootstrap", lambda i: 1))]
    reads = [sum(v) for v in zip(*(cmd_sum(f"io.{n}") for n in
                                   ("read_cloud_dir", "read_tum", "read_graph", "read_edge_list")))]
    reports = [tr.kept[i] for i in calls("pose_graph.optimize")]
    free = [tr.kept[i] for i in calls("pose_graph.merge_sessions")]

    return {
        "io.read_cloud_dir_ms": (cmd_ms("io.read_cloud_dir"), "ms"),
        "io.read_mb_per_s": (median([input_bytes / 1e6 / s for s in reads if s > 0]), "MB/s"),
        "io.pair_frames_ms": (cmd_ms("io.pair_frames"), "ms"),
        "io.write_decisions_ms": (cmd_ms("io.write_decisions_csv"), "ms"),
        "io.read_graph_ms": (cmd_ms("io.read_graph"), "ms"),
        "io.write_graph_ms": (cmd_ms("io.write_graph"), "ms"),
        "geometry.transform_ms_p50": (p50_ms("geometry.transform_points"), "ms"),
        "geometry.rotate_calls": (median([c for c, _ in rotate]), "count"),
        "geometry.rotate_ms": (median([1e3 * s for _, s in rotate]), "ms"),
        "voxel_map.stage_ms_p50": (p50_ms("voxel_map.stage_frame"), "ms"),
        "voxel_map.commit_ms_p50": (p50_ms("voxel_map.commit"), "ms"),
        "voxel_map.prune_ms_p50": (p50_ms("voxel_map.prune_outside"), "ms"),
        "voxel_map.voxels_staged": (median(staged), "count"),
        "voxel_map.new_voxel_ratio": (ratio(new, staged), "ratio"),
        "voxel_map.voxels_pruned": (median(cmd_sum("voxel_map.prune_outside",
                                                   lambda i: tr.kept[i])), "count"),
        "voxel_map.map_voxels_p50": (median([tr.kept[i][1] for i in frames]), "count"),
        "wasserstein.score_ms_p50": (p50_ms("wasserstein.map_dissimilarity"), "ms"),
        "wasserstein.us_per_voxel": (ratio([1e6 * s for s in cmd_sum(
            "wasserstein.map_dissimilarity")], compared), "us"),
        "wasserstein.voxels_compared": (median(compared), "count"),
        "keyframe.self_ms_p50": (median([1e3 * selves[i] for i in frames]), "ms"),
        "keyframe.commit_ratio": (ratio(cmd_sum("voxel_map.commit", lambda i: 1),
                                        cmd_sum("voxel_map.stage_frame", lambda i: 1)), "ratio"),
        "keyframe.keyframes": (median(keyframes), "count"),
        "cli.self_ms": (median([1e3 * selves[m] for m in mains]), "ms"),
        "pose_graph.merge_sessions_ms": (cmd_ms("pose_graph.merge_sessions"), "ms"),
        "pose_graph.linearize_ms": (cmd_ms("pose_graph.linearize"), "ms"),
        "pose_graph.cost_ms": (cmd_ms("pose_graph.robust_cost"), "ms"),
        "pose_graph.optimize_self_ms": (cmd_ms("pose_graph.optimize", lambda i: selves[i]), "ms"),
        "pose_graph.edges_linearized": (count("pose_graph.linearize"), "count"),
        "pose_graph.cost_evals": (count("pose_graph.robust_cost"), "count"),
        "pose_graph.iterations": (median([r.iterations for r in reports]), "count"),
        "pose_graph.step_accept_ratio": (median([
            r.accepted_steps / max(r.accepted_steps + r.rejected_steps, 1)
            for r in reports]), "ratio"),
        # computed, not measured: one dense (6 * free nodes)^2 float64 matrix
        "pose_graph.hessian_mb": (median([(6 * n) ** 2 * 8 / 1e6 for n in free]), "MB"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wassmap" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a wassmap checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from wassmap import cli, geometry, keyframe, pose_graph, voxel_map

    import checks
    import gen
    import spans
    import_s = time.perf_counter() - T0

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    spec = workloads(gen)[args.workload]
    wl = Workload(args.workload, spec, args.seed, work, gen, checks)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(cli)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + median(setup_times)
        yard_before = yardstick_ms()

        tracer = spans.Tracer()
        modules = (cli, keyframe, voxel_map, geometry, pose_graph)
        frame_timer = spans.Tracer()   # one span per frame in untraced commands
        untraced_s, traced_s, mains, rotate, outs, done = [], [], [], [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while not outs or time.perf_counter() - start < args.seconds or (
                args.trace and not traced_s):
            out = work / f"out-{len(outs)}"
            traced = bool(args.trace) and len(outs) % 2 == 1
            if traced:
                install_tracer(tracer, modules)
                mains.append(len(tracer.names))
                call = tracer.span("cli.main", cli.main)
                rotate_before = (tracer.calls["geometry.rotate"],
                                 tracer.seconds["geometry.rotate"])
            else:
                frame_timer.patch(keyframe.KeyframeSelector, "process_frame", "frame")
                call = cli.main
            t = time.perf_counter()
            rc = run_command(call, wl.argv(out))
            (traced_s if traced else untraced_s).append(time.perf_counter() - t)
            if traced:
                tracer.unpatch()
                rotate.append((tracer.calls["geometry.rotate"] - rotate_before[0],
                               tracer.seconds["geometry.rotate"] - rotate_before[1]))
            else:
                frame_timer.unpatch()
            ops = spec.frames if wl.kf else 1
            attempted += ops
            failed += ops - (wl.decided(out) if rc == 0 else 0)
            outs.append(out)
            if rc == 0:
                done.append(out)
        yard_after = yardstick_ms()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = wl.check(done) if done else ["no command succeeded"]
        print(f"workload={args.workload} seed={args.seed} {spec}")
        print("setup_s runs: " + " ".join("%.3f" % s for s in setup_times)
              + " import_s=%.3f" % import_s)
        print("command_s untraced: " + " ".join("%.3f" % s for s in untraced_s))
        if traced_s:
            print("command_s traced: " + " ".join("%.3f" % s for s in traced_s))
        print("yardstick eigh_ms before=%.2f after=%.2f" % (yard_before, yard_after))
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if failures:
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 1

        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_path, start)
            print(f"spans: {spans_path.relative_to(HERE.parent)} ({len(tracer.names)} spans)")
            overhead = 100.0 * (median(traced_s) / median(untraced_s) - 1.0)
            values = layer_metrics(tracer, mains, rotate, overhead, wl.input_bytes())
        else:
            ops_s = ([frame_timer.duration(i) for i in range(len(frame_timer.names))]
                     if wl.kf else untraced_s)
            values = {
                "setup_s": (setup_s, "s"),
                "frames_per_s": (spec.frames * len(untraced_s) / sum(untraced_s), "frames/s"),
                "op_ms_p50": (1e3 * percentile(ops_s, 50), "ms"),
                "op_ms_p90": (1e3 * percentile(ops_s, 90), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            print(f"op samples: {len(ops_s)}")
        for name, (value, unit) in values.items():
            print(f"{name} = {value:.6g} {unit}")
        print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in values.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
