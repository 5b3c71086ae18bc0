"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the AC-n PASS/FAIL
lines; without -s pytest still surfaces them for any failing criterion.
Every check here re-derives its expectation independently (closed forms,
finite differences, brute-force re-computation) rather than trusting the
code under test.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from wassmap.geometry import Pose, Rotation
from wassmap.io import ParseError, TrajectoryEntry, read_graph, read_pcd, read_tum, \
    stem_timestamp, write_pcd, write_tum
from wassmap.keyframe import KeyframeSelector, SelectorConfig, keyframe_indices, \
    replay_decisions
from wassmap.pose_graph import Edges, merge_sessions, optimize, \
    whitened_residual_and_jacobians
from wassmap.synth import NoiseModel, ScanSpec, build_session_graph, compose_odometry, \
    corridor_path, generate_scene, generate_two_session, loop_path, simulate_scan
from wassmap.voxel_map import GmmMap, moments
from wassmap.wasserstein import w2_batch

from helpers import (build_map, central_differences, evaluate_ate, pack, pose_matrix,
                     write_ascii_pcd)


@dataclass(frozen=True)
class GaussianComponent:
    mu: np.ndarray
    sigma: np.ndarray


def w2(g1: GaussianComponent, g2: GaussianComponent) -> float:
    return float(w2_batch(g1.mu[None], pack(g1.sigma[None]), g2.mu[None],
                          pack(g2.sigma[None]))[0])


def _finish(criterion: str, failures: list, detail: str) -> None:
    passed = not failures
    text = detail if passed else "; ".join(failures)
    print(f"{criterion} {'PASS' if passed else 'FAIL'}: {text}")
    assert passed, f"{criterion}: {text}"


def _spd(rng, dim=3, floor=0.05) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    return a @ a.T + floor * np.eye(dim)


def keys(grid) -> list[tuple[int, int, int]]:
    """Cell index (i, j, k) of each map row, in row order."""
    return [tuple(c) for c in grid.cells().astype(np.int64).tolist()]


def _voxel_gaussians(grid) -> dict:
    """Per-voxel (n, mean, sample covariance), the covariance None below 2 points."""
    # the mean that `moments` forms, taken here so that 1-point voxels have one too
    n = grid.sums[:, 0]
    mu = grid.sums[:, 1:4] / n[:, None] + grid.centres()
    sigma = [None] * len(grid)
    rows = np.flatnonzero(n >= 2)
    for r, cov in zip(rows, moments(grid.sums[rows])[1]):
        sigma[r] = cov
    return {key: (int(k), m, c) for key, k, m, c in zip(keys(grid), n, mu, sigma)}


def test_ac1_incremental_matches_batch():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    points = rng.uniform([0.0, 0.0, 0.0], [32.0, 32.0, 8.0], size=(10_000, 3))

    grid = GmmMap(voxel_size=4.0)
    for chunk in np.array_split(points, 20):
        grid.commit(grid.stage_frame(chunk))
    incremental = _voxel_gaussians(grid)
    batch = _voxel_gaussians(build_map(points, 4.0))

    failures = []
    if set(incremental) != set(batch):
        failures.append("voxel key sets differ between the two builds")
    worst_mu = worst_sig = 0.0
    for key, (n_ref, mu_ref, sig_ref) in batch.items():
        got = incremental.get(key)
        if got is None:
            continue
        n_got, mu_got, sig_got = got
        if n_got != n_ref:
            failures.append(f"point count differs in voxel {key}")
            continue
        mu_err = float(np.max(np.abs(mu_got - mu_ref)
                              / (1e-12 + np.abs(mu_ref))))
        worst_mu = max(worst_mu, mu_err)
        if n_ref >= 2:
            sig_err = float(np.max(np.abs(sig_got - sig_ref)
                                   / (1e-12 + np.abs(sig_ref))))
            worst_sig = max(worst_sig, sig_err)
    if worst_mu > 1e-9:
        failures.append(f"mean relative error {worst_mu:.3g} exceeds 1e-9")
    if worst_sig > 1e-9:
        failures.append(f"covariance relative error {worst_sig:.3g} exceeds 1e-9")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s budget")
    _finish("AC-1", failures,
            f"20 staged commits equal a one-shot build over {len(batch)} voxels "
            f"(n exact, worst mu rel err {worst_mu:.2g}, sigma {worst_sig:.2g}) "
            f"in {elapsed:.2f}s")


def test_ac2_wasserstein_closed_forms_and_metric_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    failures = []

    # (a) identical components are at distance zero
    worst = 0.0
    for _ in range(50):
        g = GaussianComponent(rng.normal(size=3), _spd(rng))
        worst = max(worst, abs(w2(g, g)))
    if worst > 1e-12:
        failures.append(f"identical-component distance {worst:.3g} > 1e-12")

    # (b) shared covariance reduces to the mean gap
    worst_b = 0.0
    for _ in range(200):
        sigma = _spd(rng)
        mu1, mu2 = rng.normal(size=3), rng.normal(size=3)
        d = w2(GaussianComponent(mu1, sigma), GaussianComponent(mu2, sigma))
        worst_b = max(worst_b, abs(d - float(np.linalg.norm(mu1 - mu2))))
    if worst_b > 1e-12:
        failures.append(f"equal-covariance deviation {worst_b:.3g} > 1e-12")

    # (c) commuting diagonal covariances have a closed form in the
    # square roots of the variances
    worst_c = 0.0
    for _ in range(200):
        a = rng.uniform(0.01, 4.0, size=3)
        b = rng.uniform(0.01, 4.0, size=3)
        mu = rng.normal(size=3)
        expected = math.sqrt(float(((np.sqrt(a) - np.sqrt(b)) ** 2).sum()))
        d = w2(GaussianComponent(mu, np.diag(a)), GaussianComponent(mu, np.diag(b)))
        worst_c = max(worst_c, abs(d - expected) / max(expected, 1e-12))
    if worst_c > 1e-9:
        failures.append(f"diagonal closed-form relative error {worst_c:.3g} > 1e-9")

    # (d) metric axioms on random triples
    bad_axioms = 0
    for _ in range(1000):
        comps = [GaussianComponent(rng.normal(scale=2.0, size=3), _spd(rng))
                 for _ in range(3)]
        dxy = w2(comps[0], comps[1])
        dyx = w2(comps[1], comps[0])
        dyz = w2(comps[1], comps[2])
        dxz = w2(comps[0], comps[2])
        if dxy < 0 or dyz < 0 or dxz < 0:
            bad_axioms += 1
        elif abs(dxy - dyx) > 1e-9 * (1.0 + dxy):
            bad_axioms += 1
        elif dxz > dxy + dyz + 1e-9:
            bad_axioms += 1
    if bad_axioms:
        failures.append(f"{bad_axioms}/1000 triples violate a metric axiom")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s budget")
    _finish("AC-2", failures,
            "zero self-distance (1e-12), mean-gap reduction (1e-12), diagonal "
            f"closed form (1e-9), metric axioms on 1000 triples, in {elapsed:.2f}s")


def _corridor_decisions(poses, seed_base, commit="always"):
    scene = generate_scene("corridor")
    config = SelectorConfig(tau=0.2, voxel_size=2.0, radius=1000.0,
                            commit=commit)
    selector = KeyframeSelector(config)
    decisions = []
    for k, pose in enumerate(poses):
        cloud = simulate_scan(
            scene, pose,
            ScanSpec(max_range=20.0, sigma=0.01, points_per_frame=2000,
                     seed=seed_base + k),
            frame_index=k)
        step = selector.process_frame if selector.bootstrapped else selector.bootstrap
        decisions.append(step(cloud.points, pose))
    return decisions


def test_ac3_selector_bootstrap_replay_and_stationary_floor():
    start = time.perf_counter()
    failures = []

    # moving sequence: commit-always makes the scores threshold-independent,
    # which is what replay re-thresholding assumes
    walk = _corridor_decisions(corridor_path(40.0, 30), seed_base=300)
    if not (walk[0].keyframe and not math.isfinite(walk[0].dw)):
        failures.append("first frame is not an unconditional keyframe")

    scores = [d.dw for d in walk if math.isfinite(d.dw)]
    grid = np.quantile(scores, np.linspace(0.05, 0.95, 10))
    sets = [set(keyframe_indices(replay_decisions(walk, float(tau))))
            for tau in grid]
    for lo, hi in zip(sets, sets[1:]):
        if not hi <= lo:
            failures.append("raising tau admitted a new keyframe")
            break
    if len(sets[0]) <= len(sets[-1]):
        failures.append("tau grid did not separate the keyframe sets")

    # stationary tail: the frame-2 score measures pure sensor noise against
    # a single-frame map, the largest self-distance the tail can produce
    still = _corridor_decisions([corridor_path(40.0, 30)[15]] * 50, seed_base=900)
    floor = still[1].dw
    if not (math.isfinite(floor) and floor > 0):
        failures.append(f"self-distance floor {floor} is not a positive number")
    else:
        replayed = replay_decisions(still, 1.05 * floor)
        extra = [d.frame_index for d in replayed[1:] if d.keyframe]
        if extra:
            failures.append(f"stationary frames {extra} still selected above the floor")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s budget")
    _finish("AC-3", failures,
            f"bootstrap keyframe, nested replay sets over a 10-value tau grid "
            f"({len(sets[0])} down to {len(sets[-1])} keyframes), stationary tail "
            f"silent above the {floor:.4f} floor, in {elapsed:.2f}s")


def test_ac4_revisit_coverage_has_no_new_voxels():
    scene = generate_scene("loop_course", (30.0, 4.0, 3.0), density=100.0)
    poses = loop_path(n_frames=30, laps=2)
    config = SelectorConfig(tau=0.05, voxel_size=2.0, radius=1000.0,
                            commit="always")
    selector = KeyframeSelector(config)
    decisions = []
    for k, pose in enumerate(poses):
        cloud = simulate_scan(scene, pose, ScanSpec(100.0, 0.0, 4000, seed=21 + k),
                              frame_index=k)
        step = selector.process_frame if selector.bootstrapped else selector.bootstrap
        decisions.append(step(cloud.points, pose))

    second_lap = decisions[30:]
    leaks = [d.frame_index for d in second_lap if d.new_count != 0]
    failures = []
    if leaks:
        failures.append(f"revisit frames {leaks} observed voxels missing from the map")
    _finish("AC-4", failures,
            f"all {len(second_lap)} second-lap frames fully covered by the "
            "first-lap map (new_count 0)")


def test_ac5_two_session_merge_recovers_alignment():
    start = time.perf_counter()
    failures = []
    paths = (corridor_path(40.0, 200, height=1.5),
             corridor_path(40.0, 200, height=1.6))
    noise = NoiseModel(sigma_t=0.01, sigma_r=math.radians(0.1))
    data = generate_two_session(None, paths, noise=noise, seed=505,
                                n_loops=10, loop_radius=2.0)
    if len(data.loops) != 10:
        failures.append(f"scenario produced {len(data.loops)} loops instead of 10")

    truth1 = [e.pose for e in data.truth1]
    truth2 = [e.pose for e in data.truth2]
    graph1 = build_session_graph(truth1, data.odometry1, session=1)

    # both paths live in the same world frame, so the true alignment is the
    # identity; offset it by exactly 0.5 m and 5 degrees
    axis = np.array([0.3, -0.5, 0.8])
    axis /= np.linalg.norm(axis)
    shift = np.array([1.0, -1.0, 0.5])
    shift *= 0.5 / np.linalg.norm(shift)
    t_init = Pose(Rotation.from_rotvec(axis * math.radians(5.0)), shift)

    estimate2 = compose_odometry(truth2[0], data.odometry2)
    pre_ate = evaluate_ate([t_init * p for p in estimate2], truth2)

    merged = merge_sessions(graph1, estimate2, data.odometry2, data.loops, t_init)
    report = optimize(merged)

    offset = max(graph1.nodes) + 1
    post = [merged.nodes[offset + k].pose for k in range(len(truth2))]
    post_ate = evaluate_ate(post, truth2)

    if post_ate >= 0.05:
        failures.append(f"post-merge ATE {post_ate:.4f} m is not below 0.05 m")
    if post_ate >= 0.2 * pre_ate:
        failures.append(
            f"post-merge ATE {post_ate:.4f} m is not below 20% of {pre_ate:.4f} m")
    trace = np.asarray(report.cost_trace)
    if np.any(np.diff(trace) > 1e-9 * max(1.0, trace[0])):
        failures.append("robust cost increased across an accepted step")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s budget")
    _finish("AC-5", failures,
            f"200+200-node merge: ATE {pre_ate:.3f} m down to {post_ate:.4f} m "
            f"in {report.iterations} iterations, cost trace non-increasing, "
            f"in {elapsed:.1f}s")


def test_ac6_whitened_jacobians_match_finite_differences():
    rng = np.random.default_rng(606)
    step = 1e-4
    worst = 0.0
    for case in range(100):
        base = {k: Pose(Rotation.from_rotvec(rng.normal(scale=0.8, size=3)),
                        rng.normal(scale=2.0, size=3)) for k in (0, 1)}
        info = _spd(rng, dim=6, floor=6.0)
        measurement = Pose(Rotation.from_rotvec(rng.normal(scale=0.3, size=3)),
                           rng.normal(scale=2.0, size=3))
        if case % 3 == 2:
            edge = Edges("prior", [0], [None], [measurement], info)
        else:
            kind = "odometry" if case % 3 == 0 else "loop"
            edge = Edges(kind, [0], [1], [measurement], info)

        _, jacs = whitened_residual_and_jacobians(edge, base)
        fds = central_differences(edge, base, step)
        assert fds.keys() == jacs.keys()
        for nid, jac in jacs.items():
            fd = fds[nid]
            ratio = float(np.max(np.abs(jac - fd) / (1e-8 + 1e-5 * np.abs(fd))))
            worst = max(worst, ratio)

    failures = []
    if worst > 1.0:
        failures.append(
            f"analytic Jacobian off by {worst:.2f}x the 1e-5 relative budget")
    _finish("AC-6", failures,
            f"100 random edges: analytic whitened Jacobians within 1e-5 relative "
            f"of central differences (worst margin ratio {worst:.3f})")


def test_ac7_realtime_benchmark_soft_target():
    # timing is reported, never gated: only the workload sizes and the frame
    # flags are hard requirements, so a loaded CI box cannot flake this
    # criterion. The selector itself is timed: a 300k-point bootstrap map,
    # then 50k-point frames that each stage, score, commit and prune.
    rng = np.random.default_rng(7)
    base_cloud = rng.uniform([0.0, 0.0, 0.0], [160.0, 160.0, 40.0], size=(300_000, 3))
    frames = [(base_cloud, Pose.identity(), 0.0)]
    for k in range(5):
        lo = np.array([10.0 + 3.0 * k, 50.0, 0.0])
        frames.append((rng.uniform(lo, lo + [50.0, 50.0, 40.0], size=(50_000, 3)),
                       Pose.identity(), 0.1 * (k + 1)))
    selector = KeyframeSelector(SelectorConfig(tau=0.5, voxel_size=4.0, radius=1000.0,
                                               commit="always"))
    decisions = selector.run_sequence(frames)

    failures = []
    map_voxels = decisions[0].new_count
    if map_voxels < 10_000:
        failures.append(f"map holds {map_voxels} voxels, below 10k")
    if any(len(points) != 50_000 for points, _, _ in frames[1:]):
        failures.append("frame size drifted from 50k points")
    flags = [d.flag for d in decisions[1:]]
    if flags != ["scored"] * 5:
        failures.append(f"frames after bootstrap flagged {flags}, expected 5 scored")
    scored_ms = [d.millis for d in decisions if d.flag == "scored"]
    median_ms = float(np.median(scored_ms)) if scored_ms else math.nan
    met = "met" if median_ms < 100.0 else "MISSED (reported, not gated)"
    _finish("AC-7", failures,
            f"median frame {median_ms:.1f} ms for 50k points "
            f"against a {map_voxels}-voxel map; 100 ms soft target {met}")


def test_ac8_io_round_trips_and_fuzzed_parsers(tmp_path):
    rng = np.random.default_rng(808)
    failures = []

    # binary cloud: write -> read -> write reproduces the file byte for byte
    points = rng.uniform(-50.0, 50.0, size=(500, 3))
    first = tmp_path / "031.500000.pcd"
    second = tmp_path / "raw.pcd"
    write_pcd(first, points)
    write_pcd(second, read_pcd(first))
    if first.read_bytes() != second.read_bytes():
        failures.append("binary cloud round trip is not byte-identical")
    if stem_timestamp(first) != 31.5:
        failures.append("cloud timestamp not recovered from the file name")

    # trajectory: poses survive a write/read cycle to within renormalization
    entries = []
    for k in range(60):
        pose = Pose(Rotation.from_rotvec(rng.normal(scale=0.8, size=3)),
                    rng.normal(scale=10.0, size=3))
        entries.append(TrajectoryEntry(0.1 * k, pose))
    traj = tmp_path / "traj.tum"
    write_tum(traj, entries)
    worst = 0.0
    for got, ref in zip(read_tum(traj), entries):
        worst = max(worst, float(np.max(np.abs(
            pose_matrix(got.pose) - pose_matrix(ref.pose)))))
    if worst > 1e-12:
        failures.append(f"trajectory round trip error {worst:.3g} exceeds 1e-12")

    # fuzz: random blobs and mutations of valid files must either parse or
    # raise the structured error, never anything else
    graph_file = tmp_path / "g.g2o"
    graph_file.write_text(
        "VERTEX_SE3:QUAT 0 0 0 0 0 0 0 1\n"
        "VERTEX_SE3:QUAT 1 1 0 0 0 0 0 1\n"
        "EDGE_SE3:QUAT 0 1 1 0 0 0 0 0 1 "
        + " ".join(["1" if r == c else "0"
                    for r in range(6) for c in range(r, 6)]) + "\n")
    ascii_cloud = tmp_path / "a.pcd"
    write_ascii_pcd(ascii_cloud, points[:20])
    seeds = [first.read_bytes(), ascii_cloud.read_bytes(),
             traj.read_bytes(), graph_file.read_bytes()]

    crashes = 0
    target = tmp_path / "fuzz.bin"
    readers = (read_pcd, read_tum, read_graph)
    for case in range(120):
        if case < 40:
            blob = rng.integers(0, 256, size=int(rng.integers(1, 400)),
                                dtype=np.uint8).tobytes()
        else:
            blob = bytearray(seeds[case % len(seeds)])
            for _ in range(int(rng.integers(1, 6))):
                op = rng.integers(0, 3)
                if op == 0 and len(blob) > 2:
                    blob = blob[:rng.integers(1, len(blob))]
                elif op == 1 and len(blob) > 0:
                    blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
                else:
                    pos = int(rng.integers(0, len(blob) + 1))
                    blob = blob[:pos] + b"\x00garbage 1e999 " + blob[pos:]
            blob = bytes(blob)
        target.write_bytes(blob)
        for reader in readers:
            try:
                reader(target)
            except ParseError:
                pass
            except Exception as exc:
                crashes += 1
                failures.append(
                    f"case {case} {reader.__name__}: {type(exc).__name__}: {exc}")
                break
        if crashes >= 3:
            break
    _finish("AC-8", failures,
            "binary cloud and trajectory round trips exact; 120 fuzz cases x 3 "
            "parsers raised only structured parse errors")
