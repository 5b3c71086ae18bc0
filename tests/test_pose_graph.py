import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wassmap
from wassmap.geometry import Pose, Rotation, se3_exp, stack_poses
from wassmap.pose_graph import (
    EdgeError,
    Edges,
    GaugeUnderdeterminedError,
    PRIOR_INFORMATION,
    PoseGraph,
    merge_sessions,
    optimize,
    robust_cost,
    whitened_residual_and_jacobians,
    _Problem,
    _residuals,
    _robust,
)

from helpers import central_differences, evaluate_ate, log_pose, pose_matrix, session_ids


def random_pose(rng, rot_scale=0.8, trans_scale=2.0) -> Pose:
    return Pose(
        Rotation.from_rotvec(rng.normal(scale=rot_scale, size=3)),
        rng.normal(scale=trans_scale, size=3),
    )


def random_info(rng) -> np.ndarray:
    a = rng.normal(size=(6, 6))
    return a @ a.T + 6.0 * np.eye(6)


def poses_close(a: Pose, b: Pose, tol=1e-6) -> bool:
    return np.abs(pose_matrix(a) - pose_matrix(b)).max() < tol


def edge(kind, i, j, measurement, information=np.eye(6), kernel=None, delta=1.0) -> Edges:
    """A one-row table; j is None for a prior."""
    return Edges(kind, [i], [j], [measurement], information, kernel, delta)


def odometry_chain(measurements, information=np.eye(6)) -> Edges:
    """Odometry rows (k, k + 1) carrying the given measurements."""
    n = len(measurements)
    return Edges("odometry", range(n), range(1, n + 1), measurements, information)


def test_edge_validation():
    graph = PoseGraph()
    graph.add_node(0, Pose.identity())
    with pytest.raises(ValueError):
        graph.add_node(0, Pose.identity())
    graph.edges = edge("odometry", 0, 5, Pose.identity())
    graph.nodes[0].fixed = True
    with pytest.raises(ValueError, match="^edge row 0 references a missing node$"):
        optimize(graph)


def _asymmetric():
    info = np.eye(6)
    info[0, 1] = 0.5
    return info


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a non-finite row warns nowhere
@pytest.mark.parametrize("row, detail", [
    (dict(kind="teleport"), "unknown edge kind 'teleport'"),
    (dict(kernel="cauchy"), "unknown kernel 'cauchy'"),
    (dict(kernel="huber", delta=0.0), "huber delta must be positive"),
    (dict(kernel="huber", delta=-1.0), "huber delta must be positive"),
    (dict(kind="prior"), "prior edges take one endpoint, others take two"),
    (dict(j=None), "prior edges take one endpoint, others take two"),
    (dict(information=np.eye(5)), "information must be 6x6"),
    (dict(information=_asymmetric()), "information matrix not symmetric"),
    (dict(information=-np.eye(6)), "information matrix not positive definite"),
    (dict(kernel="huber", delta=np.nan), "huber delta must be positive"),
    (dict(information=np.where(np.eye(6) > 0, np.nan, 0.0)), "information matrix not finite"),
    (dict(information=np.where(np.eye(6) > 0, np.inf, 0.0)), "information matrix not finite"),
])
def test_edge_table_rejects_bad_rows(row, detail):
    # the bad row sits between good ones; the table names it and keeps the
    # per-edge message
    good = dict(kind="odometry", j=1, information=np.eye(6), kernel=None, delta=1.0)
    bad = {**good, **row}
    rows = [good, bad, good]
    if bad["information"].shape != (6, 6):
        infos = bad["information"]   # one matrix for all rows, so every row is bad
        expected_row = 0
    else:
        infos = [r["information"] for r in rows]
        expected_row = 1
    with pytest.raises(EdgeError) as err:
        Edges([r["kind"] for r in rows], [0, 0, 0], [r["j"] for r in rows],
              [Pose.identity()] * 3, infos, [r["kernel"] for r in rows],
              [r["delta"] for r in rows])
    assert (err.value.row, err.value.detail) == (expected_row, detail)
    assert str(err.value) == f"edge row {expected_row}: {detail}"


def test_edge_table_reports_the_first_bad_row_and_check():
    infos = [np.eye(6), -np.eye(6), np.eye(6), np.eye(6)]
    with pytest.raises(EdgeError) as err:
        Edges(["odometry", "odometry", "teleport", "loop"], [0, 1, 2, 3], [1, 2, 3, 4],
              [Pose.identity()] * 4, infos)
    assert (err.value.row, err.value.detail) == (1, "information matrix not positive definite")
    with pytest.raises(EdgeError) as err:
        Edges("teleport", [0], [1], [Pose.identity()], -np.eye(6), kernel="cauchy")
    assert (err.value.row, err.value.detail) == (0, "unknown edge kind 'teleport'")


def test_edge_table_columns_and_whitener():
    rng = np.random.default_rng(2)
    infos = [random_info(rng) for _ in range(3)]
    poses = [random_pose(rng) for _ in range(3)]
    edges = Edges(["odometry", "loop", "prior"], [0, 0, 2], [1, 2, None], poses, infos,
                  [None, None, "huber"], [1.0, 2.0, 0.5])
    assert len(edges) == 3 and len(Edges()) == 0
    assert edges.kind.tolist() == ["odometry", "loop", "prior"]
    assert edges.j.tolist() == [1, 2, -1]
    assert edges.huber.tolist() == [False, True, True]   # loops default to Huber
    assert edges.delta.tolist() == [1.0, 2.0, 0.5]
    assert all(m is p for m, p in zip(edges.measurement, poses))
    for w, info in zip(edges.whitener, infos):
        np.testing.assert_array_equal(w, np.linalg.cholesky(info).T)
    both = Edges.concat([edges, edges.select([2])])
    assert both.kind.tolist() == ["odometry", "loop", "prior", "prior"]
    np.testing.assert_array_equal(both.whitener[3], edges.whitener[2])


def test_residual_zero_for_consistent_measurements():
    rng = np.random.default_rng(3)
    graph = PoseGraph()
    t0, t1 = random_pose(rng), random_pose(rng)
    graph.add_node(0, t0)
    graph.add_node(1, t1)
    # identity information: the whitened residual is the residual itself
    np.testing.assert_allclose(
        whitened_residual_and_jacobians(edge("odometry", 0, 1, t0.inverse() * t1),
                                        graph.poses())[0],
        np.zeros(6), atol=1e-12)
    np.testing.assert_allclose(
        whitened_residual_and_jacobians(edge("prior", 0, None, t0), graph.poses())[0],
        np.zeros(6), atol=1e-12)
    np.testing.assert_allclose(
        whitened_residual_and_jacobians(edge("prior", 1, None, Pose.identity()),
                                        {0: Pose.identity(), 1: Pose.identity()})[0],
        np.zeros(6), atol=1e-15,
    )


def test_residual_of_small_perturbation_is_the_perturbation():
    rng = np.random.default_rng(5)
    t0, t1 = random_pose(rng), random_pose(rng)
    one = edge("odometry", 0, 1, t0.inverse() * t1)
    for scale in (1e-3, 1e-4, 1e-5, 1e-6):
        xi = rng.normal(scale=scale, size=6)
        poses = {0: t0, 1: t1 * se3_exp(xi)}
        r = whitened_residual_and_jacobians(one, poses)[0]
        assert abs(np.linalg.norm(r) - np.linalg.norm(xi)) < 10.0 * scale ** 2
        np.testing.assert_allclose(r, xi, atol=10.0 * scale ** 2)


def test_robust_cost_values():
    graph = PoseGraph()
    graph.add_node(0, Pose.identity())
    graph.add_node(1, Pose(Rotation.identity(), (2.0, 0.0, 0.0)))
    graph.edges = edge("odometry", 0, 1, Pose(Rotation.identity(), (2.0, 0.0, 0.0)))
    assert robust_cost(graph) == 0.0

    # consistent pose moved: whitened norm s = 2 with identity information
    graph.edges = edge("odometry", 0, 1, Pose.identity(), kernel="none")
    assert abs(robust_cost(graph) - 0.5 * 4.0) < 1e-12

    graph.edges = edge("odometry", 0, 1, Pose.identity(), kernel="huber", delta=1.0)
    assert abs(robust_cost(graph) - 1.0 * (2.0 - 0.5)) < 1e-12  # 1.5 delta^2


def test_whitened_jacobians_match_central_differences():
    rng = np.random.default_rng(7)
    step = 1e-4
    for case in range(100):
        base_poses = {0: random_pose(rng), 1: random_pose(rng)}
        info = random_info(rng)
        if case % 3 == 2:
            one = edge("prior", 0, None, random_pose(rng), info)
        else:
            kind = "odometry" if case % 3 == 0 else "loop"
            one = edge(kind, 0, 1, random_pose(rng, rot_scale=0.3), info)

        _, jacs = whitened_residual_and_jacobians(one, base_poses)
        fds = central_differences(one, base_poses, step)
        assert fds.keys() == jacs.keys()
        for nid, jac in jacs.items():
            np.testing.assert_allclose(jac, fds[nid], rtol=1e-5, atol=1e-8)


def _chain_graph(rng, n=3, perturb=0.05):
    truth = [Pose.identity()]
    for _ in range(n - 1):
        truth.append(truth[-1] * random_pose(rng, rot_scale=0.3, trans_scale=1.0))
    graph = PoseGraph()
    for i, pose in enumerate(truth):
        init = pose if i == 0 else pose * se3_exp(rng.normal(scale=perturb, size=6))
        graph.add_node(i, init)
    graph.edges = odometry_chain([truth[i].inverse() * truth[i + 1] for i in range(n - 1)])
    return graph, truth


def test_optimize_already_at_minimum():
    rng = np.random.default_rng(9)
    graph, truth = _chain_graph(rng, perturb=0.0)
    graph.nodes[0].fixed = True
    before = [pose_matrix(n.pose) for n in graph.nodes.values()]
    report = optimize(graph)
    assert report.iterations <= 1
    assert report.reason == "gradient tolerance"
    assert report.initial_cost == report.final_cost
    for node, mat in zip(graph.nodes.values(), before):
        np.testing.assert_array_equal(pose_matrix(node.pose), mat)


def test_optimize_three_node_chain_converges():
    rng = np.random.default_rng(11)
    graph, truth = _chain_graph(rng, n=3, perturb=0.05)
    graph.nodes[0].fixed = True
    report = optimize(graph)
    assert report.final_cost < 1e-10
    for i, pose in enumerate(truth):
        assert poses_close(graph.nodes[i].pose, pose, tol=1e-6)
    # accepted costs never increase
    assert all(b <= a for a, b in zip(report.cost_trace, report.cost_trace[1:]))


def test_negative_iteration_budget_rejected():
    rng = np.random.default_rng(12)
    graph, _ = _chain_graph(rng, n=3, perturb=0.05)
    graph.nodes[0].fixed = True
    before = [pose_matrix(n.pose) for n in graph.nodes.values()]
    with pytest.raises(ValueError, match="^negative max_iterations: -1$"):
        optimize(graph, max_iterations=-1)
    for node, mat in zip(graph.nodes.values(), before):
        np.testing.assert_array_equal(pose_matrix(node.pose), mat)
    assert optimize(graph, max_iterations=0).iterations == 0


def test_optimize_with_every_node_fixed_has_nothing_to_optimize():
    rng = np.random.default_rng(10)
    graph, _ = _chain_graph(rng, n=3, perturb=0.05)
    for node in graph.nodes.values():
        node.fixed = True
    before = [pose_matrix(n.pose) for n in graph.nodes.values()]
    report = optimize(graph)
    assert (report.reason, report.iterations) == ("nothing to optimize", 0)
    assert report.initial_cost == report.final_cost > 0.0
    for node, mat in zip(graph.nodes.values(), before):
        np.testing.assert_array_equal(pose_matrix(node.pose), mat)


def test_optimize_stops_at_the_damping_limit():
    # a prior and an odometry edge of information 1e8 I pin both nodes exactly;
    # once the cost is down to rounding, no damped step lowers it, and the
    # last iteration rejects every trial up to the largest damping
    rng = np.random.default_rng(4)
    a, b, z0, z1 = (se3_exp(rng.normal(scale=0.8, size=6)) for _ in range(4))
    graph = PoseGraph()
    graph.add_node(0, a)
    graph.add_node(1, b)
    graph.edges = Edges(["prior", "odometry"], [0, 0], [None, 1], [z0, z1], np.eye(6) * 1e8)
    report = optimize(graph)
    assert report.reason == "damping limit"
    assert report.accepted_steps == report.iterations - 1 >= 1
    assert report.rejected_steps >= 10
    assert all(y < x for x, y in zip(report.cost_trace, report.cost_trace[1:]))
    assert report.final_cost < 1e-16 * report.initial_cost
    assert poses_close(graph.nodes[0].pose, z0) and poses_close(graph.nodes[1].pose, z0 * z1)


def test_gauge_errors():
    rng = np.random.default_rng(13)
    graph, _ = _chain_graph(rng)
    with pytest.raises(GaugeUnderdeterminedError):
        optimize(graph)  # nothing fixed, no prior

    # disconnected free component: nodes 2-3 have no path to the anchor
    split = PoseGraph()
    for i in range(4):
        split.add_node(i, random_pose(rng))
    split.edges = Edges("odometry", [0, 2], [1, 3], [Pose.identity()] * 2, np.eye(6))
    split.nodes[0].fixed = True
    with pytest.raises(GaugeUnderdeterminedError) as err:
        optimize(split)
    assert "unanchored nodes: 2, 3;" in str(err.value)


def test_prior_only_gauge():
    rng = np.random.default_rng(15)
    target = random_pose(rng)
    graph = PoseGraph()
    graph.add_node(0, target * se3_exp(rng.normal(scale=0.1, size=6)))
    graph.edges = edge("prior", 0, None, target)
    report = optimize(graph)
    assert report.final_cost < 1e-12
    assert poses_close(graph.nodes[0].pose, target, tol=1e-6)


def test_stronger_gauge_never_raises_exact_cost():
    rng = np.random.default_rng(17)
    graph_a, truth = _chain_graph(rng, n=4, perturb=0.03)
    graph_b = PoseGraph()
    for node in graph_a.nodes.values():
        graph_b.add_node(node.id, node.pose)
    graph_b.edges = graph_a.edges  # a table is not changed once built
    graph_b.nodes[1].pose = truth[1]  # second anchor consistent with truth
    graph_a.nodes[0].fixed = True
    for k in (0, 1):
        graph_b.nodes[k].fixed = True

    report_a = optimize(graph_a)
    report_b = optimize(graph_b)
    assert report_b.final_cost <= report_a.final_cost + 1e-10


def test_edge_keeps_its_own_information():
    for info in (np.eye(6), np.eye(6)[None]):  # one matrix for every row, or a stack
        edges = edge("odometry", 0, 1, Pose.identity(), info)
        info[..., 0, 0] = -1.0
        np.testing.assert_array_equal(edges.information[0], np.eye(6))
    # the prior merge_sessions adds holds its own copy of PRIOR_INFORMATION
    rng = np.random.default_rng(20)
    traj2 = [random_pose(rng) for _ in range(2)]
    merged = merge_sessions(_session1_graph(rng), traj2,
                            odometry_chain([traj2[0].inverse() * traj2[1]]), Edges(),
                            Pose.identity(), t_init_prior=True)
    assert merged.edges.kind[-1] == "prior"
    np.testing.assert_array_equal(merged.edges.information[-1], PRIOR_INFORMATION)
    assert not np.shares_memory(merged.edges.information, PRIOR_INFORMATION)


def test_huber_downweights_outlier_loop():
    truth = [Pose(Rotation.identity(), (float(i), 0.0, 0.0)) for i in range(6)]
    info = np.eye(6) * 100.0
    step = Pose(Rotation.identity(), (1.0, 0.0, 0.0))

    results = {}
    for kernel in ("none", "huber"):
        graph = PoseGraph()
        for i, pose in enumerate(truth):
            graph.add_node(i, pose)
        bogus = Pose(Rotation.identity(), (8.0, 0.0, 0.0))  # truth would be (5,0,0)
        graph.edges = Edges(["odometry"] * 5 + ["loop"], [0, 1, 2, 3, 4, 0],
                            [1, 2, 3, 4, 5, 5], [step] * 5 + [bogus], info,
                            [None] * 5 + [kernel], 1.0)
        graph.nodes[0].fixed = True
        optimize(graph)
        results[kernel] = evaluate_ate([graph.nodes[i].pose for i in sorted(graph.nodes)], truth)

    # outside the quadratic zone Huber's pull saturates at a constant force,
    # here ~0.1 m per odometry link, while the plain kernel splits the full
    # 3 m discrepancy across the chain
    assert results["none"] > 1.0
    assert results["huber"] < 0.35
    assert results["huber"] < results["none"] / 3.0


def test_evaluate_ate():
    rng = np.random.default_rng(19)
    truth = [random_pose(rng) for _ in range(30)]
    assert evaluate_ate(truth, truth) == 0.0

    shifted = [Pose(p.rotation, p.translation + (1.0, 0.0, 0.0)) for p in truth]
    assert abs(evaluate_ate(shifted, truth) - 1.0) < 1e-12

    noisy = [Pose(p.rotation, p.translation + rng.normal(scale=0.1, size=3)) for p in truth]
    # independent oracle: plain rms over stacked translation differences
    diffs = np.array([n.translation - t.translation for n, t in zip(noisy, truth)])
    expected = float(np.sqrt((diffs ** 2).sum(axis=1).mean()))
    assert abs(evaluate_ate(noisy, truth) - expected) < 1e-12

    with pytest.raises(ValueError):
        evaluate_ate(truth, truth[:-1])
    with pytest.raises(ValueError):
        evaluate_ate([], [])


def _session1_graph(rng, n=3):
    graph, truth = _chain_graph(rng, n=n, perturb=0.0)
    return graph


def _odometry_along(traj):
    return odometry_chain([a.inverse() * b for a, b in zip(traj, traj[1:])])


def test_merge_identity_t_init_keeps_poses():
    rng = np.random.default_rng(21)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(4)]
    merged = merge_sessions(graph1, traj2, _odometry_along(traj2), Edges(), Pose.identity())
    ids2 = session_ids(merged, 2)
    assert ids2 == [3, 4, 5, 6]
    for nid, pose in zip(ids2, traj2):
        assert poses_close(merged.nodes[nid].pose, pose, tol=1e-12)
    assert all(merged.nodes[i].fixed for i in session_ids(merged, 1))


def test_merge_without_loops_warns_and_preserves_shape(caplog):
    rng = np.random.default_rng(23)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(5)]
    odo2 = _odometry_along(traj2)
    t_init = random_pose(rng)
    with caplog.at_level(logging.WARNING):
        merged = merge_sessions(graph1, traj2, odo2, Edges(), t_init)
    assert any("T_init" in rec.message for rec in caplog.records)

    # nothing ties session 2 to the anchored part, so the optimizer must
    # report the floating gauge instead of silently sliding the component
    with pytest.raises(GaugeUnderdeterminedError):
        optimize(merged)

    # a prior on the first session-2 node anchors it; the chain then keeps
    # its relative shape since odometry is the only constraint
    anchored = merge_sessions(graph1, traj2, odo2, Edges(), t_init, t_init_prior=True)
    optimize(anchored)
    ids2 = session_ids(anchored, 2)
    for i, j, measurement in zip(odo2.i, odo2.j, odo2.measurement):
        got = anchored.nodes[ids2[i]].pose.inverse() * anchored.nodes[ids2[j]].pose
        assert poses_close(got, measurement, tol=1e-9)


def test_merge_loop_edges_and_flags():
    rng = np.random.default_rng(25)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(3)]
    odo2 = _odometry_along(traj2)
    # an edge list as read from a file: odometry rows until merge labels them
    loops = Edges("odometry", [0], [0], [Pose.identity()], np.eye(6))
    merged = merge_sessions(graph1, traj2, odo2, loops, Pose.identity(),
                            t_init_prior=True)
    assert merged.edges.kind.tolist() == ["odometry"] * 4 + ["loop", "prior"]
    assert merged.edges.i.tolist() == [0, 1, 3, 4, 0, 3]
    assert merged.edges.j.tolist() == [1, 2, 4, 5, 3, -1]
    # loops are the outlier-prone kind
    assert merged.edges.huber.tolist() == [False] * 4 + [True, False]
    assert len(graph1.edges) == 2  # session 1's table is not changed
    with pytest.raises(ValueError, match="^loop references missing session-1 node 99$"):
        merge_sessions(graph1, traj2, odo2,
                       Edges("loop", [99], [0], [Pose.identity()], np.eye(6)), Pose.identity())


@pytest.mark.parametrize("kind, i, j, index", [
    ("odometry", 0, 3, 3),
    ("odometry", -1, 0, -1),
    ("odometry", 1, 400, 400),
    ("loop", 0, 3, 3),
    ("loop", 0, -1, -1),
])
def test_merge_rejects_session2_indices_outside_the_trajectory(kind, i, j, index):
    rng = np.random.default_rng(27)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(3)]
    bad = Edges("odometry", [i], [j], [Pose.identity()], np.eye(6))
    odo2, loops = (bad, Edges()) if kind == "odometry" else (_odometry_along(traj2), bad)
    message = (f"^{kind} edge references session-2 index {index}, "
               "outside the trajectory's 3 poses$")
    with pytest.raises(ValueError, match=message):
        merge_sessions(graph1, traj2, odo2, loops, Pose.identity())


def test_monotone_cost_trace_on_noisy_graph():
    rng = np.random.default_rng(29)
    graph, truth = _chain_graph(rng, n=12, perturb=0.1)
    # corrupt measurements slightly so the optimum is not exactly zero cost
    graph.edges = odometry_chain([m * se3_exp(rng.normal(scale=0.01, size=6))
                                  for m in graph.edges.measurement])
    graph.nodes[0].fixed = True
    report = optimize(graph)
    assert report.final_cost < report.initial_cost
    assert all(b <= a for a, b in zip(report.cost_trace, report.cost_trace[1:]))
    assert report.cost_trace[0] == report.initial_cost
    assert report.cost_trace[-1] == report.final_cost


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the optimizer on first use, so the keyframe
    # commands never pay for loading it
    src = str(Path(wassmap.__file__).resolve().parents[1])
    code = ("import sys, wassmap, wassmap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def _oracle_skew(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _oracle_left_jacobian(xi):
    # the series sum ad^n / (n+1)! with ad = [[w^, 0], [v^, w^]], one edge at a time
    ad = np.zeros((6, 6))
    ad[:3, :3] = ad[3:, 3:] = _oracle_skew(xi[:3])
    ad[3:, :3] = _oracle_skew(xi[3:])
    out, term = np.eye(6), np.eye(6)
    for n in range(1, 60):
        term = term @ ad / (n + 1.0)
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return out


def _oracle_adjoint(pose):
    m = pose_matrix(pose)
    out = np.zeros((6, 6))
    out[:3, :3] = out[3:, 3:] = m[:3, :3]
    out[3:, :3] = _oracle_skew(m[:3, 3]) @ m[:3, :3]
    return out


def _oracle_normal_equations(graph, free_ids):
    """Dense gradient and Hessian summed edge by edge, as in a textbook."""
    slot = {nid: k for k, nid in enumerate(free_ids)}
    dim = 6 * len(free_ids)
    hess, grad = np.zeros((dim, dim)), np.zeros(dim)
    poses = graph.poses()
    e = graph.edges
    for kind, i, j, measurement, info, huber, delta in zip(
            e.kind, e.i, e.j, e.measurement, e.information, e.huber, e.delta):
        if kind == "prior":
            r = log_pose(measurement.inverse() * poses[i])
            jacs = {i: np.linalg.inv(_oracle_left_jacobian(-r))}
        else:
            rel = poses[i].inverse() * poses[j]
            r = log_pose(measurement.inverse() * rel)
            jacs = {i: -np.linalg.inv(_oracle_left_jacobian(r))
                    @ _oracle_adjoint(measurement.inverse()),
                    j: np.linalg.inv(_oracle_left_jacobian(-r))}
        w = np.linalg.cholesky(info).T
        wr = w @ r
        s = np.linalg.norm(wr)
        weight = delta / s if huber and s > delta else 1.0
        wr = math.sqrt(weight) * wr
        jacs = {nid: math.sqrt(weight) * w @ jac for nid, jac in jacs.items() if nid in slot}
        for a, jac_a in jacs.items():
            ka = 6 * slot[a]
            grad[ka:ka + 6] += jac_a.T @ wr
            for b, jac_b in jacs.items():
                kb = 6 * slot[b]
                hess[ka:ka + 6, kb:kb + 6] += jac_a.T @ jac_b
    return grad, hess


def test_batched_normal_equations_match_per_edge_oracle():
    rng = np.random.default_rng(31)
    graph = PoseGraph()
    for i in range(8):
        graph.add_node(i, random_pose(rng))
    fixed = {0, 1, 5}
    rows = []  # kind, i, j, measurement, information, kernel, delta
    for i in range(7):
        rows.append(("odometry", i, i + 1, random_pose(rng, rot_scale=0.3), random_info(rng),
                     None, 1.0))
    # Huber inactive (huge delta) and active (tiny delta) loops, a plain loop,
    # priors on a free and on a fixed node, and a second fixed-fixed edge
    rows.append(("loop", 2, 6, random_pose(rng, rot_scale=0.3), random_info(rng), None, 1e6))
    rows.append(("loop", 3, 7, random_pose(rng, rot_scale=0.3), random_info(rng), None, 0.1))
    rows.append(("loop", 1, 4, random_pose(rng, rot_scale=0.3), random_info(rng), "none", 1.0))
    rows.append(("prior", 4, None, random_pose(rng), random_info(rng), None, 1.0))
    rows.append(("prior", 1, None, random_pose(rng), random_info(rng), None, 1.0))
    rows.append(("odometry", 0, 5, random_pose(rng, rot_scale=0.3), random_info(rng),
                 None, 1.0))
    graph.edges = Edges(*zip(*rows))

    problem = _Problem(graph.poses(), graph.edges, fixed)
    r, _ = _residuals(problem.ends, problem.z_inv, problem.q, problem.t)
    _, _, scale = _robust(problem.edges, r)
    assert (scale < 1.0).sum() == 1  # exactly one Huber edge is beyond delta
    assert problem.active.sum() == len(graph.edges) - 3  # 0-1, prior on 1, 0-5 skipped

    grad, hess = problem.normal_equations(problem.cost(problem.q, problem.t)[1])
    ref_grad, ref_hess = _oracle_normal_equations(graph, sorted(set(graph.nodes) - fixed))
    hess = hess.toarray()
    assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max()
    assert np.abs(hess - ref_hess).max() <= 1e-9 * np.abs(ref_hess).max()
    np.testing.assert_array_equal(hess != 0.0, ref_hess != 0.0)


def test_measurement_inverses_match_pose_inverse_bit_for_bit():
    rng = np.random.default_rng(59)
    n = 200
    measurements = [Pose(Rotation(*rng.normal(size=4)), rng.normal(scale=5.0, size=3))
                    for _ in range(n)]
    poses = {k: random_pose(rng) for k in range(n + 1)}
    problem = _Problem(poses, Edges("odometry", range(n), range(1, n + 1), measurements,
                                    np.eye(6)))
    expected = stack_poses(m.inverse() for m in measurements)
    np.testing.assert_array_equal(problem.z_inv[0], expected[0])
    np.testing.assert_array_equal(problem.z_inv[1], expected[1])


def _ring_graph(rng, n=6, hub=False):
    """A ring of odometry edges whose free nodes start far (about 1 rad, 1 m) from the
    truth; with ``hub``, one more node at the centre is joined to every ring node."""
    angles = 2.0 * np.pi * np.arange(n) / n
    truth = [Pose(Rotation.from_rotvec([0.0, 0.0, a]), (3.0 * np.cos(a), 3.0 * np.sin(a), 0.0))
             for a in angles] + [Pose.identity()] * hub
    graph = PoseGraph()
    for k, pose in enumerate(truth):
        graph.add_node(k, pose * random_pose(rng, rot_scale=1.0, trans_scale=1.0),
                       fixed=k == 0)
    ends = [(k, (k + 1) % n) for k in range(n)] + [(n, k) for k in range(n)] * hub
    graph.edges = Edges("odometry", *zip(*ends),
                        [truth[i].inverse() * truth[j] for i, j in ends], np.eye(6))
    return graph


def _shuffled_chain_graph(rng, n=12):
    """An odometry chain whose node ids are shuffled, so that id order is not chain
    order; the first node is fixed and the others start far from the truth."""
    ids = [int(k) for k in rng.permutation(n)]
    assert np.abs(np.diff(ids[1:])).max() > 1  # free neighbours are apart in id order
    truth = [Pose(Rotation.from_rotvec([0.0, 0.0, 0.3 * k]), (k, math.sin(k), 0.0))
             for k in range(n)]
    graph = PoseGraph()
    for k, (nid, pose) in enumerate(zip(ids, truth)):
        start = pose * random_pose(rng, rot_scale=1.0, trans_scale=1.0) if k else pose
        graph.add_node(nid, start, fixed=k == 0)
    graph.edges = Edges("odometry", ids[:-1], ids[1:],
                        [a.inverse() * b for a, b in zip(truth, truth[1:])], np.eye(6))
    return graph


def test_hessian_pattern_holds_every_diagonal_entry():
    graph = _ring_graph(np.random.default_rng(1))
    problem = _Problem(graph.poses(), graph.edges, {0})
    _, hess = problem.normal_equations(problem.cost(problem.q, problem.t)[1])
    diagonal = problem.pattern[-1]
    dim = 6 * problem.n_free
    assert hess.has_canonical_format and hess.nnz == len(hess.indices)
    np.testing.assert_array_equal(hess.indices[diagonal], np.arange(dim))
    np.testing.assert_array_equal(np.searchsorted(hess.indptr, diagonal, side="right") - 1,
                                  np.arange(dim))
    np.testing.assert_array_equal(hess.data[diagonal], hess.diagonal())


def _band_to_node_order(band, order):
    """The symmetric matrix whose lower band, in the row order ``order``, is ``band``."""
    dim = band.shape[1]
    permuted = np.zeros((dim, dim))
    for d, values in enumerate(band):
        k = np.arange(dim - d)
        permuted[k + d, k] = permuted[k, k + d] = values[:dim - d]
        assert not values[dim - d:].any()  # the padding LAPACK does not read
    matrix = np.empty_like(permuted)
    matrix[np.ix_(order, order)] = permuted
    return matrix


def _record_damped_solves(monkeypatch):
    """Record every normal equation and damped solve of `optimize`, in call order:
    ("normal", grad, hess, band layout) and (route, matrix, rhs, step) with the
    matrix, rhs and step in node order, whichever route solves."""
    import scipy.linalg
    import scipy.sparse.linalg

    events = []
    normal_equations = _Problem.normal_equations
    splu, solveh_banded = scipy.sparse.linalg.splu, scipy.linalg.solveh_banded

    def recording_normal_equations(self, r):
        grad, hess = normal_equations(self, r)
        events.append(("normal", grad.copy(), hess.toarray(), self.band))
        return grad, hess

    class RecordingFactor:
        def __init__(self, matrix, **options):
            self.matrix, self.factor = matrix.toarray(), splu(matrix, **options)

        def solve(self, rhs):
            step = self.factor.solve(rhs)
            events.append(("splu", self.matrix, rhs.copy(), step))
            return step

    def recording_solveh_banded(band, rhs, **options):
        matrix, permuted_rhs = band.copy(), rhs.copy()
        permuted = solveh_banded(band, rhs, **options)
        order = next(e for e in reversed(events) if e[0] == "normal")[3][0]
        node_rhs, step = np.empty_like(permuted_rhs), np.empty_like(permuted)
        node_rhs[order], step[order] = permuted_rhs, permuted
        events.append(("band", _band_to_node_order(matrix, order), node_rhs, step))
        return permuted

    monkeypatch.setattr(_Problem, "normal_equations", recording_normal_equations)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", RecordingFactor)
    monkeypatch.setattr(scipy.linalg, "solveh_banded", recording_solveh_banded)
    return events


def test_each_damped_solve_matches_a_dense_solve(monkeypatch):
    events = _record_damped_solves(monkeypatch)
    # the seeds start each graph where LM rejects at least one trial
    for build, seed, route in ((_ring_graph, 1, "band"), (_shuffled_chain_graph, 2, "band"),
                               (lambda rng: _ring_graph(rng, n=24, hub=True), 4, "splu")):
        events.clear()
        report = optimize(build(np.random.default_rng(seed)), max_iterations=20)
        assert report.rejected_steps >= 1
        assert {event[0] for event in events} == {"normal", route}

        # replay the damping schedule: a trial followed by another trial was rejected
        lam, lams = 1e-4, []
        for event, after in zip(events, events[1:] + [("end",)]):
            if event[0] == "normal":
                _, grad, hess, band = event
                np.testing.assert_array_equal(hess, hess.T)  # the band holds all of H
                assert route == "splu" or band[1] == 11  # one block off the diagonal
                continue
            _, matrix, rhs, step = event
            damped = hess + lam * np.eye(len(hess))
            np.testing.assert_array_equal(matrix, damped)
            np.testing.assert_array_equal(rhs, -grad)
            expected = np.linalg.solve(damped, -grad)
            assert np.abs(step - expected).max() <= 1e-10 * np.abs(expected).max()
            lams.append(lam)
            lam = lam * 10.0 if after[0] == route else max(lam / 10.0, 1e-15)
        assert len(lams) == report.accepted_steps + report.rejected_steps
        assert max(lams) > lams[0]


def test_a_band_that_is_not_positive_definite_is_a_rejected_trial(monkeypatch):
    import scipy.linalg

    solveh_banded, diagonals = scipy.linalg.solveh_banded, []

    def negate_the_first_band(band, rhs, **options):
        diagonals.append(band[0].copy())
        return solveh_banded(-band if len(diagonals) == 1 else band, rhs, **options)

    unforced = optimize(_shuffled_chain_graph(np.random.default_rng(0)), max_iterations=20)
    assert unforced.rejected_steps == 0
    monkeypatch.setattr(scipy.linalg, "solveh_banded", negate_the_first_band)
    report = optimize(_shuffled_chain_graph(np.random.default_rng(0)), max_iterations=20)
    assert (report.rejected_steps, report.reason) == (1, "gradient tolerance")
    # the failed trial damped by 1e-4, the next one by 1e-3
    np.testing.assert_allclose(diagonals[1] - diagonals[0], 9e-4, rtol=0.0, atol=1e-12)
    assert all(b < a for a, b in zip(report.cost_trace, report.cost_trace[1:]))
    assert report.final_cost < 1e-12 * report.initial_cost
