import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wassmap
from wassmap.geometry import Pose, Rotation, se3_exp, se3_log
from wassmap.pose_graph import (
    GaugeUnderdeterminedError,
    GraphEdge,
    PoseGraph,
    edge_residual,
    evaluate_ate,
    merge_sessions,
    optimize,
    robust_cost,
    whitened_residual_and_jacobians,
    _Problem,
    _residuals,
    _robust,
)


def random_pose(rng, rot_scale=0.8, trans_scale=2.0) -> Pose:
    return Pose(
        Rotation.from_rotvec(rng.normal(scale=rot_scale, size=3)),
        rng.normal(scale=trans_scale, size=3),
    )


def random_info(rng) -> np.ndarray:
    a = rng.normal(size=(6, 6))
    return a @ a.T + 6.0 * np.eye(6)


def poses_close(a: Pose, b: Pose, tol=1e-6) -> bool:
    return np.abs(a.as_matrix() - b.as_matrix()).max() < tol


def test_edge_validation():
    graph = PoseGraph()
    graph.add_node(0, Pose.identity())
    with pytest.raises(ValueError):
        graph.add_node(0, Pose.identity())
    with pytest.raises(ValueError):
        graph.add_edge("odometry", 0, 5, Pose.identity(), np.eye(6))
    with pytest.raises(ValueError):
        GraphEdge("odometry", 0, 1, Pose.identity(), np.eye(5))
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        GraphEdge("odometry", 0, 1, Pose.identity(), bad)
    with pytest.raises(ValueError):
        GraphEdge("odometry", 0, 1, Pose.identity(), -np.eye(6))
    with pytest.raises(ValueError):
        GraphEdge("teleport", 0, 1, Pose.identity(), np.eye(6))
    with pytest.raises(ValueError):
        GraphEdge("prior", 0, 1, Pose.identity(), np.eye(6))


def test_residual_zero_for_consistent_measurements():
    rng = np.random.default_rng(3)
    graph = PoseGraph()
    t0, t1 = random_pose(rng), random_pose(rng)
    graph.add_node(0, t0)
    graph.add_node(1, t1)
    edge = graph.add_edge("odometry", 0, 1, t0.inverse() * t1, np.eye(6))
    np.testing.assert_allclose(edge_residual(edge, graph), np.zeros(6), atol=1e-12)

    prior = graph.add_prior(0, t0, np.eye(6))
    np.testing.assert_allclose(edge_residual(prior, graph), np.zeros(6), atol=1e-12)
    np.testing.assert_allclose(
        edge_residual(graph.add_prior(1, Pose.identity(), np.eye(6)),
                      {0: Pose.identity(), 1: Pose.identity()}),
        np.zeros(6), atol=1e-15,
    )


def test_residual_of_small_perturbation_is_the_perturbation():
    rng = np.random.default_rng(5)
    t0, t1 = random_pose(rng), random_pose(rng)
    graph = PoseGraph()
    graph.add_node(0, t0)
    graph.add_node(1, t1)
    edge = graph.add_edge("odometry", 0, 1, t0.inverse() * t1, np.eye(6))
    for scale in (1e-3, 1e-4, 1e-5, 1e-6):
        xi = rng.normal(scale=scale, size=6)
        poses = {0: t0, 1: t1 * se3_exp(xi)}
        r = edge_residual(edge, poses)
        assert abs(np.linalg.norm(r) - np.linalg.norm(xi)) < 10.0 * scale ** 2
        np.testing.assert_allclose(r, xi, atol=10.0 * scale ** 2)


def test_robust_cost_values():
    graph = PoseGraph()
    graph.add_node(0, Pose.identity())
    graph.add_node(1, Pose(Rotation.identity(), (2.0, 0.0, 0.0)))
    graph.add_edge("odometry", 0, 1, Pose(Rotation.identity(), (2.0, 0.0, 0.0)), np.eye(6))
    assert robust_cost(graph) == 0.0

    # consistent pose moved: whitened norm s = 2 with identity information
    graph.edges[0] = GraphEdge("odometry", 0, 1, Pose.identity(), np.eye(6), "none")
    assert abs(robust_cost(graph) - 0.5 * 4.0) < 1e-12

    graph.edges[0] = GraphEdge("odometry", 0, 1, Pose.identity(), np.eye(6), "huber", 1.0)
    assert abs(robust_cost(graph) - 1.0 * (2.0 - 0.5)) < 1e-12  # 1.5 delta^2


def test_whitened_jacobians_match_central_differences():
    rng = np.random.default_rng(7)
    step = 1e-4
    for case in range(100):
        graph = PoseGraph()
        t0, t1 = random_pose(rng), random_pose(rng)
        graph.add_node(0, t0)
        graph.add_node(1, t1)
        info = random_info(rng)
        if case % 3 == 2:
            edge = graph.add_prior(0, random_pose(rng), info)
        else:
            kind = "odometry" if case % 3 == 0 else "loop"
            edge = graph.add_edge(kind, 0, 1, random_pose(rng, rot_scale=0.3), info)

        base_poses = graph.poses()
        _, jacs = whitened_residual_and_jacobians(edge, base_poses)
        for nid, jac in jacs.items():
            fd = np.zeros((6, 6))
            for k in range(6):
                xi = np.zeros(6)
                xi[k] = step
                plus = dict(base_poses)
                plus[nid] = base_poses[nid] * se3_exp(xi)
                minus = dict(base_poses)
                minus[nid] = base_poses[nid] * se3_exp(-xi)
                r_plus, _ = whitened_residual_and_jacobians(edge, plus)
                r_minus, _ = whitened_residual_and_jacobians(edge, minus)
                fd[:, k] = (r_plus - r_minus) / (2.0 * step)
            np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-8)


def _chain_graph(rng, n=3, perturb=0.05):
    truth = [Pose.identity()]
    for _ in range(n - 1):
        truth.append(truth[-1] * random_pose(rng, rot_scale=0.3, trans_scale=1.0))
    graph = PoseGraph()
    for i, pose in enumerate(truth):
        init = pose if i == 0 else pose * se3_exp(rng.normal(scale=perturb, size=6))
        graph.add_node(i, init)
    for i in range(n - 1):
        graph.add_edge("odometry", i, i + 1, truth[i].inverse() * truth[i + 1], np.eye(6))
    return graph, truth


def test_optimize_already_at_minimum():
    rng = np.random.default_rng(9)
    graph, truth = _chain_graph(rng, perturb=0.0)
    before = [n.pose.as_matrix() for n in graph.nodes.values()]
    report = optimize(graph, fixed={0})
    assert report.iterations <= 1
    assert report.reason == "gradient tolerance"
    assert report.initial_cost == report.final_cost
    for node, mat in zip(graph.nodes.values(), before):
        np.testing.assert_array_equal(node.pose.as_matrix(), mat)


def test_optimize_three_node_chain_converges():
    rng = np.random.default_rng(11)
    graph, truth = _chain_graph(rng, n=3, perturb=0.05)
    report = optimize(graph, fixed={0})
    assert report.final_cost < 1e-10
    for i, pose in enumerate(truth):
        assert poses_close(graph.nodes[i].pose, pose, tol=1e-6)
    # accepted costs never increase
    assert all(b <= a for a, b in zip(report.cost_trace, report.cost_trace[1:]))


def test_gauge_errors():
    rng = np.random.default_rng(13)
    graph, _ = _chain_graph(rng)
    with pytest.raises(GaugeUnderdeterminedError):
        optimize(graph)  # nothing fixed, no prior
    with pytest.raises(ValueError):
        optimize(graph, fixed={99})

    # disconnected free component: nodes 2-3 have no path to the anchor
    split = PoseGraph()
    for i in range(4):
        split.add_node(i, random_pose(rng))
    split.add_edge("odometry", 0, 1, Pose.identity(), np.eye(6))
    split.add_edge("odometry", 2, 3, Pose.identity(), np.eye(6))
    with pytest.raises(GaugeUnderdeterminedError) as err:
        optimize(split, fixed={0})
    assert "unanchored nodes: 2, 3;" in str(err.value)


def test_prior_only_gauge():
    rng = np.random.default_rng(15)
    target = random_pose(rng)
    graph = PoseGraph()
    graph.add_node(0, target * se3_exp(rng.normal(scale=0.1, size=6)))
    graph.add_prior(0, target, np.eye(6))
    report = optimize(graph)
    assert report.final_cost < 1e-12
    assert poses_close(graph.nodes[0].pose, target, tol=1e-6)


def test_stronger_gauge_never_raises_exact_cost():
    rng = np.random.default_rng(17)
    graph_a, truth = _chain_graph(rng, n=4, perturb=0.03)
    graph_b = graph_a.copy()
    graph_b.nodes[1].pose = truth[1]  # second anchor consistent with truth

    report_a = optimize(graph_a, fixed={0})
    report_b = optimize(graph_b, fixed={0, 1})
    assert report_b.final_cost <= report_a.final_cost + 1e-10


def test_copy_is_independent_of_its_source():
    rng = np.random.default_rng(19)
    source = PoseGraph()
    for k in range(3):
        source.add_node(k, random_pose(rng))
    source.add_edge("odometry", 0, 1, random_pose(rng), random_info(rng))
    source.add_edge("loop", 0, 2, random_pose(rng), random_info(rng))
    source.add_prior(1, random_pose(rng), random_info(rng))
    poses = source.poses()
    edges = [(e.kind, e.i, e.j, e.measurement, e.information.copy(), e.kernel, e.delta)
             for e in source.edges]

    twin = source.copy()
    assert [(n.id, n.session, n.fixed) for n in twin.nodes.values()] == \
        [(n.id, n.session, n.fixed) for n in source.nodes.values()]
    twin.nodes[0].pose = random_pose(rng)
    twin.nodes[1].fixed = True
    for e in twin.edges:
        e.measurement = random_pose(rng)
        e.information[:] = np.eye(6)
    twin.add_node(3, random_pose(rng))
    twin.add_prior(3, random_pose(rng), np.eye(6))

    assert all(source.nodes[k].pose is pose for k, pose in poses.items())
    assert not any(n.fixed for n in source.nodes.values())
    assert len(source.nodes) == 3 and len(source.edges) == 3
    for e, (kind, i, j, measurement, info, kernel, delta) in zip(source.edges, edges):
        assert (e.kind, e.i, e.j, e.kernel, e.delta) == (kind, i, j, kernel, delta)
        assert e.measurement is measurement
        np.testing.assert_array_equal(e.information, info)


def test_huber_downweights_outlier_loop():
    truth = [Pose(Rotation.identity(), (float(i), 0.0, 0.0)) for i in range(6)]
    info = np.eye(6) * 100.0
    step = Pose(Rotation.identity(), (1.0, 0.0, 0.0))

    results = {}
    for kernel in ("none", "huber"):
        graph = PoseGraph()
        for i, pose in enumerate(truth):
            graph.add_node(i, pose)
        for i in range(5):
            graph.add_edge("odometry", i, i + 1, step, info)
        bogus = Pose(Rotation.identity(), (8.0, 0.0, 0.0))  # truth would be (5,0,0)
        graph.add_edge("loop", 0, 5, bogus, info, kernel=kernel, delta=1.0)
        optimize(graph, fixed={0})
        results[kernel] = evaluate_ate(graph.trajectory(), truth)

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


def test_merge_identity_t_init_keeps_poses():
    rng = np.random.default_rng(21)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(4)]
    odo2 = [
        (i, i + 1, traj2[i].inverse() * traj2[i + 1], np.eye(6)) for i in range(3)
    ]
    merged = merge_sessions(graph1, traj2, odo2, [], Pose.identity())
    ids2 = merged.session_ids(2)
    assert ids2 == [3, 4, 5, 6]
    for nid, pose in zip(ids2, traj2):
        assert poses_close(merged.nodes[nid].pose, pose, tol=1e-12)
    assert all(merged.nodes[i].fixed for i in merged.session_ids(1))


def test_merge_without_loops_warns_and_preserves_shape(caplog):
    rng = np.random.default_rng(23)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(5)]
    odo2 = [
        (i, i + 1, traj2[i].inverse() * traj2[i + 1], np.eye(6)) for i in range(4)
    ]
    t_init = random_pose(rng)
    with caplog.at_level(logging.WARNING):
        merged = merge_sessions(graph1, traj2, odo2, [], t_init)
    assert any("T_init" in rec.message for rec in caplog.records)

    # nothing ties session 2 to the anchored part, so the optimizer must
    # report the floating gauge instead of silently sliding the component
    with pytest.raises(GaugeUnderdeterminedError):
        optimize(merged)

    # a prior on the first session-2 node anchors it; the chain then keeps
    # its relative shape since odometry is the only constraint
    anchored = merge_sessions(graph1, traj2, odo2, [], t_init, t_init_prior=True)
    optimize(anchored)
    ids2 = anchored.session_ids(2)
    for (i, j, measurement, _), _unused in zip(odo2, ids2):
        got = anchored.nodes[ids2[i]].pose.inverse() * anchored.nodes[ids2[j]].pose
        assert poses_close(got, measurement, tol=1e-9)


def test_merge_loop_edges_and_flags():
    rng = np.random.default_rng(25)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(3)]
    odo2 = [(0, 1, traj2[0].inverse() * traj2[1], np.eye(6)),
            (1, 2, traj2[1].inverse() * traj2[2], np.eye(6))]
    loops = [(0, 0, Pose.identity(), np.eye(6))]
    merged = merge_sessions(graph1, traj2, odo2, loops, Pose.identity(),
                            t_init_prior=True)
    kinds = [e.kind for e in merged.edges]
    assert kinds.count("loop") == 1
    assert kinds.count("prior") == 1
    loop = next(e for e in merged.edges if e.kind == "loop")
    assert loop.kernel == "huber"  # loops are the outlier-prone kind
    with pytest.raises(ValueError):
        merge_sessions(graph1, traj2, odo2, [(99, 0, Pose.identity(), np.eye(6))],
                       Pose.identity())


def test_merge_soft_prior_mode():
    rng = np.random.default_rng(27)
    graph1 = _session1_graph(rng)
    traj2 = [random_pose(rng) for _ in range(3)]
    odo2 = [(0, 1, traj2[0].inverse() * traj2[1], np.eye(6)),
            (1, 2, traj2[1].inverse() * traj2[2], np.eye(6))]
    merged = merge_sessions(graph1, traj2, odo2, [], Pose.identity(),
                            session1_soft_prior=True, t_init_prior=True)
    assert not any(n.fixed for n in merged.nodes.values())
    priors = [e for e in merged.edges if e.kind == "prior"]
    # one soft prior per session-1 node plus the alignment prior
    assert len(priors) == len(graph1.nodes) + 1
    report = optimize(merged)  # anchored by the priors alone
    assert report.final_cost <= report.initial_cost


def test_monotone_cost_trace_on_noisy_graph():
    rng = np.random.default_rng(29)
    graph, truth = _chain_graph(rng, n=12, perturb=0.1)
    # corrupt measurements slightly so the optimum is not exactly zero cost
    for edge in graph.edges:
        edge.measurement = edge.measurement * se3_exp(rng.normal(scale=0.01, size=6))
    report = optimize(graph, fixed={0})
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
    m = pose.as_matrix()
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
    for edge in graph.edges:
        if edge.j is None:
            r = se3_log(edge.measurement.inverse() * poses[edge.i])
            jacs = {edge.i: np.linalg.inv(_oracle_left_jacobian(-r))}
        else:
            rel = poses[edge.i].inverse() * poses[edge.j]
            r = se3_log(edge.measurement.inverse() * rel)
            jacs = {edge.i: -np.linalg.inv(_oracle_left_jacobian(r))
                    @ _oracle_adjoint(edge.measurement.inverse()),
                    edge.j: np.linalg.inv(_oracle_left_jacobian(-r))}
        w = np.linalg.cholesky(edge.information).T
        wr = w @ r
        s = np.linalg.norm(wr)
        weight = edge.delta / s if edge.kernel == "huber" and s > edge.delta else 1.0
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
    for i in range(7):
        graph.add_edge("odometry", i, i + 1, random_pose(rng, rot_scale=0.3), random_info(rng))
    # Huber inactive (huge delta) and active (tiny delta) loops, a plain loop,
    # priors on a free and on a fixed node, and a second fixed-fixed edge
    graph.add_edge("loop", 2, 6, random_pose(rng, rot_scale=0.3), random_info(rng), delta=1e6)
    graph.add_edge("loop", 3, 7, random_pose(rng, rot_scale=0.3), random_info(rng), delta=0.1)
    graph.add_edge("loop", 1, 4, random_pose(rng, rot_scale=0.3), random_info(rng),
                   kernel="none")
    graph.add_prior(4, random_pose(rng), random_info(rng))
    graph.add_prior(1, random_pose(rng), random_info(rng))
    graph.add_edge("odometry", 0, 5, random_pose(rng, rot_scale=0.3), random_info(rng))

    problem = _Problem(graph, fixed)
    r = _residuals(problem.edges, problem.q, problem.t)
    _, _, scale = _robust(problem.edges, r)
    assert (scale < 1.0).sum() == 1  # exactly one Huber edge is beyond delta
    assert problem.active.sum() == len(graph.edges) - 3  # 0-1, prior on 1, 0-5 skipped

    grad, hess = problem.normal_equations(r)
    ref_grad, ref_hess = _oracle_normal_equations(graph, sorted(set(graph.nodes) - fixed))
    hess = hess.toarray()
    assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max()
    assert np.abs(hess - ref_hess).max() <= 1e-9 * np.abs(ref_hess).max()
    np.testing.assert_array_equal(hess != 0.0, ref_hess != 0.0)
