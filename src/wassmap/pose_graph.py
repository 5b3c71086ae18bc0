"""Multi-session pose graph: odometry, loop, and prior factors over SE(3).

Residual convention for a binary edge (i, j) with measurement Z:

    r = log(Z^{-1} * (T_i^{-1} * T_j))

and for a prior on node i with absolute measurement Z:

    r = log(Z^{-1} * T_i)

with the tangent ordering (rotation, translation) of the geometry module.
Residuals are whitened by the upper-triangular factor W with W^T W = info
(so W = cholesky(info)^T), and a Huber kernel may reshape the whitened norm.
Loop edges default to Huber(1.0) because they are the outlier-prone kind;
odometry and priors default to no kernel.

Optimization is damped Gauss-Newton over the non-fixed nodes with right
perturbations T <- T * exp(dx). Robustness enters through IRLS scaling:
residual and Jacobian of each edge are multiplied by sqrt(w(s)) where
w = rho'(s)/s, which makes the normal equations the exact gradient and the
usual positive-definite Hessian approximation of the robust cost. A step is
accepted only if the true robust cost decreases, so the accepted-cost trace
is monotone by construction.

Every iteration runs over arrays, one batched kernel for all edges: node
states are quaternion and translation arrays, the Hessian is assembled from
6x6 blocks as a sparse matrix and each damping trial is one sparse LU solve
(the structure g2o exploits). Before the first iteration a connected-component
pass over the edges finds free nodes that no fixed node or prior reaches; the
Hessian would be singular, and the error names them. The one-edge and
one-graph functions (`edge_residual`, `whitened_residual_and_jacobians`,
`robust_cost`) wrap the same kernel. scipy is imported on the first call to
`optimize`, so importing the package does not load it.

The merged two-session problem anchors session 1 (hard-fixed, matching an
argmin over session-2 poses alone) and initializes session 2 through T_init.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field, fields

import numpy as np

from wassmap.geometry import (
    Pose,
    Rotation,
    adjoint,
    compose_batch,
    invert_batch,
    se3_exp,
    se3_left_jacobian_inv,
    se3_log,
    se3_right_jacobian_inv,
    stack_poses,
)

logger = logging.getLogger(__name__)

EDGE_KINDS = ("odometry", "loop", "prior")
KERNELS = ("none", "huber")

# information of the priors `merge_sessions` adds; read-only because every
# such prior edge holds this one array
PRIOR_INFORMATION = np.eye(6) * 1e4
PRIOR_INFORMATION.setflags(write=False)


class GaugeUnderdeterminedError(RuntimeError):
    """The normal equations are singular: no anchor reaches every free node."""


@dataclass
class GraphNode:
    id: int
    pose: Pose
    session: int = 1
    fixed: bool = False


@dataclass
class GraphEdge:
    kind: str
    i: int
    j: int | None          # None for prior edges
    measurement: Pose
    information: np.ndarray
    kernel: str = "none"
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {self.kind!r}")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.kernel == "huber" and self.delta <= 0.0:
            raise ValueError("huber delta must be positive")
        if (self.j is None) != (self.kind == "prior"):
            raise ValueError("prior edges take one endpoint, others take two")
        info = np.asarray(self.information, dtype=float)
        if info.shape != (6, 6):
            raise ValueError("information must be 6x6")
        if np.abs(info - info.T).max() > 1e-9:
            raise ValueError("information matrix not symmetric")
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise ValueError("information matrix not positive definite") from None
        self.information = info


class PoseGraph:
    def __init__(self):
        self.nodes: dict[int, GraphNode] = {}
        self.edges: list[GraphEdge] = []

    def add_node(self, node_id: int, pose: Pose, session: int = 1, fixed: bool = False) -> GraphNode:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id}")
        node = GraphNode(int(node_id), pose, int(session), bool(fixed))
        self.nodes[node.id] = node
        return node

    def add_edge(
        self,
        kind: str,
        i: int,
        j: int | None,
        measurement: Pose,
        information,
        kernel: str | None = None,
        delta: float = 1.0,
    ) -> GraphEdge:
        if i not in self.nodes or (j is not None and j not in self.nodes):
            raise ValueError(f"edge ({i}, {j}) references a missing node")
        if kernel is None:
            kernel = "huber" if kind == "loop" else "none"
        edge = GraphEdge(kind, int(i), None if j is None else int(j), measurement,
                         information, kernel, float(delta))
        self.edges.append(edge)
        return edge

    def add_prior(self, i: int, measurement: Pose, information, kernel: str | None = None,
                  delta: float = 1.0) -> GraphEdge:
        return self.add_edge("prior", i, None, measurement, information, kernel, delta)

    def poses(self) -> dict[int, Pose]:
        return {node_id: node.pose for node_id, node in self.nodes.items()}

    def copy(self) -> "PoseGraph":
        """An independent copy. Its edges are not validated again: a shallow
        copy skips `GraphEdge.__post_init__`, and poses are immutable."""
        other = PoseGraph()
        for node in self.nodes.values():
            other.add_node(node.id, node.pose, node.session, node.fixed)
        for e in self.edges:
            twin = copy.copy(e)
            twin.information = e.information.copy()
            other.edges.append(twin)
        return other

    def session_ids(self, session: int) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.session == session)

    def trajectory(self, session: int | None = None) -> list[Pose]:
        ids = sorted(self.nodes) if session is None else self.session_ids(session)
        return [self.nodes[i].pose for i in ids]


# The batched kernel. Node states are arrays with one row per node plus a
# last row holding the identity, so that a prior on node i is the binary edge
# (identity, i): r = log(Z^{-1} I^{-1} T_i). Every edge then has the same
# residual and Jacobian form, and the identity row counts as a fixed node.

@dataclass(frozen=True)
class _Edges:
    a: np.ndarray          # (E,) state row of T_a (the identity row for a prior)
    b: np.ndarray          # (E,) state row of T_b
    z_inv_q: np.ndarray    # (E, 4) inverse measurements
    z_inv_t: np.ndarray    # (E, 3)
    whitener: np.ndarray   # (E, 6, 6) upper-triangular W with W^T W = info
    huber: np.ndarray      # (E,) bool
    delta: np.ndarray      # (E,)

    def select(self, mask: np.ndarray) -> "_Edges":
        return _Edges(*(getattr(self, f.name)[mask] for f in fields(self)))


def _state(poses, ids) -> tuple[dict, np.ndarray, np.ndarray]:
    """Rows of ``ids`` (and of None, the identity) and the stacked poses."""
    rows = {nid: k for k, nid in enumerate(ids)}
    rows[None] = len(ids)
    q, t = stack_poses([poses[nid] for nid in ids] + [Pose.identity()])
    return rows, q, t


def _stack_edges(edges, rows) -> _Edges:
    """Edges as arrays; ``rows`` maps node ids, and None for a prior, to state rows."""
    ends = np.array([(rows[None], rows[e.i]) if e.j is None else (rows[e.i], rows[e.j])
                     for e in edges], dtype=np.intp).reshape(-1, 2)
    z_inv_q, z_inv_t = stack_poses(e.measurement.inverse() for e in edges)
    info = np.array([e.information for e in edges]).reshape(-1, 6, 6)
    return _Edges(
        ends[:, 0], ends[:, 1], z_inv_q, z_inv_t,
        np.swapaxes(np.linalg.cholesky(info), -1, -2),
        np.array([e.kernel == "huber" for e in edges], dtype=bool),
        np.array([e.delta for e in edges], dtype=float),
    )


def _residuals(edges: _Edges, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unwhitened residuals log(Z^{-1} T_a^{-1} T_b), (E, 6)."""
    rel = compose_batch(invert_batch((q[edges.a], t[edges.a])), (q[edges.b], t[edges.b]))
    return se3_log(compose_batch((edges.z_inv_q, edges.z_inv_t), rel))


def _robust(edges: _Edges, r: np.ndarray):
    """Whitened residuals, kernel costs rho(s) and IRLS scales sqrt(w(s)).

    With s the whitened norm, Huber edges beyond delta cost
    delta (s - delta / 2) and get w = delta / s; all others cost s^2 / 2
    with w = 1.
    """
    wr = (edges.whitener @ r[:, :, None])[:, :, 0]
    s = np.sqrt((wr * wr).sum(axis=1))
    outer = edges.huber & (s > edges.delta)
    rho = np.where(outer, edges.delta * (s - 0.5 * edges.delta), 0.5 * s * s)
    scale = np.sqrt(np.where(outer, edges.delta / np.where(outer, s, 1.0), 1.0))
    return wr, rho, scale


def _cost(edges: _Edges, q: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    r = _residuals(edges, q, t)
    return float(_robust(edges, r)[1].sum()), r


def _jacobians(edges: _Edges, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitened Jacobians of each residual wrt the right perturbations of T_a, T_b."""
    jac_a = -se3_left_jacobian_inv(r) @ adjoint((edges.z_inv_q, edges.z_inv_t))
    jac_b = se3_right_jacobian_inv(r)
    return edges.whitener @ jac_a, edges.whitener @ jac_b


class _Problem:
    """One optimization's graph as arrays.

    ``q``/``t`` hold the initial node states in sorted id order plus the
    identity row, ``free`` marks the rows being optimized, and ``edges``
    holds every edge. Only edges with a free endpoint are linearized: edges
    between fixed rows add a constant to the cost.
    """

    def __init__(self, graph: PoseGraph, fixed_ids):
        self.ids = sorted(graph.nodes)
        rows, self.q, self.t = _state(graph.poses(), self.ids)
        self.edges = _stack_edges(graph.edges, rows)
        self.free = np.array([nid not in fixed_ids for nid in self.ids] + [False])
        self.n_free = int(self.free.sum())
        slot = np.full(len(self.free), -1)
        slot[self.free] = np.arange(self.n_free)
        slots = slot[np.stack([self.edges.a, self.edges.b], axis=1)]
        self.active = (slots >= 0).any(axis=1)
        self.linearized, self.slots = self.edges.select(self.active), slots[self.active]

    def unanchored(self) -> list[int]:
        """Ids of free nodes whose edge-connected component holds no fixed row.

        The identity row is fixed, so a prior anchors its node. With
        positive-definite information and rotation angles below pi, the
        Gauss-Newton Hessian is singular exactly when such a node exists.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        n = len(self.free)
        links = coo_matrix((np.ones(len(self.edges.a)), (self.edges.a, self.edges.b)),
                           shape=(n, n))
        _, label = connected_components(links, directed=False)
        anchored = np.zeros(label.max() + 1, dtype=bool)
        anchored[label[~self.free]] = True
        return [self.ids[k] for k in np.flatnonzero(~anchored[label])]

    def normal_equations(self, r: np.ndarray):
        """IRLS-weighted gradient (6F,) and sparse Hessian (6F, 6F) over free rows.

        ``r`` holds the residuals of all edges. The 6x6 blocks J_k^T J_l of
        the free endpoints of each linearized edge go to the Hessian in COO
        form; duplicates sum when it is converted to CSC.
        """
        from scipy.sparse import coo_matrix

        edges, slots, r = self.linearized, self.slots, r[self.active]
        wr, _, scale = _robust(edges, r)
        jac = np.stack(_jacobians(edges, r), axis=1) * scale[:, None, None, None]
        wr = wr * scale[:, None]
        free = slots >= 0

        grad = np.zeros((self.n_free, 6))
        np.add.at(grad, slots[free], np.einsum("ekai,ea->eki", jac, wr)[free])

        e, k, m = np.nonzero(free[:, :, None] & free[:, None, :])
        blocks = np.einsum("pai,paj->pij", jac[e, k], jac[e, m])
        idx = np.arange(6)
        rows, cols = np.broadcast_arrays(6 * slots[e, k][:, None, None] + idx[:, None],
                                         6 * slots[e, m][:, None, None] + idx)
        dim = 6 * self.n_free
        hess = coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim))
        return grad.ravel(), hess.tocsc()


def _single_edge(edge: GraphEdge, nodes):
    poses = nodes.poses() if isinstance(nodes, PoseGraph) else nodes
    rows, q, t = _state(poses, [edge.i] if edge.j is None else [edge.i, edge.j])
    edges = _stack_edges([edge], rows)
    return edges, _residuals(edges, q, t)


def edge_residual(edge: GraphEdge, nodes) -> np.ndarray:
    """Unwhitened 6-vector residual (rotation part first)."""
    return _single_edge(edge, nodes)[1][0]


def whitened_residual_and_jacobians(edge: GraphEdge, nodes):
    """Whitened residual plus analytic Jacobians wrt each endpoint's tangent.

    Right perturbation convention: d/dxi of residual at T <- T exp(xi).
    Returns (W r, {node_id: W J}).
    """
    edges, r = _single_edge(edge, nodes)
    jac_a, jac_b = _jacobians(edges, r)
    wr = edges.whitener[0] @ r[0]
    if edge.j is None:
        return wr, {edge.i: jac_b[0]}
    return wr, {edge.i: jac_a[0], edge.j: jac_b[0]}


def robust_cost(graph: PoseGraph, poses=None) -> float:
    """Sum of kernel-reshaped whitened residual norms over all edges."""
    poses = graph.poses() if poses is None else poses
    rows, q, t = _state(poses, list(poses))
    return _cost(_stack_edges(graph.edges, rows), q, t)[0]


@dataclass
class LMParams:
    max_iterations: int = 100
    lambda0: float = 1e-4
    lambda_factor: float = 10.0
    cost_tolerance: float = 1e-6   # relative change of the robust cost
    gradient_tolerance: float = 1e-8
    lambda_max: float = 1e10


@dataclass
class OptimizationReport:
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trace: list[float] = field(default_factory=list)  # accepted costs only
    reason: str = ""
    accepted_steps: int = 0
    rejected_steps: int = 0


def optimize(graph: PoseGraph, fixed=None, params: LMParams | None = None) -> OptimizationReport:
    """Levenberg-Marquardt over the non-fixed nodes; updates poses in place.

    Every iteration runs over arrays: one batched residual for all edges,
    Jacobians for the edges with a free endpoint, a sparse Hessian and one
    sparse LU factorization per damping trial.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    params = params or LMParams()
    fixed_ids = {n.id for n in graph.nodes.values() if n.fixed}
    if fixed is not None:
        missing = set(fixed) - set(graph.nodes)
        if missing:
            raise ValueError(f"fixed ids not in graph: {sorted(missing)}")
        fixed_ids |= set(fixed)

    problem = _Problem(graph, fixed_ids)
    loose = problem.unanchored()
    if loose:
        more = f", ... ({len(loose)} in all)" if len(loose) > 10 else ""
        raise GaugeUnderdeterminedError(
            f"unanchored nodes: {', '.join(map(str, loose[:10]))}{more}; "
            "fix a node or add a prior")

    free, q, t = problem.free, problem.q, problem.t
    cost, r = _cost(problem.edges, q, t)
    report = OptimizationReport(0, cost, cost, [cost], "max iterations")
    if not problem.n_free:
        report.reason = "nothing to optimize"
        return report
    damping = identity(6 * problem.n_free, format="csc")

    lam = params.lambda0
    for iteration in range(params.max_iterations):
        report.iterations = iteration + 1
        grad, hess = problem.normal_equations(r)
        if float(np.linalg.norm(grad)) < params.gradient_tolerance:
            report.iterations = iteration
            report.reason = "gradient tolerance"
            break

        accepted = False
        while lam <= params.lambda_max:
            step = splu((hess + lam * damping).tocsc()).solve(-grad)
            trial_q, trial_t = q.copy(), t.copy()
            trial_q[free], trial_t[free] = compose_batch((q[free], t[free]),
                                                         se3_exp(step.reshape(-1, 6)))
            trial_cost, trial_r = _cost(problem.edges, trial_q, trial_t)
            if trial_cost < cost:
                accepted = True
                break
            lam *= params.lambda_factor
            report.rejected_steps += 1
        if not accepted:
            report.reason = "damping limit"
            break

        q, t, r = trial_q, trial_t, trial_r
        report.accepted_steps += 1
        report.cost_trace.append(trial_cost)
        lam = max(lam / params.lambda_factor, 1e-15)
        relative_drop = (cost - trial_cost) / max(cost, 1e-30)
        cost = trial_cost
        if cost == 0.0 or relative_drop < params.cost_tolerance:
            report.reason = "cost tolerance"
            break

    if report.accepted_steps:
        for k in np.flatnonzero(free):
            graph.nodes[problem.ids[k]].pose = Pose(Rotation(*q[k].tolist()), t[k])
    report.final_cost = cost
    return report


def evaluate_ate(estimate, ground_truth) -> float:
    """RMSE of translation errors between index-aligned trajectories."""
    if len(estimate) != len(ground_truth):
        raise ValueError("trajectories differ in length")
    if len(estimate) == 0:
        raise ValueError("empty trajectory")
    err = np.array(
        [est.translation - ref.translation for est, ref in zip(estimate, ground_truth)]
    )
    return float(np.sqrt((err ** 2).sum(axis=1).mean()))


def merge_sessions(
    graph1: PoseGraph,
    trajectory2,
    odometry2,
    loops12,
    t_init: Pose,
    session1_soft_prior: bool = False,
    t_init_prior: bool = False,
) -> PoseGraph:
    """Combine an anchored session-1 graph with a new session's trajectory.

    ``trajectory2`` holds session-2 poses in the session-2 frame; they enter
    the merged graph as t_init * pose. ``odometry2`` entries are
    (i, j, measurement, information) with session-local indices; ``loops12``
    entries are (session1_node_id, session2_index, measurement, information)
    measuring T_1i^{-1} T_2j. Session-1 nodes are hard-fixed unless
    ``session1_soft_prior`` swaps the anchor for per-node prior edges. The
    initial guess can additionally be pinned with ``t_init_prior``, which adds
    a prior factor on the first session-2 node at its initialized pose.
    """
    merged = graph1.copy()
    if not merged.nodes:
        raise ValueError("session-1 graph has no nodes")
    for node in merged.nodes.values():
        if session1_soft_prior:
            merged.add_prior(node.id, node.pose, PRIOR_INFORMATION)
        else:
            node.fixed = True

    offset = max(merged.nodes) + 1
    for idx, pose in enumerate(trajectory2):
        merged.add_node(offset + idx, t_init * pose, session=2)

    for i, j, measurement, information in odometry2:
        merged.add_edge("odometry", offset + i, offset + j, measurement, information)

    if not loops12:
        logger.warning("sessions connected only by T_init; no inter-session loop edges")
    for i1, j2, measurement, information in loops12:
        if i1 not in graph1.nodes:
            raise ValueError(f"loop references missing session-1 node {i1}")
        merged.add_edge("loop", i1, offset + j2, measurement, information)

    if t_init_prior:
        merged.add_prior(offset, merged.nodes[offset].pose, PRIOR_INFORMATION)
    return merged
