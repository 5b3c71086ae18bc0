"""Multi-session pose graph: odometry, loop, and prior factors over SE(3).

Residual convention for a binary edge (i, j) with measurement Z:

    r = log(Z^{-1} * (T_i^{-1} * T_j))

and for a prior on node i with absolute measurement Z:

    r = log(Z^{-1} * T_i)

with the tangent ordering (rotation, translation) of the geometry module.
Under right perturbations the Jacobian wrt T_j is Jr^{-1}(r) and the one wrt
T_i is -Jl^{-1}(r) Ad(Z^{-1}). Since Jl(r) = Ad(exp r) Jr(r) (Barfoot &
Furgale, T-RO 2014), the latter is -Jr^{-1}(r) Ad(exp(-r) Z^{-1}), and since
exp(r) = Z^{-1} T_i^{-1} T_j, that is -Jr^{-1}(r) Ad((T_i^{-1} T_j)^{-1}): the
relative pose the residual already formed gives the adjoint.
Residuals are whitened by the upper-triangular factor W with W^T W = info
(so W = cholesky(info)^T), and a Huber kernel may reshape the whitened norm.
Loop edges default to Huber(1.0) because they are the outlier-prone kind;
odometry and priors default to no kernel.

A graph's edges are one `Edges` table, from the file or generator to the
solver. Its constructor checks every row once, factoring all information
matrices in one Cholesky call whose transposed factors are the whiteners;
`merge_sessions` concatenates tables without a second check.

Optimization is damped Gauss-Newton over the non-fixed nodes with right
perturbations T <- T * exp(dx). Robustness enters through IRLS scaling:
residual and Jacobian of each edge are multiplied by sqrt(w(s)) where
w = rho'(s)/s, which makes the normal equations the exact gradient and the
usual positive-definite Hessian approximation of the robust cost. A step is
accepted only if the true robust cost decreases, so the accepted-cost trace
is monotone by construction.

Every iteration runs over arrays, one batched kernel for all edges with a
free endpoint; the cost of the edges between fixed nodes does not change and
is summed once per optimization. Node states are quaternion and translation
arrays, and the Hessian is a sparse matrix of 6x6 blocks J_k^T J_m. Its
structure does not change between iterations, so, as in g2o (Kuemmerle et
al., ICRA 2011), it is built once per optimization: the CSC pattern, the
stored position of each entry of each block and the diagonal positions. An
iteration then refills the values with one `np.bincount`. Each damping
trial factors H + lambda I by one of two routes, chosen once per
optimization. When the Hessian is a narrow band in reverse Cuthill-McKee
order, as for a new session joined only by odometry, it is scattered into
LAPACK band storage and solved by banded Cholesky, O(n w^2). Other graphs,
such as one with a hub node, take a sparse LU with diagonal pivots
(SuperLU's symmetric mode): H + lambda I is symmetric positive definite, so
under a symmetric fill-reducing permutation every diagonal pivot is positive
and the LU is the LDL^T factorization, stable without row interchanges.

Before the first iteration a connected-component pass over the edges finds
free nodes that no fixed node or prior reaches; the Hessian would be
singular, and the error names them. The one-edge and one-graph functions
(`whitened_residual_and_jacobians`, `robust_cost`) wrap the same kernel and
never build the Hessian pattern. scipy is imported on the first call to
`optimize`, so importing the package does not load it.

The merged two-session problem anchors session 1 (hard-fixed, matching an
argmin over session-2 poses alone) and initializes session 2 through T_init.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from wassmap.geometry import (
    Pose,
    Rotation,
    adjoint,
    compose_batch,
    invert_batch,
    se3_exp,
    se3_log,
    se3_right_jacobian_inv,
    stack_poses,
)

logger = logging.getLogger(__name__)

# information of the priors `merge_sessions` adds
PRIOR_INFORMATION = np.eye(6) * 1e4

# node ids are int64: the first id too large to be one
ID_LIMIT = 2 ** 63

# Levenberg-Marquardt schedule of `optimize`
_LAMBDA0 = 1e-4
_LAMBDA_FACTOR = 10.0
_LAMBDA_MAX = 1e10
_COST_TOLERANCE = 1e-6   # relative change of the robust cost
_GRADIENT_TOLERANCE = 1e-8

# a damping trial factors the Hessian as a band when the band's lower triangle
# holds at most this many times the Hessian's stored entries
_BAND_FILL = 2


class GaugeUnderdeterminedError(RuntimeError):
    """The normal equations are singular: no anchor reaches every free node."""


class EdgeError(ValueError):
    """Row ``row`` of an edge table failed its check, for the reason ``detail``."""

    def __init__(self, row: int, detail: str):
        super().__init__(f"edge row {row}: {detail}")
        self.row, self.detail = row, detail


@dataclass
class GraphNode:
    id: int
    pose: Pose
    session: int = 1
    fixed: bool = False


class Edges:
    """Every edge of a graph as aligned columns, one row per edge; not changed once built.

    Columns: ``kind``, node ids ``i`` and ``j`` (-1 for a prior), ``measurement``
    (the `Pose` objects as given), ``information`` (E, 6, 6), ``huber`` and ``delta``
    for the kernel, and ``whitener``, the upper-triangular W with W^T W = information.
    """

    def __init__(self, kind=(), i=(), j=(), measurement=(), information=(), kernel=None,
                 delta=1.0):
        """Check every row once; the first that fails raises `EdgeError`. ``kind``,
        ``kernel`` and ``delta`` may be one value for all rows, ``information`` one
        6x6 matrix. ``j`` is None for a prior; kernel None is the kind's default."""
        n = len(i)

        def column(value, dtype=object):  # one value per row
            return np.array(np.broadcast_to(np.asarray(value, dtype=dtype), (n,)))
        kind, delta = column(kind), column(delta, float)
        kernel = column([("huber" if k == "loop" else "none") if v is None else v
                         for k, v in zip(kind, column(kernel))])
        info = np.array(information, dtype=float)  # the table's own copy
        info = np.repeat(info[None], n, axis=0) if info.shape == (6, 6) else info
        square = info.shape == (n, 6, 6)
        info = info if square else np.zeros((n, 6, 6))
        finite = np.isfinite(info).all(axis=(1, 2))
        info[~finite] = 0.0  # rejected below; zeros keep the other checks quiet
        indefinite = np.zeros(n, dtype=bool)
        try:
            lower = np.linalg.cholesky(info)
        except np.linalg.LinAlgError:  # find the rows that fail, one by one
            for k in range(n):
                try:
                    np.linalg.cholesky(info[k])
                except np.linalg.LinAlgError:
                    indefinite[k] = True
        checks = {
            "unknown edge kind {kind!r}": [k not in ("odometry", "loop", "prior") for k in kind],
            "unknown kernel {kernel!r}": [v not in ("none", "huber") for v in kernel],
            "huber delta must be positive": (kernel == "huber") & ~(delta > 0.0),
            "prior edges take one endpoint, others take two":
                np.equal([v is None for v in j], kind != "prior"),
            "information must be 6x6": np.full(n, not square),
            "information matrix not finite": ~finite,
            "information matrix not symmetric":
                np.abs(info - np.swapaxes(info, 1, 2)).max(axis=(1, 2), initial=0.0) > 1e-9,
            "information matrix not positive definite": indefinite,
        }
        failed = np.array([np.asarray(bad, dtype=bool) for bad in checks.values()])
        if failed.any():
            row = int(np.argmax(failed.any(axis=0)))
            detail = list(checks)[int(np.argmax(failed[:, row]))]
            raise EdgeError(row, detail.format(kind=kind[row], kernel=kernel[row]))

        self.kind, self.i = np.array(kind, dtype=str), np.array(i, dtype=np.int64)
        self.j = np.array([-1 if v is None else v for v in j], dtype=np.int64)
        self.measurement = column(list(measurement))
        self.information, self.whitener = info, np.swapaxes(lower, -1, -2)
        self.huber, self.delta = kernel == "huber", delta

    def __len__(self) -> int:
        return len(self.i)

    def _with(self, **columns) -> "Edges":
        """This table with some columns replaced; its rows are not checked again."""
        table = object.__new__(Edges)
        vars(table).update(vars(self), **columns)
        return table

    def select(self, rows) -> "Edges":
        return self._with(**{name: column[rows] for name, column in vars(self).items()})

    @staticmethod
    def concat(tables) -> "Edges":
        return tables[0]._with(**{name: np.concatenate([vars(t)[name] for t in tables])
                                  for name in vars(tables[0])})


class PoseGraph:
    def __init__(self):
        self.nodes: dict[int, GraphNode] = {}
        self.edges = Edges()

    def add_node(self, node_id: int, pose: Pose, session: int = 1, fixed: bool = False) -> GraphNode:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id}")
        node = GraphNode(int(node_id), pose, int(session), bool(fixed))
        self.nodes[node.id] = node
        return node

    def poses(self) -> dict[int, Pose]:
        return {node_id: node.pose for node_id, node in self.nodes.items()}


# The batched kernel. Node states are arrays with one row per node plus a
# last row holding the identity, so that a prior on node i is the binary edge
# (identity, i): r = log(Z^{-1} I^{-1} T_i). Every edge then has the same
# residual and Jacobian form, and the identity row counts as a fixed node.

def _residuals(ends: np.ndarray, z_inv, q: np.ndarray, t: np.ndarray):
    """Unwhitened residuals log(Z^{-1} T_a^{-1} T_b), (E, 6), and the relative
    poses T_a^{-1} T_b as a batch; ``ends`` holds rows (a, b)."""
    a, b = ends[:, 0], ends[:, 1]
    rel = compose_batch(invert_batch((q[a], t[a])), (q[b], t[b]))
    return se3_log(compose_batch(z_inv, rel)), rel


def _robust(edges: Edges, r: np.ndarray):
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


def _jacobians(whitener: np.ndarray, r: np.ndarray, rel) -> tuple[np.ndarray, np.ndarray]:
    """Whitened Jacobians of each residual wrt the right perturbations of T_a, T_b.

    ``rel`` holds the relative poses T_a^{-1} T_b of the residuals ``r``; since
    exp(r) = Z^{-1} T_a^{-1} T_b, Ad(exp(-r) Z^{-1}) is Ad(rel^{-1}).
    """
    jac_b = whitener @ se3_right_jacobian_inv(r)
    jac_a = -jac_b @ adjoint(invert_batch(rel))
    return jac_a, jac_b


class _Problem:
    """One optimization's graph as arrays.

    ``q``/``t`` hold the initial node states in sorted id order plus the identity
    row, ``free`` marks the rows being optimized, ``ends`` holds each edge's state
    rows (a, b) and ``z_inv`` its inverse measurement, bit for bit as
    `Pose.inverse` forms it. Only edges with a free endpoint are linearized and
    evaluated by `cost`: the edges between fixed rows add ``fixed_cost``, summed
    once here.
    """

    def __init__(self, poses: dict, edges: Edges, fixed_ids=()):
        self.ids = sorted(poses)
        self.q, self.t = stack_poses([poses[nid] for nid in self.ids] + [Pose.identity()])
        ids = np.array(self.ids, dtype=np.int64)
        prior = edges.kind == "prior"
        nodes = np.stack([edges.i, np.where(prior, edges.i, edges.j)], axis=1)
        found = np.isin(nodes, ids).all(axis=1)
        if not found.all():
            raise ValueError(f"edge row {np.argmin(found)} references a missing node")
        self.ends = np.searchsorted(ids, nodes)
        self.ends[prior, 0] = len(ids)
        q, t = stack_poses(edges.measurement)
        w, x, y, z = q.T  # renormalized in `Rotation.__init__`'s order
        self.edges = edges
        self.z_inv = invert_batch((q / np.sqrt(w * w + x * x + y * y + z * z)[:, None], t))

        self.free = np.array([nid not in fixed_ids for nid in self.ids] + [False])
        self.n_free = int(self.free.sum())
        slot = np.full(len(self.free), -1)
        slot[self.free] = np.arange(self.n_free)
        slots = slot[self.ends]
        self.active = (slots >= 0).any(axis=1)
        self.slots, self.linearized = slots[self.active], edges.select(self.active)
        self.linearized_ends = self.ends[self.active]
        self.linearized_z_inv = tuple(z[self.active] for z in self.z_inv)
        fixed = ~self.active
        r, _ = _residuals(self.ends[fixed], tuple(z[fixed] for z in self.z_inv), self.q, self.t)
        self.fixed_cost = float(_robust(edges.select(fixed), r)[1].sum())

    def cost(self, q: np.ndarray, t: np.ndarray):
        """Robust cost of every edge at the states ``q``/``t``, and the
        linearization point of `normal_equations`: the residuals and relative
        poses of the linearized edges."""
        r, rel = _residuals(self.linearized_ends, self.linearized_z_inv, q, t)
        return self.fixed_cost + float(_robust(self.linearized, r)[1].sum()), (r, rel)

    def unanchored(self) -> list[int]:
        """Ids of free nodes whose edge-connected component holds no fixed row.

        The identity row is fixed, so a prior anchors its node. With
        positive-definite information and rotation angles below pi, the
        Gauss-Newton Hessian is singular exactly when such a node exists.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        n = len(self.free)
        links = coo_matrix((np.ones(len(self.ends)), (self.ends[:, 0], self.ends[:, 1])),
                           shape=(n, n))
        _, label = connected_components(links, directed=False)
        anchored = np.zeros(label.max() + 1, dtype=bool)
        anchored[label[~self.free]] = True
        return [self.ids[k] for k in np.flatnonzero(~anchored[label])]

    @cached_property
    def pattern(self):
        """CSC structure of the free-row Hessian, built on the first call.

        Returns ``(e, k, m, position, indices, indptr, diagonal)``: the
        (edge, endpoint, endpoint) triples of the blocks J_k^T J_m with both
        endpoints free, the stored position of each of their 36 entries
        (P, 6, 6), the CSC row indices and column pointers, and the stored
        positions of the 6F diagonal entries in order.
        """
        free, slots = self.slots >= 0, self.slots
        e, k, m = np.nonzero(free[:, :, None] & free[:, None, :])
        blocks, where = np.unique(slots[e, m] * self.n_free + slots[e, k], return_inverse=True)
        column, row = np.divmod(blocks, self.n_free)  # block column, block row
        per_column = np.bincount(column, minlength=self.n_free)
        first = np.cumsum(per_column) - per_column
        # block column c is stored as 6 columns of 6 per_column[c] entries each;
        # entry (a, b) of its j-th block sits in column 6c + b at offset 6j + a
        start = 36 * first[column] + 6 * (np.arange(len(blocks)) - first[column])
        a = np.arange(6)
        position = (start[:, None, None] + a[:, None]
                    + (6 * per_column[column])[:, None, None] * a)
        indices = np.empty(36 * len(blocks), dtype=np.int32)
        indices[position] = 6 * row[:, None, None] + a[:, None]
        indptr = np.concatenate([[0], np.cumsum(np.repeat(6 * per_column, 6))]).astype(np.int32)
        diagonal = position[column == row][:, a, a].ravel()
        return e, k, m, position[where], indices, indptr, diagonal

    @cached_property
    def band(self):
        """LAPACK lower-band layout of the free-row Hessian in reverse
        Cuthill-McKee node order, or None when that band is wide.

        The order and the bandwidth come from the edges joining two free
        rows, which are `pattern`'s off-diagonal blocks, so the choice costs
        O(blocks). The band is used when its lower triangle, (width + 1) 6F
        entries, holds at most `_BAND_FILL` times the stored entries of
        `pattern`. Returns ``(order, width, source, target)``: the 6F rows in
        band order, the lower bandwidth, and for each stored entry on or
        below the diagonal in that order its position in the CSC data and in
        the flattened (width + 1, 6F) band, whose row 0 is the diagonal.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        n, (a, b) = self.n_free, self.slots[(self.slots >= 0).all(axis=1)].T
        ends = np.concatenate([a, b]), np.concatenate([b, a])
        links = coo_matrix((np.ones(2 * len(a)), ends), shape=(n, n)).tocsr()
        nodes = reverse_cuthill_mckee(links, symmetric_mode=True)
        rank = np.empty(n, dtype=np.int64)
        rank[nodes] = np.arange(n)
        width = 6 * int(np.abs(rank[a] - rank[b]).max(initial=0)) + 5
        *_, indices, indptr, _ = self.pattern
        dim = 6 * n
        if (width + 1) * dim > _BAND_FILL * len(indices):
            return None
        order = (6 * nodes[:, None] + np.arange(6)).ravel()
        at = np.empty(dim, dtype=np.int64)
        at[order] = np.arange(dim)
        row, column = at[indices], at[np.repeat(np.arange(dim), np.diff(indptr))]
        source = np.flatnonzero(row >= column)
        return order, width, source, (row - column)[source] * dim + column[source]

    def normal_equations(self, linearization):
        """IRLS-weighted gradient (6F,) and sparse Hessian (6F, 6F) over free rows.

        ``linearization`` is what `cost` returns beside the cost. The 6x6
        blocks J_k^T J_m of the free endpoints of each linearized edge sum
        into the stored entries of `pattern`.
        """
        from scipy.sparse import csc_matrix

        (r, rel), edges, slots = linearization, self.linearized, self.slots
        wr, _, scale = _robust(edges, r)
        jac = np.stack(_jacobians(edges.whitener, r, rel), axis=1)
        jac = jac * scale[:, None, None, None]
        jac_t = np.swapaxes(jac, -1, -2)
        wr = wr * scale[:, None]
        free = slots >= 0

        dim = 6 * self.n_free
        rows = 6 * slots[free][:, None] + np.arange(6)
        grad = np.bincount(rows.ravel(), (jac_t @ wr[:, None, :, None])[free].ravel(), dim)
        e, k, m, position, indices, indptr, _ = self.pattern
        values = np.bincount(position.ravel(), (jac_t[e, k] @ jac[e, m]).ravel(), len(indices))
        return grad, csc_matrix((values, indices, indptr), shape=(dim, dim))


def whitened_residual_and_jacobians(edge: Edges, poses: dict):
    """Whitened residual plus analytic Jacobians wrt each endpoint's tangent.

    ``edge`` is a one-row `Edges`, ``poses`` maps node id to pose. Right
    perturbation convention: d/dxi of residual at T <- T exp(xi).
    Returns (W r, {node_id: W J}); the residual's rotation part comes first.
    """
    problem = _Problem(poses, edge)
    r, rel = _residuals(problem.ends, problem.z_inv, problem.q, problem.t)
    jac_a, jac_b = _jacobians(edge.whitener, r, rel)
    i, j = int(edge.i[0]), int(edge.j[0])
    jacs = {i: jac_b[0]} if edge.kind[0] == "prior" else {i: jac_a[0], j: jac_b[0]}
    return edge.whitener[0] @ r[0], jacs


def robust_cost(graph: PoseGraph) -> float:
    """Sum of kernel-reshaped whitened residual norms over all edges."""
    problem = _Problem(graph.poses(), graph.edges)
    return problem.cost(problem.q, problem.t)[0]


@dataclass
class OptimizationReport:
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trace: list[float] = field(default_factory=list)  # accepted costs only
    reason: str = ""
    accepted_steps: int = 0
    rejected_steps: int = 0


def _damped_step(problem: _Problem, grad: np.ndarray, hess, lam: float):
    """The step solving (H + lam I) step = -grad, or None when LAPACK finds
    the damped band not positive definite.

    On `_Problem.band`'s route the stored entries are scattered into the band
    and factored by banded Cholesky; otherwise a copy of H is factored by
    SuperLU with diagonal pivots.
    """
    if problem.band is None:
        from scipy.sparse.linalg import splu

        damped = hess.copy()
        damped.data[problem.pattern[-1]] += lam
        return splu(damped, diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True}).solve(-grad)
    from scipy.linalg import solveh_banded

    order, width, source, target = problem.band
    band = np.zeros((width + 1) * len(order))
    band[target] = hess.data[source]
    band = band.reshape(width + 1, -1)
    band[0] += lam
    try:
        permuted = solveh_banded(band, -grad[order], overwrite_ab=True, lower=True,
                                 check_finite=False)
    except np.linalg.LinAlgError:
        return None
    step = np.empty_like(permuted)
    step[order] = permuted
    return step


def optimize(graph: PoseGraph, max_iterations: int = 100) -> OptimizationReport:
    """Levenberg-Marquardt over the nodes not marked `GraphNode.fixed`;
    updates poses in place.

    Every iteration runs over arrays: one batched residual for all edges,
    Jacobians for the edges with a free endpoint and a sparse Hessian on the
    pattern built before the first iteration. Each damping trial factors
    H + lambda I once: as a band by Cholesky when `_Problem.band` finds the
    Hessian narrow in reverse Cuthill-McKee order, otherwise by sparse LU
    with diagonal pivots. A band that is not positive definite counts as a
    rejected trial.
    """
    if max_iterations < 0:
        raise ValueError(f"negative max_iterations: {max_iterations}")
    problem = _Problem(graph.poses(), graph.edges,
                       {n.id for n in graph.nodes.values() if n.fixed})
    loose = problem.unanchored()
    if loose:
        more = f", ... ({len(loose)} in all)" if len(loose) > 10 else ""
        raise GaugeUnderdeterminedError(
            f"unanchored nodes: {', '.join(map(str, loose[:10]))}{more}; "
            "fix a node or add a prior")

    free, q, t = problem.free, problem.q, problem.t
    cost, point = problem.cost(q, t)
    report = OptimizationReport(0, cost, cost, [cost], "max iterations")
    if not problem.n_free:
        report.reason = "nothing to optimize"
        return report

    lam = _LAMBDA0
    for iteration in range(max_iterations):
        report.iterations = iteration + 1
        grad, hess = problem.normal_equations(point)
        if float(np.linalg.norm(grad)) < _GRADIENT_TOLERANCE:
            report.iterations = iteration
            report.reason = "gradient tolerance"
            break

        accepted = False
        while lam <= _LAMBDA_MAX:
            step = _damped_step(problem, grad, hess, lam)
            if step is not None:
                trial_q, trial_t = q.copy(), t.copy()
                trial_q[free], trial_t[free] = compose_batch((q[free], t[free]),
                                                             se3_exp(step.reshape(-1, 6)))
                trial_cost, trial_point = problem.cost(trial_q, trial_t)
                if trial_cost < cost:
                    accepted = True
                    break
            lam *= _LAMBDA_FACTOR
            report.rejected_steps += 1
        if not accepted:
            report.reason = "damping limit"
            break

        q, t, point = trial_q, trial_t, trial_point
        report.accepted_steps += 1
        report.cost_trace.append(trial_cost)
        lam = max(lam / _LAMBDA_FACTOR, 1e-15)
        relative_drop = (cost - trial_cost) / max(cost, 1e-30)
        cost = trial_cost
        if cost == 0.0 or relative_drop < _COST_TOLERANCE:
            report.reason = "cost tolerance"
            break

    if report.accepted_steps:
        for k in np.flatnonzero(free):
            graph.nodes[problem.ids[k]].pose = Pose(Rotation(*q[k].tolist()), t[k])
    report.final_cost = cost
    return report


def merge_sessions(
    graph1: PoseGraph,
    trajectory2,
    odometry2: Edges,
    loops12: Edges,
    t_init: Pose,
    t_init_prior: bool = False,
) -> PoseGraph:
    """Combine an anchored graph of one or more sessions with a new session's
    trajectory; the new session is labelled one more than the largest label
    in ``graph1``, so a merged graph takes a third session, and so on.

    ``trajectory2`` holds session-2 poses in the session-2 frame; they enter
    the merged graph as t_init * pose. ``odometry2`` rows join session-2
    indices (i, j), ``loops12`` rows a session-1 node id i and a session-2
    index j, measuring T_1i^{-1} T_2j. Both are `read_edge_list` tables; they
    join session 1's edges unchecked, with their kind's default kernel.
    Session-2 index k becomes node id (largest session-1 id) + 1 + k; an id
    beyond int64 is a ValueError. Session-1 nodes are hard-fixed. The
    initial guess can additionally be pinned with ``t_init_prior``, which
    adds a prior factor on the first session-2 node at its initialized pose.
    """
    if not graph1.nodes:
        raise ValueError("session-1 graph has no nodes")
    n2 = len(trajectory2)
    for kind, index in (("odometry", np.stack([odometry2.i, odometry2.j], axis=1).ravel()),
                        ("loop", loops12.j)):
        outside = (index < 0) | (index >= n2)
        if outside.any():
            raise ValueError(f"{kind} edge references session-2 index {index[outside][0]}, "
                             f"outside the trajectory's {n2} poses")
    missing = ~np.isin(loops12.i, list(graph1.nodes))
    if missing.any():
        raise ValueError(f"loop references missing session-1 node {loops12.i[missing][0]}")
    offset = max(graph1.nodes) + 1
    too_large = max(offset, ID_LIMIT)
    if too_large < offset + n2:
        raise ValueError(f"session-2 node id {too_large} does not fit in int64")
    if not len(loops12):
        logger.warning("sessions connected only by T_init; no inter-session loop edges")

    merged = PoseGraph()
    for node in graph1.nodes.values():
        merged.add_node(node.id, node.pose, node.session, fixed=True)
    label = max(node.session for node in graph1.nodes.values()) + 1
    for idx, pose in enumerate(trajectory2):
        merged.add_node(offset + idx, t_init * pose, session=label)

    n_odometry, n_loops = len(odometry2), len(loops12)
    tables = [graph1.edges,
              odometry2._with(kind=np.full(n_odometry, "odometry"), i=odometry2.i + offset,
                              j=odometry2.j + offset, huber=np.zeros(n_odometry, bool),
                              delta=np.ones(n_odometry)),
              loops12._with(kind=np.full(n_loops, "loop"), j=loops12.j + offset,
                            huber=np.ones(n_loops, bool), delta=np.ones(n_loops))]
    if t_init_prior:
        tables.append(Edges("prior", [offset], [None], [merged.nodes[offset].pose],
                            PRIOR_INFORMATION))
    merged.edges = Edges.concat(tables)
    return merged
