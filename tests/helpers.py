"""Test-side shortcuts built on the package's public pieces."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wassmap.geometry import _skew, adjoint, compose_batch, se3_exp, se3_log, stack_poses
from wassmap.pose_graph import _Problem, _residuals
from wassmap.synth import CloudFrame
from wassmap.voxel_map import GmmMap


def build_map(points, voxel_size: float = 4.0) -> GmmMap:
    """One-shot map over a point list; equivalent to repeated insertion."""
    grid = GmmMap(voxel_size)
    grid.insert_points(points)
    return grid


def total_points(grid: GmmMap) -> int:
    """Points the map holds: the sum of its voxel counts."""
    return int(grid.sums[:, 0].sum())


def pose_matrix(pose) -> np.ndarray:
    """The 4x4 homogeneous matrix of a `Pose`."""
    m = np.eye(4)
    m[:3, :3] = pose.rotation.as_matrix()
    m[:3, 3] = pose.translation
    return m


def log_pose(pose) -> np.ndarray:
    """`se3_log` of one `Pose`, a (6,) twist."""
    return se3_log(stack_poses([pose]))[0]


def one_adjoint(pose) -> np.ndarray:
    """`adjoint` of one `Pose`, a 6x6 matrix."""
    return adjoint(stack_poses([pose]))[0]


def assert_maps_identical(a: GmmMap, b: GmmMap) -> None:
    """Same origin, keys, counts and sums, bit for bit."""
    np.testing.assert_array_equal(a.origin, b.origin)
    for name in ("_keys", "sums"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


def pack(sig) -> np.ndarray:
    """(..., 3, 3) covariances as the (..., 6) columns xx xy xz yy yz zz that
    `moments` returns, taken from the lower triangle, the one `eigvalsh` reads."""
    return np.asarray(sig, dtype=float)[..., [0, 1, 2, 1, 2, 2], [0, 0, 0, 1, 1, 2]]


def evaluate_ate(estimate, ground_truth) -> float:
    """RMSE of translation errors between index-aligned pose lists."""
    if len(estimate) != len(ground_truth):
        raise ValueError("trajectories differ in length")
    if len(estimate) == 0:
        raise ValueError("empty trajectory")
    err = np.array(
        [est.translation - ref.translation for est, ref in zip(estimate, ground_truth)]
    )
    return float(np.sqrt((err ** 2).sum(axis=1).mean()))


def session_ids(graph, session: int) -> list[int]:
    return sorted(n.id for n in graph.nodes.values() if n.session == session)


def write_ascii_pcd(path, points) -> None:
    """x y z points as an ASCII PCD v0.7 file, the layout `read_pcd` also reads."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    header = (
        "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
        f"WIDTH {len(pts)}\nHEIGHT 1\nPOINTS {len(pts)}\nDATA ascii\n"
    )
    rows = "".join("%.9g %.9g %.9g\n" % tuple(p) for p in pts)
    Path(path).write_text(header + rows, encoding="ascii")


def write_padded_pcd(path, points, mode: str = "binary") -> None:
    """x y z points (float32) as a PCD file in a PCL layout whose padding
    fields repeat the name `_`: FIELDS x y z _ intensity _, 32-byte records.
    Each point's intensity is its index; ascii values keep every float32 bit."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    n = len(pts)
    header = (
        "VERSION 0.7\nFIELDS x y z _ intensity _\nSIZE 4 4 4 1 4 1\nTYPE F F F U F U\n"
        f"COUNT 1 1 1 4 1 12\nWIDTH {n}\nHEIGHT 1\nPOINTS {n}\nDATA {mode}\n"
    )
    if mode == "binary":
        records = np.zeros(n, dtype=[("xyz", "<f4", 3), ("pad", "u1", 4), ("intensity", "<f4"),
                                     ("tail", "u1", 12)])
        records["xyz"], records["pad"], records["tail"] = pts, 0xAB, 0xCD
        records["intensity"] = np.arange(n)
        payload = records.tobytes()
    else:
        payload = "".join(" ".join(["%.17g" % v for v in row] + ["171"] * 4 + [str(k)]
                                   + ["205"] * 12) + "\n"
                          for k, row in enumerate(pts.astype(float).tolist())).encode("ascii")
    Path(path).write_bytes(header.encode("ascii") + payload)


def central_differences(edge, poses, step: float) -> dict:
    """{node id: (6, 6)} central differences of a one-row `Edges`' whitened
    residual wrt the right perturbations T <- T exp(+-step e_k) of each of its
    nodes, from one batched residual call at all the perturbed states."""
    problem = _Problem(poses, edge)
    nodes = [int(edge.i[0])] if edge.kind[0] == "prior" else [int(edge.i[0]), int(edge.j[0])]
    twists = step * np.concatenate([np.eye(6), -np.eye(6)])
    q, t, ends = [problem.q], [problem.t], []
    for node in nodes:
        row = problem.ids.index(node)
        first = sum(len(block) for block in q)
        base = (np.repeat(problem.q[row:row + 1], 12, 0), np.repeat(problem.t[row:row + 1], 12, 0))
        moved_q, moved_t = compose_batch(base, se3_exp(twists))
        q.append(moved_q)
        t.append(moved_t)
        ends.append(np.where(problem.ends[0] == row, first + np.arange(12)[:, None],
                             problem.ends[0]))
    ends = np.concatenate(ends)
    z_inv = tuple(np.repeat(z, len(ends), 0) for z in problem.z_inv)
    r, _ = _residuals(ends, z_inv, np.concatenate(q), np.concatenate(t))
    wr = (r @ edge.whitener[0].T).reshape(len(nodes), 2, 6, 6)
    return {node: (plus - minus).T / (2.0 * step) for node, (plus, minus) in zip(nodes, wr)}


def se3_ad(xi) -> np.ndarray:
    """The 6x6 ad(xi) = [[w^, 0], [v^, w^]] of (..., 6) twists."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = _skew(xi[..., :3])
    out[..., 3:, :3] = _skew(xi[..., 3:])
    return out


def se3_left_jacobian(xi) -> np.ndarray:
    """Left Jacobian: exp(xi + d) = exp(J d) exp(xi) + O(|d|^2), batched.

    The reference for the closed forms: the convergent series sum
    ad^n / (n+1)!, summed until every term of the batch is below 1e-18.
    """
    ad = se3_ad(xi)
    out = np.broadcast_to(np.eye(6), ad.shape).copy()
    term = out.copy()
    for n in range(1, 60):
        term = term @ ad / (n + 1.0)
        out += term
        if np.abs(term).max(initial=0.0) < 1e-18:
            break
    return out


@dataclass(frozen=True)
class ReferenceRotation:
    """The two-step construction `Rotation` must match bit for bit: the
    generated ``__init__`` assigns the raw fields, then ``__post_init__``
    divides each one by the norm."""

    w: float = 1.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if not (n > 0.0) or not math.isfinite(n):
            raise ValueError("quaternion must be finite and nonzero")
        object.__setattr__(self, "w", self.w / n)
        object.__setattr__(self, "x", self.x / n)
        object.__setattr__(self, "y", self.y / n)
        object.__setattr__(self, "z", self.z / n)


# Reference text writers: one Python call per value, the layout the io writers
# must reproduce byte for byte.

def format_pose(pose) -> str:
    t = pose.translation
    q = pose.rotation
    return "%.17g %.17g %.17g %.17g %.17g %.17g %.17g" % (
        t[0], t[1], t[2], q.x, q.y, q.z, q.w
    )


def format_edge(ids, measurement, information) -> str:
    """EDGE_SE3_PRIOR for one endpoint, EDGE_SE3:QUAT for two."""
    record = "EDGE_SE3_PRIOR" if len(ids) == 1 else "EDGE_SE3:QUAT"
    upper = " ".join("%.17g" % v for v in information[np.triu_indices(6)])
    return " ".join([record, *map(str, ids), format_pose(measurement), upper])


def _text(lines) -> str:
    return "\n".join(lines) + ("\n" if lines else "")


def reference_graph_text(graph) -> str:
    lines = []
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        lines.append(f"# SESSION {node.id} {node.session}")
        if node.fixed:
            lines.append(f"# FIX {node.id}")
        lines.append(f"VERTEX_SE3:QUAT {node.id} {format_pose(node.pose)}")
    edges = graph.edges
    for kind, i, j, measurement, info, huber, delta in zip(
            edges.kind, edges.i.tolist(), edges.j.tolist(), edges.measurement,
            edges.information, edges.huber, edges.delta.tolist()):
        lines.append(f"# KIND {kind} {'huber' if huber else 'none'} {'%.17g' % delta}")
        lines.append(format_edge((i,) if kind == "prior" else (i, j), measurement, info))
    return _text(lines)


def reference_edge_list_text(edges) -> str:
    return _text([format_edge((i, j), measurement, info)
                  for i, j, measurement, info in zip(edges.i.tolist(), edges.j.tolist(),
                                                      edges.measurement, edges.information)])


def reference_tum_text(entries) -> str:
    return _text(["%.9f " % entry.timestamp + format_pose(entry.pose) for entry in entries])


def reference_scan(scene, pose, spec, frame_index: int = 0, timestamp: float = 0.0):
    """The per-patch sampler `simulate_scan` must match bit for bit: one
    uniform draw and one range test per patch with points in the chunk."""
    rng = np.random.default_rng(spec.seed)
    areas = np.array([p.area for p in scene.patches])
    weights = areas / areas.sum()
    budget = int(math.ceil(scene.total_area * scene.density))
    center = np.asarray(pose.translation)

    kept: list[np.ndarray] = []
    n_kept = 0
    while n_kept < spec.points_per_frame and budget > 0:
        chunk = min(max(2 * spec.points_per_frame, 1024), budget)
        budget -= chunk
        counts = rng.multinomial(chunk, weights)
        for patch, count in zip(scene.patches, counts):
            if count == 0:
                continue
            ab = rng.random((int(count), 2))
            pts = (np.asarray(patch.origin) + ab[:, :1] * np.asarray(patch.u)
                   + ab[:, 1:] * np.asarray(patch.v))
            dist = np.linalg.norm(pts - center, axis=1)
            pts = pts[dist <= spec.max_range]
            if len(pts):
                kept.append(pts)
                n_kept += len(pts)

    if n_kept == 0:
        world = np.empty((0, 3))
    else:
        world = np.concatenate(kept)
        if len(world) > spec.points_per_frame:
            order = rng.permutation(len(world))[: spec.points_per_frame]
            world = world[np.sort(order)]
    if spec.sigma > 0.0 and len(world):
        world = world + rng.normal(scale=spec.sigma, size=world.shape)
    sensor = pose.inverse().transform_points(world) if len(world) else world
    return CloudFrame(frame_index, timestamp, sensor)
