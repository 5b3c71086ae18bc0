"""Test-side shortcuts built on the package's public pieces."""

from pathlib import Path

import numpy as np

from wassmap.geometry import _skew
from wassmap.voxel_map import GmmMap


def build_map(points, voxel_size: float = 4.0) -> GmmMap:
    """One-shot map over a point list; equivalent to repeated insertion."""
    grid = GmmMap(voxel_size)
    grid.insert_points(points)
    return grid


def assert_maps_identical(a: GmmMap, b: GmmMap) -> None:
    """Same origin, keys, counts and sums, bit for bit."""
    np.testing.assert_array_equal(a.origin, b.origin)
    for name in ("_keys", "n", "s", "q"):
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
