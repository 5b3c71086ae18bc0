"""Correctness checks computed apart from the program.

Nothing here imports `wassmap`: files are parsed with small readers of
their own, the voxel map is rebuilt in plain numpy from the raw points, and
the Wasserstein distance is recomputed with `scipy.linalg.sqrtm` instead of
the program's eigendecompositions. Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Set before any run: the largest |dw_reference - dw| accepted, in meters,
# plus the same share of dw. decisions.csv prints 9 significant digits.
DW_ABS_TOL = 1e-6
DW_REL_TOL = 1e-6
# Post-merge session-2 ATE must be below this and below this share of the
# pre-merge ATE.
ATE_BOUND_M = 0.08
ATE_SHARE = 0.2
# Session-1 pose values may differ by at most this after a read/write cycle.
POSE_TOL = 1e-12

_KEY_BIAS = 1 << 20          # voxel indices must lie in [-2^20, 2^20)


# ---------------------------------------------------------------------------
# readers

def read_xyz(path: Path) -> np.ndarray:
    """x, y, z of a binary PCD with exactly those three float32 fields."""
    raw = path.read_bytes()
    marker = b"DATA binary\n"
    at = raw.index(marker)
    header = raw[:at].decode("ascii")
    if "FIELDS x y z\n" not in header or "SIZE 4 4 4\n" not in header:
        raise ValueError(f"{path}: unexpected PCD layout")
    return np.frombuffer(raw[at + len(marker):], dtype="<f4").reshape(-1, 3).astype(float)


def read_tum_rows(path: Path) -> np.ndarray:
    """(N, 8) array of timestamp, tx, ty, tz, qx, qy, qz, qw."""
    rows = [[float(v) for v in line.split()] for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    return np.array(rows, dtype=float).reshape(-1, 8)


def quat_matrix(qx, qy, qz, qw) -> np.ndarray:
    n = math.sqrt(qx * qx + qy * qy + qz * qz + qw * qw)
    x, y, z, w = qx / n, qy / n, qz / n, qw / n
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def read_decisions(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        values = dict(zip(names, line.split(",")))
        rows.append({
            "frame": int(values["frame"]),
            "dw": float(values["dw"]),
            "keyframe": int(values["keyframe"]),
            "affected": int(values["affected"]),
            "new": int(values["new"]),
            "skipped": int(values["skipped"]),
        })
    return rows


def read_vertices(path: Path) -> dict[int, np.ndarray]:
    out = {}
    for line in path.read_text().splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "VERTEX_SE3:QUAT":
            out[int(tokens[1])] = np.array([float(t) for t in tokens[2:9]])
    return out


def read_cost_trace(path: Path) -> list[float]:
    for line in path.read_text().splitlines():
        if line.startswith("cost_trace="):
            return [float(v) for v in line.partition("=")[2].split()]
    return []


# ---------------------------------------------------------------------------
# keyframes

def expected_keyframes(rows: list[dict], tau: float) -> list[int]:
    """The decision rule applied to the reported scores: the bootstrap frame
    (dw = +inf), scored frames with dw > tau, and no-comparable frames
    (dw = NaN), which the default policy makes keyframes."""
    return [r["frame"] for r in rows
            if math.isnan(r["dw"]) or r["dw"] == math.inf or r["dw"] > tau]


def w2_sqrtm(mu1, sig1, mu2, sig2) -> float:
    from scipy.linalg import sqrtm

    root1 = sqrtm(sig1)
    cross = np.real(np.trace(sqrtm(root1 @ sig2 @ root1)))
    value = float((mu1 - mu2) @ (mu1 - mu2) + np.trace(sig1) + np.trace(sig2) - 2.0 * cross)
    return math.sqrt(max(value, 0.0))


class ReferenceMap:
    """Per-voxel count, sum and outer-product sum in sorted flat arrays."""

    def __init__(self, voxel_size: float):
        self.voxel_size = voxel_size
        self.keys = np.empty(0, dtype=np.int64)
        self.stats = np.empty((0, 13))

    def _pack(self, cells: np.ndarray) -> np.ndarray:
        if cells.size and (cells.min() < -_KEY_BIAS or cells.max() >= _KEY_BIAS):
            raise ValueError("voxel index out of the reference map's range")
        b = cells + _KEY_BIAS
        return (b[:, 0] << 42) | (b[:, 1] << 21) | b[:, 2]

    def _unpack(self, keys: np.ndarray) -> np.ndarray:
        mask = (1 << 21) - 1
        return np.stack([keys >> 42, (keys >> 21) & mask, keys & mask], axis=1) - _KEY_BIAS

    def frame_stats(self, points: np.ndarray):
        """(sorted keys, per-voxel [n, sum, outer sum]) of one frame's points."""
        keys = self._pack(np.floor(points / self.voxel_size).astype(np.int64))
        uniq, inverse = np.unique(keys, return_inverse=True)
        columns = [np.ones(len(points))] + [points[:, a] for a in range(3)]
        columns += [points[:, a] * points[:, b] for a in range(3) for b in range(3)]
        stats = np.stack([np.bincount(inverse, weights=c, minlength=len(uniq))
                          for c in columns], axis=1)
        return uniq, stats

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Row of each key in the map, or -1."""
        if len(self.keys) == 0:
            return np.full(len(keys), -1)
        rows = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[rows] == keys, rows, -1)

    def commit(self, keys: np.ndarray, stats: np.ndarray) -> None:
        rows = self.lookup(keys)
        old = rows >= 0
        self.stats[rows[old]] += stats[old]
        all_keys = np.concatenate([self.keys, keys[~old]])
        all_stats = np.concatenate([self.stats, stats[~old]])
        order = np.argsort(all_keys)
        self.keys, self.stats = all_keys[order], all_stats[order]

    def prune(self, center: np.ndarray, radius: float) -> None:
        centers = (self._unpack(self.keys) + 0.5) * self.voxel_size
        keep = np.linalg.norm(centers - center, axis=1) <= radius
        self.keys, self.stats = self.keys[keep], self.stats[keep]


def _gaussian(stats: np.ndarray):
    n = stats[0]
    mu = stats[1:4] / n
    cov = (stats[4:13].reshape(3, 3) - n * np.outer(mu, mu)) / (n - 1.0)
    return mu, 0.5 * (cov + cov.T)


def reference_scores(clouds: list[Path], poses: np.ndarray, committed: list[bool],
                     sample: set[int], voxel_size: float, radius: float,
                     min_points: int) -> dict[int, tuple[float, int, int, int]]:
    """Replay the sequence on a `ReferenceMap` and score the sampled frames.

    `committed[k]` says whether frame k+1 entered the map. As in the
    selector, every frame after the bootstrap frame is followed by a prune
    around its position. Returns, per sampled
    1-based frame index, (dw, compared, new, skipped) voxel counts.
    """
    ref = ReferenceMap(voxel_size)
    out = {}
    for k, (path, row) in enumerate(zip(clouds, poses)):
        frame = k + 1
        rot = quat_matrix(*row[4:8])
        points = read_xyz(path) @ rot.T + row[1:4]
        keys, stats = ref.frame_stats(points)
        if frame in sample:
            rows = ref.lookup(keys)
            shared = rows >= 0
            base = ref.stats[rows[shared]]
            over = base + stats[shared]
            usable = (base[:, 0] >= min_points) & (over[:, 0] >= min_points)
            dists = [w2_sqrtm(*_gaussian(b), *_gaussian(o))
                     for b, o in zip(base[usable], over[usable])]
            dw = float(np.mean(dists)) if dists else math.nan
            out[frame] = (dw, int(usable.sum()), int((~shared).sum()),
                          int((~usable).sum()))
        if committed[k]:
            ref.commit(keys, stats)
        if frame > 1:
            ref.prune(row[1:4], radius)
    return out


def check_keyframes(clouds: list[Path], trajectory: Path, out: Path, tau: float,
                    voxel_size: float, radius: float, commit_always: bool,
                    sample_rng: np.random.Generator, n_sample: int,
                    min_points: int = 5) -> list[str]:
    """Check one `keyframes` output directory against its inputs."""
    failures = []
    rows = read_decisions(out / "decisions.csv")
    frames = [r["frame"] for r in rows]
    offered = list(range(1, len(clouds) + 1))
    if frames != offered:
        missing = sorted(set(offered) - set(frames))
        failures.append(f"decisions.csv has {len(rows)} rows for {len(clouds)} offered "
                        f"frames, missing {missing[:5]}")
        return failures
    expected = expected_keyframes(rows, tau)
    listed = [int(v) for v in (out / "keyframes.txt").read_text().split()]
    if listed != expected:
        failures.append(f"keyframes.txt lists {listed[:8]}, the rule selects {expected[:8]}")
    flagged = [r["frame"] for r in rows if r["keyframe"]]
    if flagged != expected:
        failures.append(f"keyframe column marks {flagged[:8]}, the rule selects {expected[:8]}")

    scored = [r["frame"] for r in rows if math.isfinite(r["dw"])]
    picks = sample_rng.choice(len(scored), size=min(n_sample, len(scored)), replace=False)
    sample = {scored[i] for i in picks}
    committed = [commit_always or r["keyframe"] == 1 for r in rows]
    poses = read_tum_rows(trajectory)
    reference = reference_scores(clouds, poses, committed, sample, voxel_size, radius,
                                 max(min_points, 2))
    by_frame = {r["frame"]: r for r in rows}
    for frame in sorted(sample):
        dw, compared, new, skipped = reference[frame]
        got = by_frame[frame]
        if not abs(dw - got["dw"]) <= DW_ABS_TOL + DW_REL_TOL * abs(dw):
            failures.append(f"frame {frame}: dw {got['dw']!r}, reference {dw!r}")
        if (got["affected"], got["new"], got["skipped"]) != (compared, new, skipped):
            failures.append(
                f"frame {frame}: affected/new/skipped {got['affected']}/{got['new']}/"
                f"{got['skipped']}, reference {compared}/{new}/{skipped}")
    return failures


# ---------------------------------------------------------------------------
# merge

def ate(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(((estimate - truth) ** 2).sum(axis=1).mean()))


def check_merge(inputs: Path, out: Path, t_init: list[float]) -> list[str]:
    """Check one `merge` output directory against ground truth and inputs.

    `t_init` is (x, y, z, qx, qy, qz, qw) as passed on the command line.
    """
    failures = []
    truth = read_tum_rows(inputs / "session2_truth.tum")[:, 1:4]
    estimate = read_tum_rows(inputs / "session2_estimate.tum")[:, 1:4]
    rot = quat_matrix(*t_init[3:7])
    pre = ate(estimate @ rot.T + np.asarray(t_init[:3]), truth)
    merged = read_tum_rows(out / "session2.tum")[:, 1:4]
    if merged.shape != truth.shape:
        failures.append(f"session2.tum has {len(merged)} poses, truth has {len(truth)}")
    else:
        post = ate(merged, truth)
        if not post < ATE_BOUND_M:
            failures.append(f"post-merge ATE {post:.4f} m is not below {ATE_BOUND_M} m")
        if not post < ATE_SHARE * pre:
            failures.append(f"post-merge ATE {post:.4f} m is not below "
                            f"{ATE_SHARE:g} x pre-merge {pre:.4f} m")
    before = read_vertices(inputs / "session1.g2o")
    after = read_vertices(out / "merged.g2o")
    moved = [i for i, v in before.items()
             if i not in after or np.max(np.abs(after[i] - v)) > POSE_TOL]
    if moved:
        failures.append(f"{len(moved)} session-1 nodes changed, first {moved[:5]}")
    trace = read_cost_trace(out / "report.txt")
    if not trace:
        failures.append("report.txt has no cost trace")
    elif any(b > a for a, b in zip(trace, trace[1:])):
        failures.append("cost trace increases")
    return failures
