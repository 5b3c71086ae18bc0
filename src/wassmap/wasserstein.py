"""2-Wasserstein distance between Gaussians and its map-level aggregation.

For Gaussians the distance has the closed form

    W2^2 = |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})

The cross term needs only the eigenvalues l1 >= l2 >= l3 of S1 S2, which are
those of M = F^T S2 F for any F with F F^T = S1 (Bhatia, Jain & Lim, Expo.
Math. 2019). F is the closed-form 3x3 Cholesky factor of S1 (`_cholesky`),
or, on rows it cannot certify (rank-deficient, or beyond its trace bound),
V diag(sqrt(lam)) from `eigh`. Then tr M^{1/2} = sqrt(l1) + sqrt(tr M - l1 +
2 sqrt(det M / l1)), with l1 from Smith's trigonometric formula (CACM 1961)
and det M from an LDL^T of M. Covariances come packed as `moments` returns
them, symmetric by construction; only rows that go to LAPACK are expanded
to 3x3. Voxels with coplanar or collinear points give rank-deficient
covariances, so eigenvalues in [-1e-9, 0) are clamped to zero; anything more
negative is rejected as an invalid covariance. The frame side's covariances
are checked against that floor by the same Cholesky, shifted by half the
tolerance; only the rows it cannot certify go to `eigvalsh`, so accept/reject
and the message are those of a full `eigvalsh` check. When the two
covariances are bitwise equal the trace term vanishes identically and the
distance is returned as the plain mean offset, which keeps d(g, g) exactly
zero instead of sqrt(rounding noise).

Map-level dissimilarity compares a staged frame against its base map voxel by
voxel, with sample covariances on both sides, and takes the mean over the
voxels they share; a frame that shares none scores NaN, in the same report.
Voxels are reduced in key order, so the result is bit-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wassmap.voxel_map import _COL, _ROW, _UPPER, StagedUpdate, StaleStageError, moments

_EIG_CLAMP = 1e-9
_CERT_TRACE = 1e3  # m^2; see _cholesky
_U = 2.0**-53  # unit roundoff


class InvalidCovarianceError(ValueError):
    """Covariance is non-finite, or indefinite beyond tolerance."""


@dataclass
class DissimilarityReport:
    value: float                # NaN when no voxel compares
    rows: np.ndarray            # (K,) compared base rows
    cell_distances: np.ndarray  # (K,) their W2
    affected_count: int         # voxels that entered the average
    new_count: int              # frame voxels absent from the base map
    skipped_count: int          # shared voxels under the point-count floor


def _cholesky(cov: np.ndarray, shift: float = 0.0) -> tuple[tuple, np.ndarray]:
    """Closed-form lower Cholesky factor L of A = fl(S + shift I), as its
    columns l00 l10 l20 l11 l21 l22 (not meaningful on rows that fail a pivot),
    and the (B,) mask of rows it certifies: those whose `eigvalsh` minimum
    cannot fall below -c, c = _EIG_CLAMP. S (B,6) is packed as `moments` packs
    it: its lower triangle, the one `eigvalsh` reads. A row is certified when
    its three pivots are positive and tr A < _CERT_TRACE.
    With unit roundoff u = 2^-53 and n = 3, Higham (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3) gives the computed factor with
    L L^T = A + dA, |dA| <= g4 |L| |L^T|, g4 = 4u / (1 - 4u). Hence
    ||dA||_2 <= g4 ||L||_F^2 and, since ||L||_F^2 = tr A + tr dA,
    ||dA||_2 <= g4 / (1 - g4) tr A < 5u tr A. L L^T is positive definite, and
    forming the shift rounds each diagonal entry by at most u tr A, so
    lambda_min(S) >= -shift - 6u tr A. `eigvalsh` is backward stable: it
    returns the eigenvalues of S + F with ||F||_2 <= p u (tr A + c), where
    LAPACK's p(n) is a few dozen at n = 3. Its minimum then stays at or above
    -c whenever shift + (7 + p) u tr A <= c: with tr A < 1e3 m^2, for any p up
    to 4,000 at the overlay's shift c/2 and up to 9,000 unshifted, two orders
    of magnitude of margin. The points of one voxel of side s have a sample
    covariance of trace at most 1.5 s^2, so only voxels wider than 25 m can
    reach the bound; the rows that do, or that fail a pivot, go to LAPACK.
    """
    a00, a11, a22 = (cov[:, k] + shift for k in (0, 3, 5))
    with np.errstate(all="ignore"):  # a row that fails turns NaN and fails below
        l00 = np.sqrt(a00)
        l10, l20 = cov[:, 1] / l00, cov[:, 2] / l00
        p1 = a11 - l10 * l10
        l11 = np.sqrt(p1)
        l21 = (cov[:, 4] - l10 * l20) / l11
        p2 = a22 - l20 * l20 - l21 * l21
        return ((l00, l10, l20, l11, l21, np.sqrt(p2)),
                (a00 > 0) & (p1 > 0) & (p2 > 0) & (a00 + a11 + a22 < _CERT_TRACE))


def _validate_covariances(cov: np.ndarray, eig_floor_checked: bool) -> None:
    if not np.all(np.isfinite(cov)):
        raise InvalidCovarianceError("non-finite covariance")
    if not eig_floor_checked:
        # every failing row is uncertified, so it holds this minimum and the
        # message names the same eigenvalue as a check of the whole batch
        rest = cov[~_cholesky(cov, 0.5 * _EIG_CLAMP)[1]]
        lam_min = np.linalg.eigvalsh(rest[:, _UPPER]).min() if len(rest) else 0.0
        if lam_min < -_EIG_CLAMP:
            raise InvalidCovarianceError(f"covariance has eigenvalue {lam_min:.3g}")


def _congruence(low: tuple, cov: np.ndarray) -> np.ndarray:
    """(6,B) packed M = L^T S L, through T = S L, for L as `_cholesky` returns it."""
    l00, l10, l20, l11, l21, l22 = low
    s00, s01, s02, s11, s12, s22 = cov.T
    t00 = s00 * l00 + s01 * l10 + s02 * l20
    t10 = s01 * l00 + s11 * l10 + s12 * l20
    t20 = s02 * l00 + s12 * l10 + s22 * l20
    t01, t11, t21 = s01 * l11 + s02 * l21, s11 * l11 + s12 * l21, s12 * l11 + s22 * l21
    t02, t12, t22 = s02 * l22, s12 * l22, s22 * l22
    return np.array([l00 * t00 + l10 * t10 + l20 * t20, l00 * t01 + l10 * t11 + l20 * t21,
                     l00 * t02 + l10 * t12 + l20 * t22, l11 * t11 + l21 * t21,
                     l11 * t12 + l21 * t22, l22 * t22])


def _root_trace(m00, m01, m02, m11, m12, m22) -> np.ndarray:
    """tr(M^{1/2}) from the rows of packed M, in the module docstring's closed
    form; det M is 0 where an LDL^T pivot is not positive, the root 0 where l1 is."""
    tr = m00 + m11 + m22
    q = tr / 3.0
    a, b, c = m00 - q, m11 - q, m22 - q
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (m01 * m01 + m02 * m02 + m12 * m12)) / 6.0)
    det_mq = a * (b * c - m12 * m12) + m01 * (m12 * m02 - m01 * c) + m02 * (m01 * m12 - b * m02)
    with np.errstate(all="ignore"):
        # det(M - qI) / 2p^3 is 0/0 where M is isotropic; fmax sends NaN to -1, so l1 = q
        r = np.fmin(np.fmax(det_mq / (2.0 * p * p * p), -1.0), 1.0)
        lam1 = np.maximum(q + 2.0 * p * np.cos(np.arccos(r) / 3.0), 0.0)
        d1, e = m11 - m01 * m01 / m00, m12 - m01 * m02 / m00
        d2 = m22 - m02 * m02 / m00 - e * e / d1
        det = np.where((m00 > 0) & (d1 > 0) & (d2 > 0), m00 * d1 * d2, 0.0)
        rest = np.maximum(tr - lam1 + 2.0 * np.sqrt(det / lam1), 0.0)
        return np.where(lam1 > 0, np.sqrt(lam1) + np.sqrt(rest), 0.0)


def w2_batch(mu1, cov1, mu2, cov2) -> np.ndarray:
    """Pairwise Wasserstein distances for aligned batches of Gaussians.

    Shapes (B,3) and (B,6), covariances packed as `moments` packs them;
    returns (B,), validating the inputs once per batch. The cross term takes
    F = L, the unshifted `_cholesky` factor of ``cov1``, on rows with three
    positive pivots and tr S1 < 1e3 m^2: there lambda_min(S1) >= -6u tr S1 >
    -1e-9, so the floor holds unchecked. Other rows take F = V diag(sqrt(lambda))
    from `eigh`, which checks it.

    W2^2 below -(9c + 8u (tr S1 + tr S2) + 64 sqrt(u tr S1 tr S2)), c =
    _EIG_CLAMP, is rejected; nothing the checks above accept gets there.
    Exactly, F F^T is S1's positive part and S2 has eigenvalues >= -c:
    W2^2 >= -9c. Rounding moves M's eigenvalues by at most eta = 30u tr S1
    tr S2: 5u from F F^T = S1 + dA (`_cholesky`), 6u from forming M, and 12u
    from the LDL^T, whose det is that of M + E, ||E|| <= 5u tr M, or 0 after a
    pivot that fails only if lambda_min(M) <= 12u tr M (Higham, Thms 10.5 and
    10.7); Smith's l1 adds a few u, or up to sqrt(u) tr M next to a double top
    eigenvalue, where tr M^{1/2} is stationary in l1. As |sqrt(a) - sqrt(b)|
    <= sqrt(|a - b|), W2^2 drops by at most 6 sqrt(eta) < 64 sqrt(u tr S1
    tr S2), the size a flat voxel's zero eigenvalue is lifted to. Near zero
    the sums round by at most 8u (tr S1 + tr S2).
    """
    mu1 = np.asarray(mu1, dtype=float).reshape(-1, 3)
    mu2 = np.asarray(mu2, dtype=float).reshape(-1, 3)
    cov1 = np.asarray(cov1, dtype=float).reshape(-1, 6)
    cov2 = np.asarray(cov2, dtype=float).reshape(-1, 6)
    if not (len(mu1) == len(mu2) == len(cov1) == len(cov2)):
        raise ValueError("batch sizes disagree")
    if len(mu1) == 0:
        return np.empty(0)
    if not (np.all(np.isfinite(mu1)) and np.all(np.isfinite(mu2))):
        raise ValueError("non-finite mean")
    _validate_covariances(cov1, eig_floor_checked=True)
    _validate_covariances(cov2, eig_floor_checked=False)

    dmu = mu1 - mu2
    mean_sq = (dmu * dmu).sum(axis=-1)
    same_cov = np.all(cov1 == cov2, axis=-1)
    if same_cov.all():
        # the trace term vanishes identically, skip the factorizations
        return np.sqrt(mean_sq)

    low, certified = _cholesky(cov1)
    with np.errstate(all="ignore"):  # uncertified rows are replaced below
        inner = _congruence(low, cov2)
    if not certified.all():
        rest = ~certified
        lam1, vec1 = np.linalg.eigh(cov1[rest][:, _UPPER])
        if lam1.min() < -_EIG_CLAMP:
            raise InvalidCovarianceError(f"covariance has eigenvalue {lam1.min():.3g}")
        factor = vec1 * np.sqrt(np.clip(lam1, 0.0, None))[:, None, :]
        full = np.swapaxes(factor, -1, -2) @ cov2[rest][:, _UPPER] @ factor
        inner[:, rest] = full[:, _ROW, _COL].T
    cross = _root_trace(*inner)

    tr1, tr2 = cov1[:, 0] + cov1[:, 3] + cov1[:, 5], cov2[:, 0] + cov2[:, 3] + cov2[:, 5]
    traces = tr1 + tr2
    total = mean_sq + traces - 2.0 * cross
    floor = -(9 * _EIG_CLAMP + 8 * _U * traces + 64 * np.sqrt(_U * np.maximum(tr1 * tr2, 0.0)))
    if np.any(total < floor):
        raise InvalidCovarianceError("Wasserstein inner value strongly negative")
    out = np.sqrt(np.clip(total, 0.0, None))
    out[same_cov] = np.sqrt(mean_sq[same_cov])
    return out


def map_dissimilarity(stage: StagedUpdate, min_points: int = 2) -> DissimilarityReport:
    """Mean per-voxel Wasserstein distance between a stage and its base map.

    Every voxel the stage touches falls into one of three bins: compared
    (present in the base with at least ``min_points`` points, and never
    fewer than 2, on both sides), new (absent from the base, excluded from
    the mean), or skipped (shared but under the point floor). When nothing
    compares, the report has value NaN and ``affected_count`` 0.
    """
    base = stage.base
    if stage.base_version != base.version:
        raise StaleStageError("stage was built against a different map state")
    floor = max(int(min_points), 2)

    matched = np.flatnonzero(stage.hit)
    shared = stage.at[matched]
    # the overlay holds the base's points and at least one more
    usable = base.sums[shared, 0] >= floor
    rows, deltas = shared[usable], matched[usable]

    # both sides share each voxel's anchor, so the anchored means compare
    # directly and the score does not depend on how far the map is from zero;
    # counts are integers, so they add exactly in float64
    sums = base.sums[rows]
    mu_base, cov_base = moments(sums)
    mu_over, cov_over = moments(sums + stage.sums[deltas])
    dists = w2_batch(mu_base, cov_base, mu_over, cov_over)

    return DissimilarityReport(
        value=float(dists.mean()) if len(rows) else math.nan,
        rows=rows,
        cell_distances=dists,
        affected_count=len(rows),
        new_count=len(stage.keys) - len(shared),
        skipped_count=len(shared) - len(rows),
    )
