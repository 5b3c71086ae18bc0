"""2-Wasserstein distance between Gaussians and its map-level aggregation.

For Gaussians the distance has the closed form

    W2^2 = |mu1 - mu2|^2 + tr(S1 + S2 - 2 (S1^{1/2} S2 S1^{1/2})^{1/2})

The cross term needs only the eigenvalues of S1 S2, which are those of
F^T S2 F for any F with F F^T = S1 (Bhatia, Jain & Lim, Expo. Math. 2019).
F is the closed-form 3x3 Cholesky factor of S1 (`_cholesky`), or, on rows it
cannot certify (rank-deficient, or beyond its trace bound), V diag(sqrt(lam))
from `eigh`. Voxels with coplanar or collinear points give rank-deficient
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

from wassmap.voxel_map import StagedUpdate, StaleStageError, moments

_EIG_CLAMP = 1e-9
_SYM_TOL = 1e-9
_CERT_TRACE = 1e3  # m^2; see _cholesky
_U = 2.0**-53  # unit roundoff


class InvalidCovarianceError(ValueError):
    """Covariance is non-symmetric, non-finite, or indefinite beyond tolerance."""


@dataclass
class DissimilarityReport:
    value: float                # NaN when no voxel compares
    rows: np.ndarray            # (K,) compared base rows
    cell_distances: np.ndarray  # (K,) their W2
    affected_count: int         # voxels that entered the average
    new_count: int              # frame voxels absent from the base map
    skipped_count: int          # shared voxels under the point-count floor


def _cholesky(sig: np.ndarray, shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form lower Cholesky factor L of A = fl(S + shift I), (B,3,3), not
    meaningful on rows that fail a pivot, and the (B,) mask of rows it
    certifies: those whose `eigvalsh` minimum cannot fall below -c, c = _EIG_CLAMP.

    S is read from its lower triangle, the one `eigvalsh` reads. A row is
    certified when its three pivots are positive and tr A < _CERT_TRACE.
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
    a00 = sig[:, 0, 0] + shift
    a11 = sig[:, 1, 1] + shift
    a22 = sig[:, 2, 2] + shift
    low = np.zeros(sig.shape)
    with np.errstate(all="ignore"):  # a row that fails turns NaN and fails below
        l00 = low[:, 0, 0] = np.sqrt(a00)
        l10 = low[:, 1, 0] = sig[:, 1, 0] / l00
        l20 = low[:, 2, 0] = sig[:, 2, 0] / l00
        p1 = a11 - l10 * l10
        l11 = low[:, 1, 1] = np.sqrt(p1)
        l21 = low[:, 2, 1] = (sig[:, 2, 1] - l10 * l20) / l11
        p2 = a22 - l20 * l20 - l21 * l21
        low[:, 2, 2] = np.sqrt(p2)
        return low, (a00 > 0) & (p1 > 0) & (p2 > 0) & (a00 + a11 + a22 < _CERT_TRACE)


def _validate_covariances(sig: np.ndarray, eig_floor_checked: bool) -> None:
    if not np.all(np.isfinite(sig)):
        raise InvalidCovarianceError("non-finite covariance")
    asym = np.abs(sig - np.swapaxes(sig, -1, -2)).max()
    if asym > _SYM_TOL:
        raise InvalidCovarianceError(f"covariance asymmetric by {asym:.3g}")
    if not eig_floor_checked:
        # every failing row is uncertified, so it holds this minimum and the
        # message names the same eigenvalue as a check of the whole batch
        rest = sig[~_cholesky(sig, 0.5 * _EIG_CLAMP)[1]]
        lam_min = np.linalg.eigvalsh(rest).min() if len(rest) else 0.0
        if lam_min < -_EIG_CLAMP:
            raise InvalidCovarianceError(f"covariance has eigenvalue {lam_min:.3g}")


def w2_batch(mu1, sig1, mu2, sig2) -> np.ndarray:
    """Pairwise Wasserstein distances for aligned batches of Gaussians.

    Shapes (B,3) and (B,3,3); returns (B,). Inputs are validated once per
    batch. The cross term takes F = L, the unshifted `_cholesky` factor of
    ``sig1``, on each row with three positive pivots and tr S1 < 1e3 m^2:
    there lambda_min(S1) >= -6u tr S1 > -1e-9, so the floor holds unchecked.
    Other rows take F = V diag(sqrt(lambda)) from `eigh`, which checks it.

    W2^2 below -(9c + 8u (tr S1 + tr S2) + 64 sqrt(u tr S1 tr S2)), c =
    _EIG_CLAMP, is rejected; nothing the checks above accept gets there.
    Exactly, F F^T is S1's positive part and S2's symmetric part has
    eigenvalues >= -2c (its floor plus the tolerated asymmetry): W2^2 >= -9c.
    F F^T = S1 + dA, ||dA|| < 5u tr S1 (`_cholesky`); forming F^T S2 F adds
    at most 6u tr S1 tr S2 and `eigvalsh` p u tr S1 tr S2, p a few dozen. As
    |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), the doubled sum of three roots
    lowers W2^2 by at most 6 sqrt((11 + p) u tr S1 tr S2) < 64 sqrt(u tr S1
    tr S2) for p up to 100; a flat voxel's zero eigenvalue is lifted to that
    size. Near zero the sums round by at most 8u (tr S1 + tr S2).
    """
    mu1 = np.asarray(mu1, dtype=float).reshape(-1, 3)
    mu2 = np.asarray(mu2, dtype=float).reshape(-1, 3)
    sig1 = np.asarray(sig1, dtype=float).reshape(-1, 3, 3)
    sig2 = np.asarray(sig2, dtype=float).reshape(-1, 3, 3)
    if not (len(mu1) == len(mu2) == len(sig1) == len(sig2)):
        raise ValueError("batch sizes disagree")
    if len(mu1) == 0:
        return np.empty(0)
    if not (np.all(np.isfinite(mu1)) and np.all(np.isfinite(mu2))):
        raise ValueError("non-finite mean")
    _validate_covariances(sig1, eig_floor_checked=True)
    _validate_covariances(sig2, eig_floor_checked=False)

    dmu = mu1 - mu2
    mean_sq = (dmu * dmu).sum(axis=-1)
    same_sigma = np.all(sig1 == sig2, axis=(-2, -1))
    if same_sigma.all():
        # the trace term vanishes identically, skip the factorizations
        return np.sqrt(mean_sq)

    sym1 = 0.5 * (sig1 + np.swapaxes(sig1, -1, -2))
    factor, certified = _cholesky(sym1)
    if not certified.all():
        rest = ~certified
        lam1, vec1 = np.linalg.eigh(sym1[rest])
        if lam1.min() < -_EIG_CLAMP:
            raise InvalidCovarianceError(f"covariance has eigenvalue {lam1.min():.3g}")
        factor[rest] = vec1 * np.sqrt(np.clip(lam1, 0.0, None))[:, None, :]
    inner = np.swapaxes(factor, -1, -2) @ sig2 @ factor
    inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum(axis=-1)

    tr1, tr2 = np.trace(sig1, axis1=-2, axis2=-1), np.trace(sig2, axis1=-2, axis2=-1)
    traces = tr1 + tr2
    total = mean_sq + traces - 2.0 * cross
    floor = -(9 * _EIG_CLAMP + 8 * _U * traces + 64 * np.sqrt(_U * np.maximum(tr1 * tr2, 0.0)))
    if np.any(total < floor):
        raise InvalidCovarianceError("Wasserstein inner value strongly negative")
    out = np.sqrt(np.clip(total, 0.0, None))
    if same_sigma.any():
        out[same_sigma] = np.sqrt(mean_sq[same_sigma])
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
    base_n = base.n[stage.rows]
    usable = (base_n >= floor) & (base_n + stage.n[matched] >= floor)
    rows, deltas = stage.rows[usable], matched[usable]

    # both sides share each voxel's anchor, so the anchored means compare
    # directly and the score does not depend on how far the map is from zero
    n, s, q = base.n[rows], base.s[rows], base.q[rows]
    mu_base, cov_base = moments(n, s, q)
    mu_over, cov_over = moments(n + stage.n[deltas], s + stage.s[deltas],
                                q + stage.q[deltas])
    dists = w2_batch(mu_base, cov_base, mu_over, cov_over)

    return DissimilarityReport(
        value=float(dists.mean()) if len(rows) else math.nan,
        rows=rows,
        cell_distances=dists,
        affected_count=len(rows),
        new_count=len(stage.keys) - len(stage.rows),
        skipped_count=len(stage.rows) - len(rows),
    )
