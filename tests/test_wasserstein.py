import math
from dataclasses import dataclass

import numpy as np
import pytest

import wassmap.wasserstein
from wassmap.geometry import Rotation
from wassmap.voxel_map import GmmMap, StaleStageError
from wassmap.wasserstein import (
    _CERT_TRACE,
    DissimilarityReport,
    InvalidCovarianceError,
    _cholesky,
    _validate_covariances,
    map_dissimilarity,
    w2_batch,
)

from helpers import build_map, pack


@dataclass(frozen=True)
class GaussianComponent:
    """One voxel's Gaussian: mean, covariance, and the point count behind it."""

    mu: np.ndarray
    sigma: np.ndarray
    mass: int = 0


def w2(g1: GaussianComponent, g2: GaussianComponent) -> float:
    """Wasserstein distance between two Gaussian components, in meters."""
    return float(w2_batch(g1.mu[None], pack(g1.sigma[None]), g2.mu[None],
                          pack(g2.sigma[None]))[0])


def distances(report: DissimilarityReport, grid: GmmMap) -> dict:
    """Per-voxel distance keyed by cell index; call before ``grid`` changes,
    since a commit or prune moves the rows the report names."""
    cells = map(tuple, grid.cells(report.rows).astype(np.int64).tolist())
    return dict(zip(cells, report.cell_distances.tolist()))


def random_psd(rng, size=None):
    a = rng.normal(size=(3, 3) if size is None else (size, 3, 3))
    return a @ np.swapaxes(a, -1, -2)


def test_w2_batch_rejects_bad_base_covariances():
    zero, good = np.zeros((1, 3)), pack(2.0 * np.eye(3)[None])
    cases = [(np.diag([1.0, 1.0, -0.5]), "^covariance has eigenvalue -0.5$"),
             (np.full((3, 3), np.nan), "^non-finite covariance$")]
    for sig1, message in cases:
        with pytest.raises(InvalidCovarianceError, match=message):
            w2_batch(zero, pack(sig1[None]), zero, good)


def w2_batch_reference(mu1, sig1, mu2, sig2) -> np.ndarray:
    """`w2_batch` for valid inputs with a full `eigvalsh` floor check of
    ``sig2`` and the cross term through the symmetric root S1^{1/2} from
    `eigh`: tr((S1^{1/2} S2 S1^{1/2})^{1/2})."""
    lam_min = np.linalg.eigvalsh(sig2).min()
    if lam_min < -1e-9:
        raise InvalidCovarianceError(f"covariance has eigenvalue {lam_min:.3g}")
    dmu = mu1 - mu2
    mean_sq = (dmu * dmu).sum(axis=-1)
    same_sigma = np.all(sig1 == sig2, axis=(-2, -1))
    if same_sigma.all():
        return np.sqrt(mean_sq)
    lam1, vec1 = np.linalg.eigh(0.5 * (sig1 + np.swapaxes(sig1, -1, -2)))
    if lam1.min() < -1e-9:
        raise InvalidCovarianceError(f"covariance has eigenvalue {lam1.min():.3g}")
    root1 = np.einsum("...ij,...j,...kj->...ik", vec1, np.sqrt(np.clip(lam1, 0.0, None)), vec1)
    inner = root1 @ sig2 @ root1
    inner = 0.5 * (inner + np.swapaxes(inner, -1, -2))
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum(axis=-1)
    traces = np.trace(sig1, axis1=-2, axis2=-1) + np.trace(sig2, axis1=-2, axis2=-1)
    total = mean_sq + traces - 2.0 * cross
    if np.any(total < -(1e-9 + 1e-12 * np.maximum(traces, 1.0))):
        raise InvalidCovarianceError("Wasserstein inner value strongly negative")
    out = np.sqrt(np.clip(total, 0.0, None))
    out[same_sigma] = np.sqrt(mean_sq[same_sigma])
    return out


def _floor_message(sig):
    """The error of a full `eigvalsh` floor check of ``sig``, or None."""
    lam_min = np.linalg.eigvalsh(sig).min()
    return f"covariance has eigenvalue {lam_min:.3g}" if lam_min < -1e-9 else None


def _screen_message(sig):
    """The error of the product's floor check of ``sig``, or None."""
    try:
        _validate_covariances(pack(sig), eig_floor_checked=False)
    except InvalidCovarianceError as err:
        return str(err)
    return None


def _rank_deficient(rng, size, rank):
    """Planar (rank 2) or linear (rank 1) covariances as V V^T."""
    vecs = rng.normal(size=(size, 3, rank)) * rng.uniform(1e-3, 1.0, size=(size, 1, rank))
    return vecs @ np.swapaxes(vecs, -1, -2)


def _with_min_eigenvalue(rng, lams, rotate, top=1.0):
    """Covariances with smallest eigenvalue ``lams`` and the other two in
    [1e-3, top]; diagonal ones are exact."""
    size = len(lams)
    diag = np.stack([rng.uniform(1e-3, top, size), rng.uniform(1e-3, top, size), lams], axis=1)
    mats = diag[:, :, None] * np.eye(3)
    if rotate:
        rot, _ = np.linalg.qr(rng.normal(size=(size, 3, 3)))
        mats = rot @ mats @ np.swapaxes(rot, -1, -2)
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    return mats


def test_psd_certificate_accepts_and_rejects_like_eigvalsh():
    rng = np.random.default_rng(61)
    # a few ulps either side of the rejection line and of the shift
    lams = np.array([edge + k * np.spacing(edge) for edge in (-1e-9, -0.5e-9)
                     for k in range(-4, 5)] * 4)
    ordinary = np.concatenate([
        random_psd(rng, 200) * rng.uniform(1e-4, 10.0, size=(200, 1, 1)),
        _rank_deficient(rng, 200, 2),
        _rank_deficient(rng, 200, 1),
    ])
    # two lower triangles, the part that is packed and that eigvalsh reads:
    # one indefinite beyond the line, the other not
    skew = np.diag([2e-9, 2e-9, 1.0])
    skew[1, 0], skew[0, 1] = 3.3e-9, 2.4e-9
    near_floor = np.concatenate([_with_min_eigenvalue(rng, lams, rotate=False),
                                 _with_min_eigenvalue(rng, lams, rotate=True),
                                 skew[None], skew.T[None]])
    # rounding in a factorization of these exceeds their distance to the line
    beyond = -1e-9 - np.repeat(np.arange(1, 9) * 1e-16, 8)
    near_floor = np.concatenate([near_floor,
                                 _with_min_eigenvalue(rng, beyond, rotate=True, top=10.0)])
    # above the trace bound the screen must leave every row to eigvalsh
    big = np.concatenate([
        random_psd(rng, 20) * _CERT_TRACE,
        _with_min_eigenvalue(rng, np.array([-2e-9, -1e-9, -0.5e-9, 0.0]), rotate=False)
        + np.diag([_CERT_TRACE, 0.0, 0.0]),
    ])
    sig = np.concatenate([ordinary, near_floor, big])
    rejects = np.linalg.eigvalsh(sig).min(axis=-1) < -1e-9
    certified = _cholesky(pack(sig), 0.5e-9)[1]

    assert certified[:len(ordinary)].all()
    assert not certified[len(ordinary) + len(near_floor):].any()
    assert not (certified & rejects).any()
    # the unshifted factor the base side uses certifies no rejected row either
    assert not (_cholesky(pack(sig))[1] & rejects).any()
    assert rejects[len(ordinary):].any() and not rejects.all()
    for row in sig:
        assert _screen_message(row[None]) == _floor_message(row[None])
    # in a batch the message names the batch minimum, as the full check does
    for chunk in np.array_split(rng.permutation(len(sig)), 40):
        assert _screen_message(sig[chunk]) == _floor_message(sig[chunk])


def test_indefinite_overlay_row_names_its_eigenvalue():
    rng = np.random.default_rng(67)
    sig1 = random_psd(rng, 50)
    sig2 = sig1 + 0.01 * random_psd(rng, 50)
    sig2[7] = np.diag([1.0, 1.0, -1e-3])
    sig2[31] = _with_min_eigenvalue(rng, np.array([-2e-6]), rotate=True)[0]
    zero = np.zeros((50, 3))
    with pytest.raises(InvalidCovarianceError, match="^covariance has eigenvalue -0.001$"):
        w2_batch(zero, pack(sig1), zero, pack(sig2))
    sig2[7] = sig1[7]
    with pytest.raises(InvalidCovarianceError) as info:
        w2_batch(zero, pack(sig1), zero, pack(sig2))
    assert str(info.value) == _floor_message(sig2) == "covariance has eigenvalue -2e-06"


def _rotated(rng, lams):
    """Q diag(lams) Q^T for random rotations Q, one per row of ``lams``."""
    rot, _ = np.linalg.qr(rng.normal(size=(len(lams), 3, 3)))
    mats = rot @ (lams[:, :, None] * np.eye(3)) @ np.swapaxes(rot, -1, -2)
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def _closed_form_rows(rng, count):
    """Rows aimed at the closed-form cross term, as (sig1, sig2, full rank):
    isotropic pairs (M isotropic, Smith's p = 0), double eigenvalues of M,
    rank-1 and rank-2 frame sides against full-rank bases, and eigenvalues
    graded from 1e-12 to 1 m^2; the last ``count`` are graded planar bases
    that fail the Cholesky's last pivot and take the eigh factor."""
    def uniform(*shape):
        return rng.uniform(1e-3, 1.0, size=shape)
    iso1, iso2 = uniform(count, 1, 1) * np.eye(3), uniform(count, 1, 1) * np.eye(3)
    pair = uniform(count, 1)
    double1 = _rotated(rng, np.concatenate([pair, pair, uniform(count, 1)], axis=1))
    double2 = double1 + uniform(count, 1, 1) * np.eye(3)  # shares the double eigenvalue
    diag1 = np.concatenate([pair, pair, uniform(count, 1)], axis=1)[:, :, None] * np.eye(3)
    diag2 = diag1 * uniform(count, 1, 1)
    line, flat = (rng.normal(size=(count, 3, r)) for r in (1, 2))
    graded = [_rotated(rng, 10.0 ** rng.uniform(-12, 0, size=(count, 3))) for _ in range(4)]
    planar = graded[3].copy()
    planar[:, 2, :] = planar[:, :, 2] = 0.0
    sig1 = np.concatenate([iso1, double1, diag1, _rotated(rng, uniform(count, 3)),
                           _rotated(rng, uniform(count, 3)), graded[0], graded[1], planar])
    sig2 = np.concatenate([iso2, double2, diag2, line @ np.swapaxes(line, -1, -2),
                           flat @ np.swapaxes(flat, -1, -2), graded[2],
                           graded[1] + 1e-3 * graded[2], planar + 1e-3 * graded[2]])
    full = np.repeat([True, True, True, False, False, False, False, False], count)
    return sig1, sig2, full


@pytest.mark.parametrize("seed", range(6))
def test_scores_and_roots_bitwise_equal_to_reference(seed):
    """Scores over mixed rows (full rank, planar, linear, unchanged, beyond the
    certificate's trace bound, and the closed form's edge cases) match the
    square-root reference."""
    rng = np.random.default_rng(seed)
    size = 300
    kind = rng.integers(0, 4, size)  # full rank, planar, linear, unchanged
    sig1 = random_psd(rng, size) * rng.uniform(1e-4, 1.0, size=(size, 1, 1))
    sig1[kind == 1] = _rank_deficient(rng, size, 2)[kind == 1]
    sig1[kind == 2] = _rank_deficient(rng, size, 1)[kind == 2]
    sig2 = sig1 + 0.01 * random_psd(rng, size)
    # a frame's points in the voxel's plane keep it planar
    sig2[kind == 1] = sig1[kind == 1] + 0.1 * sig1[kind == 1] @ sig1[kind == 1]
    sig2[kind == 3] = sig1[kind == 3]
    if seed % 2:
        # rows above the certificate's trace bound take the eigvalsh and eigh fallbacks
        sig1[:10] *= 2 * _CERT_TRACE
        sig2[:10] *= 2 * _CERT_TRACE
    sig2 = 0.5 * (sig2 + np.swapaxes(sig2, -1, -2))
    mu1, mu2 = rng.normal(size=(size, 3)), rng.normal(size=(size, 3))
    more1, more2, more_full = _closed_form_rows(rng, 20)
    sig1, sig2 = np.concatenate([sig1, more1]), np.concatenate([sig2, more2])
    mu1 = np.concatenate([mu1, rng.normal(size=(len(more1), 3))])
    mu2 = np.concatenate([mu2, rng.normal(size=(len(more1), 3))])

    # both sources of the factor: Cholesky and eigh
    certified = _cholesky(pack(sig1))[1]
    assert certified.any() and not certified.all()
    assert certified[-60:-20].all() and not certified[-20:].any()
    got = w2_batch(mu1, pack(sig1), mu2, pack(sig2))
    want = w2_batch_reference(mu1, sig1, mu2, sig2)
    # The reference's root loses digits where S1 is ill-conditioned: up to
    # 3e-12 relative on the full-rank rows here. On rank-deficient rows either
    # path rounds each zero eigenvalue of the cross product to about
    # u tr S1 tr S2, which its square root lifts to sqrt(u tr S1 tr S2) in W2^2.
    full = np.concatenate([kind % 3 == 0, more_full])
    np.testing.assert_allclose(got[full], want[full], rtol=1e-11)
    traces = np.trace(sig1, axis1=1, axis2=2) * np.trace(sig2, axis1=1, axis2=2)
    assert (np.abs(got**2 - want**2) <= 16 * np.sqrt(2.0**-53 * traces))[~full].all()

    # an all-unchanged batch takes the shortcut
    got = w2_batch(mu1, pack(sig1), mu2, pack(sig1))
    assert np.array_equal(got, w2_batch_reference(mu1, sig1, mu2, sig1))


def test_near_singular_commuting_pairs_match_the_closed_form():
    # S1 = Q diag(a1, a2, eps) Q^T and S2 = Q diag(b) Q^T commute, so
    # W2 = |sqrt(a) - sqrt(b)|; a planar base voxel against a frame that
    # thickens it by millimetres
    rng = np.random.default_rng(1)
    size = 100
    for eps in (1e-10, 1e-12):
        rot, _ = np.linalg.qr(rng.normal(size=(size, 3, 3)))
        a = np.stack([rng.uniform(0.01, 0.1, size), rng.uniform(0.01, 0.1, size),
                      np.full(size, eps)], axis=1)
        b = np.stack([a[:, 0] * rng.uniform(0.5, 2.0, size), a[:, 1] * rng.uniform(0.5, 2.0, size),
                      rng.uniform(1e-6, 1e-4, size)], axis=1)
        sig1, sig2 = (rot @ (d[:, :, None] * np.eye(3)) @ np.swapaxes(rot, -1, -2) for d in (a, b))
        sig1, sig2 = (0.5 * (s + np.swapaxes(s, -1, -2)) for s in (sig1, sig2))
        zero = np.zeros((size, 3))
        exact = np.sqrt(((np.sqrt(a) - np.sqrt(b)) ** 2).sum(axis=1))
        assert np.abs(w2_batch(zero, pack(sig1), zero, pack(sig2)) - exact).max() <= 1e-9


def _flat_pair(seed, eps):
    """Commuting S1 = Q diag(a1, a2, eps) Q^T and S2 = Q diag(a1, a2, 4 eps) Q^T,
    a ~ U(0.1, 1) m^2: a flat voxel that a frame thickens by a hair."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = rng.uniform(0.1, 1.0, 2)
    sig1, sig2 = (rot @ np.diag([a[0], a[1], c * eps]) @ rot.T for c in (1.0, 4.0))
    return 0.5 * (sig1 + sig1.T), 0.5 * (sig2 + sig2.T)


def test_flat_commuting_pairs_are_accepted():
    # the cross term's near-zero eigenvalue rounds to about u tr S1 tr S2,
    # which its square root lifts to ~1e-8 in W2^2, far below -1e-9
    zero = np.zeros((1, 3))
    for eps in (1e-10, 1e-12, 1e-14):
        for seed in range(200):
            sig1, sig2 = _flat_pair(seed, eps)
            assert w2_batch(zero, pack(sig1[None]), zero, pack(sig2[None]))[0] < 1e-4


def test_pair_below_the_inner_value_floor_is_rejected(monkeypatch):
    # S2 = S1 - alpha n n^T along the flat normal n has W2^2 = 2 eps - alpha,
    # with alpha twice the floor's size
    sig1, _ = _flat_pair(0, 1e-10)
    normal = np.linalg.eigh(sig1)[1][:, 0]
    tr = np.trace(sig1)
    floor = 9e-9 + 16 * 2.0**-53 * tr + 64 * np.sqrt(2.0**-53 * tr * tr)
    sig2 = sig1 - 2 * floor * np.outer(normal, normal)
    zero = np.zeros((1, 3))
    with pytest.raises(InvalidCovarianceError, match="^covariance has eigenvalue"):
        w2_batch(zero, pack(sig1[None]), zero, pack(sig2[None]))
    # past the frame-side eigenvalue check, the floor itself rejects the pair
    monkeypatch.setattr(wassmap.wasserstein, "_validate_covariances",
                        lambda cov, eig_floor_checked: None)
    with pytest.raises(InvalidCovarianceError,
                       match="^Wasserstein inner value strongly negative$"):
        w2_batch(zero, pack(sig1[None]), zero, pack(sig2[None]))


def test_planar_base_rows_take_the_eigh_factor():
    # points with z == 0 give a covariance whose third row and column are
    # exactly zero, so the Cholesky's last pivot is zero and the row goes to eigh
    rng = np.random.default_rng(73)
    size = 200
    base = rng.normal(scale=0.2, size=(size, 30, 3))
    base[:, :, 2] = 0.0
    frame = rng.normal(scale=0.2, size=(size, 10, 3))
    frame[::2, :, 2] = 0.0  # half the frames keep the voxel planar
    both = np.concatenate([base, frame], axis=1)
    sig1 = np.stack([np.cov(p, rowvar=False) for p in base])
    sig2 = np.stack([np.cov(p, rowvar=False) for p in both])
    mu1, mu2 = base.mean(axis=1), both.mean(axis=1)
    assert not _cholesky(pack(sig1))[1].any()
    np.testing.assert_allclose(w2_batch(mu1, pack(sig1), mu2, pack(sig2)),
                               w2_batch_reference(mu1, sig1, mu2, sig2), rtol=0, atol=1e-12)


def test_w2_identical_is_exactly_zero():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = GaussianComponent(rng.normal(size=3), random_psd(rng), mass=10)
        assert w2(g, g) == 0.0


def test_w2_equal_covariances_is_mean_offset():
    rng = np.random.default_rng(13)
    for _ in range(20):
        sigma = random_psd(rng)
        mu = rng.normal(size=3)
        d = rng.normal(size=3)
        got = w2(GaussianComponent(mu, sigma), GaussianComponent(mu + d, sigma))
        assert abs(got - np.linalg.norm(d)) < 1e-12


def test_w2_commuting_diagonal_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = rng.uniform(0.0, 5.0, size=3)
        b = rng.uniform(0.0, 5.0, size=3)
        mu = rng.normal(size=3)
        got = w2(GaussianComponent(mu, np.diag(a)), GaussianComponent(mu, np.diag(b)))
        expected = math.sqrt(((np.sqrt(a) - np.sqrt(b)) ** 2).sum())
        assert abs(got - expected) < 1e-9


def test_metric_axioms_on_seeded_triples():
    rng = np.random.default_rng(21)
    n = 1000
    mus = [rng.normal(scale=2.0, size=(n, 3)) for _ in range(3)]
    sigs = [random_psd(rng, n) for _ in range(3)]

    sigs = [pack(sig) for sig in sigs]
    d01 = w2_batch(mus[0], sigs[0], mus[1], sigs[1])
    d10 = w2_batch(mus[1], sigs[1], mus[0], sigs[0])
    d12 = w2_batch(mus[1], sigs[1], mus[2], sigs[2])
    d02 = w2_batch(mus[0], sigs[0], mus[2], sigs[2])

    assert (d01 >= 0.0).all()
    np.testing.assert_allclose(d01, d10, atol=1e-9)
    assert (d02 <= d01 + d12 + 1e-9).all()
    # self distance via the general code path is forced off by the fast path
    assert (w2_batch(mus[0], sigs[0], mus[0], sigs[0]) == 0.0).all()


def test_translation_equivariance_and_rotation_invariance():
    rng = np.random.default_rng(29)
    n = 200
    mu1, mu2 = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    s1, s2 = random_psd(rng, n), random_psd(rng, n)
    base = w2_batch(mu1, pack(s1), mu2, pack(s2))

    shift = rng.normal(size=3)
    np.testing.assert_allclose(
        w2_batch(mu1 + shift, pack(s1), mu2 + shift, pack(s2)), base, atol=1e-9
    )

    rot = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
    np.testing.assert_allclose(
        w2_batch(
            mu1 @ rot.T, pack(rot @ s1 @ rot.T), mu2 @ rot.T, pack(rot @ s2 @ rot.T)
        ),
        base,
        atol=1e-9,
    )


def test_scalar_w2_matches_batch():
    rng = np.random.default_rng(33)
    mu1, mu2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    s1, s2 = random_psd(rng, 4), random_psd(rng, 4)
    batch = w2_batch(mu1, pack(s1), mu2, pack(s2))
    for i in range(4):
        got = w2(GaussianComponent(mu1[i], s1[i]), GaussianComponent(mu2[i], s2[i]))
        assert abs(got - batch[i]) < 1e-12


def _two_voxel_setup(rng, extra_voxels=0):
    # clusters sit at cell centers with 0.15 sigma so no point crosses a
    # voxel boundary (cells are [0,2) x ... for l=2)
    base_a = rng.normal(scale=0.15, size=(40, 3)) + (1.0, 1.0, 1.0)
    base_b = rng.normal(scale=0.15, size=(25, 3)) + (5.0, 1.0, 1.0)
    frame = np.concatenate(
        [
            rng.normal(scale=0.15, size=(15, 3)) + (1.2, 0.9, 1.0),
            rng.normal(scale=0.15, size=(12, 3)) + (4.8, 1.2, 1.0),
        ]
    )
    clouds = [base_a, base_b]
    for i in range(extra_voxels):
        clouds.append(rng.normal(scale=0.15, size=(10, 3)) + (1.0, 1.0, 21.0 + 2.0 * i))
    grid = build_map(np.concatenate(clouds), voxel_size=2.0)
    return grid, frame, (base_a, base_b)


def _gaussian(pts):
    return GaussianComponent(np.mean(pts, axis=0), np.cov(pts, rowvar=False, ddof=1))


def _expected_voxel_distance(base_pts, frame_pts):
    merged = np.concatenate([base_pts, frame_pts])
    return w2(_gaussian(base_pts), _gaussian(merged))


def test_map_dissimilarity_matches_per_voxel_oracle():
    rng = np.random.default_rng(37)
    grid, frame, (base_a, base_b) = _two_voxel_setup(rng)
    stage = grid.stage_frame(frame)
    report = map_dissimilarity(stage)

    d_a = _expected_voxel_distance(base_a, frame[:15])
    d_b = _expected_voxel_distance(base_b, frame[15:])

    assert report.affected_count == 2
    assert report.new_count == 0 and report.skipped_count == 0
    assert abs(report.value - 0.5 * (d_a + d_b)) < 1e-9
    assert report.value >= 0.0
    assert set(distances(report, grid)) == {(0, 0, 0), (2, 0, 0)}


def test_affected_mean_ignores_untouched_voxels():
    rng = np.random.default_rng(41)
    grid_small, frame, _ = _two_voxel_setup(rng)
    rng = np.random.default_rng(41)  # same stream so the shared voxels match
    grid_big, frame_b, _ = _two_voxel_setup(rng, extra_voxels=10)
    np.testing.assert_array_equal(frame, frame_b)

    small = map_dissimilarity(grid_small.stage_frame(frame))
    big = map_dissimilarity(grid_big.stage_frame(frame))
    assert small.value == big.value


def test_new_and_skipped_voxels_are_counted_not_averaged():
    rng = np.random.default_rng(47)
    sparse = rng.normal(scale=0.05, size=(3, 3)) + (11.0, 1.0, 1.0)
    dense = rng.normal(scale=0.15, size=(30, 3)) + (1.0, 1.0, 1.0)
    grid = build_map(np.concatenate([dense, sparse]), voxel_size=2.0)

    frame = np.concatenate(
        [
            rng.normal(scale=0.15, size=(10, 3)) + (1.0, 1.0, 1.0),   # compared
            rng.normal(scale=0.05, size=(4, 3)) + (11.0, 1.0, 1.0),   # skipped (base n=3)
            rng.normal(scale=0.05, size=(8, 3)) + (-19.0, 1.0, 1.0),  # new voxel
        ]
    )
    report = map_dissimilarity(grid.stage_frame(frame), min_points=5)
    assert report.affected_count == 1
    assert report.skipped_count == 1
    assert report.new_count == 1
    assert list(distances(report, grid)) == [(0, 0, 0)]

    only_compared = map_dissimilarity(grid.stage_frame(frame[:10]), min_points=5)
    assert report.value == only_compared.value


def test_no_comparable_voxels_signal():
    grid = build_map(np.zeros((10, 3)) + 0.5, voxel_size=1.0)
    report = map_dissimilarity(grid.stage_frame(np.empty((0, 3))))
    assert isinstance(report, DissimilarityReport)
    assert report.affected_count == 0
    assert math.isnan(report.value)
    assert len(report.rows) == len(report.cell_distances) == 0

    # a frame that only opens new voxels has no comparison either
    report = map_dissimilarity(grid.stage_frame(np.zeros((5, 3)) + 30.5))
    assert math.isnan(report.value) and report.affected_count == 0
    assert report.new_count == 1 and report.skipped_count == 0


def test_stale_stage_not_scored():
    # a stage indexes base rows, which a later change to the base moves
    grid = build_map(np.zeros((10, 3)) + 0.5, voxel_size=1.0)
    stage = grid.stage_frame(np.zeros((4, 3)) + 0.4)
    grid.insert_points(np.zeros((3, 3)) - 5.5)
    with pytest.raises(StaleStageError):
        map_dissimilarity(stage)


def test_invalid_base_row_names_its_eigenvalue():
    rng = np.random.default_rng(59)
    base = np.concatenate([rng.normal(scale=0.2, size=(30, 3)) + (1.0, 1.0, 1.0),
                           rng.normal(scale=0.2, size=(30, 3)) + (3.0, 1.0, 1.0)])
    grid = build_map(base, voxel_size=2.0)
    # an indefinite base covariance, which no point set can produce
    grid.sums[1, 4:] = (29.0, 0.0, 0.0, 29.0, 0.0, -0.029)
    grid.sums[1, 1:4] = 0.0
    frame = np.concatenate([rng.normal(scale=0.2, size=(20, 3)) + (1.0, 1.0, 1.0),
                            rng.normal(scale=0.5, size=(20, 3)) + (3.0, 1.0, 1.0)])
    with pytest.raises(InvalidCovarianceError, match="covariance has eigenvalue -0.001$"):
        map_dissimilarity(grid.stage_frame(frame))
