import math
from dataclasses import dataclass

import numpy as np
import pytest

from wassmap.geometry import Rotation
from wassmap.keyframe import KeyframeSelector, SelectorConfig
from wassmap.synth import ScanSpec, generate_scene, loop_path, simulate_scan
from wassmap.voxel_map import GmmMap, StaleStageError, build_map, moments
from wassmap.wasserstein import (
    _CERT_TRACE,
    DissimilarityReport,
    InvalidCovarianceError,
    NoComparableVoxelsError,
    _psd_certified,
    _validate_covariances,
    map_dissimilarity,
    w2_batch,
)


@dataclass(frozen=True)
class GaussianComponent:
    """One voxel's Gaussian: mean, covariance, and the point count behind it."""

    mu: np.ndarray
    sigma: np.ndarray
    mass: int = 0


def w2(g1: GaussianComponent, g2: GaussianComponent) -> float:
    """Wasserstein distance between two Gaussian components, in meters."""
    return float(w2_batch(g1.mu[None], g1.sigma[None], g2.mu[None], g2.sigma[None])[0])


def sym_sqrt(mat) -> np.ndarray:
    """S^{1/2} of one matrix or a batch, as the score computes it for the
    map's root cache."""
    sig = np.asarray(mat, dtype=float).reshape(-1, 3, 3)
    root = np.full(sig.shape, np.nan)
    zero = np.zeros((len(sig), 3))
    w2_batch(zero, sig, zero, np.zeros(sig.shape), root)
    return root.reshape(np.shape(mat))


def distances(report: DissimilarityReport, grid: GmmMap) -> dict:
    """Per-voxel distance keyed by cell index; call before ``grid`` changes,
    since a commit or prune moves the rows the report names."""
    cells = map(tuple, grid.cells(report.rows).astype(np.int64).tolist())
    return dict(zip(cells, report.cell_distances.tolist()))


def random_psd(rng, size=None):
    a = rng.normal(size=(3, 3) if size is None else (size, 3, 3))
    return a @ np.swapaxes(a, -1, -2)


def test_sym_sqrt_trivials():
    np.testing.assert_allclose(sym_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(
        sym_sqrt(np.diag([4.0, 9.0, 16.0])), np.diag([2.0, 3.0, 4.0]), atol=1e-12
    )


def test_sym_sqrt_rank_deficient_squares_back():
    rng = np.random.default_rng(5)
    rot = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
    mat = rot @ np.diag([4.0, 1.0, 0.0]) @ rot.T
    root = sym_sqrt(mat)
    np.testing.assert_allclose(root @ root, mat, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(root, root.T)


def test_sym_sqrt_rejects_bad_matrices():
    bad = np.eye(3)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(InvalidCovarianceError):
        sym_sqrt(bad)
    with pytest.raises(InvalidCovarianceError):
        sym_sqrt(np.diag([1.0, 1.0, -0.5]))
    with pytest.raises(InvalidCovarianceError):
        sym_sqrt(np.full((3, 3), np.nan))


def w2_batch_reference(mu1, sig1, mu2, sig2, root1) -> np.ndarray:
    """`w2_batch` for valid inputs with a full `eigvalsh` floor check of
    ``sig2`` and the `einsum` root product, the path the certificate and the
    explicit root product must reproduce bit for bit."""
    lam_min = np.linalg.eigvalsh(sig2).min()
    if lam_min < -1e-9:
        raise InvalidCovarianceError(f"covariance has eigenvalue {lam_min:.3g}")
    dmu = mu1 - mu2
    mean_sq = (dmu * dmu).sum(axis=-1)
    same_sigma = np.all(sig1 == sig2, axis=(-2, -1))
    if same_sigma.all():
        return np.sqrt(mean_sq)
    todo = np.isnan(root1[:, 0, 0])
    if todo.any():
        stale = sig1[todo]
        lam1, vec1 = np.linalg.eigh(0.5 * (stale + np.swapaxes(stale, -1, -2)))
        if lam1.min() < -1e-9:
            raise InvalidCovarianceError(f"covariance has eigenvalue {lam1.min():.3g}")
        lam1 = np.clip(lam1, 0.0, None)
        root1[todo] = np.einsum("...ij,...j,...kj->...ik", vec1, np.sqrt(lam1), vec1)
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
        _validate_covariances(sig, eig_floor_checked=False)
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
    # asymmetric within the tolerance: the lower triangle, which eigvalsh
    # reads, is indefinite beyond the line and the upper one is not
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
    certified = _psd_certified(sig)

    assert certified[:len(ordinary)].all()
    assert not certified[len(ordinary) + len(near_floor):].any()
    assert not (certified & rejects).any()
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
        w2_batch(zero, sig1, zero, sig2)
    sig2[7] = sig1[7]
    with pytest.raises(InvalidCovarianceError) as info:
        w2_batch(zero, sig1, zero, sig2)
    assert str(info.value) == _floor_message(sig2) == "covariance has eigenvalue -2e-06"


@pytest.mark.parametrize("seed", range(6))
def test_scores_and_roots_bitwise_equal_to_reference(seed):
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
        # rows above the certificate's trace bound take the eigvalsh fallback
        sig1[:10] *= 2 * _CERT_TRACE
        sig2[:10] *= 2 * _CERT_TRACE
    sig2 = 0.5 * (sig2 + np.swapaxes(sig2, -1, -2))
    mu1, mu2 = rng.normal(size=(size, 3)), rng.normal(size=(size, 3))

    # half the rows arrive with their root cached from an earlier frame
    cached = rng.random(size) < 0.5
    earlier = np.full((cached.sum(), 3, 3), np.nan)
    w2_batch_reference(mu1[cached], sig1[cached], mu2[cached], sig1[cached] + np.eye(3), earlier)
    root = np.full((size, 3, 3), np.nan)
    root[cached] = earlier

    got_root, want_root = root.copy(), root.copy()
    got = w2_batch(mu1, sig1, mu2, sig2, got_root)
    want = w2_batch_reference(mu1, sig1, mu2, sig2, want_root)
    assert np.array_equal(got, want)
    assert np.array_equal(got_root, want_root) and not np.isnan(got_root).any()

    # an all-unchanged batch takes the shortcut and fills no root
    got_root, want_root = root.copy(), root.copy()
    got = w2_batch(mu1, sig1, mu2, sig1, got_root)
    assert np.array_equal(got, w2_batch_reference(mu1, sig1, mu2, sig1, want_root))
    assert np.array_equal(got_root, want_root, equal_nan=True)


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
    base = w2_batch(mu1, s1, mu2, s2)

    shift = rng.normal(size=3)
    np.testing.assert_allclose(
        w2_batch(mu1 + shift, s1, mu2 + shift, s2), base, atol=1e-9
    )

    rot = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
    np.testing.assert_allclose(
        w2_batch(
            mu1 @ rot.T, rot @ s1 @ rot.T, mu2 @ rot.T, rot @ s2 @ rot.T
        ),
        base,
        atol=1e-9,
    )


def test_scalar_w2_matches_batch():
    rng = np.random.default_rng(33)
    mu1, mu2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    s1, s2 = random_psd(rng, 4), random_psd(rng, 4)
    batch = w2_batch(mu1, s1, mu2, s2)
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
    report = map_dissimilarity(grid, stage)

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

    small = map_dissimilarity(grid_small, grid_small.stage_frame(frame))
    big = map_dissimilarity(grid_big, grid_big.stage_frame(frame))
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
    report = map_dissimilarity(grid, grid.stage_frame(frame), min_points=5)
    assert report.affected_count == 1
    assert report.skipped_count == 1
    assert report.new_count == 1
    assert list(distances(report, grid)) == [(0, 0, 0)]

    only_compared = map_dissimilarity(grid, grid.stage_frame(frame[:10]), min_points=5)
    assert report.value == only_compared.value


def test_no_comparable_voxels_signal():
    grid = build_map(np.zeros((10, 3)) + 0.5, voxel_size=1.0)
    with pytest.raises(NoComparableVoxelsError) as info:
        map_dissimilarity(grid, grid.stage_frame(np.empty((0, 3))))
    report = info.value.report
    assert isinstance(report, DissimilarityReport)
    assert report.affected_count == 0
    assert math.isnan(report.value)

    # a frame that only opens new voxels has no comparison either
    with pytest.raises(NoComparableVoxelsError) as info:
        map_dissimilarity(grid, grid.stage_frame(np.zeros((5, 3)) + 30.5))
    assert info.value.report.new_count == 1


def test_stage_ownership_and_policy_validation():
    a = build_map(np.zeros((10, 3)) + 0.5, voxel_size=1.0)
    b = build_map(np.zeros((10, 3)) + 0.5, voxel_size=1.0)
    stage = a.stage_frame(np.zeros((4, 3)) + 0.4)
    with pytest.raises(ValueError):
        map_dissimilarity(b, stage)


def test_stale_stage_not_scored():
    # a stage indexes base rows, which a later change to the base moves
    grid = build_map(np.zeros((10, 3)) + 0.5, voxel_size=1.0)
    stage = grid.stage_frame(np.zeros((4, 3)) + 0.4)
    grid.insert_points(np.zeros((3, 3)) - 5.5)
    with pytest.raises(StaleStageError):
        map_dissimilarity(grid, stage)


@pytest.fixture(scope="module")
def scan_sequence():
    """Two dozen close loop_course frames, the eighth scanned twice."""
    scene = generate_scene("loop_course")
    poses = loop_path(n_frames=240)[:24]
    frames = [(simulate_scan(scene, pose, ScanSpec(10.0, 0.01, 10_000, seed=k),
                             frame_index=k).points, pose) for k, pose in enumerate(poses)]
    frames.insert(8, frames[7])
    return frames


def _assert_roots_fresh(grid):
    """Every cached root equals, bit for bit, a fresh root of its covariance."""
    assert grid.root.shape == (len(grid), 3, 3)
    cached = np.flatnonzero(~np.isnan(grid.root[:, 0, 0]))
    assert np.isnan(np.delete(grid.root, cached, axis=0)).all()
    if len(cached):
        _, cov = moments(grid.n[cached], grid.s[cached], grid.q[cached])
        np.testing.assert_array_equal(grid.root[cached], sym_sqrt(cov))
    return len(cached)


@pytest.mark.parametrize("policy,tau", [("keyframes-only", 0.02), ("always", 0.1)])
def test_cached_roots_score_like_cold_ones(scan_sequence, policy, tau):
    config = SelectorConfig(tau=tau, voxel_size=1.0, radius=12.0, commit_policy=policy)
    warm, cold = KeyframeSelector(config), KeyframeSelector(config)
    frames = scan_sequence
    warm.bootstrap(*frames[0])
    cold.bootstrap(*frames[0])
    opens, pruned, cached = [], [], []
    commit, prune = warm.map.commit, warm.map.prune_outside
    warm.map.commit = lambda stage: opens.append(not stage.hit.all()) or commit(stage)
    warm.map.prune_outside = lambda *args: pruned.append(prune(*args)) or pruned[-1]
    for points, pose in frames[1:]:
        cold.map.root.fill(np.nan)
        got, want = warm.process_frame(points, pose), cold.process_frame(points, pose)
        assert (got.flag, got.dw, got.keyframe) == (want.flag, want.dw, want.keyframe)
        cached.append(_assert_roots_fresh(warm.map))
    # the sequence reaches every kind of map change the cache must follow;
    # committing every frame restales each compared row, so only skipped
    # frames leave roots for the next frame to read
    assert any(opens) and any(pruned)
    if policy == "always":
        assert not all(opens) and max(cached) == 0
    else:
        assert max(cached) > 0


def test_invalid_base_row_is_never_cached():
    rng = np.random.default_rng(59)
    base = np.concatenate([rng.normal(scale=0.2, size=(30, 3)) + (1.0, 1.0, 1.0),
                           rng.normal(scale=0.2, size=(30, 3)) + (3.0, 1.0, 1.0)])
    grid = build_map(base, voxel_size=2.0)
    # an indefinite base covariance, which no point set can produce
    grid.q[1] = (29.0, 0.0, 0.0, 29.0, 0.0, -0.029)
    grid.s[1] = 0.0
    frame = np.concatenate([rng.normal(scale=0.2, size=(20, 3)) + (1.0, 1.0, 1.0),
                            rng.normal(scale=0.5, size=(20, 3)) + (3.0, 1.0, 1.0)])
    for _ in range(2):
        with pytest.raises(InvalidCovarianceError, match="covariance has eigenvalue -0.001$"):
            map_dissimilarity(grid, grid.stage_frame(frame))
        assert np.isnan(grid.root).all()
