import math
from dataclasses import dataclass

import numpy as np
import pytest

from wassmap.geometry import Rotation
from wassmap.keyframe import KeyframeSelector, SelectorConfig
from wassmap.synth import ScanSpec, generate_scene, loop_path, simulate_scan
from wassmap.voxel_map import GmmMap, StaleStageError, build_map, moments
from wassmap.wasserstein import (
    DissimilarityReport,
    InvalidCovarianceError,
    NoComparableVoxelsError,
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


def distances(report: DissimilarityReport) -> dict:
    """Per-voxel distance keyed by cell index."""
    cells = map(tuple, report.cells.astype(np.int64).tolist())
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


def _gaussian(pts, estimator):
    return GaussianComponent(np.mean(pts, axis=0),
                             np.cov(pts, rowvar=False, ddof=1 if estimator == "sample" else 0))


def _expected_voxel_distance(base_pts, frame_pts, estimator="sample"):
    merged = np.concatenate([base_pts, frame_pts])
    return w2(_gaussian(base_pts, estimator), _gaussian(merged, estimator))


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
    assert set(distances(report)) == {(0, 0, 0), (2, 0, 0)}


def test_affected_mean_ignores_untouched_voxels():
    rng = np.random.default_rng(41)
    grid_small, frame, _ = _two_voxel_setup(rng)
    rng = np.random.default_rng(41)  # same stream so the shared voxels match
    grid_big, frame_b, _ = _two_voxel_setup(rng, extra_voxels=10)
    np.testing.assert_array_equal(frame, frame_b)

    small = map_dissimilarity(grid_small, grid_small.stage_frame(frame))
    big = map_dissimilarity(grid_big, grid_big.stage_frame(frame))
    assert small.value == big.value

    # the all-voxels mean rescales by affected / total
    all_small = map_dissimilarity(grid_small, grid_small.stage_frame(frame), policy="all")
    all_big = map_dissimilarity(grid_big, grid_big.stage_frame(frame), policy="all")
    assert abs(all_small.value - small.value * 2 / len(grid_small)) < 1e-12
    assert abs(all_big.value - big.value * 2 / len(grid_big)) < 1e-12
    assert all_big.value < all_small.value


def test_mass_weighted_mean():
    rng = np.random.default_rng(43)
    grid, frame, (base_a, base_b) = _two_voxel_setup(rng)
    stage = grid.stage_frame(frame)
    report = map_dissimilarity(grid, stage, policy="mass")

    d_a = _expected_voxel_distance(base_a, frame[:15])
    d_b = _expected_voxel_distance(base_b, frame[15:])
    expected = (len(base_a) * d_a + len(base_b) * d_b) / (len(base_a) + len(base_b))
    assert abs(report.value - expected) < 1e-9


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
    assert list(distances(report)) == [(0, 0, 0)]

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
    with pytest.raises(ValueError):
        map_dissimilarity(a, stage, policy="median")
    with pytest.raises(ValueError):
        map_dissimilarity(a, stage, estimator="mle")


def test_population_estimator_allows_single_point_voxels():
    grid = build_map([(0.5, 0.5, 0.5)], voxel_size=1.0)
    stage = grid.stage_frame([(0.6, 0.5, 0.5)])
    report = map_dissimilarity(grid, stage, estimator="population", min_points=1)
    assert report.affected_count == 1
    assert report.value > 0.0


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


def _assert_roots_fresh(grid, estimator):
    """Every cached root equals, bit for bit, a fresh root of its covariance."""
    assert grid.root.shape == (len(grid), 3, 3)
    cached = np.flatnonzero(~np.isnan(grid.root[:, 0, 0]))
    assert np.isnan(np.delete(grid.root, cached, axis=0)).all()
    if len(cached):
        _, cov = moments(grid.n[cached], grid.s[cached], grid.q[cached], estimator)
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
        cached.append(_assert_roots_fresh(warm.map, "sample"))
    # the sequence reaches every kind of map change the cache must follow;
    # committing every frame restales each compared row, so only skipped
    # frames leave roots for the next frame to read
    assert any(opens) and any(pruned)
    if policy == "always":
        assert not all(opens) and max(cached) == 0
    else:
        assert max(cached) > 0


def test_estimator_switch_refills_the_cache():
    rng = np.random.default_rng(53)
    points = rng.normal(scale=3.0, size=(4000, 3))
    frame = rng.normal(scale=3.0, size=(800, 3))
    warm = build_map(points, voxel_size=2.0)
    stage = warm.stage_frame(frame)
    for estimator in ("sample", "population", "sample"):
        cold = build_map(points, voxel_size=2.0)
        got = map_dissimilarity(warm, stage, estimator=estimator)
        want = map_dissimilarity(cold, cold.stage_frame(frame), estimator=estimator)
        assert got.value == want.value
        np.testing.assert_array_equal(got.cell_distances, want.cell_distances)
        assert warm.root_estimator == estimator
        assert _assert_roots_fresh(warm, estimator) == got.affected_count


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
