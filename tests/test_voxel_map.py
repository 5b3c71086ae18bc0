import re
import tracemalloc

import numpy as np
import pytest

from wassmap.voxel_map import (
    _UPPER,
    GmmMap,
    InsufficientPointsError,
    StaleStageError,
    _group,
    moments,
)

from helpers import assert_maps_identical, build_map, pack, total_points


def keys(grid) -> list[tuple[int, int, int]]:
    """Cell index (i, j, k) of each map row, in row order."""
    return [tuple(c) for c in grid.cells().astype(np.int64).tolist()]


def voxel_gaussians(grid):
    """Per-voxel (absolute mean, sample covariance) keyed by cell, for n >= 2."""
    rows = np.flatnonzero(grid.sums[:, 0] >= 2)
    mu, sigma = moments(grid.sums[rows])
    cells = keys(grid)
    return {cells[r]: (m, c) for r, m, c in zip(rows, mu + grid.centres()[rows], sigma)}


def test_voxel_index_examples():
    assert keys(build_map([(8.2, -0.5, 3.9)], 4.0)) == [(2, -1, 0)]
    assert keys(build_map([(0.0, 0.0, 0.0)], 4.0)) == [(0, 0, 0)]
    assert keys(build_map([(-0.1, -4.0, -4.1)], 4.0)) == [(-1, -1, -2)]


def test_voxel_index_boundary_is_half_open():
    # a point exactly on the upper face belongs to the next cell
    assert keys(build_map([(4.0, 4.0, 4.0)], 4.0)) == [(1, 1, 1)]
    assert keys(build_map([(3.999999, 4.0, 0.0)], 4.0)) == [(0, 1, 0)]


def test_voxel_index_rejects_bad_input():
    grid = GmmMap(4.0)
    assert grid.stage_frame([(np.nan, 0.0, 0.0)]).rejected == 1
    grid = build_map([(np.nan, 0.0, 0.0)], 4.0)
    assert len(grid) == 0
    for voxel_size in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            GmmMap(voxel_size=voxel_size)


def test_keys_beyond_packing_range_rejected():
    # keys pack 21 bits per axis around the first voxel: [-2^20, 2^20) cells
    grid = build_map([(0.5, 0.5, 0.5)], voxel_size=1.0)
    edge = grid.stage_frame([(-(2.0 ** 20) + 0.5, 0.5, 2.0 ** 20 - 0.5)])
    assert edge.point_count == 1
    with pytest.raises(ValueError, match=r"voxel \(1048576, 0, 0\)"):
        grid.stage_frame([(2.0 ** 20 + 0.5, 0.5, 0.5)])
    with pytest.raises(ValueError, match="voxel"):
        grid.insert_points([(0.5, -(2.0 ** 20) - 0.5, 0.5)])
    assert len(grid) == 1 and total_points(grid) == 1

    # the range is relative to the first voxel, so it follows georeferenced data
    far = build_map([(1e6 + 0.25, 5e5, 0.0)], voxel_size=0.5)
    far.insert_points([(1e6 - 3e5, 5e5 + 3e5, 0.0)])
    assert len(far) == 2


def test_hand_computed_moments():
    grid = build_map([(1.0, 0.5, 0.5), (3.0, 0.5, 0.5)], voxel_size=4.0)
    assert grid.sums[:, 0].tolist() == [2]
    mu, cov = moments(grid.sums)
    np.testing.assert_allclose(mu[0] + grid.centres()[0], (2.0, 0.5, 0.5))
    np.testing.assert_allclose(cov[0], (2.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    # each packed column is its entry of the 3x3 formula, bit for bit
    rng = np.random.default_rng(5)
    grid = build_map(rng.normal(scale=3.0, size=(2000, 3)) + 1e3, voxel_size=1.0)
    rows = np.flatnonzero(grid.sums[:, 0] >= 2)
    n, s, q = grid.sums[rows, 0], grid.sums[rows, 1:4], grid.sums[rows, 4:]
    mu = s / n[:, None]
    full = (q[:, _UPPER] - n[:, None, None] * (mu[:, :, None] * mu[:, None, :])) \
        / (n - 1.0)[:, None, None]
    assert len(rows) > 100
    assert np.array_equal(moments(grid.sums[rows])[1], pack(full))


def test_sample_covariance_needs_two_points():
    grid = build_map([(0.5, 0.5, 0.5)], voxel_size=1.0)
    with pytest.raises(InsufficientPointsError):
        moments(grid.sums)
    with pytest.raises(InsufficientPointsError):
        moments(np.zeros((1, 10)))


def test_incremental_matches_batch():
    rng = np.random.default_rng(7)
    pts = rng.normal(scale=5.0, size=(1000, 3))

    one_by_one = GmmMap(voxel_size=2.0)
    for p in pts:
        assert one_by_one.insert_points(p[None, :]) == 1
    batch = build_map(pts, voxel_size=2.0)

    assert keys(one_by_one) == keys(batch)
    np.testing.assert_array_equal(one_by_one.sums[:, 0], batch.sums[:, 0])
    a, b = voxel_gaussians(batch), voxel_gaussians(one_by_one)
    for key, (mu_a, cov_a) in a.items():
        mu_b, cov_b = b[key]
        np.testing.assert_allclose(mu_a, mu_b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(cov_a, cov_b, rtol=1e-9, atol=1e-12)


def test_insertion_order_invariance():
    rng = np.random.default_rng(11)
    pts = rng.normal(scale=3.0, size=(400, 3))
    shuffled = pts[rng.permutation(len(pts))]
    a = build_map(pts, voxel_size=1.5)
    b = build_map(shuffled, voxel_size=1.5)
    # the origin is the first point's voxel, which differs, but keys and
    # centre-anchored sums do not depend on it
    assert keys(a) == keys(b)
    np.testing.assert_array_equal(a.sums[:, 0], b.sums[:, 0])
    np.testing.assert_allclose(a.sums[:, 1:4], b.sums[:, 1:4], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a.sums[:, 4:], b.sums[:, 4:], rtol=1e-9, atol=1e-12)


def test_merge_equals_single_pass_on_exact_inputs():
    # integer coordinates and even cell centres are exact in float64, so
    # committing in two parts must equal one pass bitwise
    rng = np.random.default_rng(3)
    pts = rng.integers(-50, 50, size=(200, 3)).astype(float)
    whole = build_map(pts, voxel_size=8.0)
    merged = build_map(pts[:77], voxel_size=8.0)
    merged.commit(merged.stage_frame(pts[77:]))
    assert keys(merged) == keys(whole)
    assert np.array_equal(merged.sums, whole.sums)


def test_stage_join_places_new_keys_around_base_keys():
    # base cells (2,0,0) and (5,0,0) at 8 m voxels; the frame adds cells before
    # the first, two between them, one on the second and one after the last
    base_points = [(17.0, 1.0, 2.0), (20.0, 3.0, 5.0), (41.0, 0.0, 7.0), (46.0, 6.0, 1.0)]
    frame = [(3.0, 2.0, 1.0), (5.0, 5.0, 5.0), (25.0, 1.0, 1.0), (30.0, 2.0, 2.0),
             (33.0, 7.0, 3.0), (44.0, 4.0, 4.0), (60.0, 1.0, 6.0), (57.0, 0.0, 0.0)]
    grid = build_map(base_points, voxel_size=8.0)
    stage = grid.stage_frame(frame)
    assert [c[0] for c in keys(grid)] == [2, 5]
    assert stage.hit.tolist() == [False, False, False, True, False]  # cells 0, 3, 4, 5, 7
    assert stage.at.tolist() == [0, 1, 1, 1, 2]
    grid.commit(stage)
    # integer coordinates and cell centres make every sum exact
    assert_maps_identical(grid, build_map(base_points + frame, voxel_size=8.0))
    assert [c[0] for c in keys(grid)] == [0, 2, 3, 4, 5, 7]


def test_covariance_is_symmetric_psd():
    rng = np.random.default_rng(19)
    for _ in range(50):
        pts = rng.normal(size=(rng.integers(2, 40), 3)) * rng.uniform(0.01, 10.0)
        grid = build_map(pts + 500.0, voxel_size=1000.0)
        assert len(grid) == 1
        full = moments(grid.sums)[1][0, _UPPER]
        np.testing.assert_allclose(full, full.T)
        assert np.linalg.eigvalsh(full).min() >= -1e-9


def test_stage_leaves_base_untouched():
    base = build_map(np.zeros((5, 3)) + 0.5, voxel_size=1.0)
    before_version = base.version
    before = (keys(base), base.sums.copy())

    stage = base.stage_frame([(0.4, 0.4, 0.4), (3.2, 0.1, 0.1)])
    assert base.version == before_version
    assert keys(base) == before[0] == [(0, 0, 0)]
    assert np.array_equal(base.sums, before[1])
    # (0,0,0) is in the base, (3,0,0) is new
    assert stage.hit.tolist() == [True, False]
    assert stage.sums[:, 0].tolist() == [1, 1]
    assert (base.sums[stage.at[stage.hit], 0] + stage.sums[stage.hit, 0]).tolist() == [6]

    # dropping the stage has no effect; a fresh stage sees the original map
    del stage
    again = base.stage_frame([(0.4, 0.4, 0.4)])
    assert (base.sums[again.at[again.hit], 0] + again.sums[again.hit, 0]).tolist() == [6]
    base.commit(again)
    assert keys(base) == [(0, 0, 0)] and base.sums[:, 0].tolist() == [6]


def test_commit_matches_direct_insert():
    rng = np.random.default_rng(23)
    frames = [rng.normal(scale=4.0, size=(100, 3)) for _ in range(5)]

    staged = GmmMap(voxel_size=2.0)
    for frame in frames:
        staged.commit(staged.stage_frame(frame))
    direct = build_map(np.concatenate(frames), voxel_size=2.0)

    assert keys(staged) == keys(direct)
    assert total_points(staged) == total_points(direct)
    np.testing.assert_array_equal(staged.sums[:, 0], direct.sums[:, 0])
    np.testing.assert_allclose(staged.sums[:, 1:4], direct.sums[:, 1:4], rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(staged.sums[:, 4:], direct.sums[:, 4:], rtol=1e-9, atol=1e-12)


def test_commit_grows_the_box_to_the_occupied_cells():
    rng = np.random.default_rng(29)
    grid = GmmMap(voxel_size=0.5)
    for step in range(8):
        # frames that only add to rows, or that also open cells on any side
        frame = rng.normal(scale=rng.uniform(0.5, 6.0), size=(int(rng.integers(1, 300)), 3))
        grid.commit(grid.stage_frame(frame + rng.normal(scale=4.0, size=3) * (step % 3 > 0)))
        cells = grid.cells()
        np.testing.assert_array_equal(grid._box, [cells.min(axis=0), cells.max(axis=0)])


def test_stale_stage_rejected():
    grid = build_map([(0.1, 0.1, 0.1)], voxel_size=1.0)
    stage = grid.stage_frame([(0.2, 0.2, 0.2)])
    grid.insert_points([(5.0, 5.0, 5.0)])
    with pytest.raises(StaleStageError):
        grid.commit(stage)

    # double commit: the first one advances the version
    stage = grid.stage_frame([(0.3, 0.3, 0.3)])
    grid.commit(stage)
    with pytest.raises(StaleStageError):
        grid.commit(stage)

    other = GmmMap(voxel_size=1.0)
    with pytest.raises(StaleStageError):
        other.commit(stage)


def test_conservation_through_mixed_operations():
    rng = np.random.default_rng(31)
    grid = GmmMap(voxel_size=2.0)
    grid.insert_points(rng.normal(scale=6.0, size=(300, 3)))
    grid.commit(grid.stage_frame(rng.normal(scale=6.0, size=(200, 3))))
    for p in rng.normal(scale=6.0, size=(50, 3)):
        grid.insert_points(p[None, :])
    assert total_points(grid) == 550
    grid.prune_outside((0.0, 0.0, 0.0), 5.0)
    assert total_points(grid) < 550
    assert len(keys(grid)) == len(grid.sums)


def test_prune_uses_voxel_center_strictly():
    grid = GmmMap(voxel_size=2.0)
    grid.insert_points([(0.5, 0.5, 0.5)])   # voxel (0,0,0), center (1,1,1)
    grid.insert_points([(8.5, 0.5, 0.5)])   # voxel (4,0,0), center (9,1,1)
    center_dist = np.linalg.norm([1.0, 1.0, 1.0])
    # radius exactly at the near voxel's center distance keeps it (strict >)
    removed = grid.prune_outside((0.0, 0.0, 0.0), center_dist)
    assert removed == 1
    assert keys(grid) == [(0, 0, 0)]
    for radius in (0.0, np.nan):
        with pytest.raises(ValueError):
            grid.prune_outside((0.0, 0.0, 0.0), radius)
    assert grid.prune_outside((1e9, 0.0, 0.0), np.inf) == 0


def test_empty_map_prunes_nothing_and_has_no_cells():
    grid = GmmMap(voxel_size=2.0)
    assert grid.origin is None
    assert grid.cells().shape == grid.centres().shape == (0, 3)
    assert grid.prune_outside((0.0, 0.0, 0.0), 1.0) == 0


def test_non_finite_points_rejected_not_fatal():
    grid = GmmMap(voxel_size=1.0)
    assert grid.stage_frame([(np.nan, 0.0, 0.0)]).rejected == 1
    assert grid.insert_points([(np.nan, 0.0, 0.0)]) == 0
    assert len(grid) == 0

    points = [(0.1, 0.1, 0.1), (np.inf, 0.0, 0.0), (0.2, 0.2, 0.2)]
    assert grid.stage_frame(points).rejected == 1
    assert grid.insert_points(points) == 2
    assert total_points(grid) == 2

    stage = grid.stage_frame([(0.3, 0.3, 0.3), (-np.inf, 1.0, 1.0)])
    assert stage.point_count == 1 and stage.rejected == 1
    grid.commit(stage)
    assert total_points(grid) == 3


def test_map_rejects_bad_voxel_size():
    with pytest.raises(ValueError):
        GmmMap(voxel_size=-1.0)


def test_points_other_than_n_by_3_name_their_shape():
    # 300 xyz+intensity rows would otherwise regroup into 400 xyz points
    grid = build_map(np.zeros((10, 3)) + 0.5, voxel_size=1.0)
    for bad in (np.zeros((300, 4)), np.zeros(6), np.zeros((2, 3, 3))):
        for call in (grid.insert_points, grid.stage_frame):
            with pytest.raises(ValueError, match=re.escape(f"shape {bad.shape}")):
                call(bad)
    assert len(grid) == 1 and total_points(grid) == 10
    # empty input of any shape is zero points
    assert grid.stage_frame(np.empty((0, 4))).point_count == 0
    assert len(build_map([], voxel_size=1.0)) == 0


def test_prune_bound_agrees_with_full_scan():
    rng = np.random.default_rng(71)
    for _ in range(60):
        grid = GmmMap(voxel_size=float(rng.choice([0.3, 0.5, 1.0, 4.0])))
        offset = rng.normal(scale=1e3, size=3)
        for step in range(6):
            size = (int(rng.integers(1, 40)), 3)
            grid.insert_points(rng.normal(scale=rng.uniform(0.5, 20.0), size=size) + offset)
            if not step % 2:
                continue
            center = offset + rng.normal(scale=10.0, size=3)
            dist = np.linalg.norm(grid.centres() - center, axis=1)
            # the farthest centre exactly at the radius, just past it, or anywhere
            radius = [dist.max(), np.nextafter(dist.max(), 0.0),
                      rng.uniform(0.1, 1.2) * dist.max()][step // 2]
            cells = keys(grid)
            expected = [key for key, d in zip(cells, dist) if d <= radius]
            assert grid.prune_outside(center, radius) == len(cells) - len(expected)
            assert keys(grid) == expected


def test_prune_skips_the_scan_when_the_box_is_within_radius():
    # cells along one axis only, so the box's far corner is an occupied cell
    grid = build_map([(0.5, 0.5, 0.5), (6.5, 0.5, 0.5), (-3.5, 0.5, 0.5)], voxel_size=1.0)
    center = np.array([1.2, -0.3, 2.0])
    radius = np.linalg.norm(grid.centres() - center, axis=1).max()
    grid.centres = lambda: pytest.fail("prune scanned the rows")
    assert grid.prune_outside(center, radius) == 0
    assert len(grid) == 3


def sorted_group(points, voxel_size, origin):
    """`_group` by packing a key per point and sorting the keys with np.unique."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    finite = np.isfinite(pts).all(axis=1)
    pts = pts[finite]
    cells = np.floor(pts / voxel_size)
    if origin is None:
        origin = cells[0].copy()
    rel = (cells - origin).astype(np.int64) + (1 << 20)
    packed = (rel[:, 0] << 42) | (rel[:, 1] << 21) | rel[:, 2]
    keys, inverse, n = np.unique(packed, return_inverse=True, return_counts=True)
    d = pts - (cells + 0.5) * voxel_size
    s = [np.bincount(inverse, weights=d[:, c], minlength=len(keys)) for c in range(3)]
    q = [np.bincount(inverse, weights=d[:, i] * d[:, j], minlength=len(keys))
         for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
    sums = np.stack([n.astype(float), *s, *q], axis=1)
    box = np.stack([cells.min(axis=0), cells.max(axis=0)])
    return origin, keys, sums, box, int((~finite).sum())


def surface_frame(rng, cells_per_side, points, voxel_size, corner):
    """A floor, two walls and a ramp filling a cube of cells_per_side cells
    whose least cell is ``corner``, so the frame's box is that cube."""
    side = cells_per_side * voxel_size
    u, v = rng.uniform(0.0, side, size=(2, points))
    w = rng.uniform(0.0, 0.3 * voxel_size, size=points)
    plane = rng.integers(0, 4, size=points)
    ramp = np.minimum(0.5 * (u + v), np.nextafter(side, 0.0))
    xyz = np.select([plane[:, None] == k for k in range(4)],
                    [np.stack(c, axis=1) for c in ((u, v, w), (w, u, v), (u, w, v), (u, v, ramp))])
    return xyz + np.asarray(corner, dtype=float) * voxel_size


def unique_calls(monkeypatch):
    """A list that grows by one each time numpy's unique is called."""
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    return calls


def assert_same_bits(got, ref):
    for name, a, b in zip(("origin", "keys", "sums", "box", "rejected"), got, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_counting_route_groups_bit_for_bit_like_sorting(monkeypatch):
    rng = np.random.default_rng(5)
    frames = []
    # box volume over point count 0.5 (10^3 / 2000) to 4 (20^3 / 2000)
    for side in (10, 13, 16, 20):
        corner = rng.integers(-50, 50, size=3)  # negative cells too
        frames.append((surface_frame(rng, side, 2000, 0.5, corner), 0.5, None))
    frames.append((surface_frame(rng, 12, 1000, 0.25, (-40, -30, -20)), 0.25, np.zeros(3)))
    frames.append(([(0.3, -0.7, 1e6 + 0.1)], 0.5, None))  # one point
    faces = rng.integers(-6, 6, size=(500, 3)) * 0.5  # every coordinate on a face
    faces[::7, 1] = -0.0
    frames.append((faces, 0.5, None))
    utm = surface_frame(rng, 15, 3000, 0.5, (0, 0, 0)) + (1e6 + 0.37, -1e6 - 0.21, 31.0)
    frames.append((utm, 0.5, None))
    frames.append((utm, 0.5, np.floor(utm[0] / 0.5) - 7))
    # the outermost cells keys can hold, 2^20 - 1 and -2^20 from the origin
    frames.append((surface_frame(rng, 8, 500, 1.0, (2 ** 20 - 8,) * 3), 1.0, np.zeros(3)))
    frames.append((surface_frame(rng, 8, 500, 1.0, (-(2 ** 20),) * 3), 1.0, np.zeros(3)))
    holed = surface_frame(rng, 14, 1500, 0.5, (3, -9, 1))
    holed[[0, 5, 77, 900]] = [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf), (np.nan,) * 3]
    frames.append((holed, 0.5, None))

    calls = unique_calls(monkeypatch)
    ratios = []
    for points, voxel_size, origin in frames:
        ref = sorted_group(points, voxel_size, origin)
        del calls[:]
        got = _group(points, voxel_size, origin)
        assert not calls  # the counting route never sorts
        assert_same_bits(got, ref)
        box = got[3]
        ratios.append((box[1] - box[0] + 1).prod() / got[2][:, 0].sum())
    assert min(ratios) == 0.5 and max(ratios) == 4.0
    assert ref[-1] == 4  # the last frame drops its four non-finite rows


def test_frame_with_a_far_point_sorts_in_memory_of_its_points(monkeypatch):
    # two points 1 km apart span a box of 1415 x 1415 x 1 cells at 0.5 m
    points = [(0.1, 0.2, 0.3), (707.2, 707.3, 0.3)]
    ref = sorted_group(points, 0.5, None)
    calls = unique_calls(monkeypatch)
    tracemalloc.start()
    try:
        got = _group(points, 0.5, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 1
    assert_same_bits(got, ref)
    volume = (got[3][1] - got[3][0] + 1).prod()
    assert volume == 1415 * 1415
    assert peak < 8 * volume / 100  # a count per cell of the box takes 8 bytes each
