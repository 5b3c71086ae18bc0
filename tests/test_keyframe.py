import dataclasses
import math

import numpy as np
import pytest

from wassmap.geometry import Pose, Rotation
from wassmap.keyframe import (
    EmptyFrameError,
    FrameDecision,
    KeyframeSelector,
    SelectorConfig,
    keyframe_indices,
    replay_decisions,
)
from wassmap.synth import ScanSpec, generate_scene, loop_path, simulate_scan

from helpers import assert_maps_identical, build_map, total_points


def keys(grid) -> list[tuple[int, int, int]]:
    """Cell index (i, j, k) of each map row, in row order."""
    return [tuple(c) for c in grid.cells().astype(np.int64).tolist()]


def make_frame(rng, n=400, extent=8.0):
    return rng.uniform(0.0, extent, size=(n, 3))


def base_config(**overrides):
    kwargs = dict(tau=0.5, voxel_size=2.0, radius=1000.0, min_points=2)
    kwargs.update(overrides)
    return SelectorConfig(**kwargs)


def test_config_validation():
    for tau in (-0.1, -math.inf, math.nan):
        with pytest.raises(ValueError):
            SelectorConfig(tau=tau)
    with pytest.raises(ValueError):
        SelectorConfig(tau=0.1, voxel_size=0.0)
    with pytest.raises(ValueError):
        SelectorConfig(tau=0.1, radius=-1.0)
    for voxel_size in (math.nan, math.inf):
        with pytest.raises(ValueError, match="voxel_size must be finite and positive"):
            SelectorConfig(tau=0.1, voxel_size=voxel_size)
    with pytest.raises(ValueError, match="radius must be positive"):
        SelectorConfig(tau=0.1, radius=math.nan)
    assert SelectorConfig(tau=0.1, radius=math.inf).radius == math.inf  # never prunes
    with pytest.raises(ValueError, match="sample covariance needs min_points >= 2"):
        SelectorConfig(tau=0.1, min_points=1)
    with pytest.raises(ValueError):
        SelectorConfig(tau=0.1, commit="sometimes")


def test_bootstrap_decision_and_voxel_count():
    rng = np.random.default_rng(3)
    pts = make_frame(rng)
    pose = Pose(Rotation.from_rotvec((0.0, 0.0, 0.4)), (10.0, -3.0, 1.0))
    selector = KeyframeSelector(base_config())

    decision = selector.bootstrap(pts, pose)
    assert decision.keyframe and decision.flag == "bootstrap"
    assert decision.dw == math.inf
    assert decision.frame_index == 1

    world = pose.transform_points(pts)
    expected = {tuple(c) for c in np.floor(world / 2.0).astype(int).tolist()}
    assert set(keys(selector.map)) == expected
    assert decision.new_count == len(expected)
    # the one selector step builds the map a bulk insert of the frame builds
    assert_maps_identical(selector.map, build_map(world, 2.0))

    with pytest.raises(RuntimeError):
        selector.bootstrap(pts, pose)


def test_empty_bootstrap_leaves_selector_uninitialized():
    selector = KeyframeSelector(base_config())
    with pytest.raises(EmptyFrameError):
        selector.bootstrap(np.empty((0, 3)), Pose.identity())
    assert not selector.bootstrapped
    with pytest.raises(EmptyFrameError):
        selector.bootstrap(np.full((5, 3), np.nan), Pose.identity())
    assert not selector.bootstrapped
    selector.bootstrap(np.zeros((5, 3)), Pose.identity())
    assert selector.bootstrapped


def test_process_requires_bootstrap():
    selector = KeyframeSelector(base_config())
    with pytest.raises(RuntimeError):
        selector.process_frame(np.zeros((5, 3)), Pose.identity())


def test_zero_threshold_marks_any_changed_frame():
    rng = np.random.default_rng(5)
    pts = make_frame(rng)
    selector = KeyframeSelector(base_config(tau=0.0))
    selector.bootstrap(pts, Pose.identity())
    decision = selector.process_frame(pts + rng.normal(scale=0.05, size=pts.shape), Pose.identity())
    assert decision.flag == "scored"
    assert decision.dw > 0.0
    assert decision.keyframe


def test_identical_frames_share_one_score_when_not_committing():
    rng = np.random.default_rng(7)
    pts = make_frame(rng)
    selector = KeyframeSelector(base_config(tau=math.inf))
    selector.bootstrap(pts, Pose.identity())
    scores = [selector.process_frame(pts, Pose.identity()).dw for _ in range(6)]
    assert len(set(scores)) == 1
    assert all(not d.keyframe for d in selector.decisions[1:])


def test_stationary_tail_quiet_above_measured_floor():
    # the self-distance floor is measured on frame 2, never assumed zero
    rng = np.random.default_rng(9)
    pts = make_frame(rng)

    probe = KeyframeSelector(base_config(tau=math.inf))
    probe.bootstrap(pts, Pose.identity())
    floor = probe.process_frame(pts, Pose.identity()).dw
    assert floor > 0.0  # mass growth shrinks the sample covariance

    selector = KeyframeSelector(base_config(tau=floor * 1.0000001))
    selector.bootstrap(pts, Pose.identity())
    for _ in range(10):
        selector.process_frame(pts, Pose.identity())
    assert keyframe_indices(selector.decisions) == [1]


def test_no_comparable_policies():
    near = np.zeros((30, 3)) + 1.0
    far = np.zeros((30, 3)) + 500.0

    take = KeyframeSelector(base_config())
    take.bootstrap(near, Pose.identity())
    d = take.process_frame(far, Pose.identity())
    assert d.flag == "no_comparable" and d.keyframe
    assert math.isnan(d.dw)
    assert d.new_count == 1 and d.affected_count == 0


def test_commit_policies():
    rng = np.random.default_rng(11)
    pts = make_frame(rng)
    noisy = pts + rng.normal(scale=0.01, size=pts.shape)

    keep = KeyframeSelector(base_config(tau=math.inf))
    keep.bootstrap(pts, Pose.identity())
    before = total_points(keep.map)
    keep.process_frame(noisy, Pose.identity())
    assert total_points(keep.map) == before  # non-keyframe stage discarded

    always = KeyframeSelector(base_config(tau=math.inf, commit="always"))
    always.bootstrap(pts, Pose.identity())
    before = total_points(always.map)
    always.process_frame(noisy, Pose.identity())
    assert total_points(always.map) == before + len(noisy)


def test_pruning_follows_the_pose():
    cfg = base_config(tau=0.0, radius=30.0)
    selector = KeyframeSelector(cfg)
    selector.bootstrap(np.zeros((30, 3)) + 1.0, Pose.identity())
    far_pose = Pose(Rotation.identity(), (50.0, 0.0, 0.0))
    local = np.zeros((30, 3)) + 1.0  # sensor-frame points near the new pose
    selector.process_frame(local, far_pose)
    cells = np.array(keys(selector.map), dtype=float)
    centers = (cells + 0.5) * cfg.voxel_size
    dists = np.linalg.norm(centers - np.array([50.0, 0.0, 0.0]), axis=1)
    assert (dists <= 30.0).all()
    assert len(selector.map) > 0


def test_bootstrap_frame_is_pruned_by_the_next_frame_only():
    cfg = base_config(tau=math.inf, radius=30.0)
    selector = KeyframeSelector(cfg)
    near, far = np.zeros((30, 3)) + 1.0, np.zeros((30, 3)) + 100.0
    selector.bootstrap(np.concatenate([near, far]), Pose.identity())
    assert len(selector.map) == 2  # the voxel 100 m out outlives the bootstrap
    selector.process_frame(near, Pose.identity())
    assert keys(selector.map) == [(0, 0, 0)]


def test_run_sequence_skips_bad_frames():
    rng = np.random.default_rng(13)
    pts = make_frame(rng)
    frames = [
        (pts, Pose.identity(), None),
        (np.empty((0, 3)), Pose.identity(), None),          # error row
        (pts, Pose(Rotation.identity(), (np.nan, 0, 0)), None),  # error row
        (pts + 0.05, Pose.identity(), 12.5),
    ]
    selector = KeyframeSelector(base_config())
    decisions = selector.run_sequence(frames)
    assert len(decisions) == 4
    assert [d.frame_index for d in decisions] == [1, 2, 3, 4]
    assert [d.flag for d in decisions][1:3] == ["error", "error"]
    for d in decisions[1:3]:
        assert not d.keyframe and math.isnan(d.dw)
    assert decisions[3].flag == "scored"
    assert decisions[3].timestamp == 12.5
    assert selector.decisions == decisions


def test_unpaired_and_unread_frames_get_rows_and_leave_the_map():
    rng = np.random.default_rng(17)
    pts = make_frame(rng)
    selector = KeyframeSelector(base_config())
    decisions = selector.run_sequence([
        (None, None, 0.5),                                      # no pose
        (ValueError("x.pcd: truncated"), Pose.identity(), 1.0),  # read failed
        (pts, Pose.identity(), 1.5),
    ])
    assert [d.flag for d in decisions] == ["unpaired", "error", "bootstrap"]
    assert [d.frame_index for d in decisions] == [1, 2, 3]
    assert [d.timestamp for d in decisions] == [0.5, 1.0, 1.5]
    version = selector.map.version
    later = selector.run_sequence([(pts, None, None)])
    assert (later[0].frame_index, later[0].flag, later[0].keyframe) == (4, "unpaired", False)
    assert math.isnan(later[0].dw) and later[0].timestamp is None
    assert selector.map.version == version
    assert keyframe_indices(replay_decisions(decisions + later, 0.0)) == [3]


def test_failed_bootstrap_frame_gets_error_row_and_next_frame_bootstraps():
    selector = KeyframeSelector(base_config())
    pts = make_frame(np.random.default_rng(14))
    decisions = selector.run_sequence([
        (np.full((10, 3), np.nan), Pose.identity(), None),
        (pts, Pose.identity(), None),
    ])
    assert [d.flag for d in decisions] == ["error", "bootstrap"]
    assert [d.frame_index for d in decisions] == [1, 2]
    assert keyframe_indices(decisions) == [2]


def test_frame_of_the_wrong_shape_is_an_error_row():
    # 300 xyz+intensity rows would otherwise be scored as 400 xyz points
    rng = np.random.default_rng(16)
    xyzi = np.concatenate([make_frame(rng, n=300), rng.uniform(size=(300, 1))], axis=1)
    selector = KeyframeSelector(base_config())
    with pytest.raises(ValueError, match=r"shape \(300, 4\)"):
        selector.bootstrap(xyzi, Pose.identity())
    assert not selector.bootstrapped
    with pytest.raises(EmptyFrameError):
        selector.bootstrap(np.empty((0, 4)), Pose.identity())

    decisions = selector.run_sequence([(make_frame(rng), Pose.identity(), None),
                                       (xyzi, Pose.identity(), None)])
    assert [d.flag for d in decisions] == ["bootstrap", "error"]
    assert not decisions[1].keyframe and math.isnan(decisions[1].dw)


def test_all_nan_frame_after_bootstrap_is_an_error_not_a_keyframe():
    rng = np.random.default_rng(15)
    selector = KeyframeSelector(base_config())
    selector.bootstrap(make_frame(rng), Pose.identity())
    version, voxels = selector.map.version, len(selector.map)
    with pytest.raises(EmptyFrameError):
        selector.process_frame(np.full((100, 3), np.nan), Pose.identity())

    decisions = selector.run_sequence([(np.full((100, 3), np.nan), Pose.identity(), None)])
    assert [d.flag for d in decisions] == ["error"]
    assert not decisions[0].keyframe and math.isnan(decisions[0].dw)
    assert decisions[0].frame_index == 3
    assert (selector.map.version, len(selector.map)) == (version, voxels)


def test_georeferenced_poses_score_like_local_ones():
    # 1e6 m offsets are routine for UTM poses; raw moments cancel there
    scene = generate_scene("loop_course")
    poses = loop_path(n_frames=40)
    clouds = [simulate_scan(scene, pose, ScanSpec(20.0, 0.01, 5000, seed=k),
                            frame_index=k).points for k, pose in enumerate(poses)]
    shift = np.array([1e6, 1e6, 0.0])
    runs = []
    for offset in (np.zeros(3), shift):
        selector = KeyframeSelector(SelectorConfig(tau=0.1, voxel_size=1.0))
        frames = [(pts, Pose(pose.rotation, pose.translation + offset), None)
                  for pts, pose in zip(clouds, poses)]
        runs.append(selector.run_sequence(frames))
    local, shifted = runs
    assert [d.flag for d in shifted] == [d.flag for d in local]
    assert "error" not in [d.flag for d in local]
    assert keyframe_indices(shifted) == keyframe_indices(local)
    np.testing.assert_allclose([d.dw for d in shifted], [d.dw for d in local],
                               rtol=0.0, atol=1e-6)


def test_single_frame_sequence():
    selector = KeyframeSelector(base_config())
    decisions = selector.run_sequence([(np.zeros((10, 3)), Pose.identity(), None)])
    assert len(decisions) == 1 and decisions[0].keyframe


def test_replay_threshold_subsets():
    rng = np.random.default_rng(17)
    decisions = [
        FrameDecision(1, math.inf, True, "bootstrap"),
    ]
    for i in range(2, 60):
        dw = float(rng.uniform(0.0, 1.0))
        decisions.append(FrameDecision(i, dw, dw > 0.5, "scored"))
    decisions.append(FrameDecision(60, math.nan, True, "no_comparable"))

    taus = np.linspace(0.0, 1.0, 10)
    sets = [set(keyframe_indices(replay_decisions(decisions, t))) for t in taus]
    for lo, hi in zip(sets, sets[1:]):
        assert hi <= lo
    # bootstrap and no-comparable decisions survive any threshold
    for s in sets:
        assert 1 in s and 60 in s
    for tau in (-1.0, math.nan):
        with pytest.raises(ValueError):
            replay_decisions(decisions, tau)


def test_deterministic_reruns():
    rng = np.random.default_rng(19)
    frames = []
    pose = Pose.identity()
    step = Pose(Rotation.from_rotvec((0.0, 0.0, 0.02)), (0.4, 0.0, 0.0))
    cloud = make_frame(rng)
    for i in range(8):
        noise = np.random.default_rng([19, i]).normal(scale=0.01, size=cloud.shape)
        frames.append((cloud + noise, pose, 0.1 * i))
        pose = pose * step

    runs = []
    for _ in range(2):
        selector = KeyframeSelector(base_config(tau=0.05))
        runs.append(selector.run_sequence(frames))
    for a, b in zip(*runs):
        # identical except wall-clock timing
        assert dataclasses.replace(a, millis=0.0) == dataclasses.replace(b, millis=0.0)
        assert a.millis >= 0.0
