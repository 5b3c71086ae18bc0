import math
import warnings

import numpy as np
import pytest

import wassmap.synth
from wassmap.geometry import Pose, Rotation, se3_exp, stack_poses
from wassmap.keyframe import KeyframeSelector, SelectorConfig
from wassmap.synth import (
    ROTATION_SIGMA_LIMIT,
    NoiseModel,
    Patch,
    ScanSpec,
    Scene,
    build_session_graph,
    compose_odometry,
    corridor_path,
    generate_scene,
    generate_two_session,
    loop_path,
    simulate_scan,
)

from helpers import log_pose, pose_matrix, reference_scan


def perturb_pose(pose: Pose, sigma_t: float, sigma_r: float, rng) -> Pose:
    """Right-perturb a pose by a random tangent step."""
    xi = np.concatenate([rng.normal(scale=sigma_r, size=3),
                         rng.normal(scale=sigma_t, size=3)])
    return pose * se3_exp(xi)


def relative_noise(true_a: Pose, true_b: Pose, measurement: Pose) -> np.ndarray:
    """Tangent-space discrepancy between a measurement and the true relative."""
    return log_pose((true_a.inverse() * true_b).inverse() * measurement)


class TestScenes:
    def test_corridor_patch_census(self):
        scene = generate_scene("corridor", (40.0, 4.0, 3.0))
        assert len(scene.patches) == 6
        # 4 walls stand vertical (zero z-extent in one edge vector), plus
        # horizontal floor and ceiling
        vertical = [p for p in scene.patches if p.u[2] != 0 or p.v[2] != 0]
        horizontal = [p for p in scene.patches if p.u[2] == 0 and p.v[2] == 0]
        assert len(vertical) == 4
        assert len(horizontal) == 2
        assert {p.origin[2] + p.u[2] + p.v[2] for p in horizontal} == {0.0, 3.0}

    def test_loop_course_closed_circuit(self):
        scene = generate_scene("loop_course", (30.0, 4.0, 3.0))
        assert all(p.area > 0 for p in scene.patches)
        # walls at both the outer shell and the inner hole
        wall_x = {p.origin[0] for p in scene.patches if p.u[0] == 0 and p.v[2] != 0}
        assert {0.0, 4.0, 26.0, 30.0} <= wall_x

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_scene("corridor", (0.0, 4.0, 3.0))
        with pytest.raises(ValueError):
            generate_scene("loop_course", (10.0, 6.0, 3.0))  # hole vanishes
        with pytest.raises(ValueError):
            generate_scene("hallway")
        with pytest.raises(ValueError):
            Scene((), 1.0)
        with pytest.raises(ValueError):
            Scene((Patch((0, 0, 0), (1, 0, 0), (0, 1, 0)),), 0.0)
        with pytest.raises(ValueError):
            Patch((0, 0, 0), (0, 0, 0), (0, 1, 0))

    @pytest.mark.parametrize("build, message", [
        (lambda: generate_scene("corridor", density=math.nan), "density must be positive"),
        (lambda: generate_scene("corridor", density=math.inf), "density must be positive"),
        (lambda: Patch((0, 0, 0), (math.nan, 0, 0), (0, 1, 0)), "patch coordinates must be finite"),
        (lambda: Patch((math.inf, 0, 0), (1, 0, 0), (0, 1, 0)), "patch coordinates must be finite"),
        (lambda: generate_scene("corridor", dims=(40, 4, math.nan)), "dimensions must be positive"),
        (lambda: generate_scene("loop_course", dims=(math.inf, 4, 3)), "need positive dims"),
        # finite values whose products overflow
        (lambda: generate_scene("corridor", density=1e308),
         "candidate budget \\(area x density\\) must be finite"),
        (lambda: Patch((0, 0, 0), (1e200, 0, 0), (0, 1e200, 0)), "patch area must be finite"),
    ], ids=["nan-density", "inf-density", "nan-edge", "inf-origin", "nan-corridor-height",
            "inf-loop-side", "overflowing-budget", "overflowing-area"])
    def test_non_finite_values_rejected(self, build, message):
        # each one used to pass here and fail later inside simulate_scan
        with pytest.raises(ValueError, match=message):
            build()


def _assert_same_frame(a, b):
    assert (a.frame_index, a.timestamp) == (b.frame_index, b.timestamp)
    assert (a.points.dtype, a.points.shape) == (b.points.dtype, b.points.shape)
    assert a.points.tobytes() == b.points.tobytes()


_CORRIDOR = generate_scene("corridor")
_LOOP = generate_scene("loop_course")
_AT_5 = Pose(Rotation.identity(), (5.0, 0.0, 1.5))
# a 1 m² patch beside a 10,000 m² wall gets no point in most chunks
_INTEGER_PATCHES = Scene((Patch((0, 0, 0), (1, 0, 0), (0, 1, 0)),
                          Patch((0, -5, 0), (200, 0, 0), (0, 0, 50))), 10.0)
# y depends on both draws, so (origin + a u) + b v rounds unlike origin + (a u + b v)
_TILTED = Scene((Patch((0.5, -1.0, 0.25), (3.0, 1.0, 0.0), (0.0, 1.5, 2.0)),), 100.0)


class TestSimulateScan:
    @pytest.mark.parametrize("scene, pose, spec", [
        (_LOOP, loop_path(n_frames=8)[3], ScanSpec(4.0, 0.01, 1500, seed=1)),
        (_CORRIDOR, Pose(Rotation.from_rotvec((0.0, 0.0, 0.8)), (12.0, 0.5, 1.5)),
         ScanSpec(9.0, 0.0, 2000, seed=5)),
        (_CORRIDOR, _AT_5, ScanSpec(1.0, 0.01, 100, seed=2)),
        (_CORRIDOR, _AT_5, ScanSpec(30.0, 0.01, 0, seed=3)),
        (Scene((Patch((0.0, 0.0, 0.0), (2.0, 0, 0), (0, 2.0, 0)),), 10.0),
         Pose(Rotation.identity(), (1.0, 1.0, 1.0)), ScanSpec(100.0, 0.02, 100, seed=4)),
        (_INTEGER_PATCHES, Pose(Rotation.identity(), (0.0, 0.0, 1.0)),
         ScanSpec(30.0, 0.01, 300, seed=6)),
        (_LOOP, loop_path()[10], ScanSpec(seed=7)),
        (_TILTED, Pose(Rotation.identity(), (1.0, 0.0, 1.0)), ScanSpec(30.0, 0.01, 300, seed=8)),
    ], ids=["loop-course-8-chunks-truncated", "corridor-sigma-zero", "nearest-patch-out-of-range",
            "zero-points", "budget-below-one-chunk", "integer-patches-zero-counts",
            "loop-course-defaults", "tilted-patch"])
    def test_matches_per_patch_reference(self, scene, pose, spec):
        _assert_same_frame(simulate_scan(scene, pose, spec, frame_index=4, timestamp=0.4),
                           reference_scan(scene, pose, spec, frame_index=4, timestamp=0.4))

    def test_range_ties_fall_as_in_the_reference(self):
        # one chunk (the budget is below it), sigma 0 and the identity pose, so
        # an infinite range returns every candidate as drawn; a range equal to
        # a candidate's distance keeps it only when the squares are summed in
        # np.linalg.norm's order, and these candidates round apart in another
        pose = Pose(Rotation.identity(), (0.0, 0.0, 0.0))
        xyz = reference_scan(_TILTED, pose, ScanSpec(math.inf, 0.0, 5000, seed=9)).points
        dist = np.linalg.norm(xyz, axis=1)
        x, y, z = xyz.T
        ties = dist[np.sqrt(x * x + (y * y + z * z)) != dist]
        assert len(ties) >= 5
        for tie in ties[:5]:
            spec = ScanSpec(float(tie), 0.0, 5000, seed=9)
            _assert_same_frame(simulate_scan(_TILTED, pose, spec),
                               reference_scan(_TILTED, pose, spec))

    def test_two_session_scans_match_reference(self, monkeypatch):
        paths = (corridor_path(40.0, 3), corridor_path(40.0, 3, height=1.6))
        spec = ScanSpec(10.0, 0.01, 500, seed=3)
        data = generate_two_session(_CORRIDOR, paths, seed=1, scan_spec=spec)
        monkeypatch.setattr(wassmap.synth, "simulate_scan", reference_scan)
        ref = generate_two_session(_CORRIDOR, paths, seed=1, scan_spec=spec)
        assert len(data.scans1 + data.scans2) == 6
        for new, old in zip(data.scans1 + data.scans2, ref.scans1 + ref.scans2):
            _assert_same_frame(new, old)

    def test_zero_sigma_floor_is_exact(self):
        floor = Scene((Patch((0.0, 0.0, 0.0), (10.0, 0, 0), (0, 10.0, 0)),), 50.0)
        pose = Pose(Rotation.identity(), (2.0, 1.0, 1.5))
        cloud = simulate_scan(floor, pose, ScanSpec(max_range=20.0, sigma=0.0,
                                                    points_per_frame=400, seed=3))
        assert len(cloud.points) == 400
        world = pose.transform_points(cloud.points)
        assert np.all(world[:, 2] == 0.0)

    def test_seed_reproducibility(self):
        scene = generate_scene("corridor", (10.0, 10.0, 3.0))
        pose = Pose(Rotation.identity(), (5.0, 0.0, 1.5))
        spec = ScanSpec(max_range=30.0, sigma=0.02, points_per_frame=777, seed=11)
        a = simulate_scan(scene, pose, spec)
        b = simulate_scan(scene, pose, spec)
        assert np.array_equal(a.points, b.points)
        c = simulate_scan(scene, pose, ScanSpec(30.0, 0.02, 777, seed=12))
        assert a.points.shape == c.points.shape
        assert not np.array_equal(a.points, c.points)

    def test_full_count_when_surface_sufficient(self):
        scene = generate_scene("corridor", (10.0, 10.0, 3.0), density=100.0)
        pose = Pose(Rotation.identity(), (5.0, 0.0, 1.5))
        cloud = simulate_scan(scene, pose, ScanSpec(50.0, 0.0, 1500, seed=0))
        assert len(cloud.points) == 1500

    def test_empty_when_nothing_in_range(self):
        scene = generate_scene("corridor", (10.0, 10.0, 3.0))
        pose = Pose(Rotation.identity(), (5.0, 0.0, 1.5))
        cloud = simulate_scan(scene, pose, ScanSpec(max_range=0.5, sigma=0.0,
                                                    points_per_frame=100, seed=0))
        assert cloud.points.shape == (0, 3)

    def test_sparse_scene_limits_count(self):
        patch = Patch((0.0, 0.0, 0.0), (2.0, 0, 0), (0, 2.0, 0))
        scene = Scene((patch,), density=10.0)  # 40 candidate points total
        pose = Pose(Rotation.identity(), (1.0, 1.0, 1.0))
        cloud = simulate_scan(scene, pose, ScanSpec(100.0, 0.0, 100, seed=0))
        assert len(cloud.points) == 40

    def test_sensor_frame_and_range(self):
        scene = generate_scene("corridor")
        yaw = Rotation.from_rotvec((0.0, 0.0, 0.8))
        pose = Pose(yaw, (12.0, 0.5, 1.5))
        spec = ScanSpec(max_range=9.0, sigma=0.01, points_per_frame=2000, seed=5)
        cloud = simulate_scan(scene, pose, spec)
        assert len(cloud.points) > 100
        # rigid transform preserves range, so sensor-frame norms obey the
        # max-range filter up to the added noise
        norms = np.linalg.norm(cloud.points, axis=1)
        assert norms.max() <= spec.max_range + 6 * spec.sigma
        # pushing back through the pose lands on the corridor shell
        world = pose.transform_points(cloud.points)
        tol = 6 * spec.sigma
        on_plane = (
            (np.abs(world[:, 1] - 2.0) < tol) | (np.abs(world[:, 1] + 2.0) < tol)
            | (np.abs(world[:, 2]) < tol) | (np.abs(world[:, 2] - 3.0) < tol)
            | (np.abs(world[:, 0]) < tol) | (np.abs(world[:, 0] - 40.0) < tol)
        )
        assert on_plane.all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(max_range=0.0)
        with pytest.raises(ValueError):
            ScanSpec(sigma=-0.1)
        with pytest.raises(ValueError):
            ScanSpec(points_per_frame=-1)
        with pytest.raises(ValueError, match="^max_range must be positive$"):
            ScanSpec(max_range=np.nan)
        with pytest.raises(ValueError, match="^sigma must be >= 0$"):
            ScanSpec(sigma=np.nan)
        with pytest.raises(ValueError, match="^sigma must be finite$"):
            ScanSpec(sigma=np.inf)


class TestPaths:
    def test_corridor_path(self):
        poses = corridor_path(40.0, 11, height=1.5)
        xs = [p.translation[0] for p in poses]
        assert xs[0] == pytest.approx(2.0)
        assert xs[-1] == pytest.approx(38.0)
        assert all(p.translation[2] == 1.5 for p in poses)

    def test_loop_path_stays_on_centerline(self):
        poses = loop_path(n_frames=24, laps=2)
        assert len(poses) == 48
        for pose in poses:
            x, y, _ = pose.translation
            on_rail = (
                math.isclose(x, 2.0) or math.isclose(x, 28.0)
                or math.isclose(y, 2.0) or math.isclose(y, 28.0)
            )
            assert on_rail
        # laps revisit the same ground: pose k and pose k+24 coincide
        for a, b in zip(poses[:24], poses[24:]):
            assert np.allclose(a.translation, b.translation, atol=1e-9)


class TestTwoSession:
    def _paths(self, n1=30, n2=30):
        return corridor_path(40.0, n1), corridor_path(40.0, n2, height=1.6)

    def test_zero_noise_composes_to_truth(self):
        data = generate_two_session(None, self._paths(), NoiseModel(0.0, 0.0), seed=1)
        for truth, odometry in ((data.truth1, data.odometry1),
                                (data.truth2, data.odometry2)):
            poses = compose_odometry(truth[0].pose, odometry)
            for entry, pose in zip(truth, poses):
                gap = np.abs(pose_matrix(entry.pose) - pose_matrix(pose)).max()
                assert gap < 1e-10

    def test_fixed_seed_reproducible(self):
        scene = generate_scene("corridor")
        spec = ScanSpec(20.0, 0.01, 300, seed=7)
        a = generate_two_session(scene, self._paths(10, 10), seed=42, scan_spec=spec)
        b = generate_two_session(scene, self._paths(10, 10), seed=42, scan_spec=spec)
        for name in ("odometry1", "odometry2", "loops"):
            ea, eb = getattr(a, name), getattr(b, name)
            assert len(ea) == len(eb)
            for ma, mb in zip(ea.measurement, eb.measurement):
                assert np.array_equal(pose_matrix(ma), pose_matrix(mb))
        for sa, sb in zip(a.scans1 + a.scans2, b.scans1 + b.scans2):
            assert np.array_equal(sa.points, sb.points)
        c = generate_two_session(scene, self._paths(10, 10), seed=43, scan_spec=spec)
        assert not np.array_equal(pose_matrix(a.odometry1.measurement[0]),
                                  pose_matrix(c.odometry1.measurement[0]))

    def test_translation_noise_statistics(self):
        # >= 500 edges, empirical sigma within 20% of the requested one
        paths = (corridor_path(40.0, 501), corridor_path(40.0, 3))
        noise = NoiseModel(sigma_t=0.01, sigma_r=math.radians(0.1))
        data = generate_two_session(None, paths, noise, seed=9, n_loops=0)
        assert len(data.odometry1) == 500
        samples = np.concatenate([
            relative_noise(paths[0][i], paths[0][j], measurement)
            for i, j, measurement in zip(data.odometry1.i, data.odometry1.j,
                                         data.odometry1.measurement)
        ]).reshape(-1, 6)
        assert abs(samples[:, 3:].std() - 0.01) < 0.002
        assert abs(samples[:, :3].std() - noise.sigma_r) < 0.2 * noise.sigma_r

    def test_loops_land_on_overlap(self):
        data = generate_two_session(None, self._paths(), seed=3, n_loops=10,
                                    loop_radius=2.0)
        assert len(data.loops) == 10
        paths = self._paths()
        loops = data.loops
        for i, j, measurement, info in zip(loops.i, loops.j, loops.measurement,
                                           loops.information):
            t1 = np.asarray(paths[0][i].translation)
            t2 = np.asarray(paths[1][j].translation)
            assert np.linalg.norm(t1 - t2) <= 2.0
            assert np.all(np.linalg.eigvalsh(info) > 0)
            gap = relative_noise(paths[0][i], paths[1][j], measurement)
            assert np.linalg.norm(gap) < 0.1

    def test_disjoint_paths_have_no_loops(self):
        paths = (corridor_path(40.0, 10, height=1.5),
                 [Pose(Rotation.identity(), (x, 0.0, 50.0)) for x in range(10)])
        data = generate_two_session(None, paths, seed=0, loop_radius=1.0)
        assert len(data.loops) == 0

    def test_session_graph_helper(self):
        data = generate_two_session(None, self._paths(8, 8), seed=5)
        poses = compose_odometry(data.truth1[0].pose, data.odometry1)
        graph = build_session_graph(poses, data.odometry1, session=1)
        assert len(graph.nodes) == 8
        assert len(graph.edges) == 7
        assert not any(n.fixed for n in graph.nodes.values())
        assert all(n.session == 1 for n in graph.nodes.values())

    def test_perturb_pose_moves(self):
        rng = np.random.default_rng(0)
        pose = Pose(Rotation.identity(), (1.0, 2.0, 3.0))
        moved = perturb_pose(pose, 0.5, 0.05, rng)
        assert np.linalg.norm(np.asarray(moved.translation) - (1, 2, 3)) > 1e-3

    def test_negative_loop_count_rejected(self):
        paths = (corridor_path(40.0, 5), corridor_path(40.0, 5, height=1.6))
        with pytest.raises(ValueError, match="n_loops must be >= 0"):
            generate_two_session(None, paths, n_loops=-1)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.01, 0.0)
        for sigmas in ((np.nan, 0.0), (0.01, np.nan)):
            with pytest.raises(ValueError, match="^noise sigmas must be >= 0$"):
                NoiseModel(*sigmas)
        for sigmas in ((np.inf, 0.0), (0.01, np.inf)):
            with pytest.raises(ValueError, match="^noise sigmas must be finite$"):
                NoiseModel(*sigmas)
        for sigmas in ((1e300, 0.0), (0.01, 1.35e154)):
            with pytest.raises(ValueError, match="^noise sigmas must be below 1.34e"):
                NoiseModel(*sigmas)
        with pytest.raises(ValueError, match=r"^rotation noise sigma must be below 2.33e\+101"):
            NoiseModel(0.01, ROTATION_SIGMA_LIMIT)
        largest = NoiseModel(1.34e154, np.nextafter(ROTATION_SIGMA_LIMIT, 0.0)).information()
        assert np.all((np.diag(largest) > 0.0) & np.isfinite(np.diag(largest)))

    def test_largest_sigmas_draw_without_overflow(self):
        noise = NoiseModel(1.34e154, np.nextafter(ROTATION_SIGMA_LIMIT, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the longest draw numpy's normal sampler can make, 13.71 sigma on every axis
            worst = se3_exp(13.71 * np.repeat([noise.sigma_r, noise.sigma_t], 3))
            data = generate_two_session(None, self._paths(), noise, seed=1)
        assert np.isfinite(worst.translation).all()
        measured = stack_poses([*data.odometry1.measurement, *data.odometry2.measurement])
        assert all(np.isfinite(column).all() for column in measured)


class TestCoverage:
    def test_revisit_sees_no_new_voxels(self):
        # second lap of the loop course re-observes surface the first lap
        # already mapped; voxel size divides the course dimensions so every
        # populated cell has a broad surface intersection
        scene = generate_scene("loop_course", (30.0, 4.0, 3.0), density=100.0)
        poses = loop_path(n_frames=30, laps=2)
        spec = ScanSpec(max_range=100.0, sigma=0.0, points_per_frame=4000, seed=21)
        config = SelectorConfig(tau=0.05, voxel_size=2.0, radius=1000.0,
                                commit="always")
        selector = KeyframeSelector(config)
        decisions = []
        for k, pose in enumerate(poses):
            cloud = simulate_scan(scene, pose, ScanSpec(100.0, 0.0, 4000, seed=21 + k),
                                  frame_index=k)
            if k == 0:
                decisions.append(selector.bootstrap(cloud.points, pose))
            else:
                decisions.append(selector.process_frame(cloud.points, pose))
        assert all(d.new_count == 0 for d in decisions[30:])
