import dataclasses
import math
import warnings

import numpy as np
import pytest

from wassmap.geometry import (
    Pose,
    Rotation,
    _v_matrix_inv,
    se3_exp,
    se3_right_jacobian_inv,
)
from wassmap.io import write_pcd

from helpers import ReferenceRotation, log_pose, one_adjoint, pose_matrix, se3_left_jacobian

TOL = 1e-9


def random_pose(rng, max_angle=math.pi - 0.1, max_trans=10.0):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    t = rng.uniform(-max_trans, max_trans, size=3)
    return Pose(Rotation.from_rotvec(angle * axis), t)


def pose_close(a, b, tol=TOL):
    delta = a.inverse() * b
    return np.linalg.norm(log_pose(delta)[:3]) < tol and np.linalg.norm(delta.translation) < tol


def test_quaternion_normalized_and_matrix_orthonormal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = rng.normal(size=4)
        r = Rotation(*q)
        n = math.sqrt(r.w**2 + r.x**2 + r.y**2 + r.z**2)
        assert abs(n - 1.0) < TOL
        m = r.as_matrix()
        assert np.max(np.abs(m.T @ m - np.eye(3))) < TOL
        assert abs(np.linalg.det(m) - 1.0) < TOL


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(3)
    p = random_pose(rng)
    assert pose_close(Pose.identity() * p, p)
    assert pose_close(p * p.inverse(), Pose.identity())


def test_compose_matches_hand_multiplied_matrices():
    # two copies of [Rz(90deg), t=(1,0,0)] multiplied by hand as 4x4 matrices
    m = np.array(
        [
            [0.0, -1.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    expected = m @ m
    p = Pose(Rotation.from_rotvec([0.0, 0.0, math.pi / 2]), [1.0, 0.0, 0.0])
    assert np.max(np.abs(pose_matrix(p) - m)) < TOL
    got = pose_matrix(p * p)
    assert np.max(np.abs(got - expected)) < TOL
    assert np.allclose((p * p).translation, [1.0, 1.0, 0.0], atol=TOL)


def test_compose_associative():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b, c = (random_pose(rng) for _ in range(3))
        assert pose_close((a * b) * c, a * (b * c), tol=1e-8)


def test_transform_point_trivial_cases():
    assert np.allclose(Pose.identity().transform_points([[1, 2, 3]]), [[1, 2, 3]])
    shift = Pose(Rotation.identity(), [1, 0, 0])
    assert np.allclose(shift.transform_points([[0, 0, 0]]), [[1, 0, 0]])
    quarter = Pose(Rotation.from_rotvec([0, 0, math.pi / 2]), [0, 0, 0])
    assert np.allclose(quarter.transform_points([[1, 0, 0]]), [[0, 1, 0]], atol=TOL)


def test_transform_point_composition_property():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = random_pose(rng), random_pose(rng)
        p = rng.uniform(-5, 5, size=(1, 3))
        lhs = (a * b).transform_points(p)
        rhs = a.transform_points(b.transform_points(p))
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_transform_points_matches_scalar_transform():
    rng = np.random.default_rng(17)
    p = random_pose(rng)
    pts = rng.uniform(-10, 10, size=(50, 3))
    batch = p.transform_points(pts)
    for i in range(len(pts)):
        assert np.max(np.abs(batch[i] - (p.rotation.rotate(pts[i]) + p.translation))) < TOL


def test_transform_points_is_bitwise_the_row_major_product(tmp_path):
    rng = np.random.default_rng(29)
    for size in (1, 2, 3, 17, 4096):
        p = random_pose(rng, max_trans=10.0 ** rng.uniform(-2, 6))
        pts = rng.normal(scale=10.0 ** rng.uniform(-2, 6), size=(size, 3))
        got = p.transform_points(pts)
        ref = pts @ p.rotation.as_matrix().T + p.translation
        assert got.shape == ref.shape and np.ascontiguousarray(got).tobytes() == ref.tobytes()
    assert got.T.flags.c_contiguous  # a transposed view of one row per axis
    write_pcd(tmp_path / "view.pcd", got)
    write_pcd(tmp_path / "copy.pcd", np.ascontiguousarray(got))
    assert (tmp_path / "view.pcd").read_bytes() == (tmp_path / "copy.pcd").read_bytes()

    pts[[3, 9, 11]] = [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (np.inf, -np.inf, np.inf)]
    # the identity's zeros meet the infinities as inf * 0
    for pose in (p, Pose(Rotation(), p.translation)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pose.transform_points(pts)
        finite = np.isfinite(got).all(axis=1)
        assert np.flatnonzero(~finite).tolist() == [3, 9, 11]
        ref = pts[finite] @ pose.rotation.as_matrix().T + pose.translation
        assert np.ascontiguousarray(got[finite]).tobytes() == ref.tobytes()


def test_group_axioms_seeded():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a, b = random_pose(rng), random_pose(rng)
        assert pose_close(a * a.inverse(), Pose.identity())
        assert pose_close(a.inverse() * a, Pose.identity())
        assert pose_close((a * b).inverse(), b.inverse() * a.inverse(), tol=1e-8)


def test_exp_trivial_cases():
    assert pose_close(se3_exp(np.zeros(6)), Pose.identity())
    p = se3_exp([0, 0, 0, 1, 2, 3])
    assert np.linalg.norm(log_pose(p)[:3]) < TOL
    assert np.allclose(p.translation, [1, 2, 3], atol=TOL)


def test_log_exp_round_trip():
    xi = np.array([0.1, 0, 0, 0.2, 0, 0])
    assert np.max(np.abs(log_pose(se3_exp(xi)) - xi)) < TOL
    rng = np.random.default_rng(29)
    for _ in range(500):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-8, math.pi - 0.1)
        xi = np.concatenate([angle * axis, rng.uniform(-10, 10, size=3)])
        assert np.max(np.abs(log_pose(se3_exp(xi)) - xi)) < TOL


def test_exp_log_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(500):
        p = random_pose(rng)
        assert pose_close(se3_exp(log_pose(p)), p)


def test_adjoint_identity():
    rng = np.random.default_rng(37)
    for _ in range(50):
        t = random_pose(rng)
        xi = 0.3 * rng.normal(size=6)
        lhs = se3_exp(one_adjoint(t) @ xi)
        rhs = t * se3_exp(xi) * t.inverse()
        assert pose_close(lhs, rhs, tol=1e-8)


def test_left_jacobian_defining_property():
    # exp(xi + d) ~ exp(J d) exp(xi), checked by central differences
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(30):
        xi = rng.uniform(-1.0, 1.0, size=6)
        jac = se3_left_jacobian(xi)
        num = np.zeros((6, 6))
        base_inv = se3_exp(xi).inverse()
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            plus = log_pose(se3_exp(xi + d) * base_inv)
            minus = log_pose(se3_exp(xi - d) * base_inv)
            num[:, k] = (plus - minus) / (2 * h)
        assert np.max(np.abs(jac - num)) < 1e-6


def test_right_jacobian_inverse_property():
    # log(exp(xi) exp(d)) ~ xi + Jr_inv(xi) d
    rng = np.random.default_rng(43)
    h = 1e-6
    for _ in range(30):
        xi = rng.uniform(-1.0, 1.0, size=6)
        jr_inv = se3_right_jacobian_inv(xi)
        num = np.zeros((6, 6))
        for k in range(6):
            d = np.zeros(6)
            d[k] = h
            plus = log_pose(se3_exp(xi) * se3_exp(d))
            minus = log_pose(se3_exp(xi) * se3_exp(-d))
            num[:, k] = (plus - minus) / (2 * h)
        assert np.max(np.abs(jr_inv - num)) < 1e-5


# rotation angles across both sides of the Taylor switch, down to zero
JACOBIAN_ANGLES = [0.0, 1e-9, 1e-6, 1e-4, 1.5e-4, 2e-4, 1e-3, 1e-2, 0.1, 0.29, 0.3, 0.31, 1.0,
                   2.0, 3.0]


def test_so3_left_jacobian_inverse_is_exact_to_rounding():
    # J^{-1}(w) J(w) = I, with J the series reference; the closed-form
    # coefficient of J^{-1} cancels badly just above small angles
    rng = np.random.default_rng(47)
    for angle in JACOBIAN_ANGLES[1:]:
        for _ in range(5):
            axis = rng.normal(size=3)
            w = angle * axis / np.linalg.norm(axis)
            jac = se3_left_jacobian(np.concatenate([w, np.zeros(3)]))[:3, :3]
            assert np.abs(_v_matrix_inv(w) @ jac - np.eye(3)).max() <= 1e-14, angle


def test_closed_form_right_jacobian_inverse_matches_series():
    rng = np.random.default_rng(53)
    xi = []
    for angle in JACOBIAN_ANGLES:
        for _ in range(5):
            axis = rng.normal(size=3)
            xi.append(np.concatenate([angle * axis / np.linalg.norm(axis), rng.normal(size=3)]))
    xi = np.array(xi)
    reference = np.linalg.inv(se3_left_jacobian(-xi))  # Jr^{-1}(xi) = Jl^{-1}(-xi)
    np.testing.assert_allclose(se3_right_jacobian_inv(xi), reference, rtol=0.0, atol=1e-14)


def test_log_rejects_nothing_but_branch_is_stable_at_pi():
    # angle exactly pi: branch picked by canonical quaternion, round trip preserves the pose
    r = Rotation.from_rotvec([math.pi, 0, 0])
    p = Pose(r, [1, 2, 3])
    assert pose_close(se3_exp(log_pose(p)), p, tol=1e-8)


def test_zero_quaternion_rejected():
    with pytest.raises(ValueError):
        Rotation(0.0, 0.0, 0.0, 0.0)


def test_rotation_matches_two_step_normalization_bit_for_bit():
    rng = np.random.default_rng(23)
    quats = rng.normal(size=(20_000, 4))
    quats[::4] *= 10.0 ** rng.integers(-150, 150, size=(5_000, 1))
    quats[1::8, 0] = -0.0
    for q in quats.tolist():
        got, ref = Rotation(*q), ReferenceRotation(*q)
        assert np.array_equal(np.array([got.w, got.x, got.y, got.z]).view(np.int64),
                              np.array([ref.w, ref.x, ref.y, ref.z]).view(np.int64)), q
    for q in ((0.0, 0.0, 0.0, 0.0), (1e200, 0.0, 0.0, 0.0), (1e-200, 0.0, 0.0, 0.0),
              (math.nan, 0.0, 0.0, 1.0), (math.inf, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="^quaternion must be finite and nonzero$"):
            Rotation(*q)
        with pytest.raises(ValueError):
            ReferenceRotation(*q)


def test_pose_values_are_frozen_slotted_values():
    r = Rotation(1.0, 2.0, 3.0, 4.0)
    p = Pose(r, (1.0, 2.0, 3.0))
    for value, name in ((r, "w"), (r, "z"), (p, "rotation"), (p, "translation")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.0)
    with pytest.raises(ValueError):
        p.translation[0] = 5.0  # the translation array is read-only
    assert not hasattr(r, "__dict__") and not hasattr(p, "__dict__")
    assert Rotation() == Rotation.identity() == Rotation(1.0, 0.0, 0.0, 0.0)
    assert Pose().rotation == Rotation() and Pose().translation.tolist() == [0.0, 0.0, 0.0]


def test_pose_values_refuse_every_assignment_and_deletion():
    # a slotted dataclass's own frozen __setattr__ raises TypeError for a
    # name that is not a field
    for value in (Rotation(1.0, 2.0, 3.0, 4.0), Pose(Rotation(), (1.0, 2.0, 3.0))):
        for name in (dataclasses.fields(value)[0].name, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
                setattr(value, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
                delattr(value, name)


def test_pose_values_compare_hash_and_replace_as_before():
    r = Rotation(1.0, 2.0, 3.0, 4.0)
    assert r == Rotation(1.0, 2.0, 3.0, 4.0) and r != Rotation(1.0, 2.0, 3.0, 4.5)
    assert hash(r) == hash(Rotation(1.0, 2.0, 3.0, 4.0)) == hash((r.w, r.x, r.y, r.z))
    assert {r: "value"}[Rotation(1.0, 2.0, 3.0, 4.0)] == "value"
    assert repr(Rotation()) == "Rotation(w=1.0, x=0.0, y=0.0, z=0.0)"
    # replace builds a new value through the normalizing constructor
    assert dataclasses.replace(r, w=-1.0) == Rotation(-1.0, r.x, r.y, r.z)
    assert dataclasses.replace(r) == Rotation(r.w, r.x, r.y, r.z)

    p = Pose(r, (1.0, 2.0, 3.0))
    assert p == p  # a pose holds an array, so it compares by identity only
    with pytest.raises(TypeError):
        hash(p)
    moved = dataclasses.replace(p, translation=[4, 5, 6])
    assert moved.rotation is r and moved.translation.tolist() == [4.0, 5.0, 6.0]
    assert moved.translation.dtype == float and not moved.translation.flags.writeable
    assert dataclasses.replace(p, rotation=Rotation()).translation is not p.translation
