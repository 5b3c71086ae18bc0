"""Rigid-body transform algebra on SO(3)/SE(3).

Rotations are stored as unit quaternions and renormalized on construction;
matrices are derived on demand. Twists are 6-vectors ordered (rotation,
translation): ``xi = (wx, wy, wz, vx, vy, vz)`` with the rotational part in
radians and the translational part in meters. The solver convention is the
right perturbation ``T * exp(xi)`` throughout.

All types are immutable values and every operation is a pure function.

The exp/log maps, their Jacobians and the adjoint also take a leading batch
axis. A batch of poses is a pair of arrays ``(q, t)``: unit quaternions
``(..., 4)`` ordered (w, x, y, z) and translations ``(..., 3)``; see
``stack_poses``, ``compose_batch`` and ``invert_batch``. The single-value
forms are wrappers over the batched kernels, so both run the same arithmetic.

The inverse right Jacobian of SE(3) is taken in closed form,
Jr^{-1}(xi) = Jl^{-1}(-xi) = [[A, 0], [-A Q A, A]] with A = J^{-1}(-w) of SO(3)
and Q = Q(-w, -v) the coupling block of the SE(3) left Jacobian (Barfoot,
*State Estimation for Robotics*, eq. 7.86; Barfoot & Furgale, T-RO 2014).
The coefficients of J^{-1} and Q cancel at small angles, so below
``_TAYLOR_ANGLE_SQ`` they come from five terms of their Taylor series.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

# Below this squared angle the two-term Taylor expansions of `_quat_exp` and
# `_v_matrix` are exact to machine epsilon. Above it, `_quat_exp` has no
# cancellation, but `_v_matrix`'s (1 - cos a) / a^2 and (a - sin a) / a^3
# still lose digits just past the switch (relative 4.2e-9 and 2.9e-9 at
# a = 1.5e-4). `se3_exp` builds the synthetic inputs, so it is kept as is.
_SMALL_ANGLE_SQ = 1e-8

# Below this squared angle (0.3 rad) the coefficients of J^{-1} and Q come from
# the Taylor series below, highest power of a^2 first, for `np.polyval`.
# The closed forms cancel near zero: J^{-1}'s is off by a relative 2.2 at
# 1.5e-4 rad. With the switch at 0.3 rad, the largest relative error of each
# coefficient against 120-digit arithmetic, on 400 angles from 1e-9 to 3 rad,
# is 1.6e-13 (J^{-1}), 3.5e-15, 4.8e-13 and 1.4e-12 (Q).
_TAYLOR_ANGLE_SQ = 0.09
_JINV_SERIES = (1 / 47900160, 1 / 1209600, 1 / 30240, 1 / 720, 1 / 12)
_Q_SERIES = ((1 / 39916800, -1 / 362880, 1 / 5040, -1 / 120, 1 / 6),
             (1 / 479001600, -1 / 3628800, 1 / 40320, -1 / 720, 1 / 24),
             (1 / 1245404160, -1 / 9979200, 1 / 120960, -1 / 2520, 1 / 120))


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices of (..., 3) vectors, shape (..., 3, 3)."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1], out[..., 0, 2] = -v[..., 2], v[..., 1]
    out[..., 1, 0], out[..., 1, 2] = v[..., 2], -v[..., 0]
    out[..., 2, 0], out[..., 2, 1] = -v[..., 1], v[..., 0]
    return out


def _quat_exp(rotvec: np.ndarray) -> np.ndarray:
    """Axis-angle (..., 3) to quaternions (..., 4), not yet renormalized."""
    angle_sq = (rotvec * rotvec).sum(axis=-1)
    small = angle_sq < _SMALL_ANGLE_SQ
    angle = np.sqrt(np.where(small, 1.0, angle_sq))
    # sin(a/2)/a = 1/2 - a^2/48 + O(a^4)
    s = np.where(small, 0.5 - angle_sq / 48.0, np.sin(0.5 * angle) / angle)
    w = np.where(small, 1.0 - angle_sq / 8.0, np.cos(0.5 * angle))
    return np.concatenate([w[..., None], s[..., None] * rotvec], axis=-1)


def _quat_log(q: np.ndarray) -> np.ndarray:
    """Unit quaternions (..., 4) to axis-angle (..., 3) with angle in [0, pi].

    At angle exactly pi the axis sign is that of the canonical (w >= 0)
    quaternion, so the branch is stable across calls.
    """
    q = np.where(q[..., :1] < 0.0, -q, q)
    u = q[..., 1:]
    vn = np.sqrt((u * u).sum(axis=-1))
    tiny = vn < 1e-12
    angle = 2.0 * np.arctan2(vn, q[..., 0])
    s = np.where(tiny, 2.0, angle / np.where(tiny, 1.0, vn))
    return s[..., None] * u


def _quat_matrix(q: np.ndarray) -> np.ndarray:
    """Unit quaternions (..., 4) to rotation matrices (..., 3, 3)."""
    w, x, y, z = (q[..., k] for k in range(4))
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(q.shape[:-1] + (3, 3))


def _quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = (a[..., k] for k in range(4))
    w2, x2, y2, z2 = (b[..., k] for k in range(4))
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross moves axes around and costs more than these products
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=-1)


def _quat_rotate(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rotate (..., 3) vectors by (..., 4) unit quaternions: p + 2 u x (u x p + w p)."""
    u = q[..., 1:]
    t = 2.0 * _cross(u, p)
    return p + q[..., :1] * t + _cross(u, t)


# `Rotation` and `Pose` are frozen: their ``__init__`` normalizes or copies
# each field once and sets it once through this
_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class Rotation:
    """Unit quaternion (w, x, y, z); normalized on construction."""

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w=1.0, x=0.0, y=0.0, z=0.0):
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if not (n > 0.0) or not math.isfinite(n):
            raise ValueError("quaternion must be finite and nonzero")
        _set(self, "w", w / n)
        _set(self, "x", x / n)
        _set(self, "y", y / n)
        _set(self, "z", z / n)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_rotvec(v) -> "Rotation":
        """Axis-angle 3-vector (radians) to quaternion."""
        return Rotation(*_quat_exp(np.asarray(v, dtype=float).reshape(3)).tolist())

    def as_quat(self) -> np.ndarray:
        """(w, x, y, z) as an array."""
        return np.array([self.w, self.x, self.y, self.z])

    def as_matrix(self) -> np.ndarray:
        return _quat_matrix(self.as_quat())

    def __mul__(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Rotation(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def rotate(self, p) -> np.ndarray:
        """Rotate one 3-vector."""
        px, py, pz = np.asarray(p, dtype=float).reshape(3).tolist()
        w, x, y, z = self.w, self.x, self.y, self.z
        # q p q* expanded: p + w t + u x t with t = 2 u x p, in scalar
        # arithmetic: numpy calls on 3-vectors cost more than the products
        tx = 2.0 * (y * pz - z * py)
        ty = 2.0 * (z * px - x * pz)
        tz = 2.0 * (x * py - y * px)
        return np.array([
            px + w * tx + (y * tz - z * ty),
            py + w * ty + (z * tx - x * tz),
            pz + w * tz + (x * ty - y * tx),
        ])


@dataclass(frozen=True, slots=True)
class Pose:
    """Rigid transform: rotation followed by translation (meters)."""

    rotation: Rotation
    translation: np.ndarray

    def __init__(self, rotation=Rotation(), translation=(0.0, 0.0, 0.0)):
        t = np.array(translation, dtype=float).reshape(3)
        t.setflags(write=False)
        _set(self, "rotation", rotation)
        _set(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.as_matrix()
        m[:3, 3] = self.translation
        return m

    def __mul__(self, other: "Pose") -> "Pose":
        """compose(a, b): apply b first, then a."""
        return Pose(self.rotation * other.rotation, self.rotation.rotate(other.translation) + self.translation)

    def inverse(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.rotate(self.translation))

    def transform_points(self, pts: np.ndarray) -> np.ndarray:
        """R p + t for an (N, 3) array, returned as the transposed view of a
        (3, N) one so each axis is a contiguous row; non-finite rows stay so."""
        # inf * 0 is NaN in a row the voxel map drops and counts; no warning
        with np.errstate(invalid="ignore"):
            out = self.rotation.as_matrix() @ np.asarray(pts, dtype=float).T
        out += self.translation[:, None]
        return out.T


# the frozen __setattr__ that `dataclass` writes for a slotted class raises
# TypeError for a name that is not a field; refuse every name alike
def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


Rotation.__setattr__ = Rotation.__delattr__ = Pose.__setattr__ = Pose.__delattr__ = _refuse


def as_points(points, dtype=float) -> np.ndarray:
    """``points`` as an (N, 3) array, (0, 3) if empty; ValueError on any other shape."""
    pts = np.asarray(points, dtype=dtype)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points have shape {pts.shape}, expected (N, 3)")
    return pts


def stack_poses(poses) -> tuple[np.ndarray, np.ndarray]:
    """A sequence of poses as one batch ``(q (N, 4), t (N, 3))``."""
    poses = list(poses)
    q = np.array([[p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z] for p in poses])
    t = np.array([p.translation for p in poses])
    return q.reshape(-1, 4), t.reshape(-1, 3)


def compose_batch(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise ``a * b`` of two pose batches; quaternions renormalized."""
    (qa, ta), (qb, tb) = a, b
    q = _quat_multiply(qa, qb)
    q /= np.sqrt((q * q).sum(axis=-1, keepdims=True))
    return q, _quat_rotate(qa, tb) + ta


def invert_batch(a) -> tuple[np.ndarray, np.ndarray]:
    q, t = a
    q_inv = q * np.array([1.0, -1.0, -1.0, -1.0])
    return q_inv, -_quat_rotate(q_inv, t)


def _as_batch(pose) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pose, Pose):
        return pose.rotation.as_quat(), pose.translation
    q, t = pose
    return np.asarray(q, dtype=float), np.asarray(t, dtype=float)


def _v_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Integral of the rotation series: exp couples translation through V."""
    th_sq = (rotvec * rotvec).sum(axis=-1)[..., None, None]
    k = _skew(rotvec)
    small = th_sq < _SMALL_ANGLE_SQ
    th_sq_big = np.where(small, 1.0, th_sq)
    th = np.sqrt(th_sq_big)
    a = np.where(small, 0.5 - th_sq / 24.0, (1.0 - np.cos(th)) / th_sq_big)
    b = np.where(small, 1.0 / 6.0 - th_sq / 120.0, (th - np.sin(th)) / (th_sq_big * th))
    return np.eye(3) + a * k + b * (k @ k)


def _v_matrix_inv(rotvec: np.ndarray) -> np.ndarray:
    """Inverse of `_v_matrix`, the SO(3) left Jacobian J^{-1} = I - k/2 + c k^2."""
    th_sq = (rotvec * rotvec).sum(axis=-1)[..., None, None]
    k = _skew(rotvec)
    small = th_sq < _TAYLOR_ANGLE_SQ
    th_sq_big = np.where(small, 1.0, th_sq)
    th = np.sqrt(th_sq_big)
    c = np.where(small, np.polyval(_JINV_SERIES, th_sq),
                 (1.0 - 0.5 * th * np.sin(th) / (1.0 - np.cos(th))) / th_sq_big)
    return np.eye(3) - 0.5 * k + c * (k @ k)


def _q_matrix(rotvec: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coupling block Q of the SE(3) left Jacobian [[J, 0], [Q, J]] (Barfoot, eq. 7.86)."""
    th_sq = (rotvec * rotvec).sum(axis=-1)[..., None, None]
    small = th_sq < _TAYLOR_ANGLE_SQ
    th_sq_big = np.where(small, 1.0, th_sq)
    th = np.sqrt(th_sq_big)
    sin, cos = np.sin(th), np.cos(th)
    closed = ((th - sin) / (th_sq_big * th),
              (0.5 * th_sq_big + cos - 1.0) / (th_sq_big * th_sq_big),
              (2.0 * th - 3.0 * sin + th * cos) / (2.0 * th_sq_big * th_sq_big * th))
    c1, c2, c3 = (np.where(small, np.polyval(series, th_sq), value)
                  for series, value in zip(_Q_SERIES, closed))
    w, x = _skew(rotvec), _skew(v)
    wx, xw = w @ x, x @ w
    wxw = wx @ w
    return (0.5 * x + c1 * (wx + xw + wxw) + c2 * (w @ wx + xw @ w - 3.0 * wxw)
            + c3 * (wxw @ w + w @ wxw))


def se3_exp(xi):
    """Twist (w, v) to pose: R = exp(w^), t = V(w) v.

    One twist ``(6,)`` gives a `Pose`; a batch ``(..., 6)`` gives ``(q, t)``.
    """
    xi = np.asarray(xi, dtype=float)
    w = xi[..., :3]
    q = _quat_exp(w)
    t = (_v_matrix(w) @ xi[..., 3:, None])[..., 0]
    if xi.ndim == 1:
        return Pose(Rotation(*q.tolist()), t)
    return q / np.sqrt((q * q).sum(axis=-1, keepdims=True)), t


def se3_log(pose) -> np.ndarray:
    """Pose to twist; unique for rotation angles below pi.

    Takes a `Pose` or a batch ``(q, t)``. At angle exactly pi the branch
    follows `_quat_log`.
    """
    q, t = _as_batch(pose)
    w = _quat_log(q)
    return np.concatenate([w, (_v_matrix_inv(w) @ t[..., None])[..., 0]], axis=-1)


def adjoint(pose) -> np.ndarray:
    """6x6 map satisfying exp(adjoint(T) xi) = T exp(xi) T^-1; batched over ``(q, t)``."""
    q, t = _as_batch(pose)
    r = _quat_matrix(q)
    out = np.zeros(q.shape[:-1] + (6, 6))
    out[..., :3, :3] = r
    out[..., 3:, 3:] = r
    out[..., 3:, :3] = _skew(t) @ r
    return out


def se3_right_jacobian_inv(xi) -> np.ndarray:
    """Inverse right Jacobian: log(exp(xi) exp(d)) = xi + Jr_inv(xi) d + O(|d|^2).

    Closed form Jl^{-1}(-xi) = [[A, 0], [-A Q A, A]] with A = J^{-1}(-w) and
    Q = Q(-w, -v); batched over leading axes.
    """
    xi = -np.asarray(xi, dtype=float)
    a = _v_matrix_inv(xi[..., :3])
    out = np.zeros(xi.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = a
    out[..., 3:, :3] = -a @ _q_matrix(xi[..., :3], xi[..., 3:]) @ a
    return out
