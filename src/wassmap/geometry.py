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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this squared angle, closed-form trig coefficients lose precision and
# Taylor expansions are exact to machine epsilon.
_SMALL_ANGLE_SQ = 1e-8


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
    """Unit quaternions (..., 4) to axis-angle (..., 3) with angle in [0, pi]."""
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


@dataclass(frozen=True)
class Rotation:
    """Unit quaternion (w, x, y, z); normalized on construction."""

    w: float = 1.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if not (n > 0.0) or not math.isfinite(n):
            raise ValueError("quaternion must be finite and nonzero")
        object.__setattr__(self, "w", self.w / n)
        object.__setattr__(self, "x", self.x / n)
        object.__setattr__(self, "y", self.y / n)
        object.__setattr__(self, "z", self.z / n)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_rotvec(v) -> "Rotation":
        """Axis-angle 3-vector (radians) to quaternion."""
        return Rotation(*_quat_exp(np.asarray(v, dtype=float).reshape(3)).tolist())

    @staticmethod
    def from_matrix(m) -> "Rotation":
        """Rotation matrix to quaternion via the largest-pivot branch."""
        m = np.asarray(m, dtype=float)
        t = m[0, 0] + m[1, 1] + m[2, 2]
        if t > 0.0:
            r = math.sqrt(1.0 + t)
            s = 0.5 / r
            return Rotation(0.5 * r, (m[2, 1] - m[1, 2]) * s, (m[0, 2] - m[2, 0]) * s, (m[1, 0] - m[0, 1]) * s)
        i = int(np.argmax([m[0, 0], m[1, 1], m[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = math.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
        s = 0.5 / r
        q = [0.0, 0.0, 0.0, 0.0]  # w, then xyz
        q[0] = (m[k, j] - m[j, k]) * s
        q[1 + i] = 0.5 * r
        q[1 + j] = (m[j, i] + m[i, j]) * s
        q[1 + k] = (m[k, i] + m[i, k]) * s
        return Rotation(q[0], q[1], q[2], q[3])

    def as_quat(self) -> np.ndarray:
        """(w, x, y, z) as an array."""
        return np.array([self.w, self.x, self.y, self.z])

    def as_matrix(self) -> np.ndarray:
        return _quat_matrix(self.as_quat())

    def as_rotvec(self) -> np.ndarray:
        """Axis-angle with angle in [0, pi].

        At angle exactly pi the axis sign is inherited from the canonical
        (w >= 0) quaternion; that branch is stable and consistent across calls.
        """
        return _quat_log(self.as_quat())

    @property
    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        vn = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        return 2.0 * math.atan2(vn, abs(self.w))

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


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation followed by translation (meters)."""

    rotation: Rotation = field(default_factory=Rotation.identity)
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        t = np.array(self.translation, dtype=float).reshape(3)
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_matrix(m) -> "Pose":
        m = np.asarray(m, dtype=float)
        return Pose(Rotation.from_matrix(m[:3, :3]), m[:3, 3])

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

    def transform(self, p) -> np.ndarray:
        """R p + t for one point."""
        return self.rotation.rotate(p) + self.translation

    def transform_points(self, pts: np.ndarray) -> np.ndarray:
        """R p + t for an (N, 3) array."""
        out = np.asarray(pts, dtype=float) @ self.rotation.as_matrix().T
        out += self.translation
        return out


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
    th_sq = (rotvec * rotvec).sum(axis=-1)[..., None, None]
    k = _skew(rotvec)
    small = th_sq < _SMALL_ANGLE_SQ
    th_sq_big = np.where(small, 1.0, th_sq)
    th = np.sqrt(th_sq_big)
    c = np.where(small, 1.0 / 12.0 + th_sq / 720.0,
                 (1.0 - 0.5 * th * np.sin(th) / (1.0 - np.cos(th))) / th_sq_big)
    return np.eye(3) - 0.5 * k + c * (k @ k)


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
    follows Rotation.as_rotvec.
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


def _se3_ad(xi: np.ndarray) -> np.ndarray:
    out = np.zeros(xi.shape[:-1] + (6, 6))
    kw = _skew(xi[..., :3])
    out[..., :3, :3] = kw
    out[..., 3:, 3:] = kw
    out[..., 3:, :3] = _skew(xi[..., 3:])
    return out


def se3_left_jacobian(xi) -> np.ndarray:
    """Left Jacobian: exp(xi + d) = exp(J d) exp(xi) + O(|d|^2).

    Computed from the convergent series sum ad^n / (n+1)!; terms decay
    factorially so the loop exits after a handful of 6x6 products. Batched
    over leading axes, the loop runs until every term of the batch is spent.
    """
    xi = np.asarray(xi, dtype=float)
    ad = _se3_ad(xi)
    out = np.broadcast_to(np.eye(6), ad.shape).copy()
    term = out.copy()
    for n in range(1, 60):
        term = term @ ad / (n + 1.0)
        out += term
        if np.abs(term).max(initial=0.0) < 1e-18:
            break
    return out


def se3_left_jacobian_inv(xi) -> np.ndarray:
    return np.linalg.inv(se3_left_jacobian(xi))


def se3_right_jacobian_inv(xi) -> np.ndarray:
    """Inverse right Jacobian: log(exp(xi) exp(d)) = xi + Jr_inv(xi) d + O(|d|^2)."""
    return np.linalg.inv(se3_left_jacobian(-np.asarray(xi, dtype=float)))
