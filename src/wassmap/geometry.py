"""Rigid-body transform algebra on SO(3)/SE(3).

Rotations are stored as unit quaternions and renormalized on construction;
matrices are derived on demand. Twists are 6-vectors ordered (rotation,
translation): ``xi = (wx, wy, wz, vx, vy, vz)`` with the rotational part in
radians and the translational part in meters. The solver convention is the
right perturbation ``T * exp(xi)`` throughout.

All types are immutable values and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this squared angle, closed-form trig coefficients lose precision and
# Taylor expansions are exact to machine epsilon.
_SMALL_ANGLE_SQ = 1e-8


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


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
        v = np.asarray(v, dtype=float)
        angle_sq = float(v @ v)
        if angle_sq < _SMALL_ANGLE_SQ:
            # sin(a/2)/a = 1/2 - a^2/48 + O(a^4)
            s = 0.5 - angle_sq / 48.0
            w = 1.0 - angle_sq / 8.0
        else:
            angle = math.sqrt(angle_sq)
            s = math.sin(0.5 * angle) / angle
            w = math.cos(0.5 * angle)
        return Rotation(w, s * v[0], s * v[1], s * v[2])

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

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def as_rotvec(self) -> np.ndarray:
        """Axis-angle with angle in [0, pi].

        At angle exactly pi the axis sign is inherited from the canonical
        (w >= 0) quaternion; that branch is stable and consistent across calls.
        """
        w, x, y, z = self.w, self.x, self.y, self.z
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        vn = math.sqrt(x * x + y * y + z * z)
        if vn < 1e-12:
            return np.array([2.0 * x, 2.0 * y, 2.0 * z])
        angle = 2.0 * math.atan2(vn, w)
        s = angle / vn
        return np.array([s * x, s * y, s * z])

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
        p = np.asarray(p, dtype=float)
        u = np.array([self.x, self.y, self.z])
        # q p q* expanded: p + 2 u x (u x p + w p)
        t = 2.0 * np.cross(u, p)
        return p + self.w * t + np.cross(u, t)

    def rotate_points(self, pts: np.ndarray) -> np.ndarray:
        """Rotate an (N, 3) array of points."""
        return np.asarray(pts, dtype=float) @ self.as_matrix().T


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


def _v_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Integral of the rotation series: exp couples translation through V."""
    th_sq = float(rotvec @ rotvec)
    k = _skew(rotvec)
    k2 = k @ k
    if th_sq < _SMALL_ANGLE_SQ:
        a = 0.5 - th_sq / 24.0
        b = 1.0 / 6.0 - th_sq / 120.0
    else:
        th = math.sqrt(th_sq)
        a = (1.0 - math.cos(th)) / th_sq
        b = (th - math.sin(th)) / (th_sq * th)
    return np.eye(3) + a * k + b * k2


def _v_matrix_inv(rotvec: np.ndarray) -> np.ndarray:
    th_sq = float(rotvec @ rotvec)
    k = _skew(rotvec)
    k2 = k @ k
    if th_sq < _SMALL_ANGLE_SQ:
        c = 1.0 / 12.0 + th_sq / 720.0
    else:
        th = math.sqrt(th_sq)
        c = (1.0 - 0.5 * th * math.sin(th) / (1.0 - math.cos(th))) / th_sq
    return np.eye(3) - 0.5 * k + c * k2


def se3_exp(xi) -> Pose:
    """Twist (w, v) to pose: R = exp(w^), t = V(w) v."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    w = xi[:3]
    return Pose(Rotation.from_rotvec(w), _v_matrix(w) @ xi[3:])


def se3_log(pose: Pose) -> np.ndarray:
    """Pose to twist; unique for rotation angles below pi.

    At angle exactly pi the branch follows Rotation.as_rotvec.
    """
    w = pose.rotation.as_rotvec()
    return np.concatenate([w, _v_matrix_inv(w) @ pose.translation])


def adjoint(pose: Pose) -> np.ndarray:
    """6x6 map satisfying exp(adjoint(T) xi) = T exp(xi) T^-1."""
    r = pose.rotation.as_matrix()
    out = np.zeros((6, 6))
    out[:3, :3] = r
    out[3:, 3:] = r
    out[3:, :3] = _skew(pose.translation) @ r
    return out


def _se3_ad(xi: np.ndarray) -> np.ndarray:
    out = np.zeros((6, 6))
    kw = _skew(xi[:3])
    out[:3, :3] = kw
    out[3:, 3:] = kw
    out[3:, :3] = _skew(xi[3:])
    return out


def se3_left_jacobian(xi) -> np.ndarray:
    """Left Jacobian: exp(xi + d) = exp(J d) exp(xi) + O(|d|^2).

    Computed from the convergent series sum ad^n / (n+1)!; terms decay
    factorially so the loop exits after a handful of 6x6 products.
    """
    xi = np.asarray(xi, dtype=float).reshape(6)
    ad = _se3_ad(xi)
    out = np.eye(6)
    term = np.eye(6)
    for n in range(1, 60):
        term = term @ ad / (n + 1.0)
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return out


def se3_left_jacobian_inv(xi) -> np.ndarray:
    return np.linalg.inv(se3_left_jacobian(xi))


def se3_right_jacobian_inv(xi) -> np.ndarray:
    """Inverse right Jacobian: log(exp(xi) exp(d)) = xi + Jr_inv(xi) d + O(|d|^2)."""
    return np.linalg.inv(se3_left_jacobian(-np.asarray(xi, dtype=float).reshape(6)))
