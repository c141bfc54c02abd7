"""Unit quaternions for composing 1-qubit rotations.

The ``optimize_1q_gates`` pass merges chains of ``u1``/``u2``/``u3`` gates.
As in Qiskit (and as described in Section 7.1 of the paper), the merge is
performed by converting each gate to a rotation of the Bloch sphere expressed
as a unit quaternion, multiplying the quaternions, and converting the product
back to ZYZ Euler angles, i.e. to a single ``u3`` gate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np


class Quaternion:
    """A quaternion ``w + x i + y j + z k``: immutable, compared and hashed
    by its components."""

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        # ``__setattr__`` refuses every assignment, so fill ``__dict__``.
        vars(self).update(w=w, x=x, y=y, z=z)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_rotation(angle: float, axis: str) -> "Quaternion":
        """Quaternion for a rotation of ``angle`` radians about axis x, y or z."""
        half = angle / 2.0
        w = math.cos(half)
        s = math.sin(half)
        vec = {"x": (s, 0.0, 0.0), "y": (0.0, s, 0.0), "z": (0.0, 0.0, s)}[axis]
        return Quaternion(w, *vec)

    @staticmethod
    def from_euler_zyz(theta: float, phi: float, lam: float) -> "Quaternion":
        """Quaternion of ``Rz(phi) Ry(theta) Rz(lam)`` (the u3 Euler angles)."""
        return (
            Quaternion.from_axis_rotation(phi, "z")
            * Quaternion.from_axis_rotation(theta, "y")
            * Quaternion.from_axis_rotation(lam, "z")
        )

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __mul__(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalise the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_rotation_matrix(self) -> np.ndarray:
        """The 3x3 SO(3) rotation matrix of the (normalised) quaternion."""
        import numpy as np

        q = self.normalized()
        w, x, y, z = q.w, q.x, q.y, q.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )

    def to_zyz_angles(self) -> Tuple[float, float, float]:
        """Recover ``(theta, phi, lam)`` with the rotation = Rz(phi)Ry(theta)Rz(lam)."""
        mat = self.to_rotation_matrix()
        # The third column is (sin(theta)cos(phi), sin(theta)sin(phi),
        # cos(theta)); recovering theta with atan2 instead of acos keeps full
        # precision near theta = 0 / pi, where acos loses ~sqrt(eps).
        sin_theta = math.hypot(mat[0, 2], mat[1, 2])
        theta = math.atan2(sin_theta, mat[2, 2])
        if sin_theta < 1e-12:
            # Degenerate cases: theta = 0 (pure Z rotation, R = Rz(phi + lam))
            # or theta = pi (R only determines phi - lam).  Put everything
            # into lambda with phi = 0.  The cutoff is on sin(theta): while
            # the axis information in the off-diagonal entries stays above
            # floating-point noise, the general branch recovers it exactly —
            # a rotation like Ry(-1e-5) must NOT be collapsed to a Z
            # rotation (its sign lives in phi = lam = pi), and below 1e-12
            # the error of doing so is itself below 1e-12.
            phi = 0.0
            lam = math.atan2(mat[1, 0], mat[0, 0])
            if mat[2, 2] < 0:
                # R = Rz(phi) Ry(pi) Rz(lam) has R[0,0] = -cos(phi - lam) and
                # R[1,0] = -sin(phi - lam); with phi' = 0 the equivalent
                # lambda' is lam - phi.
                lam = math.atan2(mat[1, 0], -mat[0, 0])
        else:
            phi = math.atan2(mat[1, 2], mat[0, 2])
            lam = math.atan2(mat[2, 1], -mat[2, 0])
        return theta, phi, lam


def compose_zyz(first: Tuple[float, float, float], second: Tuple[float, float, float]):
    """ZYZ angles of applying ``first`` then ``second`` (circuit order).

    Both arguments and the result are ``(theta, phi, lam)`` triples as used by
    the ``u3`` gate.
    """
    q_first = Quaternion.from_euler_zyz(*first)
    q_second = Quaternion.from_euler_zyz(*second)
    # Applying `first` then `second` to a state multiplies matrices as
    # U_second @ U_first, so the composed rotation is second * first.
    return (q_second * q_first).to_zyz_angles()
