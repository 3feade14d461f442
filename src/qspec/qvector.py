"""Quaternion column vectors over the complex split.

A vector stores the complex pair (c1, c2) of its entries q = c1 + c2 j,
with c1, c2 in C_i, as ``qlinalg`` does for matrices; scalars act on the
right.  This module holds only the vector type, so that the commands that
read or write vectors, and the slice power series, load it without the
matrix layer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .quat import Quaternion


def _split(q: Quaternion) -> tuple[complex, complex]:
    return complex(q.w, q.x), complex(q.y, q.z)


def _join(a: complex, b: complex) -> Quaternion:
    return Quaternion(a.real, a.imag, b.real, b.imag)


class QVector:
    """Column vector with quaternion entries."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1: np.ndarray, c2: np.ndarray):
        c1 = np.asarray(c1, dtype=np.complex128).reshape(-1).copy()
        c2 = np.asarray(c2, dtype=np.complex128).reshape(-1).copy()
        if c1.shape != c2.shape:
            raise ShapeError("component arrays differ in length")
        c1.setflags(write=False)
        c2.setflags(write=False)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    def __reduce__(self):
        return (QVector, (self.c1, self.c2))

    @property
    def n(self) -> int:
        return self.c1.shape[0]

    def __len__(self) -> int:
        return self.n

    @staticmethod
    def zeros(n: int) -> "QVector":
        return QVector(np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128))

    @staticmethod
    def basis(n: int, k: int) -> "QVector":
        c1 = np.zeros(n, dtype=np.complex128)
        c1[k] = 1.0
        return QVector(c1, np.zeros(n, dtype=np.complex128))

    @staticmethod
    def from_quaternions(entries) -> "QVector":
        pairs = [_split(q) for q in entries]
        return QVector(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    @staticmethod
    def from_components(arr: np.ndarray) -> "QVector":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ShapeError("expected an (n, 4) component array")
        return QVector(arr[:, 0] + 1j * arr[:, 1], arr[:, 2] + 1j * arr[:, 3])

    def to_components(self) -> np.ndarray:
        return np.stack([self.c1.real, self.c1.imag, self.c2.real, self.c2.imag], axis=1)

    def entry(self, k: int) -> Quaternion:
        return _join(complex(self.c1[k]), complex(self.c2[k]))

    def __add__(self, other: "QVector") -> "QVector":
        if self.n != other.n:
            raise ShapeError("vector lengths differ")
        return QVector(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "QVector") -> "QVector":
        if self.n != other.n:
            raise ShapeError("vector lengths differ")
        return QVector(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "QVector":
        return QVector(-self.c1, -self.c2)

    def times(self, q: Quaternion) -> "QVector":
        """Right scalar action phi * q."""
        a, b = _split(q)
        return QVector(self.c1 * a - self.c2 * np.conj(b),
                       self.c1 * b + self.c2 * np.conj(a))

    def scale(self, t: float) -> "QVector":
        return QVector(self.c1 * t, self.c2 * t)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2)))

    def pad(self, n: int) -> "QVector":
        if n < self.n:
            raise ShapeError("cannot pad to a shorter length")
        c1 = np.zeros(n, dtype=np.complex128)
        c2 = np.zeros(n, dtype=np.complex128)
        c1[: self.n] = self.c1
        c2[: self.n] = self.c2
        return QVector(c1, c2)

    def embed(self) -> np.ndarray:
        """Complex column [phi1; -conj(phi2)] compatible with chi."""
        return np.concatenate([self.c1, -np.conj(self.c2)])

    def __repr__(self) -> str:
        return f"QVector(n={self.n})"
