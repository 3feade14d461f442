"""Seeded generators for test material.

Everything routes through a counter-based Philox generator keyed by
(seed, stream), so a suite can hand independent streams to its instances
and still replay bit-for-bit from one integer.  No global state.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .qlinalg import (QMatrix, QVector, hstack, inverse_matrix, min_singular,
                      orthonormalize, vstack)
from .quat import Quaternion

_MASK64 = (1 << 64) - 1


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rand_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    w, x, y, z = rng.uniform(-scale, scale, 4)
    return Quaternion(w, x, y, z)


def rand_qvector(rng: np.random.Generator, n: int) -> QVector:
    return QVector.from_components(rng.uniform(-1.0, 1.0, (n, 4)))


def rand_qmatrix(rng: np.random.Generator, rows: int, cols: int) -> QMatrix:
    return QMatrix.from_components(rng.uniform(-1.0, 1.0, (rows, cols, 4)))


def rand_invertible(rng: np.random.Generator, n: int) -> QMatrix:
    for _ in range(64):
        m = rand_qmatrix(rng, n, n)
        if min_singular(m) > 0.1:
            return m
    raise NumericalError(f"no well-conditioned {n}x{n} draw in 64 attempts")


def rand_idempotent(rng: np.random.Generator, n: int, rank: int) -> QMatrix:
    """Similarity image of a coordinate projection, so P^2 = P exactly up
    to the conditioning of the similarity."""
    if not 0 <= rank <= n:
        raise ValueError("rank out of range")
    s = rand_invertible(rng, n)
    d = QMatrix.diag([Quaternion(1.0)] * rank + [Quaternion()] * (n - rank))
    return s @ d @ inverse_matrix(s)


def rand_orthonormal(rng: np.random.Generator, n: int, k: int) -> QMatrix:
    """k orthonormal columns from k draws of ``rand_qvector(rng, n)``."""
    if k > n:
        raise ValueError("cannot fit that many orthonormal vectors")
    while True:
        draws = rng.uniform(-1.0, 1.0, (k, n, 4))
        basis = orthonormalize(QMatrix.from_components(draws.transpose(1, 0, 2)))
        if basis.cols == k:
            return basis


def rand_commutant(rng: np.random.Generator, a: QMatrix) -> QMatrix:
    """Random real quadratic polynomial in A; real coefficients keep it in
    the commutant regardless of the entries of A."""
    out = QMatrix.identity(a.rows).scale(float(rng.uniform(-1.0, 1.0)))
    power = QMatrix.identity(a.rows)
    for _ in range(2):
        power = power @ a
        out = out + power.scale(float(rng.uniform(-1.0, 1.0)))
    return out


def rand_block_upper(rng: np.random.Generator, n1: int, n2: int) -> tuple[QMatrix, QMatrix, QMatrix, QMatrix]:
    """Blocks (T, A, B, C) with T = [[A, C], [0, B]]."""
    a = rand_qmatrix(rng, n1, n1)
    b = rand_qmatrix(rng, n2, n2)
    c = rand_qmatrix(rng, n1, n2)
    t = vstack([hstack([a, c]), hstack([QMatrix.zeros(n2, n1), b])])
    return t, a, b, c
