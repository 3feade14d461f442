"""Concrete operators: dense matrices, diagonal multipliers, shifts.

An operator here exposes exact actions on finitely supported vectors plus
square finite sections.  The window contract for banded infinite
operators: finite_section(N) agrees with the exact action on vectors
supported in the first N - bandwidth coordinates, and spectral probes of
R_q drop the last 2 * bandwidth columns of the section so that every kept
column is an exact image of the full operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverError, InvarianceError, ShapeError
from .qlinalg import (QMatrix, QVector, SubspaceBasis, op_norm,
                      orthonormalize)
from .quat import EigenSphere, Quaternion, merge_spheres, sphere_of


class LinearOperator:
    """Base for right linear operators with exact windowed sections."""

    #: quaternionic dimension for finite operators, None when infinite
    dim: int | None = None
    #: band width of the section matrix (0 = diagonal/dense)
    bandwidth: int = 0
    label: str = "operator"

    @property
    def section_margin(self) -> int:
        # R_q applies the operator twice.
        return 2 * self.bandwidth

    def apply(self, v: QVector) -> QVector:
        raise NotImplementedError

    def finite_section(self, n: int) -> QMatrix:
        raise NotImplementedError

    def adjoint_operator(self) -> "LinearOperator":
        raise NotImplementedError


class DenseOperator(LinearOperator):
    """A square quaternionic matrix wrapped as an operator."""

    def __init__(self, matrix: QMatrix, label: str = "dense"):
        if matrix.rows != matrix.cols:
            raise ShapeError("dense operators must be square")
        self.matrix = matrix
        self.dim = matrix.rows
        self.label = label
        self._adj = matrix.adjoint()

    def apply(self, v: QVector) -> QVector:
        return self.matrix.apply(v)

    def finite_section(self, n: int) -> QMatrix:
        if n != self.dim:
            raise ShapeError(f"dense operator has fixed dimension {self.dim}")
        return self.matrix

    def adjoint_operator(self) -> "DenseOperator":
        return DenseOperator(self._adj, label=self.label + "^*")


class MultiplicationOperator(LinearOperator):
    """Pointwise multiplication by g on functions over a finite point set.

    With coordinates as columns and matrices acting on the left, the
    operator is the diagonal matrix with entries g(x); the right scalar
    action of H then commutes with it entrywise.  Its S-spectrum is the
    sphere closure of the value set g(Omega), conjugates included.
    """

    def __init__(self, labels, values, label: str = "mult"):
        self.labels = tuple(str(s) for s in labels)
        self.values = tuple(values)
        if len(self.labels) != len(self.values):
            raise ShapeError("one value per point required")
        if not self.values:
            raise ShapeError("the point set must be nonempty")
        self.dim = len(self.values)
        self.label = label
        self._matrix = QMatrix.diag(self.values)

    def as_qmatrix(self) -> QMatrix:
        return self._matrix

    def apply(self, v: QVector) -> QVector:
        return self._matrix.apply(v)

    def finite_section(self, n: int) -> QMatrix:
        if n != self.dim:
            raise ShapeError(f"multiplication operator has fixed dimension {self.dim}")
        return self._matrix

    def adjoint_operator(self) -> "MultiplicationOperator":
        return MultiplicationOperator(
            self.labels, [q.conjugate() for q in self.values], label=self.label + "^*")

    def value_spheres(self) -> tuple[EigenSphere, ...]:
        return merge_spheres([sphere_of(q) for q in self.values])


class ShiftOperator(LinearOperator):
    """Unilateral shift on square-summable sequences.

    side='right' is the isometry (x1, x2, ...) -> (0, x1, x2, ...);
    side='left' is its adjoint (x1, x2, ...) -> (x2, x3, ...).  Both act
    exactly on finitely supported vectors.
    """

    bandwidth = 1

    def __init__(self, side: str, window: int = 128):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if window < 4:
            raise ValueError("window must be at least 4")
        self.side = side
        self.window = window
        self.label = f"shift:{side}"

    def apply(self, v: QVector) -> QVector:
        if self.side == "right":
            return QVector(np.concatenate([[0.0], v.c1]), np.concatenate([[0.0], v.c2]))
        return QVector(v.c1[1:], v.c2[1:])

    def finite_section(self, n: int) -> QMatrix:
        if n < 2:
            raise ShapeError("shift sections need n >= 2")
        band = np.eye(n, k=-1 if self.side == "right" else 1).astype(np.complex128)
        return QMatrix(band, np.zeros((n, n), dtype=np.complex128))

    def adjoint_operator(self) -> "ShiftOperator":
        other = "left" if self.side == "right" else "right"
        return ShiftOperator(other, window=self.window)


def truncated_eigenvector(q: Quaternion, n: int) -> QVector:
    """Normalized (1, q, q^2, ..., q^(n-1)); requires |q| < 1 and n >= 2.

    An exact eigenvector of the left shift up to the truncation tail, so
    the pseudo-resolvent residual decays like |q|^(n-2).
    """
    if n < 2:
        raise ValueError("need at least two entries")
    if abs(q) >= 1.0:
        raise ValueError(f"geometric eigenvectors need |q| < 1, got {abs(q)!r}")
    entries = [Quaternion(1.0)]
    for _ in range(n - 1):
        entries.append(entries[-1] * q)
    v = QVector.from_quaternions(entries)
    return v.scale(1.0 / v.norm())


def pseudo_resolvent_apply(op: LinearOperator, q: Quaternion, v: QVector) -> QVector:
    """Exact R_q(op) v for finitely supported v.

    Applications may change the support length; everything is padded to a
    common length before combining.
    """
    first = op.apply(v)
    second = op.apply(first)
    n = max(v.n, first.n, second.n)
    return (second.pad(n)
            - first.pad(n).scale(2.0 * q.w)
            + v.pad(n).scale(q.norm_sq()))


# -- invariant subspaces ---------------------------------------------------


def invariance_defect(a: QMatrix, basis: SubspaceBasis) -> float:
    """Operator norm of (1 - P_Y) A P_Y."""
    p = basis.projection()
    eye = QMatrix.identity(a.rows)
    return op_norm((eye - p) @ (a @ p))


def _require_invariant(a: QMatrix, basis: SubspaceBasis, tol: float, what: str) -> None:
    if a.rows != a.cols or a.rows != basis.space_dim:
        raise ShapeError(f"{what} needs a square matrix on the ambient space")
    defect = invariance_defect(a, basis)
    if defect > tol * (1.0 + op_norm(a)):
        raise InvarianceError(
            f"subspace is not invariant: |(1-P)AP| = {defect:.3e}", defect)


def restrict(a: QMatrix, basis: SubspaceBasis, tol: float = 1e-8) -> QMatrix:
    """Matrix of A restricted to an invariant subspace, in the given basis."""
    _require_invariant(a, basis, tol, "restriction")
    if basis.dim == 0:
        return QMatrix.zeros(0, 0)
    y = basis.as_matrix()
    return y.adjoint() @ (a @ y)


def complement_basis(basis: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of the orthogonal complement."""
    n = basis.space_dim
    survivors = orthonormalize(
        list(basis.vectors) + [QVector.basis(n, k) for k in range(n)],
        drop_tol=1e-9)
    return SubspaceBasis(n, survivors[basis.dim:])


def quotient(a: QMatrix, basis: SubspaceBasis, tol: float = 1e-8) -> QMatrix:
    """Matrix induced on the orthogonal complement of an invariant subspace.

    With Y invariant and Z = Y^perp, A is block triangular over [Y Z] and
    the quotient action is the (Z, Z) block.
    """
    _require_invariant(a, basis, tol, "quotient")
    comp = complement_basis(basis)
    if comp.dim == 0:
        return QMatrix.zeros(0, 0)
    z = comp.as_matrix()
    return z.adjoint() @ (a @ z)


# -- open covers and coordinate splittings ---------------------------------


@dataclass(frozen=True)
class HalfPlaneRegion:
    """Open subset of the (re, im) half plane: a union of rectangles and disks."""

    pieces: tuple

    @staticmethod
    def rect(re0: float, re1: float, im0: float, im1: float) -> "HalfPlaneRegion":
        return HalfPlaneRegion((("rect", re0, re1, im0, im1),))

    @staticmethod
    def disk(re: float, im: float, radius: float) -> "HalfPlaneRegion":
        if radius <= 0.0:
            raise ValueError("disk radius must be positive")
        return HalfPlaneRegion((("disk", re, im, radius),))

    def __or__(self, other: "HalfPlaneRegion") -> "HalfPlaneRegion":
        return HalfPlaneRegion(self.pieces + other.pieces)

    def contains(self, s: EigenSphere) -> bool:
        return any(p[0] < s.re < p[1] and p[2] < s.im < p[3] if kind == "rect"
                   else math.hypot(s.re - p[0], s.im - p[1]) < p[2]
                   for kind, *p in self.pieces)


def partition_splitting(op: MultiplicationOperator, u1: HalfPlaneRegion,
                        u2: HalfPlaneRegion) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Split coordinates of a multiplication operator along an open cover.

    Y_k collects the coordinate directions whose value sphere lies in U_k;
    a sphere inside both regions lands in both subspaces, so the sum
    always spans but need not be direct.  A sphere covered by neither
    region is a cover failure.
    """
    n = op.dim
    hits = []
    for k, g in enumerate(op.values):
        s = sphere_of(g)
        hits.append((u1.contains(s), u2.contains(s)))
        if not any(hits[-1]):
            raise CoverError(
                f"sphere ({s.re}, {s.im}) at point {op.labels[k]!r} is uncovered", s)
    y1, y2 = (SubspaceBasis(n, [QVector.basis(n, k) for k, h in enumerate(hits) if h[i]])
              for i in (0, 1))
    return y1, y2
