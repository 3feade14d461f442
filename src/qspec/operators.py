"""Concrete operators: dense matrices, diagonal multipliers, shifts.

An operator here exposes exact actions on finitely supported vectors plus
square finite sections.  The window contract for banded infinite
operators: finite_section(N) agrees with the exact action on vectors
supported in the first N - bandwidth coordinates, and spectral samples of
R_q drop the last 2 * bandwidth columns of the section so that every kept
column is an exact image of the full operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverError, InvarianceError, ShapeError
from .qlinalg import QMatrix, QVector, SubspaceBasis, hstack, op_norm, orthonormalize
from .quat import EigenSphere, Quaternion, merge_spheres, sphere_of


class LinearOperator:
    """Base for right linear operators with exact windowed sections."""

    #: quaternionic dimension for finite operators, None when infinite
    dim: int | None = None
    #: band width of the section matrix (0 = diagonal/dense)
    bandwidth: int = 0

    @property
    def section_margin(self) -> int:
        # R_q applies the operator twice.
        return 2 * self.bandwidth

    def apply(self, v: QVector) -> QVector:
        raise NotImplementedError

    def finite_section(self, n: int) -> QMatrix:
        raise NotImplementedError


class DenseOperator(LinearOperator):
    """A square quaternionic matrix wrapped as an operator."""

    def __init__(self, matrix: QMatrix):
        if matrix.rows != matrix.cols:
            raise ShapeError("dense operators must be square")
        self.matrix = matrix
        self.dim = matrix.rows

    def apply(self, v: QVector) -> QVector:
        return self.matrix.apply(v)

    def finite_section(self, n: int) -> QMatrix:
        if n != self.dim:
            raise ShapeError(f"dense operator has fixed dimension {self.dim}")
        return self.matrix


class MultiplicationOperator(LinearOperator):
    """Pointwise multiplication by g on functions over a finite point set.

    With coordinates as columns and matrices acting on the left, the
    operator is the diagonal matrix with entries g(x); the right scalar
    action of H then commutes with it entrywise.  Its S-spectrum is the
    sphere closure of the value set g(Omega), conjugates included.

    It is the model decomposable operator, and its matrix is computed on in
    closed form: ``spectral_decomposition`` reads the spheres, a unitary
    eigenbasis and the singular values of each R_q off the values, with no
    Schur form, and ``growth_bounds`` gives (max |g|, min |g|), with no
    powers.  The projections are the coordinate projections onto the
    points of each sphere, so the local spectrum of f is the set of spheres
    of g on supp f.  A dense matrix that is diagonal takes the same route.
    """

    def __init__(self, labels, values):
        self.labels = tuple(str(s) for s in labels)
        self.values = tuple(values)
        if len(self.labels) != len(self.values):
            raise ShapeError("one value per point required")
        if not self.values:
            raise ShapeError("the point set must be nonempty")
        self.dim = len(self.values)
        self._matrix = QMatrix.diag(self.values)

    def as_qmatrix(self) -> QMatrix:
        return self._matrix

    def apply(self, v: QVector) -> QVector:
        return self._matrix.apply(v)

    def finite_section(self, n: int) -> QMatrix:
        if n != self.dim:
            raise ShapeError(f"multiplication operator has fixed dimension {self.dim}")
        return self._matrix

    def value_spheres(self) -> tuple[EigenSphere, ...]:
        return merge_spheres([sphere_of(q) for q in self.values])


class ShiftOperator(LinearOperator):
    """Unilateral shift on square-summable sequences.

    side='right' is the isometry (x1, x2, ...) -> (0, x1, x2, ...);
    side='left' is its adjoint (x1, x2, ...) -> (x2, x3, ...).  Both act
    exactly on finitely supported vectors.
    """

    bandwidth = 1

    def __init__(self, side: str):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.side = side
        self.label = f"shift:{side}"

    def apply(self, v: QVector) -> QVector:
        if self.side == "right":
            return QVector(np.concatenate([[0.0], v.c1]), np.concatenate([[0.0], v.c2]))
        return QVector(v.c1[1:], v.c2[1:])

    def band(self, n: int) -> np.ndarray:
        """The n x n section as a real array: ones just below the diagonal
        (right shift) or just above it (left), zeros elsewhere."""
        if n < 2:
            raise ShapeError("shift sections need n >= 2")
        return np.eye(n, k=-1 if self.side == "right" else 1)

    def finite_section(self, n: int) -> QMatrix:
        return QMatrix(self.band(n).astype(np.complex128), np.zeros((n, n), dtype=np.complex128))

    def adjoint_operator(self) -> "ShiftOperator":
        other = "left" if self.side == "right" else "right"
        return ShiftOperator(other)


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


def _require_invariant(a: QMatrix, basis: SubspaceBasis, what: str) -> None:
    if a.rows != a.cols or a.rows != basis.space_dim:
        raise ShapeError(f"{what} needs a square matrix on the ambient space")
    defect = invariance_defect(a, basis)
    if defect > 1e-8 * (1.0 + op_norm(a)):
        raise InvarianceError(
            f"subspace is not invariant: |(1-P)AP| = {defect:.3e}", defect)


def restrict(a: QMatrix, basis: SubspaceBasis) -> QMatrix:
    """Matrix of A restricted to an invariant subspace, in the given basis."""
    _require_invariant(a, basis, "restriction")
    y = basis.matrix
    return y.adjoint() @ (a @ y)


def complement_basis(basis: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis of the orthogonal complement: what
    ``orthonormalize`` keeps of e_1, ..., e_n after the basis itself."""
    survivors = orthonormalize(hstack([basis.matrix, QMatrix.identity(basis.space_dim)]),
                               drop_tol=1e-9)
    return SubspaceBasis(QMatrix(survivors.c1[:, basis.dim:], survivors.c2[:, basis.dim:]))


def quotient(a: QMatrix, basis: SubspaceBasis) -> QMatrix:
    """Matrix induced on the orthogonal complement of an invariant subspace.

    With Y invariant and Z = Y^perp, A is block triangular over [Y Z] and
    the quotient action is the (Z, Z) block.
    """
    _require_invariant(a, basis, "quotient")
    z = complement_basis(basis).matrix
    return z.adjoint() @ (a @ z)


# -- open covers and coordinate splittings ---------------------------------


@dataclass(frozen=True)
class HalfPlaneRegion:
    """Open subset of the (re, im) half plane: a union of open disks, each
    a (re, im, radius) triple."""

    disks: tuple

    @staticmethod
    def disk(re: float, im: float, radius: float) -> "HalfPlaneRegion":
        if not radius > 0.0:    # nan fails too
            raise ValueError("disk radius must be positive")
        return HalfPlaneRegion(((re, im, radius),))

    def __or__(self, other: "HalfPlaneRegion") -> "HalfPlaneRegion":
        return HalfPlaneRegion(self.disks + other.disks)

    def contains(self, s: EigenSphere) -> bool:
        return any(math.hypot(s.re - re, s.im - im) < radius for re, im, radius in self.disks)


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
    eye = QMatrix.identity(n)
    y1, y2 = (SubspaceBasis(QMatrix(eye.c1[:, mask], eye.c2[:, mask]))
              for mask in np.array(hits).T)
    return y1, y2
