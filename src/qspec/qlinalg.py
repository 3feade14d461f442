"""Finite right quaternionic linear algebra over the complex split.

Vectors and matrices store the complex pair of the splitting q = a + b j
with a, b in C_i.  Matrices act on the left of column vectors and scalars
act on the right, so A(phi * q) = (A phi) * q holds by construction.  The
complex adjoint of A = A1 + A2 j is the 2n x 2m matrix

    chi(A) = [[ A1,        A2       ],
              [-conj(A2),  conj(A1) ]]

which satisfies chi(AB) = chi(A) chi(B) and chi(A^dag) = chi(A)^H.  A
column phi = phi1 + phi2 j embeds as [phi1; -conj(phi2)], and with that
pairing chi(A) embed(phi) = embed(A phi), the embedding preserves norms,
and right multiplication by C_i scalars commutes with everything.  All
spectral quantities below are computed through this representation.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ShapeError
from .quat import SPHERE_MERGE_TOL, EigenSphere, Quaternion, _clusters, linked_components
from .qvector import QVector, _join, _split  # noqa: F401 (QVector: documented re-export)


def inner(u: QVector, v: QVector) -> Quaternion:
    """Right inner product sum_k conj(u_k) v_k.

    Linear in v over right scalars, conjugate linear in u.
    """
    if u.n != v.n:
        raise ShapeError(f"vector lengths differ: {u.n} vs {v.n}")
    a = complex(np.sum(np.conj(u.c1) * v.c1 + u.c2 * np.conj(v.c2)))
    b = complex(np.sum(np.conj(u.c1) * v.c2 - u.c2 * np.conj(v.c1)))
    return _join(a, b)


class QMatrix:
    """Dense matrix with quaternion entries acting on the left of columns."""

    # kept facts of an immutable matrix: _spectral (see spectral_decomposition)
    # and _frobenius (see frobenius)
    __slots__ = ("c1", "c2", "_spectral", "_frobenius")

    def __init__(self, c1: np.ndarray, c2: np.ndarray):
        c1 = np.asarray(c1, dtype=np.complex128).copy()
        c2 = np.asarray(c2, dtype=np.complex128).copy()
        if c1.ndim != 2 or c1.shape != c2.shape:
            raise ShapeError("component matrices must share an (n, m) shape")
        c1.setflags(write=False)
        c2.setflags(write=False)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    def __reduce__(self):
        return (QMatrix, (self.c1, self.c2))

    @property
    def rows(self) -> int:
        return self.c1.shape[0]

    @property
    def cols(self) -> int:
        return self.c1.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.c1.shape

    @property
    def is_complex_slice(self) -> bool:
        """True when every entry lies in C_i, i.e. the j-part vanishes."""
        return not np.any(self.c2)

    @property
    def is_diagonal(self) -> bool:
        """True when A is square and every off-diagonal entry of c1 and c2
        is zero, however A was built."""
        return self.rows == self.cols and all(
            np.count_nonzero(c) == np.count_nonzero(c.diagonal()) for c in (self.c1, self.c2))

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "QMatrix":
        m = n if m is None else m
        return QMatrix(np.zeros((n, m), dtype=np.complex128),
                       np.zeros((n, m), dtype=np.complex128))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(np.eye(n, dtype=np.complex128),
                       np.zeros((n, n), dtype=np.complex128))

    @staticmethod
    def diag(entries) -> "QMatrix":
        pairs = [_split(q) for q in entries]
        return QMatrix(np.diag([p[0] for p in pairs]), np.diag([p[1] for p in pairs]))

    @staticmethod
    def from_quaternions(rows) -> "QMatrix":
        data = [[_split(q) for q in row] for row in rows]
        if not data:
            return QMatrix.zeros(0, 0)
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ShapeError("ragged rows")
        c1 = np.array([[p[0] for p in row] for row in data])
        c2 = np.array([[p[1] for p in row] for row in data])
        return QMatrix(c1, c2)

    @staticmethod
    def from_components(arr: np.ndarray) -> "QMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 4:
            raise ShapeError("expected an (n, m, 4) component array")
        return QMatrix(arr[:, :, 0] + 1j * arr[:, :, 1], arr[:, :, 2] + 1j * arr[:, :, 3])

    def to_components(self) -> np.ndarray:
        return np.stack([self.c1.real, self.c1.imag, self.c2.real, self.c2.imag], axis=2)

    def entry(self, i: int, j: int) -> Quaternion:
        return _join(complex(self.c1[i, j]), complex(self.c2[i, j]))

    def col(self, j: int) -> QVector:
        return QVector(self.c1[:, j], self.c2[:, j])

    def take_cols(self, count: int) -> "QMatrix":
        return QMatrix(self.c1[:, :count], self.c2[:, :count])

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ShapeError("matrix shapes differ")
        return QMatrix(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ShapeError("matrix shapes differ")
        return QMatrix(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.c1, -self.c2)

    def scale(self, t: float) -> "QMatrix":
        return QMatrix(self.c1 * t, self.c2 * t)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        c1 = self.c1 @ other.c1 - self.c2 @ np.conj(other.c2)
        c2 = self.c1 @ other.c2 + self.c2 @ np.conj(other.c1)
        return QMatrix(c1, c2)

    def apply(self, v: QVector) -> QVector:
        if self.cols != v.n:
            raise ShapeError(f"cannot apply {self.shape} to a length {v.n} vector")
        return QVector(self.c1 @ v.c1 - self.c2 @ np.conj(v.c2),
                       self.c1 @ v.c2 + self.c2 @ np.conj(v.c1))

    def adjoint(self) -> "QMatrix":
        """Conjugate transpose: entry (i, j) is conj(A[j, i])."""
        return QMatrix(np.conj(self.c1).T, -self.c2.T)

    def frobenius(self) -> float:
        """|A|_F, kept from the first call: a classify request reads it for
        the direct check and for both membership thresholds."""
        fro = getattr(self, "_frobenius", None)
        if fro is None:
            fro = math.sqrt(float(np.sum(np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2)))
            object.__setattr__(self, "_frobenius", fro)
        return fro

    def col_norms(self) -> np.ndarray:
        """Euclidean norm of each column."""
        return np.sqrt(np.sum(np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2, axis=0))

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


def hstack(mats: list[QMatrix]) -> QMatrix:
    return QMatrix(np.hstack([m.c1 for m in mats]), np.hstack([m.c2 for m in mats]))


def vstack(mats: list[QMatrix]) -> QMatrix:
    return QMatrix(np.vstack([m.c1 for m in mats]), np.vstack([m.c2 for m in mats]))


# -- complex adjoint ----------------------------------------------------


def complex_adjoint(a: QMatrix) -> np.ndarray:
    """chi(A), the 2n x 2m complex image of A; A is its top block row."""
    n, m = a.shape
    out = np.empty((2 * n, 2 * m), dtype=np.complex128)
    out[:n, :m], out[:n, m:] = a.c1, a.c2
    out[n:, :m], out[n:, m:] = -np.conj(a.c2), np.conj(a.c1)
    return out


# -- norms, kernels, eigen-spheres -----------------------------------------


def _singular_values(a: QMatrix) -> np.ndarray:
    """The singular values of chi(A), largest first: each of A's twice."""
    return np.linalg.svd(complex_adjoint(a), compute_uv=False)


def min_singular(a: QMatrix) -> float:
    """inf of |A phi| over unit phi; 0 exactly when the kernel is nonzero.

    Equals the smallest singular value of chi(A).  An empty matrix has an
    empty unit sphere, so the infimum is +inf.
    """
    if a.rows == 0 or a.cols == 0:
        return math.inf
    return float(_singular_values(a)[-1])


def op_norm(a: QMatrix) -> float:
    if a.rows == 0 or a.cols == 0:
        return 0.0
    return float(_singular_values(a)[0])


def _kernel_dim(s: np.ndarray, cols: int, tol: float) -> np.ndarray:
    """Kernel dimensions of matrices with ``cols`` columns whose chi images
    have the singular values ``s``, one matrix per row of ``s`` (a 1-D
    ``s`` is one matrix), at kernel_basis's threshold tol * (1 + |A|_F).

    |A|_F^2 is half the sum of s^2, since chi holds each value twice; it is
    summed over s / top, top the row's largest value, so that no finite
    value overflows when squared.  Small values count in pairs; an odd count
    of them is the failure of a wrong-sized kernel pullback.  A row whose
    |A|_F is not finite fails too, and the first failing row raises.
    """
    top = np.max(s, axis=-1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = s / np.where(top > 0, top, 1.0)[..., None]
        fro = top * np.sqrt(np.sum(scaled * scaled, axis=-1) / 2)
    null = 2 * cols - np.count_nonzero(s > tol * (1.0 + fro[..., None]), axis=-1)
    failed = ~np.isfinite(fro) | (null % 2 == 1)
    if failed.any():
        k = np.unravel_index(np.argmax(failed), failed.shape)    # the first failing row
        if not np.isfinite(fro[k]):
            raise NumericalError(f"singular values up to {s[k].max():.3e} give no finite |A|_F")
        raise NumericalError(f"chi(A) has an odd null space dimension {null[k]}")
    return null // 2


def kernel_basis(a: QMatrix, tol: float = 1e-10) -> QMatrix:
    """Right orthonormal basis of ker A at relative tolerance tol * (1 + |A|_F),
    as the columns of an (m, k) matrix.

    The complex null space of chi(A) is closed under the quaternionic
    structure map, so it pulls back to exactly half as many right
    independent quaternionic vectors: ``orthonormalize`` keeps one vector
    of each pair phi, phi j of pulled-back singular vectors.  Only a wide A
    needs the full SVD, whose vh alone holds all of its null rows.
    """
    m = a.cols
    if a.rows == 0 or m == 0:
        return QMatrix.identity(m)
    _, s, vh = np.linalg.svd(complex_adjoint(a), full_matrices=a.rows < m)
    expected = int(_kernel_dim(s, m, tol))
    # each of the last 2 * expected rows w of vh pulls back to a column conj(w)
    null = vh[2 * (m - expected):]
    basis = orthonormalize(QMatrix(np.conj(null[:, :m]).T, -null[:, m:].T), drop_tol=1e-6)
    if basis.cols != expected:
        raise NumericalError(
            f"kernel pullback produced {basis.cols} vectors, expected {expected}")
    return basis


def pseudo_resolvent(a: QMatrix, q: Quaternion) -> QMatrix:
    """R_q(A) = A^2 - 2 Re(q) A + |q|^2 I, for callers that apply or invert it;
    its singular values come from ``resolvent_singular_values``."""
    if a.rows != a.cols:
        raise ShapeError("pseudo-resolvent needs a square matrix")
    return (a @ a) - a.scale(2.0 * q.w) + QMatrix.identity(a.rows).scale(q.norm_sq())


# entries of R_q per stacked SVD: small images go hundreds of points at a
# time, large ones one at a time, so a block never holds much more than one
# large image
_BLOCK_ENTRIES = 1 << 13
#: the failure of an R_q with an entry past double precision
RESOLVENT_OVERFLOW = "R_q = A^2 - 2 Re(q) A + |q|^2 I overflows double precision"


def resolvent_singular_values(m: np.ndarray, xs, ys):
    """Singular values of R_q(m) = m^2 - 2x m + (x^2 + y^2) I at the points
    q = x + yI of the equal-length sequences ``xs`` and ``ys``.

    With m = chi(A) these are the singular values of chi(R_q(A)), each of
    R_q(A)'s twice; the dense portrait kernel (``spectral._SectionKappa``)
    also passes the C_i block of a complex-slice section, which gives each
    once.  Points go in blocks of about _BLOCK_ENTRIES matrix entries, one
    stacked SVD each, and each block's (points, values) array is yielded,
    largest value first, before the next block is formed; a block past
    double precision raises NumericalError.
    """
    x = np.asarray(xs, dtype=float).reshape(-1, 1, 1)
    y = np.asarray(ys, dtype=float).reshape(-1, 1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = m @ m
        twice_x, r2 = 2.0 * x, x * x + y * y
    eye = np.eye(len(m), dtype=m.dtype)
    block = max(1, _BLOCK_ENTRIES // m.size)
    for lo in range(0, len(x), block):
        hi = lo + block
        with np.errstate(over="ignore", invalid="ignore"):
            r = m2 - twice_x[lo:hi] * m + r2[lo:hi] * eye
        if not np.isfinite(r).all():
            raise NumericalError(RESOLVENT_OVERFLOW)
        yield np.linalg.svd(r, compute_uv=False)


#: the LAPACK routines qspec calls, all wrapped in scipy's compiled ``_flapack``
_LAPACK_ROUTINES = ("dsbevx", "zgees", "ztrsen", "ztrsyl", "ztrtri")


def _flapack():
    """scipy's ``linalg/_flapack`` extension, loaded by file path under the
    name ``qspec._flapack`` without running scipy's package ``__init__``;
    None when the file or one of ``_LAPACK_ROUTINES`` is missing."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    linalg = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        return None
    try:
        ext = importlib.util.spec_from_file_location("qspec._flapack", path)
        module = importlib.util.module_from_spec(ext)
        ext.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return module if all(hasattr(module, r) for r in _LAPACK_ROUTINES) else None


@functools.cache
def _lapack():
    """The LAPACK wrappers: ``_flapack()``, else ``scipy.linalg.lapack``.
    Importing scipy.linalg costs a one-shot command about 0.3 s and 17 MB
    of peak memory; loading the one extension, a few ms."""
    lapack = _flapack()
    if lapack is None:
        from scipy.linalg import lapack
    return lapack


#: the failure of a matrix with an entry that is not finite
NOT_FINITE = "Schur iteration failed: array must not contain infs or NaNs"


def _schur(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form T = Z^H M Z by ``zgees``, with the checks and the
    workspace query of ``scipy.linalg.schur(m, output="complex")``, so T
    and Z are bit for bit the same."""
    if not np.all(np.isfinite(m)):
        raise NumericalError(NOT_FINITE)
    zgees, m = _lapack().zgees, np.asarray(m, dtype=np.complex128)
    lwork = int(zgees(lambda x: None, m, lwork=-1)[-2][0].real)
    t, _, _, z, _, info = zgees(lambda x: None, m, lwork=lwork, sort_t=0)
    if info:
        raise NumericalError(f"Schur iteration failed: zgees info {info}")
    return t, z


#: a Schur block keeps growing while splitting it off needs a Sylvester
#: solution Y with |Y|_2 at least this
GROWTH_LIMIT = 1e6

#: refuse spectral projections whose norm exceeds this
CONDITION_LIMIT = 1e8


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """The spheres of a square A, read off M = chi(A), which carries every
    sphere of every A as conjugate eigenvalues (Zhang, LAA 251 (1997)).
    The eigenvalues of M lie along one diagonal in blocks: block k spans
    ``blocks[k]`` of it and belongs to sphere ``owner[k]``.  Sphere i keeps
    its multiplicity, and its kernel counts and flags come from the
    singular values of R_q(M) at its representative: off the ``bounds`` on
    them where those decide, and from the sphere's full SVD where they do
    not, as on any read of ``singular_values``.

    The Schur route fills Z and W from one complex Schur form T = Z^H M Z,
    whose diagonal is the eigenvalue diagonal: W is unit upper triangular,
    its block row k past the block the Y with T_kk Y - Y T_rest = T_k,rest,
    so W T W^-1 = diag(T_kk); ``inverse`` is W^-1, ``split`` what the
    bounds read of T and W and their widening at each sphere
    (``_split_scales``), and T itself is not kept.
    A diagonal A takes no Schur form: ``z``, ``w``, ``inverse`` and
    ``split`` are None, ``exact`` holds the singular values in closed form
    (None on the Schur route), and ``entries`` the entry of A whose
    eigenvalue sits at each position of the diagonal (None on the Schur
    route).  All of one matrix's consumers share it, so its arrays are
    read-only.

    It also holds A's spectral projections, commuting idempotents splitting
    H^n along the spheres, with ``conditions``, their operator norms; a
    multiplicity is the quaternionic rank of its projection.  Factors are
    their only form: sphere i's is P_i = V_i U_i for the ``projection_factors``
    (V, U, owner), N x N factors of the form's size N = 2n; a reader takes
    the products it needs of the J-symmetrized (P_i + J conj(P_i) J^-1) / 2,
    the chi image of a quaternionic matrix.
    ``certified`` is True when every sphere's eigenspace dimension matches
    its multiplicity; defective spheres are computed but carry no
    certificate.
    """

    spheres: tuple[EigenSphere, ...]
    multiplicities: tuple[int, ...]
    m: np.ndarray = field(repr=False)
    z: np.ndarray | None = field(repr=False)
    w: np.ndarray | None = field(repr=False)
    inverse: np.ndarray | None = field(repr=False)
    split: _SplitScales | None = field(repr=False)
    blocks: tuple[tuple[int, int], ...]
    owner: tuple[int, ...]
    entries: np.ndarray | None = field(repr=False)
    exact: np.ndarray | None = field(repr=False)

    def __post_init__(self):
        for x in (self.m, self.z, self.w, self.inverse, self.entries, self.exact):
            if x is not None:
                x.setflags(write=False)

    def kernel_dims(self, tol: float = 1e-10) -> tuple[int, ...]:
        """dim ker R_q(A) at each sphere at ``kernel_basis``'s tol: off the
        bounds where they decide it, else from the sphere's singular values,
        which raise as ``_kernel_dim`` raises."""
        if self.exact is not None:
            return tuple(_kernel_dim(self.exact, len(self.m) // 2, tol).tolist())
        dims, undecided = _bounded_kernel_dims(*self.bounds, tol)
        if undecided.any():
            rows = np.flatnonzero(undecided)
            dims[rows] = _kernel_dim(self._values(rows), len(self.m) // 2, tol)
        return tuple(dims.tolist())

    def kappa_at_most(self, threshold: float) -> np.ndarray:
        """Whether each sphere's kappa, the smallest singular value of R_q,
        is at most ``threshold``: off the bounds where they decide it, else
        from the sphere's singular values."""
        lower, upper, _ = self.bounds
        at_most = upper[:, -1:].ravel() <= threshold
        if not at_most.all():
            rows = np.flatnonzero(~at_most & ~(lower[:, -1:].ravel() > threshold))
            if len(rows):
                at_most[rows] = self._values(rows)[:, -1] <= threshold
        return at_most

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Lower and upper bounds on the singular values of R_q(M) at each
        sphere, largest first, and bounds on |R_q(A)|_F (``_resolvent_bounds``),
        formed on the first read of a kernel count or flag; a diagonal A's
        are its exact values, with no Frobenius bounds."""
        if self.exact is not None:
            return self.exact, self.exact, None
        out = _resolvent_bounds(self.m, self.split)
        for x in out:
            x.setflags(write=False)
        return out

    @property
    def singular_values(self) -> np.ndarray:
        """The singular values of R_q(M) at every sphere, by the full SVD."""
        return self._values(range(len(self.spheres)))

    @functools.cached_property
    def _exact(self) -> dict[int, np.ndarray]:
        return {}

    def _values(self, rows) -> np.ndarray:
        """The singular values of R_q(M) at the spheres ``rows``, largest
        first: one ``resolvent_singular_values`` call for those not read
        before, each kept from its first read; a diagonal A's are exact."""
        rows = [int(i) for i in rows]
        if self.exact is not None:
            return self.exact[rows]
        kept = self._exact
        new = [i for i in rows if i not in kept]
        if new:
            blocks = resolvent_singular_values(
                self.m, [self.spheres[i].re for i in new], [self.spheres[i].im for i in new])
            for i, s in zip(new, np.concatenate(list(blocks))):
                s.setflags(write=False)
                kept[i] = s
        return np.array([kept[i] for i in rows]).reshape(len(rows), len(self.m))

    @property
    def certified(self) -> bool:
        return self.kernel_dims() == self.multiplicities

    @property
    def conditions(self) -> tuple[float, ...]:
        return self._validated[0]

    @property
    def projection_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """V, U and the sphere of each column of V, with V_i U_i (sphere
        i's columns of V times the same rows of U) its projection of M,
        validated on first read; sphere i owns 2 m_i columns."""
        return self._validated[1]

    @functools.cached_property
    def _validated(self) -> tuple[tuple[float, ...], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The conditions and the projection factors, kept from the first
        read on; a failed validation raises and keeps nothing.

        A lone sphere's projection is I, and a diagonal A's are the
        coordinate projections onto the entries of each sphere: their
        factors are I, I and the sphere of each coordinate of M, their
        conditions exactly 1.  They sum to I, are orthogonal idempotents
        and commute with a diagonal M exactly, so their one check is that
        every entry has exactly one owner (``_coordinate_factors``).

        Every other A's factors are the Schur factors V and U with the
        sphere of each position; nothing is factored again.
        ``_conditioned`` reads their conditions and refuses a norm above
        CONDITION_LIMIT or a broken quaternionic structure (each complex
        projector of a conjugate-closed spectral set descends to a
        quaternionic matrix).  One check, ``_check_projections``, then
        validates the factors that are kept, in factored form.  No
        (spheres, N, N) stack is formed.
        """
        count = len(self.spheres)
        if count < 2 or self.entries is not None:
            conditions, factors = (1.0,) * count, self._coordinate_factors()
        else:
            conditions = tuple(_conditioned(self))
            factors = (*self.factors, self.positions[0])
            _check_projections(self.m, *factors, conditions)
        for x in factors:
            x.setflags(write=False)
        return conditions, factors

    def _coordinate_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """I, I and the sphere of each coordinate of M, for a lone sphere or
        a diagonal A; coordinates k and n + k of chi(A) are entry k's.  An
        entry whose eigenvalues went to two spheres would make no
        quaternionic projection, and raises as such."""
        size = len(self.m)
        if self.entries is None:
            owner = np.zeros(size, dtype=np.intp)
        else:
            at, _ = self.positions
            sphere = np.full(size // 2, -1)
            sphere[self.entries] = at
            if sphere.min() < 0 or not np.array_equal(sphere[self.entries], at):
                raise NumericalError("projection broke the quaternionic structure")
            owner = np.concatenate([sphere, sphere])
        eye = np.eye(size)
        return eye, eye, owner

    @functools.cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """For each position of the eigenvalue diagonal, the sphere that
        owns it and its rank among that sphere's positions."""
        owner = np.repeat(self.owner, [stop - start for start, stop in self.blocks])
        order = np.argsort(owner, kind="stable")
        counts = np.bincount(owner, minlength=len(self.spheres))
        slot = np.empty_like(owner)
        slot[order] = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        return owner, slot

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """V = Z W^-1 and U = W Z^H, so that M = V diag(T_kk) U and U V = I;
        on the Schur route only: a diagonal or empty A's decomposition has
        no Schur factors and raises ValueError."""
        if self.z is None:
            raise ValueError("a diagonal or empty matrix's decomposition has no Schur factors")
        return self.z @ self.inverse, self.w @ self.z.conj().T

    @property
    def sphere_factors(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Each sphere's columns of V and rows of U, in groups of spheres of
        one width: (the spheres, their V_i stacked along the first axis,
        their U_i), widest group last.  A sphere's spectral projector of M,
        Z W^-1[:, S] W[S, :] Z^H over its diagonal positions S, is the product
        of its two.  Formed on each read, for validation, and not kept."""
        v, u = self.factors
        owner, _ = self.positions
        order = np.argsort(owner, kind="stable")    # by sphere, then by position
        widths = np.bincount(owner, minlength=len(self.spheres))
        groups = []
        for width in sorted(set(widths.tolist())):
            spheres = np.flatnonzero(widths == width)
            cols = order[(widths == width)[owner[order]]].reshape(len(spheres), width)
            groups.append((spheres, v[:, cols].transpose(1, 0, 2), u[cols]))
        return tuple(groups)


def _fro(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of the matrices of a complex stack."""
    flat = x.reshape(len(x), math.prod(x.shape[1:])).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


#: entries of the projectors the structure test forms at a time: a chunk of
#: spheres, so that no (spheres, N, N) stack is formed at once
_CHUNK_ENTRIES = 1 << 16


def _conditioned(dec: SpectralDecomposition) -> list[float]:
    """The conditions |V_i U_i|_2 of the spheres' projectors, from each
    sphere's columns of V and rows of U, one QR and one SVD per group of
    spheres of one width; sphere by sphere, its condition is checked against
    CONDITION_LIMIT and its projector against the quaternionic structure
    (``_structure_defects``).
    """
    conditions, broken = np.empty(len(dec.spheres)), np.empty(len(dec.spheres))
    for spheres, vs, us in dec.sphere_factors:
        # V_i = Q R with orthonormal Q, so |V_i U_i| = |R U_i|
        conditions[spheres] = np.linalg.svd(np.linalg.qr(vs, mode="r") @ us,
                                            compute_uv=False)[:, 0]
        broken[spheres] = _structure_defects(vs, us)
    for i, s in enumerate(dec.spheres):
        if conditions[i] > CONDITION_LIMIT:
            raise NumericalError(
                f"projection for sphere ({s.re}, {s.im}) has "
                f"norm {conditions[i]:.3e}, beyond the conditioning limit")
        if broken[i] > 1e-6 * max(1.0, conditions[i]):
            raise NumericalError("projection broke the quaternionic structure")
    return [float(c) for c in conditions]


def _structure_defects(vs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """|P_i - J conj(P_i) J^-1|_F with J = [[0, I], [-I, 0]] for each
    projector P_i = V_i U_i of chi(A), formed a chunk of spheres at a time.

    The residual is minus its own J-conjugate, so its lower half rows are
    the conjugates of its upper half's: the norm is sqrt(2) times that of
    the upper half [P11 - conj P22, P12 + conj P21].
    """
    count, size = vs.shape[:2]
    n = size // 2
    step = max(1, _CHUNK_ENTRIES // (size * size))
    out = np.empty(count)
    for lo in range(0, count, step):
        p = vs[lo:lo + step] @ us[lo:lo + step]
        sym = np.concatenate([np.conj(p[:, n:, n:]), -np.conj(p[:, n:, :n])], axis=2)
        out[lo:lo + step] = math.sqrt(2.0) * _fro(p[:, :n] - sym)
    return out


def _factored_residuals(m: np.ndarray, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
                        count: int) -> tuple[np.ndarray, ...]:
    """A B - I, C = B A - I, X = M A - A blockdiag(B M A), the squared
    Frobenius norms of P_i P_j - delta_ij P_i = A_i C_ij B_j, a (count,
    count) array, and of (I - P_i) M P_i = X_i B_i, as computed, and one
    bound on the rounding of those, for the projections P_i = A_i B_i of M.

    With G = blockdiag(A^H A) and H = blockdiag(B B^H) the squares are
    tr(C_ij^H G_ii C_ij H_jj) and tr(X_i H_ii X_i^H), from a few products of
    the factors' size for all spheres at once.  Such a sum rounds by about
    gamma |C_ij|^2 |A_i|^2 |B_j|^2, small where C_ij is small, as it is off
    the diagonal; C_ii need not be (factors wider than their rank, as a
    faulty set may be, leave it of order 1), so A_i C_ii = (P_i - I) A_i,
    which is small, is formed first.  For A of N rows and K columns each
    square passes through two Gram sums of length N, two products of length
    K and the final sums, so gamma = 4 (N + K) eps covers their lengths;
    the Schur factors have K = N, so gamma = 8 N eps, where the factors
    [V, J conj(V)] of twice the width had 12 N eps.
    """
    spheres = (owner[:, None] == np.arange(count)).astype(float)
    same = spheres @ spheres.T
    total, c = a @ b, b @ a
    for r in (total, c):
        r.flat[::len(r) + 1] -= 1.0
    across, d = c * (1.0 - same), a @ (c * same)
    gram_a, gram_b = (a.conj().T @ a) * same, (b @ b.conj().T) * same
    ma = m @ a
    x = ma - a @ ((b @ ma) * same)

    def squares(y: np.ndarray) -> np.ndarray:    # |Y_i B_i|_F^2 for each sphere i
        return (y.conj() * (y @ gram_b)).real.sum(axis=0) @ spheres

    pairs = spheres.T @ (across.conj() * (gram_a @ across @ gram_b)).real @ spheres
    pairs[np.diag_indices(count)] = squares(d)
    sq = [float(np.vdot(y, y).real) for y in (a, b, across, d, x)]
    gamma = 4 * (len(a) + len(owner)) * np.finfo(float).eps
    return total, c, x, pairs, squares(x), gamma * sq[1] * max(sq[0] * sq[2], sq[3], sq[4])


def _exceeds(residual: np.ndarray, bound: float) -> bool:
    """Whether |residual|_2 > bound, by an SVD of the formed N x N residual."""
    return float(np.linalg.norm(residual, 2)) > bound


def _check_projections(m: np.ndarray, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
                       conditions) -> None:
    """Check that the projections P_i = A_i B_i of M (A_i the columns of A
    that ``owner`` gives sphere i, B_i the same rows of B) sum to I, satisfy
    P_i P_j = delta_ij P_i and have M-invariant ranges, each residual within
    2-norm tol = 1e-8 max(1, max conditions) max(1, |M|_2), invariance
    within tol (1 + |M|_2); raise on the first failure: the sum, then
    sphere by sphere its products and its invariance.

    Each residual is screened by its Frobenius norm from
    ``_factored_residuals``, rounding bound added, first with |M|_F /
    sqrt(N) <= |M|_2 for |M|_2; only one that the screen cannot accept is
    formed, N x N, for ``_exceeds``.  O(N^3) in all.
    """
    total, c, x, *squares, rounding = _factored_residuals(m, a, b, owner, len(conditions))
    pairs, invariance = (np.sqrt(q + rounding) for q in squares)
    fro = float(np.linalg.norm(total))
    norm_m = float(np.linalg.norm(m)) / math.sqrt(len(m))
    for exact in (False, True):
        if exact:
            norm_m = float(np.linalg.norm(m, 2))
        tol = 1e-8 * max(1.0, max(conditions)) * max(1.0, norm_m)
        bound = tol * (1.0 + norm_m)
        if fro <= tol and pairs.max() <= tol and invariance.max() <= bound:
            return
    if not fro <= tol and _exceeds(total, tol):
        raise NumericalError("spectral projections do not sum to the identity")
    cols = [np.flatnonzero(owner == i) for i in range(len(conditions))]
    for i, rows in enumerate(cols):
        if any(_exceeds(a[:, rows] @ c[np.ix_(rows, cols[j])] @ b[cols[j]], tol)
               for j in np.flatnonzero(~(pairs[i] <= tol))):
            raise NumericalError("spectral projections are not orthogonal idempotents")
        if not invariance[i] <= bound and _exceeds(x[:, rows] @ b[rows], bound):
            raise NumericalError("a projection range is not invariant")


def spectral_decomposition(a: QMatrix) -> SpectralDecomposition:
    """Eigen-spheres of A phi = phi q and their multiplicities, from one Schur form.

    Built once per matrix: the first call keeps it with A (a copy of A does
    not), later calls return it, and a failed build keeps nothing.  Its
    projections are validated, the same way, on their first read.

    ``_split_schur`` splits the form into blocks, each gathered by
    ``ztrsen`` and split off by the rows of W one ``ztrsyl`` solve gives.  A
    block's centre mu = trace/size is accurate to O(eps) even when a size-k
    Jordan block spreads its eigenvalues by eps^(1/k) (Moro, Burke &
    Overton, SIAM J. Matrix Anal. Appl. 18 (1997)).  Blocks map to the
    spheres (Re mu, |Im mu|), merged once at SPHERE_MERGE_TOL; chi(A)
    counts each sphere twice.  The singular values of R_q at each sphere's
    representative are bounded from the split form (``_resolvent_bounds``),
    and a sphere takes its full SVD (``resolvent_singular_values``) only
    where the bounds leave a kernel count or flag open.  Every sphere passes
    a direct check, that R_q is numerically singular, read off the diagonal
    of the form in the same pass as the scales of the split
    (``_split_scales``).  An R_q past double precision raises
    NumericalError.

    A diagonal A (``QMatrix.is_diagonal``) takes no Schur form: its image
    is already one, up to a unitary 2 x 2 change of basis per entry, and
    ``_diagonal_decomposition`` reads the eigenvalues and the exact
    singular values off the entries, with no Schur factors.  The same blocks,
    spheres, checks and errors follow, and its projections are the
    coordinate projections onto each sphere's entries.
    """
    dec = getattr(a, "_spectral", None)
    if dec is None:
        dec = _decompose(a)
        object.__setattr__(a, "_spectral", dec)
    return dec


def _decompose(a: QMatrix) -> SpectralDecomposition:
    if a.rows != a.cols:
        raise ShapeError("eigen-spheres need a square matrix")
    m = complex_adjoint(a)
    if a.rows == 0:
        return SpectralDecomposition((), (), m, None, None, None, None, (), (), None,
                                     np.empty((0, 0)))
    if a.is_diagonal:
        return _diagonal_decomposition(a, m)
    return _schur_decomposition(a, m)


def _schur_decomposition(a: QMatrix, m: np.ndarray) -> SpectralDecomposition:
    """The decomposition of a nonempty square A with m = chi(A) from one
    Schur form and its split; the tests' reference for diagonal inputs."""
    t, z = _schur(m)
    blocks, w = _split_schur(t, z)
    spheres, mult, owner = _block_spheres(t.diagonal(), blocks)
    inverse, _ = _lapack().ztrtri(w, unitdiag=1)    # unit triangular: never singular
    split, ceilings = _split_scales(m, t, w, inverse, blocks, spheres)
    dec = SpectralDecomposition(spheres, mult, m, z, w, inverse, split, tuple(blocks),
                                tuple(owner.tolist()), None, None)
    return _checked(a, dec, ceilings)


class _SplitScales(NamedTuple):
    """What the bounds on R_q(M)'s singular values read of the split Schur
    form T, W and W^-1, and the widening at each sphere (``_split_scales``)."""

    starts: list           # the first position of each block
    widths: list           # the size of each block
    strict: np.ndarray     # |N|_F of each block's off-diagonal part N
    near_far: np.ndarray   # |t - lam|, |t - conj lam| at each sphere, each t of T's diagonal
    c: float               # c >= |W| |W^-1|
    gram: float            # |M|_F^2, one inner product
    xs: np.ndarray         # each sphere's q = x + yI, at 0 where R_q may not be finite
    ys: np.ndarray
    r2: np.ndarray         # x^2 + y^2
    rho: np.ndarray        # |M|_F^2 + 2 |x| |M|_F + sqrt(N) r^2
    eta: np.ndarray        # the absolute widening of each singular value
    unsafe: np.ndarray     # whether R_q may not be finite


def _split_scales(m: np.ndarray, t: np.ndarray, w: np.ndarray, inverse: np.ndarray,
                  blocks: list, spheres) -> tuple[_SplitScales, np.ndarray]:
    """The scales of the split Schur form T of M, W and inverse = W^-1 that
    ``_resolvent_bounds`` reads, and from them, in the same pass, an upper
    bound on each sphere's kappa, the smallest singular value of R_q(M) as
    the full SVD route computes it (inf where R_q may not be finite).

    W T W^-1 = Td + H W^-1, Td the block diagonal of T and H = W T - Td W
    the residual of the split's ``ztrsyl`` solves and reorderings, taken as
    formed plus its rounding (N + 1) eps (|W| |T| + |Td| |W|) for M of order
    N; so T = T0 + G with T0 = W^-1 Td W and |G| <= g = |W^-1| |H|.  |W|
    and |W^-1| are bounded by Frobenius norms, the latter through the
    forward error N eps |W^-1| |W| |inverse| of ``ztrtri``.

    Each value of R_q moves by at most eta = (e + g)(2 |T| + 2 |x|) + e^2 +
    g^2 + (2N + 3) eps rho outside the factor c (``_resolvent_bounds``):
    by Weyl, through G and through the ``zgees`` backward error E, |E| <= e
    = N eps |M|_F, and by the SVD route's own rounding of R_q(M) and its
    values, rho = |M|_F^2 + 2 |x| |M|_F + sqrt(N) r^2 being at least the
    Frobenius norm of every R_q here.  A sphere with rho past max_float /
    (4N) is unsafe: its R_q may not be finite.

    The kappa bound: D = blockdiag R_q(T_kk) is upper triangular, with the
    eigenvalues (t - lam)(t - conj lam) for t on T's diagonal, and the
    smallest singular value of a matrix is at most the modulus of each of
    its eigenvalues, so sigma_min(D) is at most the least |t - lam| |t -
    conj lam| (``_distances``, which the bounds read again); times c and
    widened as in ``_resolvent_bounds``, that bounds kappa.
    """
    eps, size = np.finfo(float).eps, len(m)
    starts, widths = [p for p, _ in blocks], [stop - start for start, stop in blocks]
    block = np.repeat(np.arange(len(blocks)), widths)    # the block of each position
    td = np.where(block[:, None] == block, t, 0.0)
    xs = np.array([s.re for s in spheres])
    ys = np.array([s.im for s in spheres])
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.vdot(m, m).real
        norm_m, norm_t, norm_w, norm_inv = (math.sqrt(gram), _frobenius(t), _frobenius(w),
                                            _frobenius(inverse))
        shrink = 1.0 - size * eps * norm_w * norm_inv    # ztrtri: |W^-1| <= |inverse| / shrink
        norm_inv = norm_inv / shrink if shrink > 0 else math.inf
        abs_w = np.abs(w)
        h = _frobenius(w @ t - td @ w) + (size + 1) * eps * (
            _frobenius(abs_w @ np.abs(t)) + _frobenius(np.abs(td) @ abs_w))
        strict = np.zeros(len(blocks))    # a 1 x 1 block has no off-diagonal part
        if len(blocks) < size:
            part = np.square(np.abs(td))
            part.flat[::size + 1] = 0.0
            strict = np.sqrt(np.bincount(block, weights=part.sum(axis=1), minlength=len(blocks)))
        r2, twice_x = xs * xs + ys * ys, 2.0 * np.abs(xs)
        rho = norm_m * norm_m + norm_m * twice_x + math.sqrt(size) * r2
        unsafe = ~(rho <= np.finfo(float).max / (4 * size))
        if unsafe.any():    # computed at q = 0 and then discarded
            xs, ys, r2, twice_x, rho = (np.where(unsafe, 0.0, v) for v in (xs, ys, r2, twice_x, rho))
        e, g = size * eps * norm_m, norm_inv * h
        eta = ((e + g) * (2 * max(norm_m, norm_t) + twice_x) + e * e + g * g
               + (2 * size + 3) * eps * rho)
        c = norm_w * norm_inv
        diag = t.diagonal()
        near_far = _distances(diag.real, diag.imag, xs, ys)
        point = near_far.prod(axis=0).min(axis=1)
        ceilings = np.where(unsafe, math.inf, point * ((1 + (size + 8) * eps) * c) + eta)
    split = _SplitScales(starts, widths, strict, near_far, c, gram, xs, ys, r2, rho, eta, unsafe)
    return split, ceilings


def _resolvent_bounds(m: np.ndarray, split: _SplitScales) -> tuple[np.ndarray, ...]:
    """Bounds on the singular values of R_q(M), largest first, and on
    |R_q(A)|_F at each sphere's q = x + yI, from the split Schur form's
    ``split`` scales.

    The bounds hold for the values the full SVD route computes: the SVD of
    R_q(M) formed in floating point (``resolvent_singular_values``), and
    |R_q(A)|_F as ``_kernel_dim`` sums them.  Every LAPACK result is taken
    to carry the backward error p eps of its input's norm with p = N, the
    order of M (the LAPACK Users' Guide takes p = 1).

    - R_q(T_kk) = (T_kk - lam)(T_kk - conj lam) with lam = x + iy.  By Weyl,
      each value of the block lies within (a - n)(b - n) and (a' + n)(b' +
      n), with a, a' the least and largest |t_ll - lam| over its diagonal,
      b, b' those of |t_ll - conj lam| and n = |N|_F for its off-diagonal
      part N; a 1 x 1 block t has the one value |t - lam| |t - conj lam|
      (``_distances``).  Sorted apart, the lower and upper ends bound the
      j-th largest value d_j of D = blockdiag R_q(T_kk).  Formed from the
      entries of T, they round by at most (N + 8) eps of the upper end.  On
      its own sphere a Jordan block's interval reaches 0 from above its
      small values, so it decides nothing there: that sphere takes its full
      SVD.
    - R_q(T0) = W^-1 D W has its j-th value within a factor c = |W| |W^-1|
      of d_j (Horn & Johnson, Topics in Matrix Analysis, 1991, sec. 3.3),
      and the rounding and backward errors move each by at most eta
      (``_split_scales``).
    - |R_q(M)|_F^2 = 2 |R_q(A)|_F^2 is a quadratic in x and r^2 = x^2 + y^2
      over five inner products of M and M^2, each a sum of at most N^2
      terms; its rounding stays within 2 (N^2 + 4N + 8) eps rho^2, and the
      SVD route's sum of squares moves it by (N + 3 + N sqrt(N)) eps rho
      and (N + 8) eps of itself.

    The constants also absorb the rounding of the bounds' own arithmetic.
    An unsafe sphere, and one whose bounds do not come out finite, gets the
    bounds [0, inf], which decide nothing.
    """
    eps, size = np.finfo(float).eps, len(m)
    near_far, starts, strict, c = split.near_far, split.starts, split.strict, split.c
    xs, r2, rho, eta = split.xs, split.r2, split.rho, split.eta[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        low = np.maximum(np.minimum.reduceat(near_far, starts, axis=2) - strict, 0.0).prod(axis=0)
        high = (np.maximum.reduceat(near_far, starts, axis=2) + strict).prod(axis=0)
        ends = np.stack((low, high)).repeat(split.widths, axis=2)    # D's values, sorted apart
        ends.sort(axis=2)
        d_low, d_high = ends[..., ::-1]
        lower = np.maximum((d_low - (size + 8) * eps * d_high) / c - eta, 0.0)
        upper = d_high * ((1 + (size + 8) * eps) * c) + eta

        m2 = m @ m
        p0, p2 = np.vdot(m2, m2).real, np.vdot(m2, m).real
        f2 = p0 + 4 * xs * (xs * split.gram - p2 - r2 * m.trace().real) + r2 * (
            size * r2 + 2 * m2.trace().real)
        err = 2 * (size * size + 4 * size + 8) * eps * rho * rho
        spread = (size + 3 + size * math.sqrt(size)) * eps * rho
        sign = np.array([-1.0, 1.0])    # the lower and upper ends
        fro = np.sqrt(np.maximum(f2[:, None] + err[:, None] * sign, 0.0)) + spread[:, None] * sign
        fro = np.maximum(fro, 0.0) * [(1 - (size + 8) * eps) / math.sqrt(2),
                                      (1 + (size + 8) * eps) / math.sqrt(2)]
    bad = split.unsafe | ~np.isfinite(fro).all(axis=1)
    if bad.any():
        lower[bad], upper[bad], fro[bad] = 0.0, math.inf, (0.0, math.inf)
    return lower, upper, fro


def _frobenius(x: np.ndarray) -> float:
    """|X|_F, from one inner product."""
    return math.sqrt(np.vdot(x, x).real)


def _distances(re: np.ndarray, im: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|t - lam| and |t - conj lam|, stacked, for each point t = re + i im
    (a column) at each sphere's lam = x + iy (a row); their product is the
    singular value of R_q of a 1 x 1 block t, and of a diagonal A's entry
    with eigenvalue t."""
    return np.hypot(re - xs[:, None], im - np.array([ys, -ys])[:, :, None])


def _bounded_kernel_dims(lower: np.ndarray, upper: np.ndarray, fro: np.ndarray,
                         tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The kernel counts that the bounds on each sphere's singular values
    and |R_q(A)|_F decide at ``_kernel_dim``'s threshold tol (1 + |R_q(A)|_F),
    and which spheres they leave undecided: those where the values surely
    at most the threshold and those possibly at most it differ in number,
    or come in an odd number, or whose |R_q(A)|_F bound is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        low, high = (tol * (1.0 + fro)).T
    sure = (upper <= low[:, None]).sum(axis=1)
    maybe = (lower <= high[:, None]).sum(axis=1)
    return sure // 2, (sure != maybe) | (sure % 2 == 1) | ~np.isfinite(fro[:, 1])


def _block_spheres(diag: np.ndarray, blocks: list) -> tuple:
    """The spheres of the blocks of the eigenvalue diagonal ``diag`` (a
    Schur form's on the Schur route, the closed form's for a diagonal A),
    their multiplicities and each block's sphere.  chi(A) holds each
    sphere's eigenvalues in conjugate pairs, so a cluster of odd size
    raises."""
    starts = np.array([i for i, _ in blocks])
    widths = np.diff(np.append(starts, len(diag)))
    centres = np.add.reduceat(diag, starts) / widths
    spheres, owner = _clusters(centres.real, np.abs(centres.imag), SPHERE_MERGE_TOL)
    sizes = np.bincount(owner, weights=widths).astype(int)
    if np.any(sizes % 2):
        raise NumericalError("eigenvalue cluster broke a conjugate pair")
    return spheres, tuple(int(k) for k in sizes // 2), owner


def _checked(a: QMatrix, dec: SpectralDecomposition,
             ceilings: np.ndarray) -> SpectralDecomposition:
    """A's decomposition ``dec``, once every sphere's R_q passes the direct
    check, kappa at most 1e-6 (1 + |A|_F^2): a sphere whose kappa ceiling
    (an upper bound on kappa) is at most that passes, and the others take
    their SVDs; those with no finite ceiling take theirs first, so an R_q
    past double precision raises as on the SVD route.  The first sphere
    whose kappa fails raises, with its kappa."""
    unknown = ~(ceilings < math.inf)
    if unknown.any():
        dec._values(np.flatnonzero(unknown))
    check = 1e-6 * (1.0 + a.frobenius() ** 2)
    failed = ~(ceilings <= check)
    if failed.any():
        rows = np.flatnonzero(failed)
        kappas = dec._values(rows)[:, -1]
        for k, kappa in zip(rows.tolist(), kappas.tolist()):
            if kappa > check:
                s = dec.spheres[k]
                raise NumericalError(f"eigen-sphere ({s.re}, {s.im}) failed the direct "
                                     f"residual check: kappa = {kappa:.3e}")
    return dec


def _diagonal_decomposition(a: QMatrix, m: np.ndarray) -> SpectralDecomposition:
    """The decomposition of a nonempty diagonal A, m = chi(A), in closed form.

    Entry g = w + x i + b j, |Im g| = s, puts the eigenvalues w + i s and
    w - i s on chi(A).  They are ordered so that each group of linked ones
    is contiguous, one block each, as ``_split_schur`` finds them; no Schur
    form is built, so ``z``, ``w``, ``inverse`` and ``fro`` are None.  R_q(A) is
    diagonal with entries of modulus |g - lam| |g - conj lam| (lam = x' +
    s' I_g at the sphere (x', s')), so those are its singular values, twice
    each in chi(A): the 1 x 1 blocks of the Schur route's bounds
    (``_distances``) with c = 1 and no rounding to widen by, so its
    bounds are these exact values.  ``entries`` records the entry behind each position, so that
    the sphere owning it gives the entry's coordinate projection.  Errors
    are those of the Schur route: a non-finite entry, and an R_q past
    double precision, raise its messages.
    """
    if not np.isfinite(m).all():
        raise NumericalError(NOT_FINITE)
    n, g1, g2 = a.rows, a.c1.diagonal(), a.c2.diagonal()
    re, s = g1.real, np.hypot(g1.imag, np.abs(g2))
    diag = np.concatenate([re + 1j * s, re - 1j * s])
    seed = linked_components(diag.real, diag.imag, SPHERE_MERGE_TOL)
    order = np.argsort(seed, kind="stable")
    seed, diag = seed[order], diag[order]
    starts = np.flatnonzero(np.diff(seed, prepend=-1)).tolist()
    blocks = list(zip(starts, starts[1:] + [len(diag)]))
    spheres, mult, owner = _block_spheres(diag, blocks)
    xs = np.array([sp.re for sp in spheres])
    ys = np.array([sp.im for sp in spheres])
    _check_resolvent_finite(g1, g2, xs, ys)
    near, far = _distances(re, s, xs, ys)
    values = -np.sort(-np.repeat(near * far, 2, axis=1), axis=1)
    dec = SpectralDecomposition(spheres, mult, m, None, None, None, None, tuple(blocks),
                                tuple(owner.tolist()), order % n, values)
    return _checked(a, dec, values[:, -1])


def _check_resolvent_finite(g1: np.ndarray, g2: np.ndarray, xs: np.ndarray,
                            ys: np.ndarray) -> None:
    """Raise as ``resolvent_singular_values`` does where chi of some R_q(A)
    = A^2 - 2x A + (x^2 + y^2) I of a diagonal A at the points (xs, ys) has
    an entry past double precision: the nonzero ones are those of its 2 x 2
    blocks, and a non-finite 2x or x^2 + y^2 spoils its zeros."""
    with np.errstate(over="ignore", invalid="ignore"):
        twice_x, r2 = 2.0 * xs[:, None], (xs * xs + ys * ys)[:, None]
        entries = [twice_x, r2, g1 * g1 - g2 * np.conj(g2) - twice_x * g1 + r2,
                   g1 * g2 + g2 * np.conj(g1) - twice_x * g2]
    if not all(np.isfinite(e).all() for e in entries):
        raise NumericalError(RESOLVENT_OVERFLOW)


def _split_schur(t: np.ndarray, z: np.ndarray) -> tuple[list, np.ndarray]:
    """Split a Schur form, in place, by adaptive blocking (Bavely & Stewart,
    SIAM J. Numer. Anal. 16 (1979)).

    Eigenvalues linked at SPHERE_MERGE_TOL seed the blocks.  The block atop
    the unsplit rest starts as the seed of its first eigenvalue, which
    ``ztrsen`` gathers there, and one ``ztrsyl`` solve of T_kk Y - Y T_rest
    = T_k,rest splits it off.  While |Y|_2 >= GROWTH_LIMIT, the seed of the
    remaining eigenvalue nearest its centre joins it and is gathered too;
    each gather rotates ``z`` and the rows of W above with the rest.
    """
    n = len(t)
    seed = linked_components(t.diagonal().real, t.diagonal().imag, SPHERE_MERGE_TOL).tolist()
    w = np.eye(n, dtype=np.complex128)
    blocks, p = [], 0
    while p < n:
        member = {seed[p]}    # the seed labels of the block
        while True:
            chosen = [label in member for label in seed[p:]]
            stop = p + sum(chosen)
            if not all(chosen[:stop - p]):
                _gather(t, z, w, seed, p, chosen)
            if stop == n:
                break
            y, scale, info = _lapack().ztrsyl(t[p:stop, p:stop], t[stop:, stop:],
                                              t[p:stop, stop:], isgn=-1)
            if info == 0 and scale > 0.0:
                y = y / scale
                # the Frobenius norm bounds |Y|_2 and spares most SVDs
                fro = np.linalg.norm(y)
                if fro < GROWTH_LIMIT or np.isfinite(fro) and np.linalg.norm(y, 2) < GROWTH_LIMIT:
                    w[p:stop, stop:] = y
                    break
            centre = np.trace(t[p:stop, p:stop]) / (stop - p)
            member.add(seed[stop + int(np.argmin(np.abs(t.diagonal()[stop:] - centre)))])
        blocks.append((p, stop))
        p = stop
    return blocks, w


def _gather(t: np.ndarray, z: np.ndarray, w: np.ndarray, seed: list, p: int,
            chosen: list) -> None:
    """Move the eigenvalues ``chosen`` among positions p.. to the top of
    them with ``ztrsen``, updating t, z, the rows of W above p and the seed
    labels in place."""
    ts, q, *_, info = _lapack().ztrsen(chosen, t[p:, p:], np.eye(len(t) - p), job="N")
    if info:
        raise NumericalError("Schur reordering failed on close eigenvalues")
    t[p:, p:], t[:p, p:] = ts, t[:p, p:] @ q
    z[:, p:], w[:p, p:] = z[:, p:] @ q, w[:p, p:] @ q
    rest = seed[p:]
    seed[p:] = ([label for label, c in zip(rest, chosen) if c]
                + [label for label, c in zip(rest, chosen) if not c])


def right_eigenspheres(a: QMatrix) -> tuple[EigenSphere, ...]:
    """Eigen-spheres of A phi = phi q, sorted by (re, im): see
    ``spectral_decomposition``."""
    return spectral_decomposition(a).spheres


# -- orthonormal bases ---------------------------------------------------


def orthonormalize(cols: QMatrix, drop_tol: float = 1e-10) -> QMatrix:
    """Orthonormal right basis of the span of the columns, in column order,
    as the columns of a new matrix.

    Classical Gram-Schmidt applied twice, in the complex image: each kept
    vector phi holds two columns of one complex block, embed(phi) and
    embed(phi j), whose complex span is exactly the image of the right span
    phi H.  A new vector leaves the whole block in two passes
    w <- w - Q (Q^H w), which keep the loss of orthogonality near machine
    precision (Giraud, Langou & Rozloznik 2005).  A vector whose residual
    is at most drop_tol times its own norm is dropped, zero vectors are
    skipped, so the result has full numerical rank.
    """
    n, k = cols.shape
    # the embeddings as rows; q holds the kept columns, qh = q^H
    rows = np.concatenate([cols.c1.T, -np.conj(cols.c2).T], axis=1)
    q = np.empty((2 * n, 2 * k), dtype=np.complex128)
    qh = np.empty((2 * k, 2 * n), dtype=np.complex128)
    used = 0  # columns of q in use, two per kept vector
    for w, original in zip(rows, np.linalg.norm(rows, axis=1).tolist()):
        if original == 0.0:
            continue
        if used:
            for _ in range(2):
                w = w - q[:, :used] @ (qh[:used] @ w)
        r = float(np.linalg.norm(w))
        if r > drop_tol * original:
            w = w / r
            q[:, used] = w
            q[:n, used + 1] = np.conj(w[n:])
            q[n:, used + 1] = -np.conj(w[:n])
            qh[used:used + 2] = q[:, used:used + 2].T.conj()
            used += 2
    kept = q[:, :used:2]
    return QMatrix(kept[:n], -np.conj(kept[n:]))


class SubspaceBasis:
    """Orthonormal right basis of a subspace of H^n: the columns of an
    (n, dim) matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: QMatrix):
        gram = matrix.adjoint() @ matrix - QMatrix.identity(matrix.cols)
        gram_err = float(np.max(np.sqrt(np.abs(gram.c1) ** 2 + np.abs(gram.c2) ** 2),
                                initial=0.0))
        if gram_err > 1e-8:
            raise ValueError(f"basis is not orthonormal, Gram error {gram_err:.3e}")
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    def __reduce__(self):
        return (SubspaceBasis, (self.matrix,))

    @property
    def space_dim(self) -> int:
        return self.matrix.rows

    @property
    def dim(self) -> int:
        return self.matrix.cols

    def __len__(self) -> int:
        return self.matrix.cols

    def projection(self) -> QMatrix:
        """Orthogonal projection onto the span."""
        return self.matrix @ self.matrix.adjoint()

    def __repr__(self) -> str:
        return f"SubspaceBasis(space_dim={self.space_dim}, dim={self.dim})"


def inverse_matrix(a: QMatrix) -> QMatrix:
    """Inverse through the complex adjoint; raises on near-singular input."""
    if a.rows != a.cols:
        raise ShapeError("only square matrices invert")
    if a.rows == 0:
        return a
    if min_singular(a) <= 1e-12 * (1.0 + a.frobenius()):
        raise NumericalError("matrix is numerically singular")
    inv = np.linalg.inv(complex_adjoint(a))
    return QMatrix(inv[:a.rows, :a.rows], inv[:a.rows, a.rows:])
