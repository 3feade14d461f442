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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError
from .quat import (SPHERE_MERGE_TOL, EigenSphere, Quaternion, cluster_spheres,
                   linked_components)


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

    def entries(self) -> list[Quaternion]:
        return [self.entry(k) for k in range(self.n)]

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

    def left_mul(self, q: Quaternion) -> "QVector":
        """Entrywise left multiplication q * phi_k (basis dependent, used
        for scalar series coefficients acting on vector values)."""
        a, b = _split(q)
        return QVector(a * self.c1 - b * np.conj(self.c2),
                       a * self.c2 + b * np.conj(self.c1))

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

    @staticmethod
    def from_embedding(w: np.ndarray) -> "QVector":
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        if w.shape[0] % 2:
            raise ShapeError("embedded vector length must be even")
        n = w.shape[0] // 2
        return QVector(w[:n], -np.conj(w[n:]))

    def __repr__(self) -> str:
        return f"QVector(n={self.n})"


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

    __slots__ = ("c1", "c2")

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
        return math.sqrt(float(np.sum(np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2)))

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


def hstack(mats: list[QMatrix]) -> QMatrix:
    return QMatrix(np.hstack([m.c1 for m in mats]), np.hstack([m.c2 for m in mats]))


def vstack(mats: list[QMatrix]) -> QMatrix:
    return QMatrix(np.vstack([m.c1 for m in mats]), np.vstack([m.c2 for m in mats]))


def columns_matrix(vectors) -> QMatrix:
    vectors = list(vectors)
    if not vectors:
        raise ShapeError("need at least one column")
    c1 = np.stack([v.c1 for v in vectors], axis=1)
    c2 = np.stack([v.c2 for v in vectors], axis=1)
    return QMatrix(c1, c2)


# -- complex adjoint ----------------------------------------------------


@dataclass(frozen=True)
class ComplexAdjointMatrix:
    """2n x 2m complex image of a quaternionic matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
            raise ShapeError("complex adjoint must have even dimensions")
        object.__setattr__(self, "mat", m)

    def to_qmatrix(self) -> QMatrix:
        n = self.mat.shape[0] // 2
        m = self.mat.shape[1] // 2
        return QMatrix(self.mat[:n, :m], self.mat[:n, m:])

    def structure_residual(self) -> float:
        """How far the matrix is from the chi image set.

        chi images are the fixed points of M -> J conj(M) J^{-1} with
        J = [[0, I], [-I, 0]].
        """
        return float(np.linalg.norm(self.mat - _j_conj(self.mat)))


def _j_conj(m: np.ndarray) -> np.ndarray:
    n = m.shape[0] // 2
    k = m.shape[1] // 2
    a = m[:n, :k]
    b = m[:n, k:]
    c = m[n:, :k]
    d = m[n:, k:]
    return np.block([[np.conj(d), -np.conj(c)], [-np.conj(b), np.conj(a)]])


def complex_adjoint(a: QMatrix) -> ComplexAdjointMatrix:
    return ComplexAdjointMatrix(_chi(a))


def _chi(a: QMatrix) -> np.ndarray:
    n, m = a.shape
    out = np.empty((2 * n, 2 * m), dtype=np.complex128)
    out[:n, :m], out[:n, m:] = a.c1, a.c2
    out[n:, :m], out[n:, m:] = -np.conj(a.c2), np.conj(a.c1)
    return out


# -- norms, kernels, eigen-spheres --------------------------------------


def _singular_values(a: QMatrix) -> np.ndarray:
    # When the j-part vanishes chi is block diagonal with conjugate blocks,
    # so the singular values of the C_i block appear twice; one block is
    # enough. Real blocks take the cheaper real SVD path.
    if a.is_complex_slice:
        block = a.c1
        if not np.any(block.imag):
            block = block.real
        return np.linalg.svd(block, compute_uv=False)
    return np.linalg.svd(_chi(a), compute_uv=False)


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


def nullity(a: QMatrix, tol: float = 1e-10, s: np.ndarray | None = None) -> int:
    """len(kernel_basis(a, tol)) counted from ``s = _singular_values(a)``.

    C_i-block values count once, chi values in pairs; an odd count of
    small chi values is the failure of a wrong-sized kernel pullback.
    """
    if s is None:
        s = _singular_values(a)
    rank = int(np.sum(s > tol * (1.0 + a.frobenius())))
    if a.is_complex_slice:
        return a.cols - rank
    null = 2 * a.cols - rank
    if null % 2:
        raise NumericalError(f"chi(A) has an odd null space dimension {null}")
    return null // 2


def kernel_basis(a: QMatrix, tol: float = 1e-10) -> list[QVector]:
    """Right orthonormal basis of ker A at relative tolerance tol * (1 + |A|_F).

    The complex null space of chi(A) is closed under the quaternionic
    structure map, so it pulls back to exactly half as many right
    independent quaternionic vectors.
    """
    if a.cols == 0:
        return []
    if a.rows == 0:
        return [QVector.basis(a.cols, k) for k in range(a.cols)]
    _, s, vh = np.linalg.svd(_chi(a), full_matrices=True)
    rank = int(np.sum(s > tol * (1.0 + a.frobenius())))
    candidates = [QVector.from_embedding(np.conj(w)) for w in vh[rank:]]
    basis = orthonormalize(candidates, drop_tol=1e-6)
    expected = (vh.shape[0] - rank) // 2
    if len(basis) != expected:
        raise NumericalError(
            f"kernel pullback produced {len(basis)} vectors, expected {expected}")
    return basis


def pseudo_resolvent(a: QMatrix, q: Quaternion) -> QMatrix:
    """R_q(A) = A^2 - 2 Re(q) A + |q|^2 I."""
    if a.rows != a.cols:
        raise ShapeError("pseudo-resolvent needs a square matrix")
    return (a @ a) - a.scale(2.0 * q.w) + QMatrix.identity(a.rows).scale(q.norm_sq())


#: a Schur block keeps growing while splitting it off needs a Sylvester
#: solution Y with |Y|_2 at least this
GROWTH_LIMIT = 1e6


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """One complex Schur form T = Z^H M Z, split into blocks, and the spheres
    they make; M is chi(A), or its C_i block when A is a complex-slice
    matrix (``half``).  Block k spans ``blocks[k]`` of the diagonal and
    belongs to sphere ``owner[k]``; W is unit upper triangular, its block
    row k past the block the Y with T_kk Y - Y T_rest = T_k,rest, so
    W T W^-1 = diag(T_kk).  Sphere i keeps its multiplicity, R_q(A) at its
    representative and that matrix's one SVD."""

    spheres: tuple[EigenSphere, ...]
    multiplicities: tuple[int, ...]
    resolvents: tuple[QMatrix, ...]
    singular_values: tuple[np.ndarray, ...]
    half: bool
    t: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    blocks: tuple[tuple[int, int], ...]
    owner: tuple[int, ...]

    def projectors(self) -> list[np.ndarray]:
        """Each sphere's spectral projector of M: Z W^-1[:, S] W[S, :] Z^H
        over the sphere's diagonal positions S."""
        import scipy.linalg
        x = scipy.linalg.solve_triangular(self.w, np.eye(len(self.w)), unit_diagonal=True)
        owner = np.repeat(self.owner, [stop - start for start, stop in self.blocks])
        return [(self.z @ x[:, owner == i]) @ (self.w[owner == i] @ self.z.conj().T)
                for i in range(len(self.spheres))]


def spectral_decomposition(a: QMatrix) -> SpectralDecomposition:
    """Eigen-spheres of A phi = phi q and their multiplicities, from one Schur form.

    A block's centre mu = trace/size is accurate to O(eps) even when a
    size-k Jordan block spreads its eigenvalues by eps^(1/k) (Moro, Burke
    & Overton, SIAM J. Matrix Anal. Appl. 18 (1997)).  Blocks map to the
    spheres (Re mu, |Im mu|), merged once at SPHERE_MERGE_TOL; chi(A)
    counts each sphere twice.  Every sphere passes a direct check: R_q(A)
    at its representative is numerically singular.
    """
    if a.rows != a.cols:
        raise ShapeError("eigen-spheres need a square matrix")
    half, n = a.is_complex_slice, a.rows
    if n == 0:
        return SpectralDecomposition((), (), (), (), half, *[np.eye(0)] * 3, (), ())
    # imported here: scipy costs a command that never gets here tens of
    # megabytes and a few tenths of a second
    import scipy.linalg
    try:
        t, z = scipy.linalg.schur(a.c1 if half else _chi(a), output="complex")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Schur iteration failed: {exc}") from exc
    blocks, w = _split_schur(t, z)
    starts = np.array([i for i, _ in blocks])
    widths = np.diff(np.append(starts, len(t)))
    centres = np.add.reduceat(t.diagonal(), starts) / widths
    spheres, owner = cluster_spheres([EigenSphere(c.real, abs(c.imag)) for c in centres])
    sizes = np.bincount(owner, weights=widths).astype(int)
    if not half and np.any(sizes % 2):
        raise NumericalError("eigenvalue cluster broke a conjugate pair")
    mult = tuple(int(m) for m in (sizes if half else sizes // 2))
    resolvents = [pseudo_resolvent(a, Quaternion(s.re, s.im, 0.0, 0.0)) for s in spheres]
    values = [_singular_values(r) for r in resolvents]
    check = 1e-6 * (1.0 + a.frobenius() ** 2)
    for s, sv in zip(spheres, values):
        if sv[-1] > check:
            raise NumericalError(f"eigen-sphere ({s.re}, {s.im}) failed the direct "
                                 f"residual check: kappa = {sv[-1]:.3e}")
    return SpectralDecomposition(spheres, mult, tuple(resolvents), tuple(values), half,
                                 t, z, w, tuple(blocks), tuple(owner.tolist()))


def _split_schur(t: np.ndarray, z: np.ndarray) -> tuple[list, np.ndarray]:
    """Split a Schur form, in place, by adaptive blocking (Bavely & Stewart,
    SIAM J. Numer. Anal. 16 (1979)).

    Eigenvalues linked at SPHERE_MERGE_TOL seed the blocks.  The block atop
    the unsplit rest starts as the seed of its first eigenvalue; while
    splitting it off needs |Y|_2 >= GROWTH_LIMIT, the seed of the remaining
    eigenvalue nearest its centre joins it.  ``ztrsen`` gathers a block,
    and its rotation of the rest also updates ``z`` and the rows of W above.
    A lone eigenvalue's Y is its left eigenvector past the diagonal, so one
    back substitution splits off all of them until the next reordering.
    """
    from scipy.linalg import lapack
    n = len(t)
    seed = linked_components(t.diagonal().real, t.diagonal().imag, SPHERE_MERGE_TOL)
    blocks: list[tuple[int, int]] = []
    w = np.eye(n, dtype=np.complex128)
    left, base = None, 0
    p = 0
    while p < n:
        if left is None:
            (left, y_norms), base = _left_eigenvectors(t[p:, p:]), p
            lone = (y_norms < GROWTH_LIMIT) & (np.bincount(seed[p:])[seed[p:]] == 1)
        if lone[p - base]:
            w[p, p + 1:] = left[p - base, p - base + 1:]
            blocks.append((p, p + 1))
            p += 1
            continue
        member = np.zeros(n, dtype=bool)    # indexed by seed label
        member[seed[p]] = True
        while True:
            chosen = member[seed[p:]]
            stop = p + int(np.count_nonzero(chosen))
            if not chosen[:stop - p].all():
                ts, q, *_, info = lapack.ztrsen(chosen, t[p:, p:], np.eye(n - p), job="N")
                if info:
                    raise NumericalError("Schur reordering failed on close eigenvalues")
                t[p:, p:], t[:p, p:] = ts, t[:p, p:] @ q
                z[:, p:], w[:p, p:] = z[:, p:] @ q, w[:p, p:] @ q
                seed[p:] = np.concatenate([seed[p:][chosen], seed[p:][~chosen]])
                left = None
            if stop == n:
                break
            y, scale, info = lapack.ztrsyl(t[p:stop, p:stop], t[stop:, stop:],
                                           t[p:stop, stop:], isgn=-1)
            if info == 0 and scale > 0.0:
                y = y / scale
                # the Frobenius norm bounds |Y|_2 and spares most SVDs
                fro = np.linalg.norm(y)
                if fro < GROWTH_LIMIT or (np.isfinite(fro)
                                          and np.linalg.norm(y, 2) < GROWTH_LIMIT):
                    w[p:stop, stop:] = y
                    break
            centre = np.trace(t[p:stop, p:stop]) / (stop - p)
            member[seed[stop + int(np.argmin(np.abs(t.diagonal()[stop:] - centre)))]] = True
        blocks.append((p, stop))
        p = stop
    return blocks, w


def _left_eigenvectors(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit upper triangular L with L T = diag(T) L, and the norm of each
    row past the diagonal, the Y with t_pp Y - Y T_rest = T_p,rest.  Rows
    are independent: one a close eigenvalue makes infinite spoils no other."""
    d = t.diagonal()
    lev = np.eye(len(d), dtype=np.complex128)
    with np.errstate(all="ignore"):
        for j in range(1, len(d)):
            lev[:j, j] = (lev[:j, :j] @ t[:j, j]) / (d[:j] - d[j])
        return lev, np.linalg.norm(np.triu(lev, 1), axis=1)


def right_eigenspheres(a: QMatrix) -> tuple[EigenSphere, ...]:
    """Eigen-spheres of A phi = phi q, sorted by (re, im): see
    ``spectral_decomposition``."""
    return spectral_decomposition(a).spheres


# -- orthonormal bases ---------------------------------------------------


def orthonormalize(vectors, drop_tol: float = 1e-10) -> list[QVector]:
    """Modified Gram-Schmidt over right quaternion scalars.

    Vectors whose residual drops below drop_tol times their original norm
    are discarded, so the result has full numerical rank.  Two projection
    passes keep the loss of orthogonality near machine precision.
    """
    basis: list[QVector] = []
    for v in vectors:
        original = v.norm()
        if original == 0.0:
            continue
        w = v
        for _ in range(2):
            for b in basis:
                w = w - b.times(inner(b, w))
        r = w.norm()
        if r > drop_tol * original:
            basis.append(w.scale(1.0 / r))
    return basis


class SubspaceBasis:
    """Orthonormal right basis of a subspace of H^n."""

    __slots__ = ("space_dim", "vectors")

    def __init__(self, space_dim: int, vectors=()):
        vectors = tuple(vectors)
        for v in vectors:
            if v.n != space_dim:
                raise ShapeError("basis vector length differs from the ambient dimension")
        if vectors:
            y = columns_matrix(vectors)
            gram = y.adjoint() @ y - QMatrix.identity(len(vectors))
            gram_err = float(np.max(np.sqrt(np.abs(gram.c1) ** 2 + np.abs(gram.c2) ** 2)))
            if gram_err > 1e-8:
                raise ValueError(f"basis is not orthonormal, Gram error {gram_err:.3e}")
        object.__setattr__(self, "space_dim", space_dim)
        object.__setattr__(self, "vectors", vectors)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    @staticmethod
    def from_span(space_dim: int, vectors, drop_tol: float = 1e-10) -> "SubspaceBasis":
        return SubspaceBasis(space_dim, orthonormalize(vectors, drop_tol))

    def as_matrix(self) -> QMatrix:
        if not self.vectors:
            return QMatrix.zeros(self.space_dim, 0)
        return columns_matrix(self.vectors)

    def projection(self) -> QMatrix:
        """Orthogonal projection onto the span."""
        if not self.vectors:
            return QMatrix.zeros(self.space_dim, self.space_dim)
        m = self.as_matrix()
        return m @ m.adjoint()

    def contains(self, v: QVector, tol: float = 1e-8) -> bool:
        r = v - self.projection().apply(v)
        return r.norm() <= tol * (1.0 + v.norm())

    def __repr__(self) -> str:
        return f"SubspaceBasis(space_dim={self.space_dim}, dim={self.dim})"


def inverse_matrix(a: QMatrix, tol: float = 1e-12) -> QMatrix:
    """Inverse through the complex adjoint; raises on near-singular input."""
    if a.rows != a.cols:
        raise ShapeError("only square matrices invert")
    if a.rows == 0:
        return a
    m = _chi(a)
    if min_singular(a) <= tol * (1.0 + a.frobenius()):
        raise NumericalError("matrix is numerically singular")
    inv = np.linalg.inv(m)
    return ComplexAdjointMatrix(inv).to_qmatrix()
