"""Local S-spectra, spectral subspaces, and decomposability diagnostics.

For a finite matrix the complex adjoint splits into invariant subspaces,
one per eigen-sphere.  ``qlinalg.spectral_decomposition`` takes one Schur
form of chi(A) and splits it into well-separated blocks; the spectral
projection of each sphere comes from that same form, block-diagonalized
by the Sylvester solutions the split already found, and stays factored as
V_i U_i, the Schur factors' columns and rows of its positions (a diagonal
A's are coordinate projections); the factors are the projections' only
form, and every read takes the J-symmetrized projector, the chi image of a
quaternionic matrix.  The local S-spectrum of phi is then the set of
spheres whose projection sees phi, read off the factors, drawn from the
very sphere objects the spectrum reports.  The local subspace of a sphere
set F is the range of its projection P_F, one product V_F U_F of the
factors, and the global subspace the kernel of the complementary P_{F^c}.  The diagonal
multiplication operator and the eigenvector law are the two oracles that
certify this realization.

Shifts have no such decomposition.  Their R_q are Toeplitz operators,
whose exact lower bounds ``spectral.shift_kappa_limit`` gives in closed
form; read on both sides of the adjoint duality, they exhibit a sphere
inside sigma_suS but outside sigma_apS, or the reverse, and thereby
refute decomposability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PoleError, ShapeError
from .operators import MultiplicationOperator, ShiftOperator
from .qlinalg import (QMatrix, QVector, SpectralDecomposition, SubspaceBasis, kernel_basis,
                      min_singular, op_norm, orthonormalize, pseudo_resolvent,
                      spectral_decomposition)
from .quat import EigenSphere, Quaternion, sphere_in, sphere_subset, sphere_union
from . import spectral

#: default membership threshold |P phi| > tol * |phi|
MEMBER_TOL = 1e-8


def spectral_projections(a: QMatrix) -> SpectralDecomposition:
    """A's ``spectral_decomposition``, with its spectral projections
    validated: one per eigen-sphere, with ``conditions`` and ``certified``
    (see ``SpectralDecomposition``).

    The projections are validated once per matrix, on their first read,
    and kept factored on the decomposition; a failed validation raises
    here, and again on the next call.
    """
    if a.rows != a.cols:
        raise ShapeError("spectral projections need a square matrix")
    dec = spectral_decomposition(a)
    dec.conditions    # validates the projections, or raises
    return dec


# -- local spectra -----------------------------------------------------------


def local_spectrum(a: QMatrix, phi: QVector, tol: float = MEMBER_TOL) -> tuple[EigenSphere, ...]:
    """Spheres whose spectral projection sees phi.

    Empty exactly for phi = 0; its spheres are the decomposition's, the
    same objects ``s_spectrum`` and ``classify`` report, so it lies in
    sigma_S(A) exactly.  For a right eigenvector A phi = phi q this is the
    single sphere [q].  The projections are A's ``spectral_projections``,
    validated once per matrix, so the local spectra of many vectors share
    them.
    """
    if a.rows != a.cols or a.rows != phi.n:
        raise ShapeError("dimension mismatch between matrix and vector")
    norm = phi.norm()
    if norm == 0.0:
        return ()
    proj = spectral_projections(a)
    return tuple(s for s, seen in zip(proj.spheres, _applied_norms(proj, phi))
                 if seen > tol * norm)


def _applied_norms(dec: SpectralDecomposition, phi: QVector) -> np.ndarray:
    """|P_i phi| for each sphere i, the norm of the J-symmetrized projector
    applied to x = embed(phi): (P_i x + J conj(P_i J^-1 conj x)) / 2, from
    the products of the factors V_i U_i with x and with J^-1 conj x, for all
    spheres in one product."""
    v, u, owner = dec.projection_factors
    n = len(v) // 2
    # rows x = [phi1; -conj(phi2)] and J^-1 conj(x) = [phi2; conj(phi1)]
    x = np.concatenate([phi.c1, -np.conj(phi.c2), phi.c2, np.conj(phi.c1)]).reshape(2, 2 * n)
    # p[k, i] = the rows of U x_k that are sphere i's, through V
    p = ((x @ u.T)[:, None, :] * (owner == np.arange(len(dec.spheres))[:, None])) @ v.T
    sym = np.concatenate([p[0, :, :n] + np.conj(p[1, :, n:]), p[0, :, n:] - np.conj(p[1, :, :n])],
                         axis=1)
    return 0.5 * np.linalg.norm(sym, axis=1)


def local_resolvent_diag(op: MultiplicationOperator, f: QVector, q: Quaternion) -> QVector:
    """Solve R_q(M_g) h = f pointwise for a diagonal multiplier.

    Entrywise h(x) = (g(x)^2 - 2 Re(q) g(x) + |q|^2)^{-1} f(x); the
    inverse acts on the left because the diagonal matrix acts on the
    left.  On common slices |h(x)| = |f(x)| / (|g(x) - q| |g(x) - conj q|).
    Entries where the divisor degenerates (to 1e-10 of its scale) under a
    nonzero f(x) put [q] on the local spectrum of f, a pole.
    """
    if op.dim != f.n:
        raise ShapeError("vector length must match the point set")
    out = []
    for k, g in enumerate(op.values):
        d = g * g - 2.0 * q.w * g + Quaternion(q.norm_sq())
        fk = f.entry(k)
        if abs(d) <= 1e-10 * (1.0 + abs(g) ** 2 + q.norm_sq()):
            if abs(fk) > 1e-10 * (1.0 + f.norm()):
                raise PoleError(
                    f"q sits on the sphere of g at point {op.labels[k]!r}")
            out.append(Quaternion())
        else:
            out.append(d.inverse() * fk)
    return QVector.from_quaternions(out)


def local_subspace(a: QMatrix, spheres) -> SubspaceBasis:
    """Orthonormal basis of span{ ran P_k : sphere_k in F }, the range of
    the sphere set's projection P_F (``_set_projection``).

    A sphere of F selects the spectral sphere it matches at
    SPHERE_MERGE_TOL, the radius the spheres were merged at; spheres
    outside sigma_S(A) contribute nothing, so the result equals the
    subspace for F intersected with the spectrum.
    """
    if a.rows != a.cols:
        raise ShapeError("local subspaces need a square matrix")
    proj = spectral_projections(a)
    targets = tuple(spheres)
    chosen = np.array([sphere_in(s, targets) for s in proj.spheres], dtype=bool)
    expected = sum(m for m, c in zip(proj.multiplicities, chosen) if c)
    basis = orthonormalize(_set_projection(proj, chosen), drop_tol=1e-6)
    if basis.cols != expected:
        raise NumericalError(
            f"local subspace rank {basis.cols} disagrees with the cluster "
            f"multiplicity {expected}")
    return SubspaceBasis(basis)


def global_subspace(a: QMatrix, spheres) -> SubspaceBasis:
    """Vectors whose local spectrum stays inside F.

    Realized as the kernel, at MEMBER_TOL, of the projection P_{F^c} of the
    complementary spheres, which is their projections' joint kernel since
    P_j P_{F^c} = P_j for each of them: an SVD kernel, a different numerical
    route from local_subspace's range.  Finite matrices carry the single
    valued extension property, so the two spans agree and tests compare them.
    """
    if a.rows != a.cols:
        raise ShapeError("global subspaces need a square matrix")
    proj = spectral_projections(a)
    targets = tuple(spheres)
    outside = np.array([not sphere_in(s, targets) for s in proj.spheres], dtype=bool)
    if not outside.any():
        return SubspaceBasis(QMatrix.identity(a.rows))
    return SubspaceBasis(kernel_basis(_set_projection(proj, outside), tol=MEMBER_TOL))


def _set_projection(dec: SpectralDecomposition, chosen: np.ndarray) -> QMatrix:
    """P_F, the sum of the projections of the ``chosen`` spheres, as one
    product V_F U_F of the projection factors (the columns of V and rows of
    U that belong to a chosen sphere), J-symmetrized: the quaternionic
    matrix [(P11 + conj P22) / 2, (P12 - conj P21) / 2]."""
    v, u, owner = dec.projection_factors
    n = len(v) // 2
    cols = chosen[owner]
    p = v[:, cols] @ u[cols]
    return QMatrix(0.5 * (p[:n, :n] + np.conj(p[n:, n:])), 0.5 * (p[:n, n:] - np.conj(p[n:, :n])))


# -- SVEP and decomposability -------------------------------------------------


@dataclass(frozen=True)
class SvepStatus:
    """Single valued extension property verdict with its justification."""

    has_svep: bool
    reason: str


def svep_status(op) -> SvepStatus:
    if isinstance(op, QMatrix) or getattr(op, "dim", None) is not None:
        return SvepStatus(
            True,
            "a finite matrix has finitely many eigen-spheres, and a finite "
            "union of spheres has empty interior, so local resolvents extend "
            "uniquely")
    if isinstance(op, ShiftOperator):
        if op.side == "left":
            return SvepStatus(
                False,
                "the left shift is surjective but not injective; a surjective "
                "operator with the single valued extension property would be "
                "invertible")
        return SvepStatus(
            True,
            "on each complex component R_q(S) = (S - lam)(S - conj lam), and "
            "S - lam is injective for every lam, so sigma_pS is empty and "
            "local resolvents extend uniquely")
    raise TypeError(f"no SVEP route for {type(op).__name__}")


@dataclass(frozen=True)
class DecomposabilityVerdict:
    status: str  # "PASS" or "FAIL"
    witness: EigenSphere | None
    detail: str

    def __bool__(self) -> bool:
        return self.status == "PASS"


def decomposability_necessary(op) -> DecomposabilityVerdict:
    """Necessary condition: a decomposable operator has
    sigma_S = sigma_apS = sigma_suS = union of all local spectra.

    FAIL therefore proves the operator is not decomposable; PASS is only
    consistent with decomposability, never a proof of it.  Matrices are
    checked exactly through their decomposition and projections, always
    at MEMBER_TOL: sigma_apS is the spheres whose smallest singular value
    of R_q is within ``spectral.membership_threshold`` at MEMBER_TOL, as
    ``classify`` flags them, and the local union the spheres whose
    projection has a column above MEMBER_TOL; shifts through the exact
    lower bounds of R_q on both sides of the adjoint duality
    (``spectral.shift_kappa_limit``), with no finite section.
    """
    if isinstance(op, QMatrix):
        return _matrix_decomposability(op)
    if getattr(op, "dim", None) is not None:
        return _matrix_decomposability(op.finite_section(op.dim))
    if isinstance(op, ShiftOperator):
        return _shift_decomposability(op)
    raise TypeError(f"no decomposability route for {type(op).__name__}")


def _matrix_decomposability(a: QMatrix) -> DecomposabilityVerdict:
    if a.rows != a.cols:
        raise ShapeError("classification needs a square matrix")
    proj = spectral_projections(a)
    thresh = spectral.membership_threshold(a, MEMBER_TOL)
    approximate = tuple(s for s, seen in zip(proj.spheres, proj.kappa_at_most(thresh)) if seen)
    # s lies in the local spectrum of some basis vector e_k exactly when
    # |P_s e_k|, the norm of column k of P_s, exceeds MEMBER_TOL
    tops = _largest_columns(*proj.projection_factors, len(proj.spheres), a.rows)
    local_union = tuple(s for s, top in zip(proj.spheres, tops) if top > MEMBER_TOL)
    # sigma_suS is sigma_apS here, read off the same singular values; both
    # sets are subsequences of the one tuple of spheres, so they compare
    # as tuples
    for name, other in (("sigma_apS", approximate), ("local union", local_union)):
        if other != proj.spheres:
            witness = next(s for s in proj.spheres if s not in other)
            return DecomposabilityVerdict(
                "FAIL", witness,
                f"sigma_S and {name} differ at sphere ({witness.re}, {witness.im}); "
                "the operator is not decomposable")
    return DecomposabilityVerdict(
        "PASS", None,
        "necessary condition holds: all four sphere sets coincide; this is "
        "consistent with decomposability, not a proof of it")


def _largest_columns(v: np.ndarray, u: np.ndarray, owner: np.ndarray, count: int,
                     n: int) -> list[float]:
    """The largest column norm of each n x n quaternionic projection, the
    J-symmetrized V_i U_i (sphere i's columns of V times the same rows of
    U), from the factors, for all spheres at once.

    Column k < n of (P + J conj(P) J^-1) / 2 is (V_i b + J conj(V_i c)) / 2
    with b, c columns k and n + k of U_i, since J^-1 e_k = e_(n+k).  With
    G = blockdiag(V^H V) and K = blockdiag(V^H J conj(V)) four times its
    square is b^H G_ii b + c^H G_ii c + 2 Re(b^H K_ii conj(c)); the other
    columns repeat these norms.

    A nonzero projection has 2-norm at least 1, so its largest column norm
    is at least 1/sqrt(n): the rounding of this form, about N eps |V_i|^2
    |U_i|^2 for the N = 2n columns of V, carries it across MEMBER_TOL only
    where that reaches 1/n.
    """
    spheres = (owner[:, None] == np.arange(count)).astype(float)
    same, vh = spheres @ spheres.T, v.conj().T
    gram = (vh @ v) * same
    cross = (vh @ np.conj(np.concatenate([v[n:], -v[:n]]))) * same    # with J conj(V)
    direct = (u.conj() * (gram @ u)).real    # b^H G b in the first n columns, c^H G c after
    terms = direct[:, :n] + direct[:, n:] + 2.0 * (u[:, :n].conj() * (cross @ u[:, n:].conj())).real
    return np.sqrt(0.25 * (spheres.T @ terms).max(axis=1, initial=0.0)).tolist()


def _shift_decomposability(op: ShiftOperator) -> DecomposabilityVerdict:
    # kappa_inf of R_q(op) is zero exactly on sigma_apS(op), and that of
    # R_q(op^*) on sigma_apS(op^*) = sigma_suS(op); at q = 0.5 one is 0 and
    # the other (1 - 0.5)^2, for either shift
    s = EigenSphere(0.5, 0.0)
    limits = {name: float(spectral.shift_kappa_limit(side, s.re, s.im))
              for name, side in (("sigma_apS", op.side),
                                 ("sigma_suS", op.adjoint_operator().side))}
    in_set, out_set = sorted(limits, key=limits.get)
    return DecomposabilityVerdict(
        "FAIL", s,
        f"sphere ({s.re}, {s.im}) lies in {in_set} (limit kappa {limits[in_set]:.2e}) "
        f"but outside {out_set} (limit kappa {limits[out_set]:.3f}); sigma_S != "
        f"{out_set}, so the shift is not decomposable")


# -- spectral law checks --------------------------------------------------------


def check_combination(a: QMatrix, phi: QVector, psi: QVector, qa: Quaternion,
                      qb: Quaternion, tol: float = 1e-6) -> bool:
    """sigma(phi a + psi b) is contained in sigma(phi) union sigma(psi)."""
    combo = phi.times(qa) + psi.times(qb)
    return sphere_subset(local_spectrum(a, combo),
                         sphere_union(local_spectrum(a, phi), local_spectrum(a, psi)), tol)


def check_commutant(a: QMatrix, b: QMatrix, phi: QVector, tol: float = 1e-6) -> bool:
    """B commuting with A implies sigma(B phi) subset sigma(phi)."""
    scale = 1.0 + op_norm(a) * op_norm(b)
    if op_norm(a @ b - b @ a) > 1e-8 * scale:
        raise ValueError("precondition failed: operators do not commute")
    return sphere_subset(local_spectrum(a, b.apply(phi)), local_spectrum(a, phi), tol)


ZERO_SPHERE = EigenSphere(0.0, 0.0)


def check_ab_ba(a: QMatrix, b: QMatrix, phi: QVector, tol: float = 1e-6) -> bool:
    """Local spectra under products in both orders.

    sigma_AB(A phi) is contained in sigma_BA(phi), which in turn is
    contained in sigma_AB(A phi) plus possibly the zero sphere; when A is
    injective the first containment is an equality.
    """
    if a.cols != b.rows or b.cols != a.rows:
        raise ShapeError("A and B must map between the same two spaces")
    ab = a @ b
    ba = b @ a
    # AB's projections, then BA's, come first: a zero vector's local
    # spectrum builds none, and a failing build must raise in this order
    spectral_projections(ab)
    spectral_projections(ba)
    s_ab = local_spectrum(ab, a.apply(phi))
    s_ba = local_spectrum(ba, phi)
    ok = sphere_subset(s_ab, s_ba, tol)
    ok = ok and sphere_subset(s_ba, sphere_union(s_ab, (ZERO_SPHERE,)), tol)
    # equality needs A injective: full column rank, so rows >= cols first
    if a.rows >= a.cols and min_singular(a) > 1e-6 * (1.0 + a.frobenius()):
        ok = ok and sphere_subset(s_ba, s_ab, tol)
    return ok


def check_aba(a: QMatrix, b: QMatrix, phi: QVector, tol: float = 1e-6) -> bool:
    """Laws available under the identity A B A = A^2.

    sigma_A(A phi) is contained in sigma_BA(phi) and sigma_BA(BA phi) in
    sigma_A(phi).
    """
    scale = 1.0 + op_norm(a) ** 2
    if op_norm(a @ b @ a - a @ a) > 1e-8 * scale * (1.0 + op_norm(b)):
        raise ValueError("precondition failed: A B A != A^2")
    ba = b @ a
    spectral_projections(a)    # A's projections before BA's, as in check_ab_ba
    spectral_projections(ba)
    first = sphere_subset(local_spectrum(a, a.apply(phi)), local_spectrum(ba, phi), tol)
    second = sphere_subset(local_spectrum(ba, ba.apply(phi)), local_spectrum(a, phi), tol)
    return first and second


def check_intertwining(a: QMatrix, b: QMatrix, r: QMatrix, phi: QVector,
                       spheres, tol: float = 1e-6) -> bool:
    """B R = R A pushes local data through R.

    sigma_B(R phi) is contained in sigma_A(phi) and R maps the local
    subspace of A for F into the local subspace of B for F.
    """
    scale = 1.0 + op_norm(r) * (op_norm(a) + op_norm(b))
    if op_norm(b @ r - r @ a) > 1e-8 * scale:
        raise ValueError("precondition failed: B R != R A")
    spectral_projections(a)    # A's projections before B's, as in check_ab_ba
    spectral_projections(b)
    ok = sphere_subset(local_spectrum(b, r.apply(phi)), local_spectrum(a, phi), tol)
    va = local_subspace(a, spheres)
    vb = local_subspace(b, spheres)
    images = r @ va.matrix
    residuals = (QMatrix.identity(b.rows) - vb.projection()) @ images
    return ok and not np.any(residuals.col_norms() > tol * (1.0 + images.col_norms()))


def check_resolvent_identity(a: QMatrix, phi: QVector, f, sample_points,
                             tol: float = 1e-6) -> bool:
    """A function solving R_q(A) f(q) = phi on a sampled set localizes phi.

    Precondition: the identity must hold at every sampled point, at
    tolerance; then sigma_A(phi) is contained in sigma_A(f(q)) for each
    sample.  ``f`` may be a slice series or any callable on quaternions.
    """
    evaluate = f.eval if hasattr(f, "eval") else f
    points = list(sample_points)
    if not points:
        raise ValueError("need at least one sample point")
    values = []
    for q in points:
        v = evaluate(q)
        resid = (pseudo_resolvent(a, q).apply(v) - phi).norm()
        if resid > tol * (1.0 + phi.norm()):
            raise ValueError(
                f"precondition failed at q = ({q.w}, {q.x}, {q.y}, {q.z}): "
                f"residual {resid:.3e}")
        values.append(v)
    target = local_spectrum(a, phi)
    return all(sphere_subset(target, local_spectrum(a, v), tol) for v in values)
