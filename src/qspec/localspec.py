"""Local S-spectra, spectral subspaces, and decomposability diagnostics.

For a finite matrix the complex adjoint splits into invariant subspaces,
one per eigen-sphere.  ``qlinalg.spectral_decomposition`` takes one Schur
form of chi(A) and splits it into well-separated blocks; the spectral
projection of each sphere comes from that same form, block-diagonalized
by the Sylvester solutions the split already found, and is pulled back to
quaternionic coordinates.  The local S-spectrum of phi is then the set of
spheres whose projection sees phi, drawn from the very sphere objects the
spectrum reports; the local subspace of a sphere set F is the span of the
matching ranges.  The diagonal multiplication operator and the
eigenvector law are the two oracles that certify this realization.

Shifts have no such decomposition.  Their R_q are Toeplitz operators,
whose exact lower bounds ``spectral.shift_kappa_limit`` gives in closed
form; read on both sides of the adjoint duality, they exhibit a sphere
inside sigma_suS but outside sigma_apS, or the reverse, and thereby
refute decomposability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PoleError, ShapeError
from .operators import MultiplicationOperator, ShiftOperator
from .qlinalg import (QMatrix, QVector, SpectralDecomposition, SubspaceBasis, _j_conj,
                      hstack, kernel_basis, min_singular, op_norm, orthonormalize,
                      pseudo_resolvent, spectral_decomposition, vstack)
from .quat import EigenSphere, Quaternion, sphere_in, sphere_subset, sphere_union
from . import spectral

#: refuse spectral projections whose norm exceeds this
CONDITION_LIMIT = 1e8

#: default membership threshold |P phi| > tol * |phi|
MEMBER_TOL = 1e-8


@dataclass(frozen=True)
class SpectralProjectionSet:
    """Commuting idempotents splitting H^n along the eigen-spheres of A.

    The projections sum to the identity, annihilate each other, and their
    ranges are invariant; ``conditions`` records the operator norm of each
    projection, the usual measure of cluster separation.  ``spheres`` and
    ``multiplicities`` are those of the matrix's ``spectral_decomposition``,
    the same objects its spectrum reports; a multiplicity is the
    quaternionic rank of its projection.  ``certified`` is True when every
    sphere's eigenspace dimension matches its multiplicity; the diagonal
    and eigenvector oracles pin the meaning of the projections in that
    case, defective spheres are computed but carry no such certificate.
    """

    spheres: tuple[EigenSphere, ...]
    projections: tuple[QMatrix, ...]
    conditions: tuple[float, ...]
    multiplicities: tuple[int, ...]
    certified: bool = True


def spectral_projections(a: QMatrix) -> SpectralProjectionSet:
    """Build one spectral projection per eigen-sphere of A.

    All projections come from the one Schur form of A's
    ``spectral_decomposition``, block-diagonalized by the Sylvester
    solutions it already holds; nothing is factored again.  Conjugate-closed
    spectral sets commute with the quaternionic structure map, so each
    complex projection of chi(A) descends to a quaternionic matrix; the
    residual of that symmetry is checked, not assumed.  Projections with
    norm above CONDITION_LIMIT are refused as numerically meaningless.
    The projections are built once, as one complex stack, and become
    QMatrix objects only at the end.  ``_conditioned`` takes the conditions
    from the Schur factors, applies both refusals and J-symmetrizes the
    stack; ``_block_checked`` then validates it in the coordinates of the
    factors, and where its bounds cannot accept, ``_validate_projections``
    decides on the same stack.  Each matrix's set is built and validated
    once, kept on its decomposition, and returned by every later call.
    """
    if a.rows != a.cols:
        raise ShapeError("spectral projections need a square matrix")
    n = a.rows
    if n == 0:
        return SpectralProjectionSet((), (), (), ())
    dec = spectral_decomposition(a)
    if dec.projections is not None:
        return dec.projections
    certified = dec.kernel_dims() == dec.multiplicities

    stack = dec.projectors()
    conditions = _conditioned(dec, stack)
    if not _block_checked(dec, stack, conditions):
        _validate_projections(dec.m, stack, conditions)
    if dec.half:
        projections = tuple(QMatrix(p, np.zeros_like(p)) for p in stack)
    else:
        projections = tuple(QMatrix(p[:n, :n], p[:n, n:]) for p in stack)
    object.__setattr__(dec, "projections", SpectralProjectionSet(
        dec.spheres, projections, tuple(conditions), dec.multiplicities, certified))
    return dec.projections


def _fro(x: np.ndarray) -> np.ndarray:
    """Frobenius norms of the matrices of a complex stack."""
    flat = x.reshape(len(x), -1).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _conditioned(dec: SpectralDecomposition, stack: np.ndarray) -> list[float]:
    """The conditions of the projector stack, which is checked sphere by
    sphere against CONDITION_LIMIT and the quaternionic structure, then
    J-symmetrized in place.

    A lone sphere's projector is I, of condition 1.  Otherwise the
    conditions come from each sphere's m_i columns of V and rows of U,
    never from an N x N SVD.  The limit reads the stack's own norms: the
    Frobenius norm screens, and a 2-norm SVD runs only above the limit.
    """
    count, size = stack.shape[:2]
    if count == 1:
        conditions = np.ones(1)
    else:
        vs, us = dec.sphere_factors
        # V_i = Q S W^H with orthonormal Q, so |V_i U_i| = |S W^H U_i|
        _, sv, wh = np.linalg.svd(vs, full_matrices=False)
        conditions = np.linalg.svd(sv[:, :, None] * (wh @ us), compute_uv=False)[:, 0]
    fro = _fro(stack)
    # a projector P of the C_i block is diag(P, conj P) on chi(A)
    broken = np.zeros(count)
    if not dec.half:
        # P - J conj(P) J^-1 is minus its own J-conjugate: its lower half
        # rows are the conjugates of the upper half's
        sym = _j_conj(stack)
        broken = math.sqrt(2.0) * _fro(stack[:, :size // 2] - sym[:, :size // 2])
    for i, s in enumerate(dec.spheres):
        if fro[i] > CONDITION_LIMIT:
            norm = float(np.linalg.norm(stack[i], 2))
            if norm > CONDITION_LIMIT:
                raise NumericalError(
                    f"projection for sphere ({s.re}, {s.im}) has "
                    f"norm {norm:.3e}, beyond the conditioning limit")
        if broken[i] > 1e-6 * max(1.0, conditions[i]):
            raise NumericalError("projection broke the quaternionic structure")
    if not dec.half:
        stack += sym
        stack *= 0.5
    return [float(c) for c in conditions]


def _block_checked(dec: SpectralDecomposition, stack: np.ndarray, conditions) -> bool:
    """Whether the bounds below prove, in the block coordinates of the
    Schur factors, what ``_validate_projections`` checks; never raises.

    With V = Z W^-1, U = W Z^H and the computed E = U V - I, L_i = U P_i -
    E_i U (E_i sphere i's diagonal selector) and G = U M V, each P_i is
    V (E_i + R_i) V^-1 with |R_i| <= rho_i = (|L_i| |V| + 2|E|) / (1 - |E|),
    and |V| |V^-1| <= kappa = |V| |U| / (1 - |E|).  Then
      |sum P_i - I|             <= kappa |V| |sum L_i| / (1 - |E|),
      |P_i P_j - delta_ij P_i|  <= kappa (3 rho + rho^2),
      |(I - P_i) M P_i|         <= kappa (o_i + (|E| + rho_i (2 + rho_i)) |G| / (1 - |E|)),
    o_i the part of G in sphere i's columns and the other spheres' rows.
    Frobenius norms bound the 2-norms, each product's rounding is added,
    |M|_F / sqrt(N) stands in for |M|_2 in the tolerance, and every
    threshold is halved, so that rounding in ``_validate_projections``
    cannot turn an accept here into a raise there.
    """
    count, size = stack.shape[:2]
    if count == 1:
        return np.array_equal(stack[0], np.eye(size))
    conditions = np.asarray(conditions)
    v, u = dec.factors
    owner, _ = dec.positions
    left = u @ stack
    left[owner, np.arange(size), :] -= u
    err = u @ v
    err.flat[::size + 1] -= 1.0
    g = u @ (dec.m @ v)
    g2 = g.real ** 2 + g.imag ** 2
    off = np.bincount(owner, weights=np.where(owner[:, None] != owner, g2, 0.0).sum(axis=0),
                      minlength=count)
    # each product's rounding: gamma |X|_F |Y|_F per factor pair
    gamma = 2 * size * np.finfo(float).eps
    v_f, u_f, m_f = (float(np.linalg.norm(x)) for x in (v, u, dec.m))
    p_f = np.sqrt(np.bincount(owner, minlength=count)) * conditions
    e = float(np.linalg.norm(err)) + gamma * v_f * u_f
    if e >= 0.5:
        return False
    g_round = 2 * gamma * u_f * m_f * v_f
    g_f = math.sqrt(float(g2.sum())) + g_round
    o = math.sqrt(float(off.max())) + g_round
    kappa = v_f * u_f / (1.0 - e)
    rho = ((float(_fro(left).max()) + gamma * u_f * float(p_f.max())) * v_f + 2 * e) / (1.0 - e)
    total = float(np.linalg.norm(left.sum(axis=0))) + gamma * u_f * float(p_f.sum())
    tol = 0.5e-8 * max(1.0, float(conditions.max())) * max(1.0, m_f / math.sqrt(size))
    return not (kappa * v_f * total / (1.0 - e) > tol
                or kappa * (3.0 * rho + rho * rho) > tol
                or kappa * (o + (e + rho * (2.0 + rho)) * g_f / (1.0 - e))
                > tol * (1.0 + m_f / math.sqrt(size)))


def _validate_projections(m: np.ndarray, stack: np.ndarray, conditions) -> None:
    """Check that the stacked projectors P_i of M sum to I, satisfy
    P_i P_j = delta_ij P_i and have M-invariant ranges.

    Products are formed one row ``stack[i] @ stack`` at a time, so memory
    stays at two stacks.  Each residual X is screened by its Frobenius norm,
    an upper bound of |X|_2, and an SVD runs only where that cannot accept.
    """
    norm_m = float(np.linalg.norm(m, 2))
    tol = 1e-8 * max(1.0, max(conditions)) * max(1.0, norm_m)

    def exceeds(residuals: np.ndarray, bound: float) -> bool:
        return any(np.linalg.norm(residuals[j], 2) > bound
                   for j in np.flatnonzero(~(_fro(residuals) <= bound)))

    eye = np.eye(len(m), dtype=np.complex128)
    if exceeds((stack.sum(axis=0) - eye)[None], tol):
        raise NumericalError("spectral projections do not sum to the identity")
    prod = np.empty_like(stack)
    for i, p in enumerate(stack):
        np.matmul(p, stack, out=prod)
        prod[i] -= p
        if exceeds(prod, tol):
            raise NumericalError("spectral projections are not orthogonal idempotents")
        mp = m @ p
        if exceeds((mp - p @ mp)[None], tol * (1.0 + norm_m)):
            raise NumericalError("a projection range is not invariant")


# -- local spectra -----------------------------------------------------------


def local_spectrum(a: QMatrix, phi: QVector, tol: float = MEMBER_TOL) -> tuple[EigenSphere, ...]:
    """Spheres whose spectral projection sees phi.

    Empty exactly for phi = 0; its spheres are the projection set's, the
    same objects ``s_spectrum`` and ``classify`` report, so it lies in
    sigma_S(A) exactly.  For a right eigenvector A phi = phi q this is the
    single sphere [q].  The projections are A's ``spectral_projections``,
    built once per matrix, so the local spectra of many vectors share them.
    """
    if a.rows != a.cols or a.rows != phi.n:
        raise ShapeError("dimension mismatch between matrix and vector")
    norm = phi.norm()
    if norm == 0.0:
        return ()
    proj = spectral_projections(a)
    return tuple(s for s, p in zip(proj.spheres, proj.projections)
                 if p.apply(phi).norm() > tol * norm)


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
    """Orthonormal basis of span{ ran P_k : sphere_k in F }.

    A sphere of F selects the spectral sphere it matches at
    SPHERE_MERGE_TOL, the radius the spheres were merged at; spheres
    outside sigma_S(A) contribute nothing, so the result equals the
    subspace for F intersected with the spectrum.
    """
    if a.rows != a.cols:
        raise ShapeError("local subspaces need a square matrix")
    proj = spectral_projections(a)
    targets = tuple(spheres)
    blocks = [QMatrix.zeros(a.rows, 0)]  # so that hstack has a block when F selects none
    expected = 0
    for s, p, mult in zip(proj.spheres, proj.projections, proj.multiplicities):
        if sphere_in(s, targets):
            blocks.append(p)
            expected += mult
    basis = orthonormalize(hstack(blocks), drop_tol=1e-6)
    if basis.cols != expected:
        raise NumericalError(
            f"local subspace rank {basis.cols} disagrees with the cluster "
            f"multiplicity {expected}")
    return SubspaceBasis(basis)


def global_subspace(a: QMatrix, spheres) -> SubspaceBasis:
    """Vectors whose local spectrum stays inside F.

    Realized as the joint kernel, at MEMBER_TOL, of the projections of the
    complementary spheres, a different numerical route from local_subspace;
    finite matrices carry the single valued extension property, so the two
    spans agree and tests compare them.
    """
    if a.rows != a.cols:
        raise ShapeError("global subspaces need a square matrix")
    proj = spectral_projections(a)
    targets = tuple(spheres)
    outside = [p for s, p in zip(proj.spheres, proj.projections)
               if not sphere_in(s, targets)]
    if not outside:
        return SubspaceBasis(QMatrix.identity(a.rows))
    return SubspaceBasis(kernel_basis(vstack(outside), tol=MEMBER_TOL))


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


def decomposability_necessary(
        op, report: spectral.SpectrumReport | None = None) -> DecomposabilityVerdict:
    """Necessary condition: a decomposable operator has
    sigma_S = sigma_apS = sigma_suS = union of all local spectra.

    FAIL therefore proves the operator is not decomposable; PASS is only
    consistent with decomposability, never a proof of it.  Matrices are
    checked exactly through their classification (``report``, else one at
    MEMBER_TOL) and projections, columns seen above MEMBER_TOL; shifts
    through the exact lower bounds of R_q on both sides of the adjoint
    duality (``spectral.shift_kappa_limit``), with no finite section.
    """
    if isinstance(op, QMatrix):
        return _matrix_decomposability(op, report)
    if getattr(op, "dim", None) is not None:
        return _matrix_decomposability(op.finite_section(op.dim), report)
    if isinstance(op, ShiftOperator):
        return _shift_decomposability(op)
    raise TypeError(f"no decomposability route for {type(op).__name__}")


def _matrix_decomposability(a: QMatrix, report) -> DecomposabilityVerdict:
    rep = report if report is not None else spectral.classify(a, tol=MEMBER_TOL)
    proj = spectral_projections(a)
    # s lies in the local spectrum of some basis vector e_k exactly when
    # |P_s e_k|, the norm of column k of P_s, exceeds MEMBER_TOL
    local_union = tuple(
        s for s, p in zip(proj.spheres, proj.projections)
        if np.max(p.col_norms()) > MEMBER_TOL)
    # sigma_suS is sigma_apS here, read off the same singular values; the
    # sets are drawn from one tuple of spheres, so they compare exactly
    for name, other in (("sigma_apS", rep.part("approximate")), ("local union", local_union)):
        if set(other) != set(rep.spheres):
            witness = next(s for s in (*rep.spheres, *other)
                           if (s in rep.spheres) != (s in other))
            return DecomposabilityVerdict(
                "FAIL", witness,
                f"sigma_S and {name} differ at sphere ({witness.re}, {witness.im}); "
                "the operator is not decomposable")
    return DecomposabilityVerdict(
        "PASS", None,
        "necessary condition holds: all four sphere sets coincide; this is "
        "consistent with decomposability, not a proof of it")


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


def check_zero_vector(a: QMatrix) -> bool:
    """The zero vector has empty local spectrum."""
    return len(local_spectrum(a, QVector.zeros(a.rows))) == 0


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


def check_local_laws(a: QMatrix, phi: QVector, psi: QVector, qa: Quaternion,
                     qb: Quaternion, b: QMatrix, tol: float = 1e-6) -> bool:
    """The three basic local spectrum laws in one pass over A's projections."""
    return (check_zero_vector(a)
            and check_combination(a, phi, psi, qa, qb, tol)
            and check_commutant(a, b, phi, tol))


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
