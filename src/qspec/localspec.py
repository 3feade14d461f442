"""Local S-spectra, spectral subspaces, and decomposability diagnostics.

For a finite matrix the complex adjoint splits into invariant subspaces,
one per eigen-sphere: cluster the eigenvalues of chi(A) by sphere, build
the spectral projection of each conjugate-closed cluster through an
ordered Schur form, and pull the projections back to quaternionic
coordinates.  The local S-spectrum of phi is then the set of spheres
whose projection sees phi; the local subspace of a sphere set F is the
span of the matching ranges.  The diagonal multiplication operator and
the eigenvector law are the two oracles that certify this realization.

Shifts have no such decomposition.  They are probed through window
evidence: kappa of exact rectangular sections on both sides of the
adjoint duality, which is enough to exhibit a sphere inside sigma_S but
outside sigma_apS and thereby refute decomposability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PoleError, ShapeError
from .operators import (LinearOperator, MultiplicationOperator, ShiftOperator,
                        truncated_eigenvector)
from .qlinalg import (ComplexAdjointMatrix, QMatrix, QVector, SubspaceBasis,
                      _chi, _j_conj, kernel_basis, min_singular, nullity,
                      op_norm, orthonormalize, pseudo_resolvent, vstack)
from .quat import (EigenSphere, Quaternion, cluster_spheres, merge_spheres,
                   sphere_in, sphere_of, sphere_subset, sphere_union)
from . import spectral

#: refuse spectral projections whose norm exceeds this
CONDITION_LIMIT = 1e8

#: relative eigenvalue clustering radius
CLUSTER_TOL = 1e-6

#: default membership threshold |P phi| > tol * |phi|
MEMBER_TOL = 1e-8


@dataclass(frozen=True)
class SpectralProjectionSet:
    """Commuting idempotents splitting H^n along the eigen-spheres of A.

    The projections sum to the identity, annihilate each other, and their
    ranges are invariant; ``conditions`` records the operator norm of each
    projection, the usual measure of cluster separation.
    ``multiplicities`` is each sphere's algebraic multiplicity, half its
    cluster of chi(A) eigenvalues, which is the quaternionic rank of its
    projection.  ``certified`` is True when every cluster's eigenspace
    dimension matches its multiplicity; the diagonal and eigenvector
    oracles pin the meaning of the projections in that case, defective
    clusters are computed but carry no such certificate.
    """

    spheres: tuple[EigenSphere, ...]
    projections: tuple[QMatrix, ...]
    conditions: tuple[float, ...]
    multiplicities: tuple[int, ...]
    certified: bool = True


def spectral_projections(a: QMatrix, cluster_tol: float = CLUSTER_TOL) -> SpectralProjectionSet:
    """Build one spectral projection per eigen-sphere of A.

    ``cluster_spheres`` groups the eigenvalues of chi(A) by sphere, two per
    unit of multiplicity.  Each group is conjugate closed and gets one
    ordered Schur decomposition; a Sylvester solve turns the leading
    invariant block into the projection.  Conjugate-closed
    spectral sets commute with the quaternionic structure map, so each
    complex projection descends to a quaternionic matrix; the residual of
    that symmetry is checked, not assumed.  Projections with norm above
    CONDITION_LIMIT are refused as numerically meaningless.
    """
    if a.rows != a.cols:
        raise ShapeError("spectral projections need a square matrix")
    n = a.rows
    if n == 0:
        return SpectralProjectionSet((), (), (), ())
    m = _chi(a)
    try:
        lams = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    spheres, labels = cluster_spheres(
        [EigenSphere(float(l.real), abs(float(l.imag))) for l in lams],
        tol=cluster_tol)
    sizes = np.bincount(labels, minlength=len(spheres))
    if np.any(sizes % 2):
        raise NumericalError("eigenvalue cluster broke a conjugate pair")
    multiplicities = tuple(int(sz) // 2 for sz in sizes)

    eig_dims = [nullity(pseudo_resolvent(a, Quaternion(s.re, s.im))) for s in spheres]
    certified = tuple(eig_dims) == multiplicities

    projections: list[QMatrix] = []
    conditions: list[float] = []
    if len(spheres) == 1:
        projections.append(QMatrix.identity(n))
        conditions.append(1.0)
    else:
        # imported where it is needed: scipy costs a command that never
        # gets here tens of megabytes and a few tenths of a second
        import scipy.linalg
        centers = np.array([[s.re, s.im] for s in spheres])

        def assign(lam: complex) -> int:
            # Schur computes its own eigenvalues, so they are matched to
            # the nearest centre rather than looked up in ``labels``
            d = np.hypot(centers[:, 0] - lam.real, centers[:, 1] - abs(lam.imag))
            return int(np.argmin(d))

        for k in range(len(spheres)):
            t, z, sdim = scipy.linalg.schur(
                m, output="complex", sort=lambda lam, k=k: assign(complex(lam)) == k)
            if sdim != sizes[k]:
                raise NumericalError(
                    f"Schur reordering caught {sdim} eigenvalues for cluster {k}, "
                    f"expected {sizes[k]}")
            t11 = t[:sdim, :sdim]
            t12 = t[:sdim, sdim:]
            t22 = t[sdim:, sdim:]
            y = scipy.linalg.solve_sylvester(t11, -t22, t12)
            pi = np.zeros_like(t)
            pi[:sdim, :sdim] = np.eye(sdim)
            pi[:sdim, sdim:] = y
            p = z @ pi @ z.conj().T
            cond = float(np.linalg.norm(p, 2))
            if cond > CONDITION_LIMIT:
                raise NumericalError(
                    f"projection for sphere ({spheres[k].re}, {spheres[k].im}) has "
                    f"norm {cond:.3e}, beyond the conditioning limit")
            sym = _j_conj(p)
            if np.linalg.norm(p - sym) > 1e-6 * max(1.0, cond):
                raise NumericalError("projection broke the quaternionic structure")
            p = 0.5 * (p + sym)
            projections.append(ComplexAdjointMatrix(p).to_qmatrix())
            conditions.append(cond)
    _validate_projections(a, projections, conditions)
    return SpectralProjectionSet(spheres, tuple(projections), tuple(conditions),
                                 multiplicities, certified)


def _validate_projections(a: QMatrix, projections: list[QMatrix],
                          conditions: list[float]) -> None:
    n = a.rows
    norm_a = op_norm(a)
    tol = 1e-8 * max(1.0, max(conditions)) * max(1.0, norm_a)
    total = QMatrix.zeros(n, n)
    for p in projections:
        total = total + p
    if op_norm(total - QMatrix.identity(n)) > tol:
        raise NumericalError("spectral projections do not sum to the identity")
    for i, p in enumerate(projections):
        for j, q in enumerate(projections):
            prod = p @ q
            target = p if i == j else QMatrix.zeros(n, n)
            if op_norm(prod - target) > tol:
                raise NumericalError("spectral projections are not orthogonal idempotents")
        defect = op_norm((QMatrix.identity(n) - p) @ (a @ p))
        if defect > tol * (1.0 + norm_a):
            raise NumericalError("a projection range is not invariant")


# -- local spectra -----------------------------------------------------------


@dataclass(frozen=True)
class LocalSpectrum:
    """Finite set of eigen-spheres attached to one vector."""

    spheres: tuple[EigenSphere, ...]

    def __iter__(self):
        return iter(self.spheres)

    def __len__(self) -> int:
        return len(self.spheres)

    def subset_of(self, other, tol: float = 1e-6) -> bool:
        return sphere_subset(self.spheres, tuple(other), tol)


def local_spectrum(a: QMatrix, phi: QVector, tol: float = MEMBER_TOL,
                   projections: SpectralProjectionSet | None = None) -> LocalSpectrum:
    """Spheres whose spectral projection sees phi.

    Empty exactly for phi = 0; always contained in sigma_S(A).  For a
    right eigenvector A phi = phi q this is the single sphere [q].
    """
    if a.rows != a.cols or a.rows != phi.n:
        raise ShapeError("dimension mismatch between matrix and vector")
    norm = phi.norm()
    if norm == 0.0:
        return LocalSpectrum(())
    proj = projections if projections is not None else spectral_projections(a)
    hit = tuple(s for s, p in zip(proj.spheres, proj.projections)
                if p.apply(phi).norm() > tol * norm)
    return LocalSpectrum(hit)


def local_resolvent_diag(op: MultiplicationOperator, f: QVector, q: Quaternion,
                         tol: float = 1e-10) -> QVector:
    """Solve R_q(M_g) h = f pointwise for a diagonal multiplier.

    Entrywise h(x) = (g(x)^2 - 2 Re(q) g(x) + |q|^2)^{-1} f(x); the
    inverse acts on the left because the diagonal matrix acts on the
    left.  On common slices |h(x)| = |f(x)| / (|g(x) - q| |g(x) - conj q|).
    Entries where the divisor degenerates under a nonzero f(x) put [q] on
    the local spectrum of f, a pole.
    """
    if op.dim != f.n:
        raise ShapeError("vector length must match the point set")
    out = []
    for k, g in enumerate(op.values):
        d = g * g - 2.0 * q.w * g + Quaternion(q.norm_sq())
        fk = f.entry(k)
        if abs(d) <= tol * (1.0 + abs(g) ** 2 + q.norm_sq()):
            if abs(fk) > tol * (1.0 + f.norm()):
                raise PoleError(
                    f"q sits on the sphere of g at point {op.labels[k]!r}")
            out.append(Quaternion())
        else:
            out.append(d.inverse() * fk)
    return QVector.from_quaternions(out)


def local_subspace(a: QMatrix, spheres, tol: float = MEMBER_TOL,
                   projections: SpectralProjectionSet | None = None) -> SubspaceBasis:
    """Orthonormal basis of span{ ran P_k : sphere_k in F }.

    Spheres outside sigma_S(A) contribute nothing, so the result equals
    the subspace for F intersected with the spectrum.
    """
    if a.rows != a.cols:
        raise ShapeError("local subspaces need a square matrix")
    proj = projections if projections is not None else spectral_projections(a)
    targets = tuple(spheres)
    cols: list[QVector] = []
    expected = 0
    for s, p, mult in zip(proj.spheres, proj.projections, proj.multiplicities):
        if sphere_in(s, targets, tol=1e-6):
            cols.extend(p.col(j) for j in range(p.cols))
            expected += mult
    basis = orthonormalize(cols, drop_tol=1e-6)
    if len(basis) != expected:
        raise NumericalError(
            f"local subspace rank {len(basis)} disagrees with the cluster "
            f"multiplicity {expected}")
    return SubspaceBasis(a.rows, basis)


def global_subspace(a: QMatrix, spheres, tol: float = MEMBER_TOL,
                    projections: SpectralProjectionSet | None = None) -> SubspaceBasis:
    """Vectors whose local spectrum stays inside F.

    Realized as the joint kernel of the projections of the complementary
    spheres, a different numerical route from local_subspace; finite
    matrices carry the single valued extension property, so the two spans
    agree and tests compare them.
    """
    if a.rows != a.cols:
        raise ShapeError("global subspaces need a square matrix")
    proj = projections if projections is not None else spectral_projections(a)
    targets = tuple(spheres)
    outside = [p for s, p in zip(proj.spheres, proj.projections)
               if not sphere_in(s, targets, tol=1e-6)]
    if not outside:
        return SubspaceBasis(a.rows, [QVector.basis(a.rows, k) for k in range(a.rows)])
    stacked = vstack(outside)
    return SubspaceBasis(a.rows, kernel_basis(stacked, tol=tol))


# -- SVEP and decomposability -------------------------------------------------


@dataclass(frozen=True)
class SvepStatus:
    """Single valued extension property verdict with its justification.

    ``has_svep`` is None when the question is not decidable from finite
    sections.
    """

    has_svep: bool | None
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
            None,
            "not decidable from finite sections; the decomposability check "
            "resolves its spectral structure instead")
    return SvepStatus(None, "unknown operator family")


@dataclass(frozen=True)
class DecomposabilityVerdict:
    status: str  # "PASS" or "FAIL"
    witness: EigenSphere | None
    detail: str

    def __bool__(self) -> bool:
        return self.status == "PASS"


def decomposability_necessary(op, report: spectral.SpectrumReport | None = None,
                              tol: float = MEMBER_TOL, window: int = 128,
                              probes=None) -> DecomposabilityVerdict:
    """Necessary condition: a decomposable operator has
    sigma_S = sigma_apS = sigma_suS = union of all local spectra.

    FAIL therefore proves the operator is not decomposable; PASS is only
    consistent with decomposability, never a proof of it.  Matrices are
    checked exactly through their classification and projections; shifts
    through rectangular window evidence on both sides of the adjoint
    duality.
    """
    if isinstance(op, QMatrix):
        return _matrix_decomposability(op, report, tol)
    if getattr(op, "dim", None) is not None:
        return _matrix_decomposability(op.finite_section(op.dim), report, tol)
    if isinstance(op, ShiftOperator):
        return _shift_decomposability(op, window, probes)
    raise TypeError(f"no decomposability route for {type(op).__name__}")


def _matrix_decomposability(a: QMatrix, report, tol: float) -> DecomposabilityVerdict:
    rep = report if report is not None else spectral.classify(a, tol=tol)
    proj = spectral_projections(a)
    union: list[EigenSphere] = []
    for k in range(a.rows):
        union.extend(local_spectrum(a, QVector.basis(a.rows, k),
                                    tol=tol, projections=proj).spheres)
    local_union = merge_spheres(union)
    sets = {
        "sigma_S": rep.spheres,
        "sigma_apS": rep.part("approximate"),
        "sigma_suS": rep.part("surjectivity"),
        "local union": local_union,
    }
    names = list(sets)
    for name in names[1:]:
        a_set, b_set = sets["sigma_S"], sets[name]
        if not (sphere_subset(a_set, b_set, 1e-6) and sphere_subset(b_set, a_set, 1e-6)):
            witness = _first_difference(a_set, b_set)
            return DecomposabilityVerdict(
                "FAIL", witness,
                f"sigma_S and {name} differ at sphere ({witness.re}, {witness.im}); "
                "the operator is not decomposable")
    return DecomposabilityVerdict(
        "PASS", None,
        "necessary condition holds: all four sphere sets coincide; this is "
        "consistent with decomposability, not a proof of it")


def _first_difference(a_set, b_set) -> EigenSphere:
    for s in a_set:
        if not sphere_in(s, b_set, 1e-6):
            return s
    for s in b_set:
        if not sphere_in(s, a_set, 1e-6):
            return s
    raise AssertionError("sets differ but no witness found")


def _shift_decomposability(op: ShiftOperator, window: int,
                           probes) -> DecomposabilityVerdict:
    if probes is None:
        probes = (Quaternion(0.5), Quaternion(0.0, 0.5))
    for q in probes:
        own = _stabilized_kappa(op, q, window)
        dual = _stabilized_kappa(op.adjoint_operator(), q, window)
        if own is None or dual is None:
            continue
        in_ap = own <= 1e-8        # exact section columns: rigorous membership
        in_su = dual <= 1e-8       # q in sigma_apS(op^*) = sigma_suS(op)
        out_ap = own >= 0.1        # stabilized window evidence of exclusion
        out_su = dual >= 0.1
        if in_su and out_ap:
            s = sphere_of(q)
            return DecomposabilityVerdict(
                "FAIL", s,
                f"sphere ({s.re}, {s.im}) lies in sigma_suS (adjoint window "
                f"kappa {dual:.2e}) but outside sigma_apS (window kappa "
                f"{own:.3f} stabilized); sigma_S != sigma_apS, so the shift "
                "is not decomposable")
        if in_ap and out_su:
            s = sphere_of(q)
            return DecomposabilityVerdict(
                "FAIL", s,
                f"sphere ({s.re}, {s.im}) lies in sigma_apS (window kappa "
                f"{own:.2e}) but outside sigma_suS (adjoint window kappa "
                f"{dual:.3f} stabilized); sigma_S != sigma_suS, so the shift "
                "is not decomposable")
    return DecomposabilityVerdict(
        "PASS", None,
        "no witness among the probes; the necessary condition is not refuted")


def _stabilized_kappa(op, q: Quaternion, window: int) -> float | None:
    k1 = spectral.window_kappa(op, q, window)
    if k1 <= 1e-8:
        # exact columns of the rectangular section: rigorous membership
        return k1
    k2 = spectral.window_kappa(op, q, 2 * window)
    # window values converge like 1/N^2; a sequence decaying to zero keeps a
    # relative gap near 1/2 per doubling and is never accepted here
    if abs(k1 - k2) <= max(1e-4, 1e-2 * k2):
        return k2
    return None


# -- spectral law checks --------------------------------------------------------


def check_zero_vector(a: QMatrix, projections=None) -> bool:
    """The zero vector has empty local spectrum."""
    return len(local_spectrum(a, QVector.zeros(a.rows), projections=projections)) == 0


def check_combination(a: QMatrix, phi: QVector, psi: QVector, qa: Quaternion,
                      qb: Quaternion, tol: float = 1e-6, projections=None) -> bool:
    """sigma(phi a + psi b) is contained in sigma(phi) union sigma(psi)."""
    proj = projections if projections is not None else spectral_projections(a)
    combo = phi.times(qa) + psi.times(qb)
    lhs = local_spectrum(a, combo, projections=proj)
    rhs = sphere_union(local_spectrum(a, phi, projections=proj).spheres,
                       local_spectrum(a, psi, projections=proj).spheres)
    return lhs.subset_of(rhs, tol)


def check_commutant(a: QMatrix, b: QMatrix, phi: QVector,
                    tol: float = 1e-6, projections=None) -> bool:
    """B commuting with A implies sigma(B phi) subset sigma(phi)."""
    scale = 1.0 + op_norm(a) * op_norm(b)
    if op_norm(a @ b - b @ a) > 1e-8 * scale:
        raise ValueError("precondition failed: operators do not commute")
    proj = projections if projections is not None else spectral_projections(a)
    lhs = local_spectrum(a, b.apply(phi), projections=proj)
    rhs = local_spectrum(a, phi, projections=proj)
    return lhs.subset_of(rhs.spheres, tol)


def check_local_laws(a: QMatrix, phi: QVector, psi: QVector, qa: Quaternion,
                     qb: Quaternion, b: QMatrix, tol: float = 1e-6) -> bool:
    """The three basic local spectrum laws in one pass."""
    proj = spectral_projections(a)
    return (check_zero_vector(a, projections=proj)
            and check_combination(a, phi, psi, qa, qb, tol, projections=proj)
            and check_commutant(a, b, phi, tol, projections=proj))


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
    proj_ab = spectral_projections(ab)
    proj_ba = spectral_projections(ba)
    s_ab = local_spectrum(ab, a.apply(phi), projections=proj_ab)
    s_ba = local_spectrum(ba, phi, projections=proj_ba)
    ok = s_ab.subset_of(s_ba.spheres, tol)
    ok = ok and sphere_subset(s_ba.spheres,
                              sphere_union(s_ab.spheres, (ZERO_SPHERE,)), tol)
    # equality needs A injective: full column rank, so rows >= cols first
    if a.rows >= a.cols and min_singular(a) > 1e-6 * (1.0 + a.frobenius()):
        ok = ok and sphere_subset(s_ba.spheres, s_ab.spheres, tol)
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
    proj_a = spectral_projections(a)
    proj_ba = spectral_projections(ba)
    first = local_spectrum(a, a.apply(phi), projections=proj_a).subset_of(
        local_spectrum(ba, phi, projections=proj_ba).spheres, tol)
    second = local_spectrum(ba, ba.apply(phi), projections=proj_ba).subset_of(
        local_spectrum(a, phi, projections=proj_a).spheres, tol)
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
    proj_a = spectral_projections(a)
    proj_b = spectral_projections(b)
    ok = local_spectrum(b, r.apply(phi), projections=proj_b).subset_of(
        local_spectrum(a, phi, projections=proj_a).spheres, tol)
    va = local_subspace(a, spheres, projections=proj_a)
    vb = local_subspace(b, spheres, projections=proj_b)
    pb = vb.projection()
    eye = QMatrix.identity(b.rows)
    for v in va.vectors:
        image = r.apply(v)
        residual = (eye - pb).apply(image).norm()
        if residual > tol * (1.0 + image.norm()):
            return False
    return ok


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
    proj = spectral_projections(a)
    target = local_spectrum(a, phi, projections=proj)
    for v in values:
        if not target.subset_of(
                local_spectrum(a, v, projections=proj).spheres, tol):
            return False
    return True
