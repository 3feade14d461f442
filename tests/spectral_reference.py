"""Reference for the spectral decomposition: the route it replaced.

Spheres from ``numpy.linalg.eigvals`` merged by ``merge_spheres``;
projections from one ordered Schur form and one ``solve_sylvester`` per
eigenvalue cluster (clustered at a fixed radius); and a classification
that merges the spheres of A and A^dag and reads surjectivity from a
separate SVD of R_q(A^dag); the projection validator that checks every
residual as a QMatrix with one ``op_norm`` each; and the portrait kappa that
formed the whole R_q of one grid point at a time before taking its kept
columns and one SVD.  Kept so that tests can compare the two routes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from qspec.errors import NumericalError
from qspec.localspec import CONDITION_LIMIT, SpectralProjectionSet
from qspec.qlinalg import (QMatrix, _j_conj, _singular_values, complex_adjoint,
                           min_singular, nullity, op_norm, pseudo_resolvent)
from qspec.quat import EigenSphere, Quaternion, cluster_spheres, merge_spheres, sphere_union
from qspec.spectral import (SphereFlags, SpectrumReport, growth_bounds,
                            membership_threshold)

CLUSTER_TOL = 1e-6


def _eigenvalues(a: QMatrix) -> np.ndarray:
    if a.is_complex_slice:
        lams = np.linalg.eigvals(a.c1)
        return np.concatenate([lams, np.conj(lams)])
    return np.linalg.eigvals(complex_adjoint(a))


def eigen_spheres(a: QMatrix, tol: float = 1e-8) -> tuple[EigenSphere, ...]:
    """Merged (Re, |Im|) of the eigenvalues of chi(A), each checked directly."""
    if a.rows == 0:
        return ()
    spheres = merge_spheres(
        [EigenSphere(float(l.real), abs(float(l.imag))) for l in _eigenvalues(a)], tol=tol)
    check_scale = 1e-6 * (1.0 + a.frobenius() ** 2)
    for s in spheres:
        if min_singular(pseudo_resolvent(a, Quaternion(s.re, s.im))) > check_scale:
            raise NumericalError(f"eigen-sphere ({s.re}, {s.im}) failed the residual check")
    return spheres


def projection_set(a: QMatrix, cluster_tol: float = CLUSTER_TOL) -> SpectralProjectionSet:
    """One ordered Schur form and one Sylvester solve per sphere cluster."""
    n = a.rows
    m = complex_adjoint(a)
    spheres, labels = cluster_spheres(
        [EigenSphere(float(l.real), abs(float(l.imag))) for l in np.linalg.eigvals(m)],
        tol=cluster_tol)
    sizes = np.bincount(labels, minlength=len(spheres))
    if np.any(sizes % 2):
        raise NumericalError("eigenvalue cluster broke a conjugate pair")
    multiplicities = tuple(int(sz) // 2 for sz in sizes)
    eig_dims = [nullity(pseudo_resolvent(a, Quaternion(s.re, s.im))) for s in spheres]
    certified = tuple(eig_dims) == multiplicities
    if len(spheres) == 1:
        projections, conditions = [QMatrix.identity(n)], [1.0]
    else:
        projections, conditions = [], []
        centers = np.array([[s.re, s.im] for s in spheres])

        def assign(lam: complex) -> int:
            d = np.hypot(centers[:, 0] - lam.real, centers[:, 1] - abs(lam.imag))
            return int(np.argmin(d))

        for k in range(len(spheres)):
            t, z, sdim = scipy.linalg.schur(
                m, output="complex", sort=lambda lam, k=k: assign(complex(lam)) == k)
            if sdim != sizes[k]:
                raise NumericalError("Schur reordering caught the wrong cluster")
            y = scipy.linalg.solve_sylvester(t[:sdim, :sdim], -t[sdim:, sdim:], t[:sdim, sdim:])
            pi = np.zeros_like(t)
            pi[:sdim, :sdim] = np.eye(sdim)
            pi[:sdim, sdim:] = y
            p = z @ pi @ z.conj().T
            cond = float(np.linalg.norm(p, 2))
            if cond > CONDITION_LIMIT:
                raise NumericalError(f"projection norm {cond:.3e} beyond the limit")
            sym = 0.5 * (p + _j_conj(p))
            projections.append(QMatrix(sym[:n, :n], sym[:n, n:]))
            conditions.append(cond)
    validate_projections(a, projections, conditions)
    return SpectralProjectionSet(spheres, tuple(projections), tuple(conditions),
                                 multiplicities, certified)


def validate_projections(a: QMatrix, projections: list[QMatrix],
                         conditions: list[float]) -> None:
    """Sum, orthogonality and invariance checked through QMatrix arithmetic:
    k^2 + k + 2 operator norms for k projections."""
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


def classify(a: QMatrix, tol: float = 1e-8, n_max: int = 8) -> SpectrumReport:
    """Spheres of A and A^dag merged; surjectivity from R_q(A^dag)."""
    adj = a.adjoint()
    spheres = sphere_union(eigen_spheres(a, tol), eigen_spheres(adj, tol))
    thresh = membership_threshold(a, tol)
    flags = {}
    for s in spheres:
        rep = Quaternion(s.re, s.im)
        r_here = pseudo_resolvent(a, rep)
        s_here = _singular_values(r_here)
        point = nullity(r_here, tol, s_here) > 0
        approx = bool(s_here[-1] <= thresh)
        surjectivity = min_singular(pseudo_resolvent(adj, rep)) <= thresh
        flags[s] = SphereFlags(point, approx, point, surjectivity)
    coincident = all(f.point == f.approximate == f.compression == f.surjectivity
                     for f in flags.values())
    radius, lower = growth_bounds(a, n_max) if a.rows else (0.0, 0.0)
    return SpectrumReport(spheres, flags, radius, lower, tol, thresh, coincident)


def section_kappas(op, window: int, xs, ys) -> np.ndarray:
    """kappa(R_{x+yI}) on the window section, one point and one SVD at a time."""
    n = op.dim if op.dim is not None else window
    cols = n - (0 if op.dim is not None else op.section_margin)
    section = op.finite_section(n)
    if section.is_complex_slice:
        m = section.c1
        if not np.any(m.imag):
            m = m.real.copy()
        keep = np.arange(cols)
    else:
        m = complex_adjoint(section)
        keep = np.concatenate([np.arange(cols), n + np.arange(cols)])
    m2, eye = m @ m, np.eye(len(m), dtype=m.dtype)
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    out = np.empty(xs.shape)
    for idx in np.ndindex(xs.shape):
        x, y = float(xs[idx]), float(ys[idx])
        r2 = x * x + y * y
        full = m2 - (2.0 * x) * m + r2 * eye
        out[idx] = np.linalg.svd(full[:, keep], compute_uv=False)[-1]
    return out
