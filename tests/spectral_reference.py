"""Reference for the spectral decomposition: the route it replaced.

Spheres from ``numpy.linalg.eigvals`` merged by ``merge_spheres``;
projections from one ordered Schur form and one ``solve_sylvester`` per
eigenvalue cluster (clustered at a fixed radius); and a classification
that merges the spheres of A and A^dag and reads surjectivity from a
separate SVD of R_q(A^dag).  Kept so that tests can compare the two routes.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from qspec.errors import NumericalError
from qspec.localspec import (CONDITION_LIMIT, SpectralProjectionSet,
                             _validate_projections)
from qspec.qlinalg import (ComplexAdjointMatrix, QMatrix, _chi, _j_conj,
                           _singular_values, min_singular, nullity,
                           pseudo_resolvent)
from qspec.quat import EigenSphere, Quaternion, cluster_spheres, merge_spheres, sphere_union
from qspec.spectral import (SphereFlags, SpectrumReport, growth_bounds,
                            membership_threshold)

CLUSTER_TOL = 1e-6


def _eigenvalues(a: QMatrix) -> np.ndarray:
    if a.is_complex_slice:
        lams = np.linalg.eigvals(a.c1)
        return np.concatenate([lams, np.conj(lams)])
    return np.linalg.eigvals(_chi(a))


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
    m = _chi(a)
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
            projections.append(ComplexAdjointMatrix(0.5 * (p + _j_conj(p))).to_qmatrix())
            conditions.append(cond)
    _validate_projections(a, projections, conditions)
    return SpectralProjectionSet(spheres, tuple(projections), tuple(conditions),
                                 multiplicities, certified)


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
