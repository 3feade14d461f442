"""Reference for the spectral decomposition: the route it replaced.

Spheres from ``numpy.linalg.eigvals`` merged as ``merge_spheres`` merges;
projections from one ordered Schur form and one ``solve_sylvester`` per
eigenvalue cluster (clustered at a fixed radius); and a classification
that merges the spheres of A and A^dag and reads surjectivity from a
separate SVD of R_q(A^dag); the growth bounds from one SVD per power,
taken power by power; the projection validator that checks every
residual as a QMatrix with one ``op_norm`` each; and the portrait kappa that
formed the whole R_q of one grid point at a time before taking its kept
columns and one SVD; the object-by-object modified Gram-Schmidt behind
orthonormal bases; and the arc rasterizer that placed one sample point at a
time; the kernel dimension from a matrix's own SVD, and subspace membership
from the projection's residual; the kernel count of one matrix at a time,
sphere clusters built from one ``EigenSphere`` per input, and the largest
column of each projection from its own ``col_norms``; and the
J-conjugation M -> J conj(M) J^-1 whose fixed points are the chi images,
which J-symmetrized the projector stacks the library no longer forms; and
each sphere's projection formed from the factors as its own QMatrix, which
the local and global subspaces stacked before they took one projection of
the sphere set.  Kept so that tests can compare the two routes.

Also the shifts' banded route written out plainly: the interleaved
Golub-Kahan matrix of a kept section built entry by entry, its band copied
out by a loop and handed to ``scipy.linalg.eig_banded``; and, for checking
error bounds, counts of the eigenvalues of the section's Gram below a
value, in mpmath at 40 digits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from qspec import qlinalg
from qspec.errors import NumericalError
from qspec.localspec import MEMBER_TOL
from qspec.qlinalg import (CONDITION_LIMIT, QMatrix, QVector, SubspaceBasis, _singular_values,
                           complex_adjoint, hstack, inner, kernel_basis, min_singular, op_norm,
                           pseudo_resolvent, vstack)
from qspec.quat import EigenSphere, Quaternion, _clusters, linked_components, sphere_union
from qspec.spectral import SphereFlags, SpectrumReport, membership_threshold

CLUSTER_TOL = 1e-6


class ProjectionSet(NamedTuple):
    """The reference route's projections, under the names the library's
    ``SpectralDecomposition`` gives them."""

    spheres: tuple[EigenSphere, ...]
    projections: tuple[QMatrix, ...]
    conditions: tuple[float, ...]
    multiplicities: tuple[int, ...]
    certified: bool


def _eigenvalues(a: QMatrix) -> np.ndarray:
    if a.is_complex_slice:
        lams = np.linalg.eigvals(a.c1)
        return np.concatenate([lams, np.conj(lams)])
    return np.linalg.eigvals(complex_adjoint(a))


def nullity(a: QMatrix, tol: float = 1e-10, s: np.ndarray | None = None) -> int:
    """len(kernel_basis(a, tol)) counted from ``s = _singular_values(a)``,
    the values of chi(A)."""
    s = _singular_values(a) if s is None else s
    return kernel_dim(s, a.cols, False, tol)


def kernel_dim(s: np.ndarray, cols: int, half: bool, tol: float) -> int:
    """The kernel count of one matrix from the singular values ``s`` of its
    image: chi(A), or with ``half`` the C_i block of a complex-slice A (the
    dense portrait kernel's image), whose values count once.  |A|_F is
    summed over s / max(s), as ``qlinalg._kernel_dim`` sums every row at
    once, so that no finite value overflows when squared."""
    top = float(np.max(s, initial=0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        fro = top * math.sqrt(float(np.sum((s / (top if top > 0 else 1.0)) ** 2))
                              / (1 if half else 2))
    if not math.isfinite(fro):
        raise NumericalError(f"singular values up to {s.max():.3e} give no finite |A|_F")
    rank = int(np.sum(s > tol * (1.0 + fro)))
    if half:
        return cols - rank
    null = 2 * cols - rank
    if null % 2:
        raise NumericalError(f"chi(A) has an odd null space dimension {null}")
    return null // 2


def _eigen_clusters(lams: np.ndarray, tol: float) -> tuple[tuple[EigenSphere, ...], np.ndarray]:
    """The clusters at ``tol`` of the spheres (Re l, |Im l|) of the
    eigenvalues ``lams``, as ``quat.merge_spheres`` forms them at
    SPHERE_MERGE_TOL."""
    return _clusters(lams.real, np.abs(lams.imag), tol)


def object_clusters(spheres, tol: float) -> tuple[tuple[EigenSphere, ...], np.ndarray]:
    """``quat._clusters`` with the members as ``EigenSphere`` objects,
    sorted by ``key()``."""
    items = list(spheres)
    n = len(items)
    if not n:
        return (), np.zeros(0, dtype=np.intp)
    re, im = np.array([s.key() for s in items]).T
    root = linked_components(re, im, tol)
    groups: dict[int, list[EigenSphere]] = {}
    for k in sorted(range(n), key=lambda k: items[k].key()):
        groups.setdefault(int(root[k]), []).append(items[k])
    cents = {r: EigenSphere(sum(s.re for s in g) / len(g), sum(s.im for s in g) / len(g))
             for r, g in groups.items()}
    ranked = sorted(cents, key=lambda r: cents[r].key())
    where = {r: i for i, r in enumerate(ranked)}
    return (tuple(cents[r] for r in ranked),
            np.array([where[int(r)] for r in root], dtype=np.intp))


def j_conj(m: np.ndarray) -> np.ndarray:
    """M -> J conj(M) J^-1 with J = [[0, I], [-I, 0]], over the last two axes,
    as a new array.

    chi images are exactly its fixed points, so a stack of complex
    adjoints maps to itself.
    """
    n, k = m.shape[-2] // 2, m.shape[-1] // 2
    out = np.empty_like(m)
    # block by block through out=, so that a stack costs no temporaries
    np.conjugate(m[..., n:, k:], out=out[..., :n, :k])
    np.conjugate(m[..., :n, :k], out=out[..., n:, k:])
    np.negative(np.conjugate(m[..., n:, :k], out=out[..., :n, k:]), out=out[..., :n, k:])
    np.negative(np.conjugate(m[..., :n, k:], out=out[..., n:, :k]), out=out[..., n:, :k])
    return out


def projections(dec) -> tuple[QMatrix, ...]:
    """One spectral projection per sphere of the validated decomposition
    ``dec``, formed from its ``projection_factors``: see ``factor_projections``."""
    return factor_projections(*dec.projection_factors)


def factor_projections(v: np.ndarray, u: np.ndarray, owner: np.ndarray) -> tuple[QMatrix, ...]:
    """The projection of each sphere of ``owner``, formed from the factors
    one sphere at a time: the top block row [P1, P2] of the J-symmetrized
    (V_i U_i + J conj(V_i U_i) J^-1) / 2 on chi(A)."""
    n = len(v) // 2
    out = []
    for i in range(int(owner.max(initial=-1)) + 1):
        cols = owner == i
        p = v[:, cols] @ u[cols]
        p = 0.5 * (p + j_conj(p))
        out.append(QMatrix(p[:n, :n], p[:n, n:]))
    return tuple(out)


def schur_route(a: QMatrix) -> qlinalg.SpectralDecomposition:
    """The Schur route's decomposition of a copy of A, kept with neither:
    the route of every non-diagonal matrix, taken by a diagonal one too."""
    b = QMatrix(a.c1, a.c2)
    return qlinalg._schur_decomposition(b, complex_adjoint(b))


def schur_split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
    """T, Z, the blocks and W of a fresh Schur form of M and its split, as
    ``_schur_decomposition`` forms them; a decomposition keeps no T."""
    t, z = qlinalg._schur(m)
    blocks, w = qlinalg._split_schur(t, z)
    return t, z, tuple(blocks), w


def local_subspace(dec, chosen) -> SubspaceBasis:
    """The span of the ``chosen`` spheres' projections, their columns side by
    side, orthonormalized."""
    n = len(dec.m) // 2
    picked = [p for p, c in zip(projections(dec), chosen) if c]
    return SubspaceBasis(qlinalg.orthonormalize(hstack([QMatrix.zeros(n, 0), *picked]),
                                                drop_tol=1e-6))


def global_subspace(dec, chosen) -> SubspaceBasis:
    """The joint kernel at ``MEMBER_TOL`` of the projections of the spheres
    not ``chosen``, stacked one above the other; the whole space when every
    sphere is chosen."""
    n = len(dec.m) // 2
    outside = [p for p, c in zip(projections(dec), chosen) if not c]
    if not outside:
        return SubspaceBasis(QMatrix.identity(n))
    return SubspaceBasis(kernel_basis(vstack(outside), tol=MEMBER_TOL))


def largest_columns(projections) -> list[float]:
    """The largest column norm of each projection, one ``col_norms`` each."""
    return [float(np.max(p.col_norms())) for p in projections]


def in_subspace(basis: SubspaceBasis, v: QVector, tol: float = 1e-8) -> bool:
    """|v - P v| <= tol (1 + |v|) for the orthogonal projection P onto the basis."""
    return (v - basis.projection().apply(v)).norm() <= tol * (1.0 + v.norm())


def eigen_spheres(a: QMatrix, tol: float = 1e-8) -> tuple[EigenSphere, ...]:
    """Merged (Re, |Im|) of the eigenvalues of chi(A), each checked directly."""
    if a.rows == 0:
        return ()
    spheres = _eigen_clusters(_eigenvalues(a), tol)[0]
    check_scale = 1e-6 * (1.0 + a.frobenius() ** 2)
    for s in spheres:
        if min_singular(pseudo_resolvent(a, Quaternion(s.re, s.im))) > check_scale:
            raise NumericalError(f"eigen-sphere ({s.re}, {s.im}) failed the residual check")
    return spheres


def projection_set(a: QMatrix, cluster_tol: float = CLUSTER_TOL) -> ProjectionSet:
    """One ordered Schur form and one Sylvester solve per sphere cluster."""
    n = a.rows
    m = complex_adjoint(a)
    spheres, labels = _eigen_clusters(np.linalg.eigvals(m), cluster_tol)
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
            sym = 0.5 * (p + j_conj(p))
            projections.append(QMatrix(sym[:n, :n], sym[:n, n:]))
            conditions.append(cond)
    validate_projections(a, projections, conditions)
    return ProjectionSet(spheres, tuple(projections), tuple(conditions),
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


def classify(a: QMatrix, tol: float = 1e-8) -> SpectrumReport:
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
    radius, lower = growth_bounds(a) if a.rows else (0.0, 0.0)
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


def _section_entries(side: str, n: int, coefs):
    """(row, column, value) of each entry of a shift's kept n x (n - 2)
    section, ``coefs`` = (r2, -2x, 1) standing at rows j, j + 1, j + 2 of
    column j (right shift) or at rows j, j - 1, j - 2 (left, cut off above
    the first row)."""
    for j in range(n - 2):
        rows = (j, j + 1, j + 2) if side == "right" else (j, j - 1, j - 2)
        for i, value in zip(rows, coefs):
            if i >= 0:
                yield i, j, value


def kept_section(side: str, n: int, x: float, y: float) -> np.ndarray:
    """The kept n x (n - 2) section of R_{x+yI} of the ``side`` shift."""
    r = np.zeros((n, n - 2))
    for i, j, value in _section_entries(side, n, (x * x + y * y, -2.0 * x, 1.0)):
        r[i, j] = value
    return r


def golub_kahan(side: str, n: int, x: float, y: float) -> np.ndarray:
    """The Golub-Kahan matrix [[0, R], [R^T, 0]] of the kept section R, its
    rows and columns interleaved: row k of R, then column k (right shift),
    or column k, then row k (left); R's last two rows come last."""
    cols = n - 2
    first = 0 if side == "right" else 1
    at_row = [2 * k + first if k < cols else cols + k for k in range(n)]
    at_col = [2 * k + 1 - first for k in range(cols)]
    g = np.zeros((n + cols, n + cols))
    for i, j, value in _section_entries(side, n, (x * x + y * y, -2.0 * x, 1.0)):
        g[at_row[i], at_col[j]] = g[at_col[j], at_row[i]] = value
    return g


def lower_band(g: np.ndarray, width: int) -> np.ndarray:
    """The lower band storage of the symmetric g, ab[d, c] = g[c + d, c]."""
    ab = np.zeros((width + 1, len(g)))
    for d in range(width + 1):
        for c in range(len(g) - d):
            ab[d, c] = g[c + d, c]
    return ab


def band_kappas(side: str, window: int, xs, ys) -> np.ndarray:
    """kappa(R_{x+yI}) on the kept window section of the ``side`` shift, one
    point at a time: eigenvalue ``window``, 0-based and ascending, of the
    Golub-Kahan matrix, from its band by ``scipy.linalg.eig_banded``."""
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    out = np.empty(xs.shape)
    for idx in np.ndindex(xs.shape):
        ab = lower_band(golub_kahan(side, window, float(xs[idx]), float(ys[idx])), 3)
        out[idx] = scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True, select="i",
                                           select_range=(window, window))[0]
    return out


def kappa_within(side: str, n: int, x: float, y: float, value: float, units: float) -> bool:
    """Whether kappa of the kept n x (n - 2) section at x + yI, x and y taken
    exactly, lies within ``units`` eps (1 + 2|x| + r2) of ``value``: no
    eigenvalue of R^T R below (value - err)^2 and one below (value + err)^2,
    counted as the negative pivots of the LDL^T factors of the pentadiagonal
    R^T R - mu I (Sylvester's law of inertia), in mpmath at 40 digits."""
    import mpmath

    cols = n - 2
    with mpmath.workdps(40):
        x, y, value = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(float(value))
        err = units * mpmath.mpf(np.finfo(float).eps) * (1 + 2 * abs(x) + x * x + y * y)
        mus = ((value - err) ** 2 if value > err else 0, (value + err) ** 2)
        column = [{} for _ in range(cols)]
        for i, j, entry in _section_entries(side, n, (x * x + y * y, -2 * x, mpmath.mpf(1))):
            column[j][i] = entry
        gram = [[mpmath.fsum(v * column[j + o].get(i, 0) for i, v in column[j].items())
                 for j in range(cols - o)] for o in range(3)]
        counts = []
        for mu in mus:
            # a Gram has no eigenvalue below 0
            d, l1, l2 = [], [0] * cols, [0] * cols
            for k in range(cols if mu > 0 else 0):
                pivot = gram[0][k] - mu
                if k >= 2:
                    l2[k] = gram[2][k - 2] / d[k - 2]
                    pivot -= l2[k] ** 2 * d[k - 2]
                if k >= 1:
                    l1[k] = (gram[1][k - 1] - (l2[k] * l1[k - 1] * d[k - 2] if k >= 2 else 0)) \
                        / d[k - 1]
                    pivot -= l1[k] ** 2 * d[k - 1]
                d.append(pivot)
            counts.append(sum(p < 0 for p in d))
    return counts[0] == 0 and counts[1] >= 1


def growth_bounds(a: QMatrix, n_max: int = 8) -> tuple[float, float]:
    """The growth bounds over the first ``n_max`` powers of A from one SVD
    per power, power by power."""
    if a.rows == 0:
        return 0.0, math.inf
    floor = 2 * a.rows * np.finfo(float).eps
    radius, lower = math.inf, 0.0
    power = a
    for n in range(1, n_max + 1):
        s = _singular_values(power)
        top, kappa = float(s[0]), float(s[-1])
        radius = min(radius, top ** (1.0 / n))
        if kappa > floor * top:
            lower = max(lower, kappa ** (1.0 / n))
        if n < n_max:
            power = power @ a
    return radius, lower


def orthonormalize(vectors, drop_tol: float = 1e-10) -> list[QVector]:
    """Modified Gram-Schmidt over right quaternion scalars, one QVector and
    one Quaternion inner product per basis vector, in two passes."""
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


def arc_mask(g, radius: float) -> np.ndarray:
    """The half-circle wall of ``suites._arc_mask``, one sample point at a time."""
    xs, ys = g.xs(), g.ys()
    mask = np.zeros((g.ny, g.nx), dtype=bool)
    for theta in np.linspace(0.0, math.pi, 8 * max(g.nx, g.ny)):
        x = radius * math.cos(theta)
        y = radius * math.sin(theta)
        ix = int(np.argmin(np.abs(xs - x)))
        iy = int(np.argmin(np.abs(ys - y)))
        mask[iy, ix] = True
    return mask
