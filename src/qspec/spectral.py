"""S-spectra of right linear operators and their sampled portraits.

The pseudo-resolvent of A at q is R_q(A) = A^2 - 2 Re(q) A + |q|^2 I; it
depends on q only through the sphere (Re q, |Im q|), which is why every
spectral set here is an axially symmetric union of spheres.  For a finite
matrix the S-spectrum is exactly the set of spheres where R_q(A) is
singular, and the point, approximate, compression and surjectivity parts
all coincide sphere by sphere.  Infinite operators are probed through
rectangular finite sections: columns of R_q applied exactly to the first
few basis vectors, so each sampled kappa is an honest value of the full
operator restricted to a finitely supported subspace, monotonically
non-increasing in the window size.

The sections of the unilateral shifts are banded Toeplitz matrices whose
Grams the sine transform diagonalizes up to a few corner terms, so their
kappa comes from a secular equation over the symbol, O(W) per point, with
an error bound; only the points where that bound cannot fix the printed
value or the side of the ``threshold_region`` cut take one banded eigenvalue
solve of the section's Golub-Kahan matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError
from .operators import ShiftOperator
from .qlinalg import QMatrix, pseudo_resolvent  # noqa: F401 (documented re-export)
from .quat import EigenSphere, Quaternion, _fmt
from . import qlinalg


def s_spectrum(a: QMatrix) -> tuple[EigenSphere, ...]:
    """Spheres where the pseudo-resolvent is singular.

    In finite dimension these are exactly the right eigenvalue spheres.
    """
    return qlinalg.right_eigenspheres(a)


def membership_threshold(a: QMatrix, tol: float) -> float:
    # R_q is quadratic in A, so the scale uses the squared Frobenius norm.
    return tol * (1.0 + a.frobenius() ** 2)


@dataclass(frozen=True)
class SphereFlags:
    """Spectrum part membership for one sphere."""

    point: bool
    approximate: bool
    compression: bool
    surjectivity: bool

    def letters(self) -> str:
        parts = (self.point, self.approximate, self.compression, self.surjectivity)
        return " ".join(c for c, on in zip("pacs", parts) if on)


@dataclass(frozen=True)
class SpectrumReport:
    """Classified S-spectrum of a finite matrix."""

    spheres: tuple[EigenSphere, ...]
    flags: dict[EigenSphere, SphereFlags]
    radius: float
    lower_bound: float
    tol: float
    threshold: float
    coincident: bool

    def part(self, name: str) -> tuple[EigenSphere, ...]:
        return tuple(s for s in self.spheres if getattr(self.flags[s], name))

    def to_lines(self) -> list[str]:
        return sorted(f"{_fmt(s.re)} {_fmt(s.im)} {self.flags[s].letters()}".rstrip()
                      for s in self.spheres)


def _fmt_array(values: np.ndarray) -> list[str]:
    """``_fmt`` of each element as a numpy scalar, in one vectorized round:
    what portraits print and certify.  numpy's ``round`` differs from
    Python's correctly rounded one on about 8 in 10^5 random floats."""
    with np.errstate(over="ignore"):
        rounded = np.round(values, 12)    # inf past about 1e296: no digit there to round
    rounded = np.where(np.isinf(rounded), values, rounded)
    return [format(v, ".12g") for v in (rounded + 0.0).tolist()]


def classify(a: QMatrix, tol: float = 1e-8) -> SpectrumReport:
    """Classify every sphere of sigma_S(A) into its four parts.

    The spheres come from A's ``spectral_decomposition``, built once per
    matrix and kept with it, so the projections and local spectra of A
    read the same Schur form; ``tol`` only sets the membership threshold,
    never the grouping of spheres.  The singular values of R_q(A) at each
    sphere give every flag, read off the decomposition's bounds on them (or
    the sphere's full SVD where the bounds leave a flag open): point
    membership (ker R_q(A) counted), approximate membership (kappa, the
    smallest value), compression (the point spectrum at the conjugate
    representative, where R_q is bit for bit the same matrix) and
    surjectivity (R_q(A^dag) = R_q(A)^dag has the same singular values).
    """
    if a.rows != a.cols:
        raise ShapeError("classification needs a square matrix")
    dec = qlinalg.spectral_decomposition(a)
    thresh = membership_threshold(a, tol)
    flags: dict[EigenSphere, SphereFlags] = {}
    for s, dim, approx in zip(dec.spheres, dec.kernel_dims(tol),
                              dec.kappa_at_most(thresh).tolist()):
        flags[s] = SphereFlags(dim > 0, approx, dim > 0, approx)
    coincident = all(f.point == f.approximate for f in flags.values())
    radius, lower = growth_bounds(a) if a.rows else (0.0, 0.0)
    return SpectrumReport(dec.spheres, flags, radius, lower, tol, thresh, coincident)


# -- growth bounds -------------------------------------------------------


def growth_bounds(a: QMatrix) -> tuple[float, float]:
    """(spectral radius bound, lower bound): inf |A^n|^(1/n) and sup
    kappa(A^n)^(1/n) over n <= 8, from one set of singular values per power.

    The powers are built in place in one (8, 2N, 2N) stack of their chi
    images: the blocks (c1, c2) of A^n = A^(n-1) A go straight into the top
    block row of slot n, as the products ``QMatrix.__matmul__`` forms from
    the previous slot's blocks, all four in one stacked matrix product, and
    one pass fills every bottom block row.  The stack is cut at the first
    power that is not finite; it takes one SVD, which gives each image the
    values of its own SVD bit for bit.  A kappa at the rounding floor
    2N eps |A^n| (N rows) is skipped: raised to 1/n it would lift the lower
    bound above small spheres.

    A diagonal A (``QMatrix.is_diagonal``) takes no power: |A^n| = max|g|^n
    and kappa(A^n) = min|g|^n over its entries g, so the bounds are
    (max|g|, min|g|), the largest and smallest modulus of a sphere, with
    none of the powers' rounding.  A modulus that is not finite gives
    (inf, 0), as the loop does when the first power is not finite.
    """
    if a.rows == 0:
        return 0.0, math.inf    # op_norm and min_singular of an empty matrix
    if a.is_diagonal:
        moduli = np.hypot(np.abs(a.c1.diagonal()), np.abs(a.c2.diagonal()))
        if not np.isfinite(moduli).all():
            return math.inf, 0.0
        return float(moduli.max()), float(moduli.min())
    rows = a.rows
    images = np.empty((8, 2 * rows, 2 * rows), dtype=np.complex128)
    blocks = images.reshape(8, 2, rows, 2, rows).swapaxes(2, 3)    # blocks[n, r, s]: a view
    blocks[0, 0] = a.c1, a.c2
    # A^n = A^(n-1) A has the blocks QMatrix.__matmul__ forms, c1 = p1 a1 -
    # p2 conj(a2) and c2 = p1 a2 + p2 conj(a1): [p1, p2] times each row of
    # ``factors`` gives their two terms (negating a factor negates its
    # product exactly), and one sum writes both blocks of the next slot
    factors = np.array([[a.c1, -np.conj(a.c2)], [a.c2, np.conj(a.c1)]])
    terms = np.empty_like(factors)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, 8):
            np.add(*np.matmul(blocks[n - 1, 0], factors, out=terms).swapaxes(0, 1),
                   out=blocks[n, 0])
        # chi(A^n) = [[c1, c2], [-conj c2, conj c1]]
        np.conjugate(blocks[:, 0, ::-1], out=blocks[:, 1])
        np.negative(blocks[:, 1, 0], out=blocks[:, 1, 0])
        finite = np.isfinite(images).all(axis=(1, 2))
    # each power bounds alone: the ones before the first overflow stand
    count = 8 if finite.all() else int(finite.argmin())
    # each power's largest and smallest singular value
    ends = np.linalg.svd(images[:count], compute_uv=False)[:, [0, -1]].tolist() if count else ()
    floor = 2 * a.rows * np.finfo(float).eps
    radius, lower = math.inf, 0.0
    for n, (top, kappa) in enumerate(ends, 1):
        radius = min(radius, top ** (1.0 / n))
        if kappa > floor * top:
            lower = max(lower, kappa ** (1.0 / n))
    return radius, lower


def spectral_radius(a: QMatrix) -> float:
    """inf over n <= 8 of |A^n|^(1/n); an upper bound for sigma_S."""
    return growth_bounds(a)[0]


@dataclass(frozen=True)
class AnnulusVerdict:
    """Outcome of the annulus containment check for approximate spheres."""

    ok: bool
    violations: tuple[EigenSphere, ...]

    def __bool__(self) -> bool:
        return self.ok


def annulus_check(report: SpectrumReport, tol: float = 1e-6) -> AnnulusVerdict:
    """Every approximate sphere must satisfy i(A) <= |q| <= r_S(A) up to a
    slack of tol * (1 + r_S(A)): the bounds and the moduli round at about
    eps |A|, so the slack scales with A, as ``membership_threshold`` scales
    with R_q."""
    slack = tol * (1.0 + report.radius)
    bad = tuple(
        s for s in report.part("approximate")
        if not (report.lower_bound - slack <= s.abs_value() <= report.radius + slack))
    return AnnulusVerdict(ok=not bad, violations=bad)


# -- portraits -----------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Half-plane sampling grid: x in [x0, x1], y in [0, y1]."""

    x0: float
    x1: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("x0", "x1", "y1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"grid bound {name} = {getattr(self, name)!r} is not finite")
        if self.x1 < self.x0:
            raise ValueError("x1 must not be below x0")
        if self.y1 < 0.0:
            raise ValueError("the slice grid lives in y >= 0")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid resolution must be positive")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(0.0, self.y1, self.ny)


# -- shift sections from the symbol ---------------------------------------
#
# On the slice of q = x + yI, with lam = x + iy and r2 = x^2 + y^2, the kept
# columns of a shift's section are the real banded Toeplitz matrix of
# p(z) = z^2 - 2xz + r2 = (z - lam)(z - conj(lam)).  Column j of the right
# shift's holds r2, -2x, 1 at rows j, j+1, j+2 (W rows, n = W - 2 columns);
# the left shift's is the n x n triangle of its first n rows turned around,
# which has the same singular values.  The sine transform (DST-I)
# diagonalizes C = tridiag(1/2, 0, 1/2) with the modes theta_k = k pi/(n+1),
# and g(C) has the eigenvalues d_k = |p(e^{i theta_k})|^2.  Both Grams are
# corner updates of g(C) (the tau algebra: Bini & Capovani, Linear Algebra
# Appl. 52/53 (1983)):
#
#   right  R^T R = g(C) + r2 (e_0 e_0^T + e_{n-1} e_{n-1}^T)
#   left   L^T L = g(C) + r2 e_{n-1} e_{n-1}^T + (r2 - 1) e_0 e_0^T - c c^T,
#          c = e_1 - 2x e_0
#
# The right update is persymmetric and splits into one positive rank-one
# update on the odd and one on the even modes, so kappa^2 is the smaller of
# two secular-equation roots (Golub, SIAM Rev. 15 (1973)), each accurate to a
# few ulps.  The left update is indefinite; kappa^2 is the first zero of a
# 3 x 3 secular determinant, kept in a bracket by counts of the eigenvalues
# below mu (Haynsworth inertia).  For y != 0 the sorted d_k, and with them
# the smallest eigenvalues, come in close pairs from the two sides of the
# symbol's minimum (lam and conj(lam)), and on the real axis the lowest
# modes cluster; so the steps go to the roots of the determinant's
# second-order model, with its exact second derivative, which holds a pair,
# or to the m-fold root a cluster looks like, and take a bounded number of
# probes.  A point stops once the determinant is at its rounding level, and
# leaves the arrays.  The value is accurate only where the terms of
# x^T L^T L x do not cancel, so not where kappa is small.  There, inside the
# unit disc, the inverse of the section is the Toeplitz matrix of 1/p, and
# kappa is one over its largest singular value, which block power steps
# bound from both sides until the bounds decide the cell.  Each value comes
# with an error bound, and a cell whose printed value (``_fmt``) or side of
# the ``threshold_region`` cut the bound cannot fix is left to the band: the
# smallest singular value of the kept section R is an eigenvalue of the
# Golub-Kahan matrix [[0, R], [R^T, 0]] (Golub & Kahan, SIAM J. Numer. Anal.
# B 2 (1965)), a symmetric band once R's rows and columns interleave, and
# LAPACK's dsbevx gives that one eigenvalue without vectors.

_EPS = float(np.finfo(float).eps)
#: ``threshold_region``'s one cut, the one the shift kernel certifies against
REGION_TOL = 1e-8
#: points x sine modes per chunk of the symbol kernels
_SYMBOL_ENTRIES = 1 << 15
#: Newton steps at most per secular root (bisection steps when Newton strays)
_SECULAR_STEPS = 80
#: steps at most per left-shift point after the two search probes
_LEFT_STEPS = 20
#: a value below this prints as 0
_PRINTS_ZERO = 5e-13
#: block power steps at most on the inverse of a left-shift section
_POWER_STEPS = 8
#: error bounds: of the banded solve's kappa and of the right route's, in
#: units of eps times the section's norm bound 1 + 2|x| + r2, measured against
#: kappa to 40 digits.  The band: at most 1.46 on 943 points, both shifts at
#: W = 96, 97, 151, 257 with r = 1.05-3 and x = cos(pi/2) r, 1e-16 or -1e-12,
#: 32 random points at W = 64-151, the tests' stress sets and every hard cell
#: of six benchmark seeds and of the default grid at W = 1024; it can pass 2
#: near the imaginary axis (1e-10 <= |x| / |q| <= 1e-6) and near q = 0 (right
#: shift, |q| <= 1e-4), growing with W, and for |q| past 3 (3.3 below 1e3, 17
#: past it), where the symbol routes decide.  One stacked secular solve: at
#: most 0.96 on 3,219 stress, benchmark and |q| <= 1e6 points.  Of the left
#: route's kappa^2, in eps times its first-order error (``_LeftGram.error``)
_BAND_ERR, _RIGHT_ERR, _LEFT_ERR = 2.0, 2.0, 16.0
#: the largest scale 1 + 2|x| + r2 the symbol routes take: the left route's
#: model step squares products of its terms, about scale^12 in all, which
#: passes double precision from about scale 3e24 on (measured)
_SYMBOL_SCALE = 1e20
#: left points with |x| <= _NEAR_AXIS eps r2 (cols + 1) go to the band
#: (a scan of cols 3-1022, y 10-1e8 and x/y 1e-18-1e-4 found the Gram split
#: failing up to |x| / (eps r2) = 142 at cols 62 and 4,504 at cols 1022)
_NEAR_AXIS = 16.0
#: the entries (i, j), i <= j, of a symmetric 3 x 3 matrix, in a flat row,
#: and how often each stands in the whole matrix
_UPPER = (np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 1, 2, 2]))
_TWICE = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
#: in that flat row, adj(A) = A[i] A[j] - A[m] A[n] for a symmetric 3 x 3 A:
#: [[i, m], [j, n]]
_ADJ = np.array([[[3, 2, 1, 0, 1, 0], [4, 1, 2, 2, 0, 1]],
                 [[5, 4, 4, 5, 2, 3], [4, 5, 3, 2, 4, 1]]])
#: offsets from a pole k: to k and k + 1, and to k - 1 ... k + 2
_PAIR, _AROUND = np.array([[0], [1]]), np.array([[-1], [0], [1], [2]])
#: the entries of a symmetric 5 x 5 matrix in its flat upper triangle
_SYMMETRIC = np.array([[0, 1, 2, 3, 4], [1, 5, 6, 7, 8], [2, 6, 9, 10, 11],
                       [3, 7, 10, 12, 13], [4, 8, 11, 13, 14]])


def _region_cut(norm_scale: float) -> float:
    return REGION_TOL * (1.0 + norm_scale ** 2)


def _sine_modes(cols: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.arange(1, cols + 1) * (math.pi / (cols + 1))
    return np.cos(theta), np.sin(theta)


def _symbol(c: np.ndarray, s: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """d_k = |e^{i theta_k} - lam|^2 |e^{i theta_k} - conj(lam)|^2, a row per
    point, as products of sums of squares so that nothing cancels."""
    dx = (c - xs[:, None]) ** 2
    return (dx + (s - ys[:, None]) ** 2) * (dx + (s + ys[:, None]) ** 2)


def _secular_min(d: np.ndarray, w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of diag(d) + rho z z^T, z_k^2 = w_k, a row of d
    and of w per point; a pole d_k = +inf of weight w_k = 0 adds a zero term.

    It is d_(1) + tau, tau the root in (0, gap) of the increasing convex
    h(tau) = tau (1 + rho phi(tau)) - rho w_(1), phi(tau) = sum w_k /
    (d_k - d_(1) - tau) over the other modes: the secular equation in the gap
    variable, so that no term cancels.  Newton steps from a point right of
    the root stay right of it and converge monotonically; until there is
    one, a Newton step from the left that leaves the bracket bisects it.  A
    smallest d_k that is repeated stays an eigenvalue (tau = 0), and so does
    every d_k when rho = 0.
    """
    rows = np.arange(len(d))
    first = np.argmin(d, axis=1)
    d1 = d[rows, first]
    delta = d - d1[:, None]
    delta[rows, first] = np.inf
    gap = delta.min(axis=1)
    delta[gap == 0] = np.inf
    pull = rho * w[rows, first]
    lo, hi = np.zeros_like(d1), np.minimum(gap, pull)
    # where pull < gap, h(pull) >= 0: a point right of the root
    tau = np.where(pull < gap, pull, 0.5 * hi)
    ahead = np.full_like(d1, np.nan)     # the Newton step from the last right point
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SECULAR_STEPS):
            den = delta - tau[:, None]
            terms = w / den
            f = 1.0 + rho * terms.sum(axis=1)
            h = tau * f - pull
            newton = tau - h / (f + tau * rho * (terms / den).sum(axis=1))
            # h is increasing and convex: from the left of the root a Newton
            # step is at least the distance to it, and from the right the
            # steps shrink to it, so one within rounding of tau ends the search
            settled = np.abs(newton - tau) <= 2.0 * _EPS * newton
            right = h >= 0
            lo, hi = np.where(right, lo, tau), np.where(right, tau, hi)
            ahead = np.where(right, newton, ahead)
            inside = (newton > lo) & (newton < hi)
            step = np.where(settled | right | inside, newton,
                            np.where((ahead > lo) & (ahead < hi), ahead, 0.5 * (lo + hi)))
            done = settled | (np.abs(step - tau) <= 2.0 * _EPS * step)
            tau = step
            if done.all():
                break
    return d1 + tau


def _right_gram_min(c, s, d, r2) -> np.ndarray:
    """Smallest eigenvalue of R^T R: the odd and the even sine modes each see
    the update r2 z z^T with z_k^2 = 4 sin^2 theta_k / (n + 1).  Both take
    one secular solve, the even modes' rows below the odd ones', padded for
    odd n with a pole at +inf of weight 0.  The padding's terms are zeros,
    but the longer rows group their sums differently and every row steps
    until all are done, so a root may move in its last bits against one
    solve per parity (by at most an ulp of kappa, measured)."""
    count, half = len(d), (len(c) + 1) // 2
    w = (4.0 / (len(c) + 1)) * s * s
    poles, weights = np.full((2 * count, half), np.inf), np.zeros((2 * count, half))
    poles[:count], poles[count:, :len(c) // 2] = d[:, 0::2], d[:, 1::2]
    weights[:count], weights[count:, :len(c) // 2] = w[0::2], w[1::2]
    mins = _secular_min(poles, weights, np.concatenate([r2, r2]))
    return np.minimum(mins[:count], mins[count:])


class _LeftGram:
    """L^T L in the sine basis, a row per point: M = diag(d) + V T V^T.

    The three columns of V are the sine coordinates of e_{n-1}, e_0 and c,
    scaled by sqrt|s| for the weights s = (r2, r2 - 1, -1), and T holds
    their signs (+1 for a zero weight, whose column is then zero).  The
    modes are sorted by d at each point.

    By Haynsworth's inertia formula on K = [[D - mu, V], [V^T, -T]], the
    eigenvalues of M below mu number #(d_k < mu) + pos(H) - pos(T), with
    H = T + V^T (D - mu)^-1 V, and det(M - mu) = det(D - mu) det(T) det(H).
    Each count keeps two poles d_k, d_{k+1} out of the sums in H, so that
    their size cancels nowhere.

    Everything per mode sits in one block of 16 planes, a (points, modes)
    array each: d, the three columns of V, the six products V_i V_j of the
    flat upper triangle (``_UPPER``) and their absolute values, so that
    ``take`` is one gather.  The products are read as a (points, modes, 6)
    view whose columns are unit-stride, the layout in which the batched
    matmul of the sums adds its terms.

    One ``probe`` makes three passes over the modes (the reciprocal gaps
    and their powers, one batched matmul for the sums of H, G and P, one
    for their absolute sums), O(n) per point, and then about a hundred
    numpy calls on arrays of a few rows per point, whatever n is: on the
    benchmark's grids (up to 45 points, n of 94 to 159) 0.2 to 0.4 ms on a
    2-core x86-64 host with one BLAS thread, most of it call overhead.
    """

    def __init__(self, c, s, d, xs, r2):
        cols = len(c)
        a = math.sqrt(2.0 / (cols + 1)) * s               # e_0
        alt = np.where(np.arange(cols) % 2 == 0, a, -a)   # e_{n-1}
        weights = np.stack([r2, r2 - 1.0, np.full_like(r2, -1.0)], axis=1)
        self.t = np.where(weights >= 0, 1.0, -1.0)
        self.positive = np.count_nonzero(self.t > 0, axis=1)
        root = np.sqrt(np.abs(weights))
        order = np.argsort(d, axis=1)
        a_k = a[order]
        planes = np.empty((16, len(d), cols))
        planes[0] = np.sort(d, axis=1)
        np.multiply(alt[order], root[:, :1], out=planes[1])
        np.multiply(a_k, root[:, 1:2], out=planes[2])
        # sin 2 theta_k = 2 sin theta_k cos theta_k: the coordinates of e_1
        np.subtract(2.0 * (a * c)[order], 2.0 * xs[:, None] * a_k, out=planes[3])
        # V_0 V_0, V_0 V_1, V_0 V_2 | V_1 V_1, V_1 V_2 | V_2 V_2
        np.multiply(planes[1], planes[1:4], out=planes[4:7])
        np.multiply(planes[2], planes[2:4], out=planes[7:9])
        np.multiply(planes[3], planes[3], out=planes[9])
        np.abs(planes[4:10], out=planes[10:])
        self._hold(planes)

    def _hold(self, planes):
        self.planes, self.d = planes, planes[0]
        self.v6 = planes[4:10].transpose(1, 2, 0)
        self.v6abs = planes[10:].transpose(1, 2, 0)
        self.rows = np.arange(planes.shape[1])

    def take(self, keep):
        """The Gram of the points ``keep`` alone."""
        sub = object.__new__(_LeftGram)
        sub.t, sub.positive = self.t[keep], self.positive[keep]
        sub._hold(self.planes[:, keep])
        return sub

    def _sums(self, dm, pair):
        """T plus the sums of H over all poles but the two at ``pair`` (k
        and k + 1 in a (2, points) array), and their first and half second
        derivatives in mu, as flat upper triangles in a (points, 3, 6)
        array; and the reciprocal gaps."""
        # power by point, a plane each; the matmul reads each point's three
        # rows with unit stride, as from a (points, 3, modes) stack
        powers = np.empty((3,) + dm.shape)
        inv = powers[0]
        np.divide(1.0, dm, out=inv)
        inv[self.rows, pair] = 0.0
        np.multiply(inv, inv, out=powers[1])
        np.multiply(powers[1], inv, out=powers[2])
        sums = np.matmul(powers.transpose(1, 0, 2), self.v6)
        h, t = sums[:, 0], self.t
        h[:, 0] += t[:, 0]
        h[:, 3] += t[:, 1]
        h[:, 5] += t[:, 2]
        return sums, inv

    def probe(self, mu, k):
        """At each point: the eigenvalues below mu, and a (4, points) array
        of G = F (d_{k-1} - mu) (d_{k+2} - mu) with F = det(H) (d_k - mu)
        (d_{k+1} - mu), G's first two derivatives in mu and its rounding
        level.

        The poles k, k + 1 enter the leading minors of H as rank-one terms;
        scaled by the product of their gaps, each minor is a polynomial with
        no large term, and the signs of the minors give the inertia of H
        (Jacobi).  That is fast, but not accurate at a close pair of
        eigenvalues, which ``count`` is.  The gaps to the next poles out,
        k - 1 and k + 2, take their poles out of G as well, so that a
        second-order model of G reaches up to them; G has F's zeros.  The
        rounding level is eps times F's sums taken over absolute values
        (the far sums of H too), times those gaps.  Where mu meets a far
        pole, or a term passes double precision, the values are not
        finite, without a warning: the caller gives such a point up.
        """
        rows, cols, count = self.rows, self.d.shape[1], len(mu)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dm = self.d - mu[:, None]
            poles = np.add.reduce(dm < 0, axis=1)
            # d and V at the poles k - 1 ... k + 2 (k - 1 and k + 2 wrap or
            # repeat where there is none), in one gather
            around = np.minimum(k + _AROUND, cols - 1)
            sums, inv = self._sums(dm, around[1:3])
            at = self.planes[:4, rows, around]
            near = at[0] - mu
            e1, e2 = near[1], near[2]
            # component, vector (u and v: V's rows k and k + 1, and u x v),
            # point; components 0 and 1 again below 2, so that each
            # component of u x v reads two slices
            x = np.empty((5, 3, count))
            x[:3, :2] = at[1:, 1:3]
            x[3:, :2] = x[:2, :2]
            np.subtract(x[1:4, 0] * x[2:, 1], x[2:, 0] * x[1:4, 1], out=x[:3, 2])
            # A is H over the far poles, A' = G and A'' = 2 P; the adjugate
            # of A and its first two derivatives, each entry a difference of
            # products of two entries of A, G or P, from one gather: prod[r,
            # s, 0] = R_r[i] S_s[j] and prod[r, s, 1] = R_r[m] S_s[n] for
            # R, S in (A, G, P)
            b = np.zeros((7, 6, count))
            b[3:6] = sums.transpose(1, 2, 0)
            a, g, p = b[3], b[4], b[5]
            terms = b[3:6, _ADJ]
            prod = terms[:, None, 0] * terms[None, :, 1]
            adj, dadj, ddadj = b[0], b[1], b[2]
            np.subtract(prod[0, 0, 0], prod[0, 0, 1], out=adj)
            np.add(prod[1, 0, 0], prod[0, 1, 0], out=dadj)
            dadj -= prod[1, 0, 1]
            dadj -= prod[0, 1, 1]
            np.add(prod[2, 0, 0], prod[1, 1, 0], out=ddadj)
            ddadj += prod[0, 2, 0]
            ddadj -= prod[2, 0, 1]
            ddadj -= prod[1, 1, 1]
            ddadj -= prod[0, 2, 1]
            ddadj *= 2.0
            b[6, 0], b[6, 3] = a[3], a[0]
            np.negative(a[1], out=b[6, 1])
            # x^T B x for x = u, v, u x v and B = adj(A) and its derivatives,
            # A, G, P and the adjugate of A's leading 2 x 2 block; the
            # products x_i x_j stand plane by plane, as a gather along the
            # vector axis lays them out
            xx = np.empty((6, 3, count))
            np.multiply(x[0], x[:3], out=xx[:3])
            np.multiply(x[1], x[1:3], out=xx[3:5])
            np.multiply(x[2], x[2], out=xx[5])
            xx *= _TWICE[:, None, None]
            pairs = xx.transpose(1, 0, 2)
            form = np.einsum("xkp,bkp->xbp", pairs, b)
            near_form = form[:2] * near[2:0:-1, None]     # e2 form[0], e1 form[1]
            det3 = np.add.reduce(a[:3] * adj[:3], axis=0)
            both, either = e1 * e2, e1 + e2
            minors = np.empty((3, count))
            np.add(a[0] * both + e2 * pairs[0, 0], e1 * pairs[1, 0], out=minors[0])
            np.add(adj[5] * both + near_form[0, 6] + near_form[1, 6], pairs[2, 5], out=minors[1])
            m3 = minors[2]
            np.add(det3 * both + near_form[0, 0] + near_form[1, 0], form[2, 3], out=m3)
            # d det(A) = tr(adj(A) dA), and d^2 det(A) = tr(d adj(A) dA + adj(A) d^2 A)
            ddet = np.add.reduce(_TWICE[:, None] * adj * g, axis=0)
            dddet = np.add.reduce(_TWICE[:, None] * (dadj * g + 2.0 * adj * p), axis=0)
            dm3 = (ddet * both - det3 * either - form[0, 0] - form[1, 0]
                   + near_form[0, 1] + near_form[1, 1] + form[2, 4])
            d2m3 = (dddet * both - 2.0 * ddet * either + 2.0 * det3
                    - 2.0 * (form[0, 1] + form[1, 1]) + near_form[0, 2] + near_form[1, 2]
                    + 2.0 * form[2, 5])
            # the same sums over absolute values: F's rounding level over eps
            big = np.matmul(np.abs(inv)[:, None, :], self.v6abs)[:, 0].T
            big[0] += 1.0
            big[3] += 1.0
            big[5] += 1.0
            bigs = big[_ADJ]
            big_b = np.empty((2, 6, count))
            np.add(*(bigs[0] * bigs[1]), out=big_b[0])
            big_b[1] = big
            big_form = np.einsum("xkp,bkp->xbp", np.abs(pairs), big_b)
            size = np.abs(near)
            noise = (np.add.reduce(big[:3] * big_b[0, :3], axis=0) * np.abs(both)
                     + size[2] * big_form[0, 0] + size[1] * big_form[1, 0] + big_form[2, 1])
            # the scaling flips the sign of every minor where both < 0
            signs = (minors < 0) != (both < 0)
            turns = signs[1:] != signs[:2]
            below = poles + 3 - self.positive - signs[0] - turns[0] - turns[1]
            # G = F times the gaps to the poles k - 1 and k + 2 (1 where there
            # is none), a product whose second derivative is 2 or 0
            low, high = k > 0, k + 2 < cols
            ea, eb = np.where(low, near[0], 1.0), np.where(high, near[3], 1.0)
            gaps, slant = ea * eb, -(low * eb + high * ea)
            model = np.empty((4, count))
            np.multiply(m3, gaps, out=model[0])
            np.add(dm3 * gaps, m3 * slant, out=model[1])
            np.add(d2m3 * gaps, 2.0 * (dm3 * slant + m3 * (low & high)), out=model[2])
            np.multiply(_EPS * noise, np.abs(gaps), out=model[3])
        return below, model

    def _complement(self, mu):
        """The Schur complement of all but the two nearest poles in K (5 x 5,
        with no large entry), scaled on both sides by the inverse square
        roots of its absolute row sums (a congruence: the inertia stays);
        that scale; the eigenvalues of M below mu from the poles outside it;
        and the split's slopes and reciprocal gaps."""
        rows, cols = self.rows, self.d.shape[1]
        with np.errstate(divide="ignore"):
            dm = self.d - mu[:, None]
            poles = np.add.reduce(dm < 0, axis=1)
            # the sorted poles k and k + 1 nearest mu
            k = np.minimum(np.maximum(poles - 1, 0), cols - 2)
            far = np.abs(dm[rows, np.minimum(k + _AROUND, cols - 1)])
            k = np.where((k > 0) & (far[0] < far[2]), k - 1,
                         np.where((k + 2 < cols) & (far[3] < far[1]), k + 1, k))
            pair = k + _PAIR
            sums, inv = self._sums(dm, pair)
        # its upper triangle row by row, (0, 0) first, entry by point; + 0.0
        # turns -0.0 into 0.0 (LAPACK picks reflector signs by the sign bit)
        at = self.planes[:4, rows, pair]
        upper = np.zeros((15, len(mu)))
        gaps = at[0] - mu
        upper[[0, 5]] = gaps
        upper[2:5], upper[6:9] = at[1:, 0], at[1:, 1]
        np.negative(sums[:, 0].T, out=upper[9:])
        upper += 0.0
        small = upper[_SYMMETRIC].transpose(2, 0, 1)
        outside = poles - np.add.reduce(gaps < 0, axis=0)
        scale = 1.0 / np.sqrt(np.sum(np.abs(small), axis=2))
        small *= scale[:, :, None] * scale[:, None, :]
        return small, scale, outside, sums[:, 1], inv

    def count(self, mu):
        """At each point: the eigenvalues of M below mu, from ``eigvalsh`` on
        the scaled Schur complement, and whether its eigenvalues are clear of
        0 by their backward error."""
        small, _, outside, _, _ = self._complement(mu)
        lam = np.linalg.eigvalsh(small)
        size = np.abs(lam)
        below = outside + np.add.reduce(lam < 0, axis=1) - self.positive
        return below, size.min(axis=1) > 16.0 * _EPS * size.max(axis=1)

    def error(self, mu):
        """At each point: the error of an eigenvalue of M at mu, to first
        order, in units of eps.

        The eigenvector (x_near, w) of the scaled Schur complement nearest 0
        gives V^T x = T w, so x^T M x = mu |x|^2 is a sum whose terms have
        absolute values adding to mu |x|^2 + 2 sum_{t_i < 0} w_i^2: relative
        errors of d and V move mu by eps times that over |x|^2.  Rounding in
        the far sums adds sum_far |V_k|^2 / |d_k - mu| times |w|^2, and the
        backward error of the 5 x 5 eigensolver its norm, each over |x|^2,
        whose far part is w^T (sum_far V V^T / (d - mu)^2) w: the slope of
        that eigenvalue.
        """
        small, scale, _, slope, inv = self._complement(mu)
        lam, vec = np.linalg.eigh(small)
        size = np.abs(lam)
        z = vec[self.rows, :, np.argmin(size, axis=1)] * scale
        w = z[:, 2:]
        ww = w * w
        pairs = w[:, _UPPER[0]] * w[:, _UPPER[1]] * _TWICE
        norm = np.sum(z[:, :2] ** 2, axis=1) + np.sum(slope * pairs, axis=1)
        # |V_k|^2: the planes of V_0 V_0, V_1 V_1 and V_2 V_2
        square = self.planes[4] + self.planes[7] + self.planes[9]
        spread = mu + (2.0 * np.sum(ww * (self.t < 0), axis=1)
                       + np.sum(np.abs(inv) * square, axis=1) * np.sum(ww, axis=1)
                       + 2.0 * size.max(axis=1)) / norm
        return spread


def _model_step(f, f1, f2, below):
    """The step h to the smallest eigenvalue from a point where F, F' and
    F'' are f, f1 and f2 and ``below`` eigenvalues lie below: right of it
    where none does, left where one or two do, or nan.

    The roots of the second-order model f + f1 h + f2 h^2 / 2 hold a close
    pair of roots; with none real, its vertex stands for the pair.  Where F
    looks like m > 2 roots at one place, m = f1^2 / (f1^2 - f f2) (F ~ h^m
    gives m exactly), the step is the one to that m-fold root, h = -m f /
    f1 (Schroeder's), which a cluster of modes at the bottom of the symbol
    needs.  Where two eigenvalues lie below, the step goes to the lower of
    the pair.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        square = f1 * f1
        curve = square - f * f2
        root = np.sqrt(square - 2.0 * f2 * f)
        big = -0.5 * (f1 + np.copysign(root, f1))
        real = ~np.isnan(root)
        one = np.where(real, f / big, -f1 / f2)
        two = np.where(real, 2.0 * big / f2, one)
        many = (curve > 0) & (square > 2.0 * curve)
        cluster = -f * f1 / curve
    a = np.where(many, cluster, np.fmin(one, two))
    b = np.where(many, cluster, np.fmax(one, two))
    return np.where(below == 0, np.where(a >= 0, a, np.where(b >= 0, b, np.nan)),
                    np.where(below == 1, np.where(b <= 0, b, np.where(a <= 0, a, np.nan)),
                             np.where((below == 2) & (b <= 0), a, np.nan)))


def _left_gram_min(c, s, d, xs, r2):
    """Smallest eigenvalue mu of L^T L, its error bound, and whether robust
    counts confirm the bound, at each point.

    By interlacing, the smallest eigenvalue lies below d_(3).  Fast counts
    just below d_(2), and where it lies lower just below d_(1), find the gap
    between poles that holds it, and the same probes hold the two poles
    around that gap in F.  Steps to the roots of F's second-order model
    then converge to it, each kept inside the bracket the counts leave and
    replaced by bisection where the model has no root there; a close pair
    of eigenvalues takes O(1) steps, as the model holds both.  A point
    stops once F is at its own rounding level or the step is below 4 eps
    mu, and leaves the arrays.  The bound is ``_LEFT_ERR`` eps times the
    first-order error from ``_LeftGram.error`` plus what is left of the
    bracket, and the robust counts (``_LeftGram.count``) must find no
    eigenvalue below mu - bound and one below mu + bound.  A point where a
    probe's values are not finite (mu on a far pole to the last bit, or a
    term past double precision) leaves at once, unconfirmed, with an
    infinite bound: the band decides it.
    """
    gram = _LeftGram(c, s, d, xs, r2)
    cols, count = len(c), len(r2)
    grow, shrink = 1.0 + 8.0 * _EPS, 1.0 - 8.0 * _EPS
    # r2^2 is a diagonal entry of L^T L, a bound when there is no d_(3)
    lo, hi = np.zeros(count), (gram.d[:, 2] if cols > 2 else r2 * r2).copy()
    pair = np.full(count, min(1, cols - 2))
    mu = gram.d[:, 1] * shrink
    below, model = gram.probe(mu, pair)
    # a point whose first probe is not finite is given up, whatever the
    # probe below d_(1) says: its model stays not finite
    lost = ~np.isfinite(model).all(axis=0)
    up = below == 0
    lo[up] = gram.d[up, 1] * grow
    down = np.flatnonzero(~up)
    if len(down):
        hi[down], pair[down], mu[down] = mu[down], 0, gram.d[down, 0] * shrink
        below[down], model[:, down] = gram.take(down).probe(mu[down], pair[down])
        found = below[down] > 0
        lo[down[~found]] = gram.d[down[~found], 0] * grow
        hi[down[found]] = mu[down[found]]
    lo = np.minimum(lo, hi)
    # where d_(1) repeats d_(2) to the last bits (x = 0 to rounding: two
    # interleaved chains), the probe just below d_(2) is no nearer to it
    # than to d_(1), and its model goes by nothing: bisect first
    if cols > 2:
        below[up & (gram.d[:, 0] >= mu)] = -1
    model[0, lost] = np.nan
    out_mu, out_lo, out_hi = mu.copy(), lo.copy(), hi.copy()
    act, sub = np.arange(count), gram
    edge, last = np.zeros(count, dtype=bool), np.full(count, np.nan)
    for _ in range(_LEFT_STEPS):
        gone = ~np.isfinite(model).all(axis=0)
        f, f1, f2, noise = model
        step = _model_step(f, f1, f2, below)
        ahead = mu + step
        inside = (ahead > lo) & (ahead < hi)
        # a step past an end says the root hugs it (a mode barely coupled
        # to the corners): look just inside that end, once
        free = ~edge & (below < 2)
        past_lo, past_hi = free & (ahead <= lo), free & (ahead >= hi)
        edge = past_lo | past_hi
        trial = np.where(inside, ahead,
                         np.where(past_lo, lo + 4.0 * _EPS * hi,
                                  np.where(past_hi, hi * (1.0 - 4.0 * _EPS), 0.5 * (lo + hi))))
        # F at its rounding level, or a step below the last bits: mu is the
        # root as nearly as F can tell
        size = np.abs(step)
        settled = ((lo <= mu) & (mu <= hi)
                   & ((np.abs(f) <= noise)
                      | (inside & (size * (size / last) ** 3 <= 4.0 * _EPS * mu))))
        last = np.where(inside, size, np.nan)
        mu = np.where(settled & np.isfinite(step), np.clip(ahead, lo, hi), mu)
        lo, hi = np.where(settled, mu, lo), np.where(settled, mu, hi)
        done = settled | (hi - lo <= 4.0 * _EPS * hi) | gone
        if done.any():
            out_mu[act], out_lo[act], out_hi[act] = mu, lo, hi
            lost[act[gone]] = True
            keep = ~done
            act, sub = act[keep], sub.take(keep)
            lo, hi, mu, trial, pair, edge, last = (
                a[keep] for a in (lo, hi, mu, trial, pair, edge, last))
            if not len(act):
                break
        below, model = sub.probe(trial, pair)
        found = below > 0
        hi, lo = np.where(found, trial, hi), np.where(found, lo, trial)
        mu = trial
    else:
        lost[act[~np.isfinite(model).all(axis=0)]] = True
    out_mu[act], out_lo[act], out_hi[act] = mu, lo, hi
    mu, lo, hi = out_mu, out_lo, out_hi
    mu = np.where(hi - lo <= 4.0 * _EPS * hi, 0.5 * (lo + hi), mu)
    err, sure = np.full(count, np.inf), np.zeros(count, dtype=bool)
    kept = np.flatnonzero(~lost)
    if len(kept):
        part = gram.take(kept) if len(kept) < count else gram
        m = mu[kept]
        e = _LEFT_ERR * _EPS * part.error(m) + (hi - lo)[kept]
        below, clear = part.count(np.maximum(m - e, 0.0))
        ok = (m - e < 0) | (clear & (below == 0))
        below, clear = part.count(m + e)
        err[kept], sure[kept] = e, ok & clear & (below > 0)
    return mu, err, sure


def _inverse_series(xs, r2, cols) -> np.ndarray:
    """h_0, ..., h_{cols-1} of the power series of 1/p, a row per point:
    h_0 = 1 / r2, h_1 = 2x h_0 / r2 and h_k = (2x h_{k-1} - h_{k-2}) / r2.

    Each step is three ufunc calls over all points into preallocated rows
    of the transposed series; the steps, not the points, cost the time.
    The rows come back contiguous: numpy sums a strided row in another
    order, which moves ``_inverse_kappa_bounds``' Frobenius sums in their
    last bits.  A row that overflows, or q = 0, is not finite.
    """
    series = np.empty((cols, len(xs)))
    rows, step = list(series), np.empty(len(xs))
    twice = 2.0 * xs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.divide(1.0, r2, out=rows[0])
        np.divide(twice * rows[0], r2, out=rows[1])
        for k in range(2, cols):
            np.multiply(twice, rows[k - 1], out=step)
            np.subtract(step, rows[k - 2], out=step)
            np.divide(step, r2, out=rows[k])
    return np.ascontiguousarray(series.T)


def _inverse_kappa_bounds(xs, ys, cols, widen, cut):
    """Bounds on kappa of the left shift's section at points with |q| < 1,
    from the largest singular value of its inverse, and whether they hold
    and, widened by ``widen``, decide the cell (``_decided`` at ``cut``).

    The section is (turned around) the lower triangular Toeplitz matrix L of
    p, and L^-1 is that of 1/p, h_k = (2x h_{k-1} - h_{k-2}) / r2: it grows
    like r^-k, and kappa = 1 / |L^-1|.  Block power steps from e_0, e_1 on
    L^-T L^-1, with products by FFT convolution, give Ritz values
    theta_1 >= theta_2 and the residual rho of their block.  Then
    theta_1 <= |L^-1|^2 <= the top eigenvalue of [[theta_1, rho],
    [rho, tau]], tau = |L^-1|_F^2 - theta_1 - theta_2 bounding what is left
    of the spectrum; the bound holds where theta_1 > tau, which is where
    kappa is small against the other singular values of L.  Each end keeps
    a rounding slack of 16 n eps.  The bounds are read after every step,
    and a point stops as soon as they decide its cell, or after
    ``_POWER_STEPS`` steps.
    """
    count = len(xs)
    r2 = xs * xs + ys * ys
    size = 2 * cols
    slack = 16.0 * cols * _EPS

    def gram(block, spectrum):
        # L^-T L^-1 block; J L^-1 J is the transpose of L^-1
        low = np.fft.irfft(spectrum * np.fft.rfft(block, size, axis=1), size, axis=1)[:, :cols]
        up = np.fft.irfft(spectrum * np.fft.rfft(low[:, ::-1], size, axis=1), size, axis=1)
        return up[:, :cols][:, ::-1]

    # a point whose h overflows keeps no finite bound, and stays unproved
    h = _inverse_series(xs, r2, cols)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h[~np.all(np.isfinite(h), axis=1)] = 0.0
        spectrum = np.fft.rfft(h, size, axis=1)[:, :, None]
        frobenius = np.sum(h * h * np.arange(cols, 0, -1), axis=1)
        lo, hi = np.full(count, np.nan), np.full(count, np.nan)
        done = np.zeros(count, dtype=bool)
        act = np.arange(count)
        block = np.zeros((count, cols, 2))
        block[:, 0, 0] = block[:, 1, 1] = 1.0
        for step in range(_POWER_STEPS + 1):
            if step:
                block = np.linalg.qr(image)[0]
            image = gram(block, spectrum)
            ritz = np.matmul(block.transpose(0, 2, 1), image)
            theta = np.linalg.eigvalsh(0.5 * (ritz + ritz.transpose(0, 2, 1)))
            rho = np.linalg.norm(image - np.matmul(block, ritz), axis=(1, 2))
            tau = frobenius[act] * (1.0 + slack) - (theta[:, 0] + theta[:, 1]) * (1.0 - slack)
            top = 0.5 * (theta[:, 1] + tau) + np.hypot(0.5 * (theta[:, 1] - tau), rho)
            lo[act] = 1.0 / np.sqrt(top * (1.0 + slack))
            hi[act] = 1.0 / np.sqrt(theta[:, 1] * (1.0 - slack))
            sure = np.isfinite(lo[act]) & np.isfinite(hi[act]) & (theta[:, 1] > tau)
            done[act] = sure & _decided(lo[act] - widen[act], hi[act] + widen[act], cut)
            keep = ~done[act]
            act, image, spectrum = act[keep], image[keep], spectrum[keep]
            if not len(act):
                break
    return lo, hi, done


def _decided(lo: np.ndarray, hi: np.ndarray, cut: float) -> np.ndarray:
    """Cells where every value in [lo, hi] prints the same and falls on the
    same side of ``cut``, printed by ``_fmt_array`` as the CSV prints them.
    The rounding is monotone, so the two ends decide.  Two ends whose
    rounded values are finite and equal print the same, and two that lie
    more than 1e-11 of the larger apart do not (12 significant digits
    print a value within 5e-12 of it); only the other pairs are printed
    and compared."""
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.round(lo, 12) + 0.0, np.round(hi, 12) + 0.0
        finite = np.isfinite(a) & np.isfinite(b)
        same = finite & (a == b)
        apart = finite & (np.abs(a - b) > 2e-11 * np.maximum(np.abs(a), np.abs(b)))
    rest = np.flatnonzero(~(same | apart))
    if len(rest):
        same[rest] = [x == y for x, y in zip(_fmt_array(lo[rest]), _fmt_array(hi[rest]))]
    return same & ((hi <= cut) | (lo > cut))


def _shift_kappas(side: str, cols: int, xs: np.ndarray, ys: np.ndarray):
    """kappa on the ``cols`` kept columns of a shift's section at the points
    (xs, ys), from the symbol; how far the banded solve's value may lie from
    each; and the mask of the points where the band must decide instead.

    A kept value prints as the banded solve's would and falls on the same side
    of the ``threshold_region`` cut, whatever the two routes' errors
    within their bounds.  At a left-shift point with |q| < 1 the truncated
    geometric eigenvector (1, q, q^2, ...) leaves a residual in its last two
    rows only, so kappa <= r^n sqrt((1 + r2)(1 - r2) / (1 - r2^n)); where
    that bound proves a printed 0 it is the value, with no other work.  The
    other points with |q| < 1, where kappa is small and the Gram route has
    no accuracy, take ``_inverse_kappa_bounds``; those with |q| >= 1 the
    Gram route, but for x = 0.

    Before any symbol arithmetic: a point where an entry of R_q (2x or r2)
    passes double precision raises the R_q overflow ``NumericalError``, and
    one whose scale 1 + 2|x| + r2 exceeds ``_SYMBOL_SCALE`` is left to the
    band.
    """
    with np.errstate(over="ignore"):
        twice_x, r2 = 2.0 * xs, xs * xs + ys * ys
    if not (np.isfinite(twice_x).all() and np.isfinite(r2).all()):
        raise NumericalError(qlinalg.RESOLVENT_OVERFLOW)
    scale = 1.0 + np.abs(twice_x) + r2
    band_err = _BAND_ERR * _EPS * scale
    cut = _region_cut(1.0)
    out, reach = np.full(len(xs), np.nan), np.zeros(len(xs))
    hard = np.ones(len(xs), dtype=bool)
    symbol = scale <= _SYMBOL_SCALE
    todo = np.flatnonzero(symbol)
    chunk = max(1, _SYMBOL_ENTRIES // cols)
    if side == "left":
        inside = np.flatnonzero(r2 < 1.0)
        rr = r2[inside]
        bound = rr ** (0.5 * cols) * np.sqrt((1.0 + rr) * (1.0 - rr) / (1.0 - rr ** cols))
        zero = bound + band_err[inside] < _PRINTS_ZERO
        done = inside[zero]
        out[done], reach[done], hard[done] = bound[zero], bound[zero] + band_err[done], False
        rest = inside[~zero]
        for start in range(0, len(rest), chunk):
            idx = rest[start:start + chunk]
            lo, hi, decided = _inverse_kappa_bounds(xs[idx], ys[idx], cols, band_err[idx], cut)
            out[idx], reach[idx], hard[idx] = hi, hi - lo + band_err[idx], ~decided
        # at x = 0 the section splits into two interleaved chains, equal for
        # even n, whose double eigenvalues the fast counts resolve slowly;
        # near it, |x| within _NEAR_AXIS eps r2 (cols + 1), the paired symbol
        # values merge in rounding and the Gram split breaks down
        near_axis = np.abs(xs) <= _NEAR_AXIS * _EPS * r2 * (cols + 1)
        todo = np.flatnonzero((r2 >= 1.0) & ~near_axis & symbol)
    c, s = _sine_modes(cols)
    for start in range(0, len(todo), chunk):
        idx = todo[start:start + chunk]
        d = _symbol(c, s, xs[idx], ys[idx])
        if side == "right":
            kappa = np.sqrt(_right_gram_min(c, s, d, r2[idx]))
            err = _RIGHT_ERR * _EPS * scale[idx]
            lo, hi, sure = kappa - err, kappa + err, True
        else:
            mu, err, sure = _left_gram_min(c, s, d, xs[idx], r2[idx])
            # the robust counts hold for a Gram whose mu is within err of L^T L's
            kappa = np.sqrt(mu)
            lo, hi = np.sqrt(np.maximum(mu - 2.0 * err, 0.0)), np.sqrt(mu + 2.0 * err)
        out[idx], reach[idx] = kappa, np.maximum(hi - kappa, kappa - lo) + band_err[idx]
        hard[idx] = ~(sure & _decided(lo - band_err[idx], hi + band_err[idx], cut))
    return out, np.where(hard, 0.0, reach), hard


#: the section size of an infinite operator when no window is given
DEFAULT_WINDOW = 128


def _section_size(op, window: int | None) -> int:
    """Rows of the section that samples ``op``: its dimension when finite,
    else ``window`` (None means DEFAULT_WINDOW).  An operator of dimension 0
    has no section to sample."""
    if op.dim == 0:
        raise ValueError("the operator has dimension 0")
    if op.dim is not None:
        return op.dim
    n_win = DEFAULT_WINDOW if window is None else window
    if n_win < 4:
        raise ValueError(f"window must be at least 4, got {n_win}")
    if n_win <= op.section_margin:
        raise ValueError("window too small for the section margin")
    return n_win


def _golub_kahan_band(side: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the entries of a shift's kept n x (n - 2) section R stand in the
    lower band of its Golub-Kahan matrix [[0, R], [R^T, 0]]: (diagonal,
    column, coefficient), the coefficient 0, 1 or 2 for 1, -2x or r2.

    Column j of R holds r2, -2x, 1 at rows j, j + 1, j + 2 (right shift) or
    1, -2x, r2 at rows j - 2, j - 1, j (left, cut off above row 0).  Ordered
    row k then column k (right, its last two rows at the end) or column k
    then row k (left, whose last two rows are zero), every entry lies within
    3 of the diagonal."""
    j = np.arange(n - 2)
    if side == "right":
        rows = j + np.array([[2], [1], [0]])
        at_row, at_col = np.minimum(2 * rows, rows + n - 2), 2 * j + 1
    else:
        rows = j - np.array([[2], [1], [0]])
        at_row, at_col = 2 * rows + 1, 2 * j
    kept = rows >= 0
    at_row, at_col = at_row[kept], np.broadcast_to(at_col, rows.shape)[kept]
    coef = np.broadcast_to(np.arange(3)[:, None], rows.shape)[kept]
    return np.abs(at_row - at_col), np.minimum(at_row, at_col), coef


#: dsbevx's absolute tolerance: twice LAPACK's safe minimum dlamch('S'), as
#: ``scipy.linalg.eig_banded`` passes it
_BAND_ABSTOL = 2.0 * np.finfo(float).tiny


class _SectionKappa:
    """kappa(R_q) on a rectangular window section, reusable across q.

    Dense and multiplication operators: the complex image of the section is
    taken once, and kappa is the last of the singular values
    ``qlinalg.resolvent_singular_values`` gives, a block of grid points per
    stacked SVD.  The image is chi of the section, or the C_i block of a
    complex-slice one (a real block as a real array), which carries each
    singular value once, not twice, at an eighth of chi's SVD work.  This is
    the one place in qspec that takes the smaller image: a portrait repeats
    the SVDs at every grid point, where every other fact takes one SVD of
    chi.  Shifts: kappa comes from the symbol (``_shift_kappas``),
    O(W) per point, and each point it cannot certify takes one ``dsbevx``
    call on the Golub-Kahan band of the section (``_golub_kahan_band``, laid
    out when the first such point comes).  ``hard_cells`` counts those
    points.
    """

    def __init__(self, op, window: int | None):
        self.n = _section_size(op, window)
        self.hard_cells = 0
        self._op = op
        self._side = op.side if isinstance(op, ShiftOperator) else None
        self._m = self._band = None

    def _image(self) -> np.ndarray:
        if self._m is None:
            section = self._op.finite_section(self.n)
            if section.is_complex_slice:    # real LAPACK for a real block
                block = section.c1
                self._m = block if np.any(block.imag) else block.real.copy()
            else:
                self._m = qlinalg.complex_adjoint(section)
        return self._m

    def _dense(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        blocks = qlinalg.resolvent_singular_values(self._image(), xs, ys)
        # a copy, not a view, lets each block's values go before the next
        return np.concatenate([s[:, -1].copy() for s in blocks])

    def _banded(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """kappa as eigenvalue n, 0-based and ascending, of the band: below
        it lie n - 2 negatives and two zeros."""
        if self._band is None:
            self._band = _golub_kahan_band(self._side, self.n)
        diagonal, column, coef = self._band
        dsbevx, n = qlinalg._lapack().dsbevx, self.n
        out = np.empty(len(xs))
        for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            ab = np.zeros((4, 2 * n - 2))
            ab[diagonal, column] = np.array([1.0, -2.0 * x, x * x + y * y])[coef]
            w, _, found, _, info = dsbevx(ab, 0.0, 0.0, n + 1, n + 1, compute_v=0, range=2,
                                          lower=1, abstol=_BAND_ABSTOL)
            if info or found != 1:
                raise NumericalError(f"banded eigenvalue solve failed: dsbevx info {info}")
            out[k] = w[0]
        return out

    def values(self, xs, ys) -> np.ndarray:
        """kappa at the points (x, y) of the broadcast of ``xs`` and ``ys``."""
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float),
                                     np.asarray(ys, dtype=float))
        x, y = xs.ravel(), ys.ravel()
        if self._side is None:
            return self._dense(x, y).reshape(xs.shape)
        out, _, hard = _shift_kappas(self._side, self.n - self._op.section_margin, x, y)
        self.hard_cells += int(hard.sum())
        if hard.any():
            out[hard] = self._banded(x[hard], y[hard])
        return out.reshape(xs.shape)

    def kappa(self, x: float, y: float) -> float:
        return float(self.values(x, y))

    def norm_scale(self) -> float:
        """The section's 2-norm, from the SVD of the kernel's image; a shift's
        section is a partial isometry, and its norm is 1."""
        if self._side is not None:
            return 1.0
        return float(np.linalg.svd(self._image(), compute_uv=False)[0])


def window_kappa(op, q: Quaternion, window: int) -> float:
    """kappa of the rectangular window section of R_q(op).

    Non-increasing in the window size; small values certify approximate
    spectrum membership because the section columns are exact images.
    """
    return _SectionKappa(op, window).kappa(q.w, q.imag_norm())


def shift_kappa_limit(side: str, xs, ys) -> np.ndarray:
    """kappa of R_{x+yI} on the whole sequence space for the ``side`` shift,
    the limit of ``window_kappa`` as W grows, at the points (x, y) of the
    broadcast of ``xs`` and ``ys``; zero exactly on sigma_apS.

    R_q is the Toeplitz operator of p(z) = z^2 - 2xz + r2 (right shift) or
    of its conjugate (left).  Its lower bound is min_{|z|=1} |p| for the
    right shift, and for the left shift where r2 > 1; for the left shift
    with r2 <= 1 it is 0, which the truncations of (1, q, q^2, ...) reach
    (Boettcher & Silbermann, Analysis of Toeplitz Operators, ch. 2).  On
    z = c + is, |p|^2 = 4 r2 c^2 - 4x(1 + r2) c + (1 + r2)^2 - 4y^2 is convex
    in c: the minimum sits at the vertex clipped to [-1, 1], evaluated by
    ``_symbol`` so that nothing cancels.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    x, y = xs.ravel(), ys.ravel()
    r2 = x * x + y * y
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.clip(np.where(r2 > 0.0, x * (1.0 + r2) / (2.0 * r2), 0.0), -1.0, 1.0)
    kappa = np.sqrt(_symbol(c[:, None], np.sqrt(1.0 - c * c)[:, None], x, y)[:, 0])
    if side == "left":
        kappa[r2 <= 1.0] = 0.0
    return kappa.reshape(xs.shape)


@dataclass(frozen=True)
class SlicePortrait:
    """Sampled kappa(R_{x+yI}) over a half-plane grid, the same on every slice."""

    grid: GridSpec
    window: int
    norm_scale: float
    values: np.ndarray
    #: shift cells the symbol route left to the band; bookkeeping, never printed
    hard_cells: int = field(default=0, compare=False)

    def csv_lines(self) -> list[str]:
        cells = itertools.product(_fmt_array(self.grid.ys()), _fmt_array(self.grid.xs()))
        return ["x,y,kappa"] + [f"{x},{y},{v}" for (y, x), v in
                                zip(cells, _fmt_array(self.values.ravel()))]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def portrait(op, grid: GridSpec, window: int | None = None) -> SlicePortrait:
    """Sample kappa(R_{x+yI}(op)) over the grid.

    A finite operator is probed on its whole matrix, an infinite one on a
    section of ``window`` rows (None: DEFAULT_WINDOW).  R_q
    depends on q only through (x, |y|), so one portrait holds for every
    slice unit I.
    """
    engine = _SectionKappa(op, window)
    values = engine.values(grid.xs()[None, :], grid.ys()[:, None])
    values.setflags(write=False)
    return SlicePortrait(grid=grid, window=engine.n,
                         norm_scale=engine.norm_scale(), values=values,
                         hard_cells=engine.hard_cells)


# -- axially symmetric regions and the full spectrum ----------------------


@dataclass(frozen=True)
class AxSymRegion:
    """Axially symmetric subset of H sampled as a half-plane cell mask."""

    grid: GridSpec
    mask: np.ndarray = field(repr=False)

    def cell_count(self) -> int:
        return int(np.sum(self.mask))


def threshold_region(p: SlicePortrait) -> AxSymRegion:
    """Cells flagged as approximate spectrum: kappa <= REGION_TOL (1 + |A|^2)."""
    mask = p.values <= _region_cut(p.norm_scale)
    mask.setflags(write=False)
    return AxSymRegion(grid=p.grid, mask=mask)


def full_spectrum(region: AxSymRegion) -> AxSymRegion:
    """Fill the bounded holes of the complement.

    The grid edges at x0, x1 and y1 face the unbounded part of H; the
    y = 0 row is the real axis, an interior line of H, so a complement
    component touching only that row is still a bounded hole and gets
    filled.
    """
    free = ~region.mask
    edge = np.zeros_like(free)
    edge[:, [0, -1]] = edge[-1] = True
    outside, last = free & edge, None
    # grow through free cells, 4-connected, until nothing more is reached
    while not np.array_equal(outside, last):
        last = outside.copy()
        outside[1:] |= last[:-1]
        outside[:-1] |= last[1:]
        outside[:, 1:] |= last[:, :-1]
        outside[:, :-1] |= last[:, 1:]
        outside &= free
    filled = ~outside
    filled.setflags(write=False)
    return AxSymRegion(grid=region.grid, mask=filled)


def transition_cells(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """Cells with a <= low neighbour and a >= high neighbour.

    Used to sample the topological boundary of a portrait region.
    """
    ny, nx = values.shape

    def beside(cells: np.ndarray) -> np.ndarray:
        pad = np.pad(cells, 1)
        return np.any([pad[dy:dy + ny, dx:dx + nx] for dy in range(3) for dx in range(3)
                       if (dy, dx) != (1, 1)], axis=0)

    return beside(values <= low) & beside(values >= high)
