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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .qlinalg import QMatrix, pseudo_resolvent
from .quat import EigenSphere, Quaternion, SLICE_I, SliceUnit
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
    """Spectrum part membership for one sphere.

    Finite matrices admit no residual or continuous part: the kernel of a
    singular R_q is always nonzero, so those two flags exist for report
    symmetry and stay False.
    """

    point: bool
    approximate: bool
    compression: bool
    surjectivity: bool
    residual: bool = False
    continuous: bool = False

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
    decomposition: qlinalg.SpectralDecomposition | None = field(
        default=None, repr=False, compare=False)

    def part(self, name: str) -> tuple[EigenSphere, ...]:
        return tuple(s for s in self.spheres if getattr(self.flags[s], name))

    def to_lines(self) -> list[str]:
        return sorted(f"{_fmt(s.re)} {_fmt(s.im)} {self.flags[s].letters()}".rstrip()
                      for s in self.spheres)


def _fmt(x: float) -> str:
    # round display-only values so eigenvalue noise prints as clean zeros
    return format(round(x, 12) + 0.0, ".12g")


def classify(a: QMatrix, tol: float = 1e-8, n_max: int = 8) -> SpectrumReport:
    """Classify every sphere of sigma_S(A) into its four parts.

    The spheres come from one ``spectral_decomposition``, which the report
    keeps for its projections; ``tol`` only sets the membership threshold,
    never the grouping of spheres.  Each sphere's one SVD of R_q(A) gives
    every flag: point membership (ker R_q(A) counted), approximate
    membership (kappa, its smallest singular value), compression (the
    point spectrum at the conjugate representative, where R_q is bit for
    bit the same matrix) and surjectivity (R_q(A^dag) = R_q(A)^dag has the
    same singular values).
    """
    if a.rows != a.cols:
        raise ShapeError("classification needs a square matrix")
    dec = qlinalg.spectral_decomposition(a)
    thresh = membership_threshold(a, tol)
    flags: dict[EigenSphere, SphereFlags] = {}
    for s, r, sv in zip(dec.spheres, dec.resolvents, dec.singular_values):
        point = qlinalg.nullity(r, tol, sv) > 0
        approx = bool(sv[-1] <= thresh)
        flags[s] = SphereFlags(point, approx, point, approx)
    coincident = all(f.point == f.approximate for f in flags.values())
    radius, lower = growth_bounds(a, n_max) if a.rows else (0.0, 0.0)
    return SpectrumReport(dec.spheres, flags, radius, lower, tol, thresh, coincident, dec)


# -- growth bounds -------------------------------------------------------


def _section_size(op, window: int | None) -> int:
    """Rows of the section that probes ``op``: its dimension when finite,
    else ``window`` (None means the operator's own window)."""
    if op.dim is not None:
        return op.dim
    n_win = getattr(op, "window", 128) if window is None else window
    if n_win < 4:
        raise ValueError(f"window must be at least 4, got {n_win}")
    if n_win <= op.section_margin:
        raise ValueError("window too small for the section margin")
    return n_win


def growth_bounds(a, n_max: int = 8, window: int | None = None) -> tuple[float, float]:
    """(spectral_radius, lower_bound_i): one SVD per power gives both.

    A QMatrix is the section of bandwidth 0 that keeps all its columns;
    operators are measured on rectangular sections of exact images.  A
    kappa at the rounding floor 2N eps |A^n| (N rows) is skipped: raised
    to 1/n it would lift the lower bound above small spheres.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if isinstance(a, QMatrix):
        if a.rows == 0:
            return 0.0, math.inf    # op_norm and min_singular of an empty matrix
        section, n_win, bandwidth = a, a.cols, 0
    else:
        n_win = _section_size(a, window)
        section, bandwidth = a.finite_section(n_win), a.bandwidth
    floor = 2 * section.rows * np.finfo(float).eps
    radius, lower = math.inf, 0.0
    power = section
    for n in range(1, n_max + 1):
        cols = n_win - n * bandwidth
        if cols < 1:
            break
        s = qlinalg._singular_values(power.take_cols(cols))
        top, kappa = float(s[0]), float(s[-1])
        radius = min(radius, top ** (1.0 / n))
        if kappa > floor * top:
            lower = max(lower, kappa ** (1.0 / n))
        if n < n_max:
            power = power @ section
    return radius, lower


def spectral_radius(a, n_max: int = 8, window: int | None = None) -> float:
    """inf over n <= n_max of |A^n|^(1/n); an upper bound for sigma_S."""
    return growth_bounds(a, n_max, window)[0]


def lower_bound_i(a, n_max: int = 8, window: int | None = None) -> float:
    """sup over n <= n_max of kappa(A^n)^(1/n) above the rounding floor;
    a lower bound for sigma_apS."""
    return growth_bounds(a, n_max, window)[1]


@dataclass(frozen=True)
class AnnulusVerdict:
    """Outcome of the annulus containment check for approximate spheres."""

    ok: bool
    violations: tuple[EigenSphere, ...]

    def __bool__(self) -> bool:
        return self.ok


def annulus_check(report: SpectrumReport, tol: float = 1e-6) -> AnnulusVerdict:
    """Every approximate sphere must satisfy i(A) <= |q| <= r_S(A) up to tol."""
    bad = tuple(
        s for s in report.part("approximate")
        if not (report.lower_bound - tol <= s.abs_value() <= report.radius + tol))
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


# entries of R_q per stacked SVD: small sections go hundreds of grid points
# at a time, shift sections of windows >= 66 one at a time, so a block never
# holds much more than one large section
_BLOCK_ENTRIES = 1 << 13


class _SectionKappa:
    """kappa(R_q) on a rectangular window section, reusable across q.

    Precomputes the kept columns of the section and of its square once;
    ``values`` then forms R_q for a block of grid points by broadcasting
    and takes their smallest singular values from one stacked SVD per
    block.  Entries of shift and real diagonal sections live in C_i (or
    R), where the complex adjoint is block diagonal and one block
    suffices.
    """

    def __init__(self, op, window: int | None):
        n_win = _section_size(op, window)
        section = op.finite_section(n_win)
        self.n = n_win
        cols = n_win - (0 if op.dim is not None else op.section_margin)
        if section.is_complex_slice:
            m = section.c1
            if not np.any(m.imag):
                m = m.real.copy()
            keep = np.arange(cols)
        else:
            m = qlinalg.complex_adjoint(section)
            keep = np.concatenate([np.arange(cols), n_win + np.arange(cols)])
        self._m = m
        # R_q = m^2 - 2x m + r^2 I is entrywise, so dropping columns first
        # leaves every kept entry bit for bit the same
        self._m1 = m[:, keep]
        self._m2 = (m @ m)[:, keep]
        self._eye = np.zeros(self._m1.shape, dtype=m.dtype)
        self._eye[keep, np.arange(len(keep))] = 1
        self._block = max(1, _BLOCK_ENTRIES // self._m1.size)

    def values(self, xs, ys) -> np.ndarray:
        """kappa at the points (x, y) of the broadcast of ``xs`` and ``ys``."""
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float),
                                     np.asarray(ys, dtype=float))
        x, y = xs.reshape(-1, 1, 1), ys.reshape(-1, 1, 1)
        twice_x, r2 = 2.0 * x, x * x + y * y
        out = np.empty(len(x))
        for lo in range(0, len(x), self._block):
            hi = lo + self._block
            rect = self._m2 - twice_x[lo:hi] * self._m1 + r2[lo:hi] * self._eye
            out[lo:hi] = np.linalg.svd(rect, compute_uv=False)[:, -1]
        return out.reshape(xs.shape)

    def kappa(self, x: float, y: float) -> float:
        return float(self.values(x, y))

    def norm_scale(self) -> float:
        """The section's 2-norm, from the SVD ``op_norm`` would take."""
        return float(np.linalg.svd(self._m, compute_uv=False)[0])


def window_kappa(op, q: Quaternion, window: int) -> float:
    """kappa of the rectangular window section of R_q(op).

    Non-increasing in the window size; small values certify approximate
    spectrum membership because the section columns are exact images.
    """
    return _SectionKappa(op, window).kappa(q.w, q.imag_norm())


@dataclass(frozen=True)
class SlicePortrait:
    """Sampled kappa(R_{x+yI}) over a half-plane grid on one slice."""

    grid: GridSpec
    slice_unit: SliceUnit
    window: int
    norm_scale: float
    values: np.ndarray
    op_label: str = ""

    def csv_lines(self) -> list[str]:
        lines = ["x,y,kappa"]
        xs, ys = self.grid.xs(), self.grid.ys()
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(self.values[iy, ix])}")
        return lines

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def portrait(op, grid: GridSpec, window: int | None = None,
             slice_unit: SliceUnit = SLICE_I, label: str = "") -> SlicePortrait:
    """Sample kappa(R_{x+yI}(op)) over the grid.

    A finite operator is probed on its whole matrix, an infinite one on a
    section of ``window`` rows (None: the operator's own window).  The
    value at (x, y) depends on the slice only through (x, |y|), so the
    portrait is the same for every slice unit; the unit is recorded for
    the caller's bookkeeping.
    """
    engine = _SectionKappa(op, window)
    values = engine.values(grid.xs()[None, :], grid.ys()[:, None])
    values.setflags(write=False)
    return SlicePortrait(grid=grid, slice_unit=slice_unit, window=engine.n,
                         norm_scale=engine.norm_scale(), values=values,
                         op_label=label)


# -- axially symmetric regions and the full spectrum ----------------------


@dataclass(frozen=True)
class AxSymRegion:
    """Axially symmetric subset of H sampled as a half-plane cell mask."""

    grid: GridSpec
    mask: np.ndarray = field(repr=False)

    def cell_count(self) -> int:
        return int(np.sum(self.mask))


def threshold_region(p: SlicePortrait, tol: float = 1e-8) -> AxSymRegion:
    """Cells flagged as approximate spectrum: kappa <= tol * (1 + |A|^2)."""
    cut = tol * (1.0 + p.norm_scale ** 2)
    mask = p.values <= cut
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
