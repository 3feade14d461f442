"""Power series in a quaternionic variable with one-sided coefficients.

A series sum_n a_n (q - p)^{*n} keeps its coefficients on the left and
its powers of the variable on the right; the star power is the n-fold
convolution product, which differs from the pointwise power whenever the
center fails to commute with the argument.  Coefficients may be scalars
or vectors; vector times vector has no meaning here and is rejected.

The arithmetic runs on float arrays: a scalar coefficient is a row of
four components (w, x, y, z) and a vector coefficient of length m an
(m, 4) block, so one engine serves both.  A series keeps that array;
``coefficients``, the tuple of Quaternion or QVector objects, is built
the first time it is read, and products, derivatives and sums never read
it.

Evaluation uses the representation formula of slice-regular functions
(Colombo, Sabadini & Struppa, Noncommutative Functional Calculus, 2011;
Gentili, Stoppato & Struppa, Regular Functions of a Quaternionic
Variable, 2013).  On the slice of the center p = p0 + p1 J star powers are
plain powers: (x + yJ - p)^n = Re(w^n) + Im(w^n) J with the complex
w = (x - p0) + i(y - p1), so f(x + yJ) = U + V J, where U and V sum
Re(w^n) a_n and Im(w^n) a_n: the real and imaginary parts of one matrix
product of a table of complex powers with the coefficients.  A point
q = x + yI on any slice then reads

    f(q) = (f+ + f-) / 2 - (f+ - f-) / 2 J I,    f+- = f(x +- yJ),

two slice points per query and O(n) work each.  A real center lies on
every slice, so q's own slice serves and one point is enough.  The
monomial form f(q) = sum C_m q^m, an O(n^2) rewrite, is built only for
``monomial_coefficients``.

Convergence lives on sigma-balls around the center.  The radius
estimator reads the tail of the coefficient sequence; the metric on
series compares them over a compact exhaustion of the common ball, level
seminorms sampled on a fixed deterministic grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .quat import (SLICE_I, SLICE_J, SLICE_K, Quaternion, SliceUnit,
                   hamilton_array, sigma_dist)
from .qvector import QVector

Coefficient = Union[Quaternion, QVector]


class DivergenceWarning(RuntimeWarning):
    """Evaluation requested outside the declared ball of convergence."""


class RadiusBiasWarning(RuntimeWarning):
    """Radius estimated from too few coefficients to trust the tail."""


def _is_vector(c: Coefficient) -> bool:
    return isinstance(c, QVector)


# -- array form -----------------------------------------------------------
#
# A quaternion is a row (w, x, y, z); a vector of length m an (m, 4) block.
# Series coefficients stack to (n, 4) or (n, m, 4), and a batch of values
# at k points to (k, 4) or (k, m, 4).


def _rows(points: Sequence[Quaternion]) -> np.ndarray:
    return np.array([(q.w, q.x, q.y, q.z) for q in points], dtype=np.float64).reshape(-1, 4)


def _components(c: Coefficient) -> np.ndarray:
    return c.to_components() if _is_vector(c) else np.array((c.w, c.x, c.y, c.z))


def _objects(arr: np.ndarray) -> tuple[Coefficient, ...]:
    if arr.ndim == 3:
        return tuple(QVector.from_components(block) for block in arr)
    return tuple(Quaternion(*row) for row in arr.tolist())


def _norms(values: np.ndarray) -> np.ndarray:
    """|value| of each entry of a (k, 4) or (k, m, 4) batch."""
    axes = tuple(range(1, values.ndim))
    return np.sqrt(np.sum(values * values, axis=axes))


def _magnitudes(coeffs: np.ndarray) -> list[float]:
    """|a_n| of each coefficient, rounded as ``abs(Quaternion)`` and
    ``QVector.norm`` round them."""
    if coeffs.ndim == 2:
        w, x, y, z = coeffs.T
        return np.sqrt(w * w + x * x + y * y + z * z).tolist()
    pairs = np.ascontiguousarray(coeffs).view(np.complex128)
    return np.sqrt(np.sum(np.abs(pairs[..., 0]) ** 2 + np.abs(pairs[..., 1]) ** 2,
                          axis=1)).tolist()


def _slice_parts(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each row as q = x + y I with y >= 0.

    I comes back as a (k, 4) array of pure imaginary units; real rows get
    the zero row, which every product with an imaginary part that is zero
    there ignores.
    """
    im = pts[:, 1:]
    y = np.sqrt(im[:, 0] * im[:, 0] + im[:, 1] * im[:, 1] + im[:, 2] * im[:, 2])
    unit = np.zeros_like(pts)
    nonreal = y > 0.0
    unit[nonreal, 1:] = im[nonreal] / y[nonreal, None]
    return pts[:, 0], y, unit


def _right_unit(values: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """values * I row by row; vector values take I on each entry."""
    if values.ndim == 3:
        unit = unit[:, None, :]
    return hamilton_array(values, unit)


def _to_monomials(coeffs: np.ndarray, center: Quaternion) -> np.ndarray:
    """C with sum_n a_n (q - p)^{*n} = sum_m C_m q^m.

    (q - p)^{*n} = sum_m binom(n, m) (-p)^{n-m} q^m, and every power of -p
    lies in the slice of p: with -p = x + y I, (-p)^k = Re(w^k) + Im(w^k) I
    for the complex w = x + iy.  So C_m = sum_n Re(T[n, m]) a_n +
    Im(T[n, m]) a_n I with T[n, m] = binom(n, m) w^{n-m}.
    """
    n = coeffs.shape[0]
    if center == Quaternion():
        return coeffs
    x, y, unit = _slice_parts(-_rows([center]))
    k = np.arange(n)
    # binom(n, m) as the running product of (n - j + 1) / j over j <= m; the
    # factor at j = n + 1 is zero, which clears the upper triangle, and
    # rounding restores exact integers wherever a float can hold them.
    ratio = np.ones((n, n))
    ratio[:, 1:] = (k[:, None] - k[None, 1:] + 1) / k[None, 1:]
    binom = np.rint(np.cumprod(ratio, axis=1))
    powers = np.cumprod(np.concatenate(([1.0 + 0j], np.full(n - 1, complex(x[0], y[0])))))
    t = binom * powers[np.maximum(k[:, None] - k[None, :], 0)]
    flat = coeffs.reshape(n, -1)
    turned = hamilton_array(coeffs, unit[0]).reshape(n, -1)
    return (t.real.T @ flat + t.imag.T @ turned).reshape(coeffs.shape)


def _powers(w: np.ndarray, n: int) -> np.ndarray:
    """(k, n) table of w_j^m for m < n, by running products."""
    z = np.empty((w.size, n), dtype=np.complex128)
    z[:, 0] = 1.0
    z[:, 1:] = w[:, None]
    return np.cumprod(z, axis=1, out=z)


def _power_sums(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_n w_j^n a_n for each complex w_j, as (k, F) complex rows over the
    F = coeffs[0].size real components: the real part sums Re(w_j^n) a_n
    and the imaginary part Im(w_j^n) a_n."""
    n = coeffs.shape[0]
    flat = coeffs.reshape(n, -1).astype(np.complex128)
    return _powers(w, n) @ flat


def _slice_values(coeffs: np.ndarray, center: Quaternion, pts: np.ndarray) -> np.ndarray:
    """sum_n a_n (q - p)^{*n} at each row q = x + yI of pts, by the
    representation formula on the slice of the center p = p0 + p1 J."""
    k = len(pts)
    x, y, unit = _slice_parts(pts)
    x, p1 = x - center.w, center.imag_norm()
    shape = (-1,) + coeffs.shape[1:]
    if p1 == 0.0:
        # a real center lies on every slice, q's own among them
        sums = _power_sums(coeffs, x + 1j * y)
        return sums.real.reshape(shape) + _right_unit(sums.imag.reshape(shape), unit)
    sums = _power_sums(coeffs, np.concatenate([x + 1j * (y - p1), x - 1j * (y + p1)]))
    j = np.array([0.0, center.x, center.y, center.z]) / p1
    # f(x +- yJ) = U+- + V+- J, and f(q) = (f+ + f-)/2 - (f+ - f-)/2 J I
    f = sums.real.reshape(shape) + hamilton_array(sums.imag.reshape(shape), j)
    plus, minus = f[:k], f[k:]
    return (plus + minus) * 0.5 - _right_unit(hamilton_array((plus - minus) * 0.5, j), unit)


class SliceSeries:
    """Truncated series sum_n a_n (q - center)^{*n}.

    ``radius`` is the declared sigma-ball of convergence; evaluation
    outside it still returns the truncated sum but raises a
    DivergenceWarning.  A series is immutable; it compares and hashes as
    the triple (center, coefficients, radius).
    """

    __slots__ = ("center", "radius", "_coeffs", "_tuple", "_mono")

    def __init__(self, center: Quaternion, coefficients: Sequence[Coefficient],
                 radius: float = math.inf):
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        vec = _is_vector(coeffs[0])
        for c in coeffs:
            if _is_vector(c) is not vec:
                raise TypeError("coefficients must be all scalars or all vectors")
            if vec and c.n != coeffs[0].n:
                raise TypeError("vector coefficients must share a length")
        arr = np.stack([c.to_components() for c in coeffs]) if vec else _rows(coeffs)
        self._set(center, arr, radius, coeffs)

    @classmethod
    def _from_array(cls, center: Quaternion, coeffs: np.ndarray,
                    radius: float) -> "SliceSeries":
        """The series with an (n, 4) or (n, m, 4) coefficient array, which it
        takes over; no coefficient object is built."""
        series = object.__new__(cls)
        series._set(center, coeffs, radius, None)
        return series

    def _set(self, center, coeffs, radius, objects) -> None:
        if not radius > 0.0:
            raise ValueError("declared radius must be positive")
        coeffs.setflags(write=False)
        for name, value in (("center", center), ("radius", radius), ("_coeffs", coeffs),
                            ("_tuple", objects), ("_mono", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SliceSeries is immutable")

    def __reduce__(self):
        return (SliceSeries._from_array, (self.center, self._coeffs, self.radius))

    @property
    def coefficients(self) -> tuple[Coefficient, ...]:
        if self._tuple is None:
            object.__setattr__(self, "_tuple", _objects(self._coeffs))
        return self._tuple

    def _key(self) -> tuple:
        return (self.center, self.coefficients, self.radius)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"SliceSeries(center={self.center!r}, coefficients={self.coefficients!r}, "
                f"radius={self.radius!r})")

    @property
    def is_vector(self) -> bool:
        return self._coeffs.ndim == 3

    @property
    def degree(self) -> int:
        return len(self) - 1

    def __len__(self) -> int:
        return self._coeffs.shape[0]

    def _monomials(self) -> np.ndarray:
        if self._mono is None:
            mono = _to_monomials(self._coeffs, self.center)
            mono.setflags(write=False)
            object.__setattr__(self, "_mono", mono)
        return self._mono

    def monomial_coefficients(self) -> list[Coefficient]:
        """Rewrite around zero: coefficients C_m with f(q) = sum C_m q^m."""
        return list(_objects(self._monomials()))

    def _values(self, pts: np.ndarray) -> np.ndarray:
        """Values at the rows of a (k, 4) point array, warning once if any
        row lies outside the declared ball."""
        if math.isfinite(self.radius):
            # sigma_dist never exceeds the euclidean distance, so only rows
            # euclidean-farther than the radius need the exact test
            d = pts - _rows([self.center])
            far = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
                          + d[:, 2] * d[:, 2] + d[:, 3] * d[:, 3]) > self.radius
            if any(sigma_dist(Quaternion(*row), self.center) > self.radius
                   for row in pts[far].tolist()):
                warnings.warn(
                    "evaluation point lies outside the declared sigma-ball; the "
                    "truncated sum does not approximate a limit there",
                    DivergenceWarning, stacklevel=3)
        return _slice_values(self._coeffs, self.center, pts)

    def eval(self, q: Quaternion) -> Coefficient:
        value = self._values(_rows([q]))[0]
        return QVector.from_components(value) if self.is_vector else Quaternion(*value.tolist())

    def __call__(self, q: Quaternion) -> Coefficient:
        return self.eval(q)

    def __add__(self, other: "SliceSeries") -> "SliceSeries":
        return self._combine(other, 1.0)

    def __sub__(self, other: "SliceSeries") -> "SliceSeries":
        return self._combine(other, -1.0)

    def _combine(self, other: "SliceSeries", sign: float) -> "SliceSeries":
        self._check_compatible(other)
        out = np.zeros((max(len(self), len(other)),) + self._coeffs.shape[1:])
        out[:len(self)] = self._coeffs
        out[:len(other)] += sign * other._coeffs
        return SliceSeries._from_array(self.center, out, min(self.radius, other.radius))

    def _check_compatible(self, other: "SliceSeries") -> None:
        if not isinstance(other, SliceSeries):
            raise TypeError("expected another series")
        if self.center != other.center:
            raise ValueError("series must share a center")
        if self.is_vector != other.is_vector:
            raise TypeError("cannot mix scalar and vector series")
        if self._coeffs.shape[1:] != other._coeffs.shape[1:]:
            raise TypeError("vector series must share a length")


def star_product(f: SliceSeries, g: SliceSeries) -> SliceSeries:
    """Convolution product of two series around the same center.

    Coefficients multiply in reading order, left factor first; a scalar
    series may sit on either side of a vector one, two vector series have
    no product.  A scalar coefficient multiplies each entry of a vector
    one: from the right it is the right action, from the left the
    entrywise left product.
    """
    if f.center != g.center:
        raise ValueError("series must share a center")
    if f.is_vector and g.is_vector:
        raise TypeError("no product of two vector series")
    a, b = f._coeffs[:, None], g._coeffs[None]
    if a.ndim < b.ndim:
        a = a[..., None, :]
    elif b.ndim < a.ndim:
        b = b[..., None, :]
    terms = hamilton_array(a, b)
    out = np.zeros((len(f) + len(g) - 1,) + terms.shape[2:])
    np.add.at(out, np.add.outer(np.arange(len(f)), np.arange(len(g))), terms)
    return SliceSeries._from_array(f.center, out, min(f.radius, g.radius))


def slice_derivative(f: SliceSeries) -> SliceSeries:
    """Term-by-term derivative sum_n n a_n (q - p)^{*(n-1)}."""
    if len(f) == 1:
        return SliceSeries._from_array(f.center, np.zeros_like(f._coeffs), f.radius)
    n = np.arange(1.0, len(f)).reshape((-1,) + (1,) * (f._coeffs.ndim - 1))
    return SliceSeries._from_array(f.center, f._coeffs[1:] * n, f.radius)


def sigma_radius(f: SliceSeries) -> float:
    """Root-test estimate of the radius of the sigma-ball of convergence.

    1/R is read as max |a_n|^{1/n} over the second half of the available
    coefficients; the head carries transient information and is ignored.
    Truncations this short cannot distinguish slow growth from none, so
    fewer than eight coefficients raise a bias warning, and a tail that
    has underflowed to zero reads as an infinite radius.
    """
    mags = _magnitudes(f._coeffs)
    if len(mags) < 8:
        warnings.warn(
            "radius estimated from fewer than eight coefficients; the tail "
            "is too short to trust", RadiusBiasWarning, stacklevel=2)
    start = max(1, int(len(mags) * 0.5))
    inv = 0.0
    for n in range(start, len(mags)):
        mag = mags[n]
        if mag > 0.0:
            inv = max(inv, mag ** (1.0 / n))
    if inv == 0.0:
        return math.inf
    return 1.0 / inv


def _batch(f) -> Callable[[np.ndarray], np.ndarray]:
    """Values of a series, or of any callable on quaternions, at the rows
    of a (k, 4) point array; series evaluate the whole batch at once."""
    if isinstance(f, SliceSeries):
        return f._values
    evaluate = f.eval if hasattr(f, "eval") else f

    def values(pts: np.ndarray) -> np.ndarray:
        return np.stack([_components(evaluate(Quaternion(*row))) for row in pts.tolist()])

    return values


def cr_residual(f, points: Sequence[Quaternion]) -> float:
    """Largest sampled Cauchy-Riemann defect of f on its slices.

    At q = x + y I the defect is (D_x f + (D_y f) I) / 2 with centered
    differences of step h = 1e-4; it vanishes identically for series of the
    kind built here and stays order one for their pointwise conjugates.
    Real sample points read their slice from SLICE_I.
    """
    pts, h = _rows(points), 1e-4
    if not len(pts):
        return 0.0
    _, _, unit = _slice_parts(pts)
    unit[~unit.any(axis=1)] = (0.0, SLICE_I.x, SLICE_I.y, SLICE_I.z)
    real_step = np.zeros_like(pts)
    real_step[:, 0] = h
    step = unit * h
    vals = _batch(f)(np.concatenate([pts + real_step, pts - real_step,
                                     pts + step, pts - step]))
    fxp, fxm, fyp, fym = np.split(vals, 4)
    dx = (fxp - fxm) * (0.5 / h)
    dy = (fyp - fym) * (0.5 / h)
    return float(np.max(_norms((dx + _right_unit(dy, unit)) * 0.5)))


def _sample_rows(center: Quaternion, r: float) -> np.ndarray:
    """Deterministic sample grid of the closed euclidean r-ball at center,
    one quaternion per row.

    Euclidean distance dominates the sigma distance, so every sample also
    lies in the sigma-ball of the same radius.
    """
    s3 = 1.0 / math.sqrt(3.0)
    units = (SLICE_I, SLICE_J, SLICE_K, SliceUnit(s3, s3, s3))
    radii = np.array([frac * r for frac in (0.25, 0.5, 0.75, 1.0)])[:, None]
    angles = [math.pi * k / 4.0 for k in range(5)]
    xs = (radii * np.array([math.cos(t) for t in angles])).ravel()
    ys = (radii * np.array([math.sin(t) for t in angles])).ravel()
    axes = np.array([(u.x, u.y, u.z) for u in units])
    ring = np.empty((len(units), xs.size, 4))
    ring[:, :, 0] = xs
    ring[:, :, 1:] = ys[None, :, None] * axes[:, None, :]
    c = _rows([center])
    return np.concatenate([c, ring.reshape(-1, 4) + c])


@dataclass(frozen=True)
class CompactExhaustion:
    """Strictly increasing radii, all below the limiting radius."""

    radii: tuple[float, ...]
    limit: float = math.inf

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("an exhaustion needs at least one level")
        last = 0.0
        for r in radii:
            if not r > last:    # nan fails each of these comparisons
                raise ValueError("exhaustion radii must increase strictly")
            last = r
        if not radii[-1] < self.limit:
            raise ValueError("exhaustion radii must stay below the limit radius")
        object.__setattr__(self, "radii", radii)

    def __len__(self) -> int:
        return len(self.radii)


def default_exhaustion(radius: float = math.inf, levels: int = 8) -> CompactExhaustion:
    if levels < 1:
        raise ValueError("need at least one level")
    if math.isfinite(radius):
        radii = tuple(radius * (1.0 - 1.0 / (n + 1)) for n in range(1, levels + 1))
        return CompactExhaustion(radii, radius)
    return CompactExhaustion(tuple(2.0 ** (n - 1) for n in range(1, levels + 1)))


def h_metric(f: SliceSeries, g: SliceSeries,
             exhaustion: CompactExhaustion | None = None) -> float:
    """Translation-invariant distance sum_n 2^{-n} s_n / (1 + s_n).

    s_n is the sampled sup seminorm of f - g on the n-th ball of the
    exhaustion around their common center, n starting at one; the weights
    make the sum finite for any pair and below one always.  Adding a common
    series to both sides leaves the value unchanged.  The samples of every
    level go through f and g as one batch.
    """
    if f.center != g.center:
        raise ValueError("series must share a center")
    if exhaustion is None:
        exhaustion = default_exhaustion(min(f.radius, g.radius))
    pts = np.concatenate([_sample_rows(f.center, r) for r in exhaustion.radii])
    diff = f._values(pts) - g._values(pts)
    sups = _norms(diff).reshape(len(exhaustion), -1).max(axis=1)
    total = 0.0
    for n, s in enumerate(sups.tolist(), start=1):
        total += 2.0 ** (-n) * s / (1.0 + s)
    return total
