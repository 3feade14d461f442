"""Quaternion scalars and the geometry their spectra live in.

A quaternion is written q = w + x i + y j + z k with the Hamilton rules
i j = k = -j i, j k = i = -k j, k i = j = -i k.  Every non-real q splits
uniquely as q = re + im * I with im > 0 and I a point on the unit sphere
of imaginary quaternions; real q belong to every such plane.  Spectra of
right linear operators are unions of the similarity spheres

    [q] = { re + im * I : I imaginary unit },

which we represent canonically as an (re, im) pair with im >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Merge radius for eigen-sphere deduplication, relative to 1 + magnitude.
SPHERE_MERGE_TOL = 1e-8

# Two imaginary axes closer than this (after normalization) count as the
# same complex plane.
_AXIS_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Immutable quaternion with float64 components (w, x, y, z)."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """Hamilton product; real numbers embed as w + 0i + 0j + 0k."""
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        aw, ax, ay, az = self.w, self.x, self.y, self.z
        bw, bx, by, bz = other.w, other.x, other.y, other.z
        return Quaternion(
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        if isinstance(other, Quaternion):
            return self * other.inverse()
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def __abs__(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        """conj(q) / |q|^2; the zero quaternion has no inverse."""
        n = self.norm_sq()
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    # -- structure ----------------------------------------------------

    @property
    def re(self) -> float:
        return self.w

    def imag_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return abs(self - other) <= tol * (1.0 + abs(self) + abs(other))

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


@dataclass(frozen=True, slots=True)
class SliceUnit:
    """A point of the imaginary unit sphere; I * I = -1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(n - 1.0) <= 1e-12:    # nan fails too
            raise ValueError(f"slice unit must have unit norm, got |I|^2 = {n!r}")


SLICE_I = SliceUnit(1.0, 0.0, 0.0)
SLICE_J = SliceUnit(0.0, 1.0, 0.0)
SLICE_K = SliceUnit(0.0, 0.0, 1.0)


def _fmt(x: float) -> str:
    # round display-only values so eigenvalue noise prints as clean zeros
    return format(round(x, 12) + 0.0, ".12g")


def slice_compose(x: float, y: float, unit: SliceUnit) -> Quaternion:
    return Quaternion(x, y * unit.x, y * unit.y, y * unit.z)


# -- eigen-spheres ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class EigenSphere:
    """Similarity sphere [q], stored as (re, im) with im >= 0."""

    re: float
    im: float

    def __post_init__(self):
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))
        if self.im < 0.0:
            if self.im < -1e-9:
                raise ValueError(f"eigen-sphere needs im >= 0, got {self.im!r}")
            object.__setattr__(self, "im", 0.0)

    def matches(self, other: "EigenSphere", tol: float = SPHERE_MERGE_TOL) -> bool:
        scale = 1.0 + max(abs(self.re), self.im, abs(other.re), other.im)
        return (abs(self.re - other.re) <= tol * scale
                and abs(self.im - other.im) <= tol * scale)

    def distance(self, other: "EigenSphere") -> float:
        return math.hypot(self.re - other.re, self.im - other.im)

    def abs_value(self) -> float:
        """|q| for any representative q of the sphere."""
        return math.hypot(self.re, self.im)

    def key(self) -> tuple[float, float]:
        return (self.re, self.im)


def sphere_of(q: Quaternion) -> EigenSphere:
    """Canonical sphere through q: (Re q, |Im q|)."""
    return EigenSphere(q.w, q.imag_norm())


def linked_components(re: np.ndarray, im: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage components of plane points under ``EigenSphere.matches``
    (|im| in the scale): each point gets the least index its component reaches."""
    n = len(re)
    mag = np.maximum(np.abs(re), np.abs(im))
    # every pair at once, with the float operations of matches()
    cut = tol * (1.0 + np.maximum.outer(mag, mag))
    close = ((np.abs(np.subtract.outer(re, re)) <= cut)
             & (np.abs(np.subtract.outer(im, im)) <= cut))
    root, last = np.arange(n), None
    while not np.array_equal(root, last):
        last = root
        step = np.where(close, last, n).min(axis=1)
        root = step[step]
    return root


def _clusters(re: np.ndarray, im: np.ndarray, tol: float
              ) -> tuple[tuple[EigenSphere, ...], np.ndarray]:
    """Single-linkage clusters of the spheres (re, im), im >= 0, given as
    arrays, under ``EigenSphere.matches`` at ``tol``.

    Spheres share a cluster when a chain of pairwise matches joins them;
    every pair is compared, so a sphere sorting between two copies of
    another cannot split them.  Returns the centroids, sorted by (re, im),
    and for each input sphere the index of its centroid; a centroid sums
    its members in (re, im) order, and only the centroids become
    ``EigenSphere`` objects.
    """
    n = len(re)
    if not n:
        return (), np.zeros(0, dtype=np.intp)
    root = linked_components(re, im, tol)
    order = np.lexsort((im, re))    # stable, as sorting by key() is
    groups: dict[int, list[int]] = {}
    for k, r in zip(order.tolist(), root[order].tolist()):
        groups.setdefault(r, []).append(k)
    res, ims = re.tolist(), im.tolist()
    cents = {r: (sum(res[k] for k in g) / len(g), sum(ims[k] for k in g) / len(g))
             for r, g in groups.items()}
    ranked = sorted(cents, key=cents.get)
    rank = np.empty(n, dtype=np.intp)
    rank[ranked] = np.arange(len(ranked))
    return tuple(EigenSphere(*cents[r]) for r in ranked), rank[root]


def merge_spheres(spheres) -> tuple[EigenSphere, ...]:
    """Deduplicate spheres, replacing each cluster by its centroid.

    The clusters are those of ``_clusters`` at SPHERE_MERGE_TOL; input
    order does not matter and the result is sorted by (re, im).  Matching is
    chained, so the merge radius bounds neighbours, not cluster width: 200
    spheres spaced 0.9e-8 apart collapse into one centroid.
    """
    keys = [s.key() for s in spheres]
    re, im = np.array(keys, dtype=float).reshape(len(keys), 2).T
    return _clusters(re, im, SPHERE_MERGE_TOL)[0]


def sphere_in(s: EigenSphere, spheres, tol: float = SPHERE_MERGE_TOL) -> bool:
    return any(s.matches(t, tol) for t in spheres)


def sphere_subset(sub, sup, tol: float = SPHERE_MERGE_TOL) -> bool:
    return all(sphere_in(s, sup, tol) for s in sub)


def sphere_sets_equal(a, b, tol: float = SPHERE_MERGE_TOL) -> bool:
    return sphere_subset(a, b, tol) and sphere_subset(b, a, tol)


def sphere_union(*sets) -> tuple[EigenSphere, ...]:
    return merge_spheres([s for group in sets for s in group])


def sphere_hausdorff(a, b) -> float:
    """Hausdorff distance between finite sphere sets in (re, im) coordinates.

    Empty vs nonempty is infinite; empty vs empty is zero.
    """
    a, b = list(a), list(b)
    if not a or not b:
        return math.inf if a or b else 0.0
    return max(max(min(s.distance(t) for t in y) for s in x) for x, y in ((a, b), (b, a)))


# -- the sigma metric -------------------------------------------------


def omega_dist(q: Quaternion, p: Quaternion) -> float:
    """Distance between the spheres [q] and [p] in half-plane coordinates."""
    return math.hypot(q.w - p.w, q.imag_norm() - p.imag_norm())


def _same_plane(q: Quaternion, p: Quaternion) -> bool:
    yq = q.imag_norm()
    yp = p.imag_norm()
    # Real quaternions belong to every complex plane.
    if yq == 0.0 or yp == 0.0:
        return True
    ux, uy, uz = q.x / yq, q.y / yq, q.z / yq
    vx, vy, vz = p.x / yp, p.y / yp, p.z / yp
    straight = math.sqrt((ux - vx) ** 2 + (uy - vy) ** 2 + (uz - vz) ** 2)
    flipped = math.sqrt((ux + vx) ** 2 + (uy + vy) ** 2 + (uz + vz) ** 2)
    # C_I and C_{-I} are the same plane.
    return min(straight, flipped) <= _AXIS_TOL


def sigma_dist(q: Quaternion, p: Quaternion) -> float:
    """|q - p| when q and p share a complex plane, else the sphere distance.

    Symmetric, and zero exactly on sphere mates that project to the same
    (re, im) point.
    """
    if _same_plane(q, p):
        return abs(q - p)
    return omega_dist(q, p)


# -- vectorized helpers ------------------------------------------------
#
# The series engine runs on (..., 4) float arrays; the scalar class costs
# one Python object per product.


def hamilton_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise Hamilton product of (..., 4) arrays, broadcasting the
    leading axes."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)
