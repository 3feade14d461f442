"""Named property suites behind the ``check`` command.

Every law the library claims is executable from here: scalar algebra,
complex-adjoint structure, spectral classification, window evidence and
symbol limits for shifts, local spectra, subspace laws, and the series
engine.  A suite is a list of labeled checks; each check runs a number of
seeded instances and reports a count.  Instance generation is keyed by
(seed, stream) so reports are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import localspec, rand, spectral
from .errors import (CoverError, InvarianceError, NumericalError, PoleError,
                     ShapeError)
from .operators import (DenseOperator, HalfPlaneRegion, MultiplicationOperator,
                        ShiftOperator, invariance_defect, partition_splitting,
                        pseudo_resolvent_apply, quotient, restrict,
                        truncated_eigenvector)
from .qlinalg import (QMatrix, QVector, complex_adjoint, hstack, inner,
                      inverse_matrix, kernel_basis, min_singular, op_norm,
                      orthonormalize, right_eigenspheres, vstack, SubspaceBasis)
from .quat import (EigenSphere, Quaternion, SliceUnit, merge_spheres,
                   sigma_dist, slice_compose, sphere_hausdorff, sphere_of,
                   sphere_sets_equal, sphere_subset, sphere_union)
from .sliceseries import (SliceSeries, cr_residual, default_exhaustion,
                          h_metric, sigma_radius, slice_derivative,
                          star_product)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    trials: int = 20
    tol: float = 1e-6

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")


@dataclass(frozen=True)
class CheckCount:
    label: str
    passed: int
    total: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.passed == self.total


@dataclass(frozen=True)
class SuiteResult:
    name: str
    counts: tuple[CheckCount, ...]

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.counts)

    @property
    def total(self) -> int:
        return sum(c.total for c in self.counts)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def lines(self) -> list[str]:
        out = [f"suite {self.name}"]
        for c in self.counts:
            out.append(f"  {c.label:<28} {c.passed}/{c.total}")
            for f in c.failures:
                out.append(f"    fail {f}")
        return out


class _Runner:
    """Collects labeled checks; hands each instance its own rng stream."""

    def __init__(self, cfg: SuiteConfig, cap: int | None = None):
        self.cfg = cfg
        self.counts: list[CheckCount] = []
        self._stream = 0
        self._cap = cap

    @property
    def trials(self) -> int:
        n = self.cfg.trials
        return min(n, self._cap) if self._cap else n

    def run(self, label: str, fn) -> None:
        sid = self._stream
        self._stream += 1
        n = self.trials
        failures = []
        passed = 0
        for k in range(n):
            rng = rand.generator(self.cfg.seed, (sid << 32) | k)
            try:
                ok = bool(fn(rng, k))
            except (NumericalError, InvarianceError, PoleError, CoverError,
                    ShapeError, ValueError, TypeError) as exc:
                failures.append(f"{label}[{k}] {type(exc).__name__}: {exc}")
                continue
            if ok:
                passed += 1
            else:
                failures.append(f"{label}[{k}]")
        self.counts.append(CheckCount(label, passed, n, tuple(failures)))

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name, tuple(self.counts))


# -- shared instance helpers ---------------------------------------------------


def _far_quaternion(rng, spheres, real: bool = False) -> Quaternion:
    """A draw, real in [-2.5, 2.5] or any in [-2, 2]^4, at sphere distance
    at least 0.3 from every sphere given."""
    while True:
        q = Quaternion(float(rng.uniform(-2.5, 2.5))) if real else rand.rand_quaternion(rng, 2.0)
        if all(sphere_of(q).distance(t) >= 0.3 for t in spheres):
            return q


def _separated_diag(rng, n: int) -> QMatrix:
    """Diagonal of n draws whose spheres lie at least 0.2 apart."""
    entries: list[Quaternion] = []
    while len(entries) < n:
        q = rand.rand_quaternion(rng, 1.5)
        s = sphere_of(q)
        if all(s.distance(sphere_of(e)) >= 0.2 for e in entries):
            entries.append(q)
    return QMatrix.diag(entries)


def _sphere_scale(spheres) -> float:
    return 1.0 + max((s.abs_value() for s in spheres), default=0.0)


# -- scalar algebra ------------------------------------------------------------


def _suite_scalar_algebra(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def product_norm(rng, k):
        a, b = rand.rand_quaternion(rng, 2.0), rand.rand_quaternion(rng, 2.0)
        return abs(abs(a * b) - abs(a) * abs(b)) <= 1e-12 * (1.0 + abs(a) * abs(b))

    def conj_reversal(rng, k):
        a, b = rand.rand_quaternion(rng, 2.0), rand.rand_quaternion(rng, 2.0)
        return (a * b).conjugate().isclose(b.conjugate() * a.conjugate(),
                                           1e-13 * (1.0 + abs(a) * abs(b)))

    def associativity(rng, k):
        a, b, c = (rand.rand_quaternion(rng, 2.0) for _ in range(3))
        scale = 1.0 + abs(a) * abs(b) * abs(c)
        return ((a * b) * c).isclose(a * (b * c), 1e-12 * scale)

    def inverse_law(rng, k):
        while True:
            q = rand.rand_quaternion(rng, 2.0)
            if abs(q) > 0.1:
                break
        return (q * q.inverse()).isclose(Quaternion(1.0), 1e-12)

    def sphere_conjugation(rng, k):
        q = rand.rand_quaternion(rng, 2.0)
        while True:
            h = rand.rand_quaternion(rng, 1.0)
            if abs(h) > 0.1:
                break
        s = sphere_of(q)
        rotated = sphere_of(h.inverse() * q * h)
        return (s.matches(sphere_of(q.conjugate()), 1e-10)
                and s.matches(rotated, 1e-10 * (1.0 + abs(q))))

    def sigma_symmetry(rng, k):
        p = rand.rand_quaternion(rng, 2.0)
        q = rand.rand_quaternion(rng, 2.0)
        if abs(sigma_dist(p, q) - sigma_dist(q, p)) > 0.0:
            return False
        # same (Re, |Im|) on independent axes: cross-plane distance vanishes
        x, y = float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2))
        u1 = rand.rand_quaternion(rng, 1.0)
        u2 = rand.rand_quaternion(rng, 1.0)
        q1 = Quaternion(x, 0, 0, 0) + _imag_unit(u1) * y
        q2 = Quaternion(x, 0, 0, 0) + _imag_unit(u2) * y
        return sigma_dist(q1, q2) <= 1e-12

    r.run("product-norm", product_norm)
    r.run("conjugate-reversal", conj_reversal)
    r.run("associativity", associativity)
    r.run("inverse", inverse_law)
    r.run("sphere-conjugation", sphere_conjugation)
    r.run("sigma-distance", sigma_symmetry)
    return r.result("scalar-algebra")


def _imag_unit(q: Quaternion) -> Quaternion:
    v = Quaternion(0.0, q.x, q.y, q.z)
    n = abs(v)
    if n < 1e-6:
        return Quaternion(0, 1, 0, 0)
    return v * (1.0 / n)


# -- matrix structure ----------------------------------------------------------


def _suite_matrix_structure(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def chi_multiplicative(rng, k):
        n = int(rng.integers(2, 5))
        a, b = rand.rand_qmatrix(rng, n, n), rand.rand_qmatrix(rng, n, n)
        lhs = complex_adjoint(a @ b)
        rhs = complex_adjoint(a) @ complex_adjoint(b)
        return np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))

    def adjoint_inner(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n, n)
        u, v = rand.rand_qvector(rng, n), rand.rand_qvector(rng, n)
        lhs = inner(a.apply(u), v)
        rhs = inner(u, a.adjoint().apply(v))
        return lhs.isclose(rhs, 1e-10 * (1.0 + a.frobenius()))

    def minsing_chi(rng, k):
        n = int(rng.integers(2, 6))
        a = rand.rand_qmatrix(rng, n, n)
        if k % 2 == 0:
            # complex-slice fast path deserves the same scrutiny
            comps = a.to_components()
            comps[..., 2:] = 0.0
            a = QMatrix.from_components(comps)
        direct = float(np.linalg.svd(complex_adjoint(a), compute_uv=False)[-1])
        return abs(min_singular(a) - direct) <= 1e-9 * (1.0 + direct)

    def opnorm_bound(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n, n)
        nrm = op_norm(a)
        if abs(op_norm(a.adjoint()) - nrm) > 1e-9 * (1.0 + nrm):
            return False
        for _ in range(10):
            v = rand.rand_qvector(rng, n)
            if a.apply(v).norm() > nrm * v.norm() * (1.0 + 1e-9):
                return False
        return True

    def range_kernel(rng, k):
        n = int(rng.integers(3, 6))
        rnk = int(rng.integers(1, n))
        a = rand.rand_qmatrix(rng, n, rnk) @ rand.rand_qmatrix(rng, rnk, n)
        null = kernel_basis(a.adjoint(), tol=1e-10)
        if null.cols != n - rnk:
            return False
        # entry (i, j) is the inner product of kernel vector i with column j
        g = null.adjoint() @ a
        return not np.any(np.hypot(np.abs(g.c1), np.abs(g.c2)) > 1e-9 * (1.0 + a.frobenius()))

    def embed_compat(rng, k):
        n = int(rng.integers(2, 6))
        a = rand.rand_qmatrix(rng, n, n)
        v = rand.rand_qvector(rng, n)
        lhs = complex_adjoint(a) @ v.embed()
        rhs = a.apply(v).embed()
        return np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))

    r.run("chi-multiplicative", chi_multiplicative)
    r.run("adjoint-inner-product", adjoint_inner)
    r.run("min-singular-vs-chi", minsing_chi)
    r.run("operator-norm-bound", opnorm_bound)
    r.run("range-perp-kernel", range_kernel)
    r.run("embedding-compatibility", embed_compat)
    return r.result("matrix-structure")


# -- eigensphere similarity / adjoint symmetry ---------------------------------


def _suite_eigensphere_similarity(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def similarity(rng, k):
        if k % 2:
            # repeated spheres 0 and [b i]: sorted by real part, which is
            # rounding noise, their copies interleave, and a Hausdorff bound
            # cannot see a sphere listed twice
            n = int(rng.integers(3, 6))
            b = float(rng.uniform(0.5, 3.0))
            ims = [0.0, b, *rng.choice([0.0, b], n - 2)]
            a = QMatrix.diag([slice_compose(0.0, b, _rand_unit(rng)) for b in ims])
        else:
            n = int(rng.integers(2, 6))
            a = rand.rand_qmatrix(rng, n, n)
        s = rand.rand_invertible(rng, n)
        conj = s @ a @ inverse_matrix(s)
        before, after = right_eigenspheres(a), right_eigenspheres(conj)
        return (len(before) == len(after)
                and sphere_hausdorff(before, after) <= cfg.tol)

    r.run("similarity-invariance", similarity)
    return r.result("eigensphere-similarity")


def _suite_defective_similarity(cfg: SuiteConfig) -> SuiteResult:
    """Planted spheres no fixed clustering radius can find: Jordan blocks of
    size k, which spread their eigenvalue by about eps^(1/k), and sphere
    pairs 3e-8 to 1e-6 apart, under a similarity of condition <= 30."""
    r = _Runner(cfg)

    def planted_seen(rng, d: QMatrix, planted, certified: bool) -> bool:
        n = d.rows
        while True:
            sim = QMatrix.from_components(rng.normal(size=(n, n, 4)) / math.sqrt(4 * n))
            sim = sim + QMatrix.identity(n)
            if op_norm(sim) <= 30.0 * min_singular(sim):
                break
        a = sim @ d @ inverse_matrix(sim)
        rep = spectral.classify(a)
        proj = localspec.spectral_projections(a)
        local = localspec.local_spectrum(a, rand.rand_qvector(rng, n))
        got = [(s.re, s.im, m) for s, m in zip(proj.spheres, proj.multiplicities)]
        return (rep.coincident and proj.certified == certified
                and set(local) <= set(rep.spheres) and len(got) == len(planted)
                and all(m == pm and abs(x - px) + abs(y - py) <= 1e-9
                        for (x, y, m), (px, py, pm) in zip(got, sorted(planted))))

    def jordan(lam: complex):
        def check(rng, k):
            size = 2 + k % 3
            c1 = np.diag([lam] * size + [-1.0, 1.3 + 0.4j]).astype(complex)
            c1[np.arange(size - 1), np.arange(1, size)] = 1.0
            # ker R_q spans a Jordan block only when R_q = (A - q)^2 kills it
            return planted_seen(rng, QMatrix(c1, np.zeros_like(c1)), [
                (lam.real, abs(lam.imag), size), (-1.0, 0.0, 1), (1.3, 0.4, 1)],
                certified=size == 2 and lam.imag == 0)
        return check

    def close_pair(rng, k):
        gap = 10.0 ** float(rng.uniform(math.log10(3e-8), -6.0))
        spheres = [(0.3, 0.7), (0.3 + gap, 0.7), (-0.8, 0.2), (1.1, 0.0)]
        d = QMatrix.diag([slice_compose(x, y, _rand_unit(rng)) for x, y in spheres])
        return planted_seen(rng, d, [(x, y, 1) for x, y in spheres], certified=True)

    r.run("jordan-real", jordan(0.5))
    r.run("jordan-nonreal", jordan(0.5 + 0.8j))
    r.run("close-pair", close_pair)
    return r.result("defective-similarity")


def _suite_adjoint_symmetry(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def spectra_equal(rng, k):
        n = int(rng.integers(2, 7))
        a = rand.rand_qmatrix(rng, n, n)
        return sphere_hausdorff(right_eigenspheres(a),
                                right_eigenspheres(a.adjoint())) <= cfg.tol

    def duality(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n, n)
        rep_a = spectral.classify(a)
        rep_d = spectral.classify(a.adjoint())
        return sphere_sets_equal(rep_a.part("approximate"),
                                 rep_d.part("surjectivity"), cfg.tol)

    r.run("spectrum-of-adjoint", spectra_equal)
    r.run("approx-surjectivity-dual", duality)
    return r.result("adjoint-symmetry")


# -- classification ------------------------------------------------------------


def _suite_classify_parts(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def coincidence(rng, k):
        if k == 0:
            a: QMatrix = QMatrix.identity(3)
        else:
            n = int(rng.integers(2, 6))
            a = rand.rand_qmatrix(rng, n, n)
        rep = spectral.classify(a)
        if not rep.coincident:
            return False
        pt = rep.part("point")
        ap = rep.part("approximate")
        cp = rep.part("compression")
        if not sphere_subset(pt, ap, cfg.tol):
            return False
        return sphere_sets_equal(rep.spheres, sphere_union(ap, cp), cfg.tol)

    def annulus(rng, k):
        n = int(rng.integers(2, 6))
        a = rand.rand_qmatrix(rng, n, n)
        rep = spectral.classify(a)
        verdict = spectral.annulus_check(rep, tol=cfg.tol)
        return verdict.ok and rep.lower_bound <= rep.radius + cfg.tol

    r.run("four-part-coincidence", coincidence)
    r.run("annulus-containment", annulus)
    return r.result("classify-parts")


# -- portraits -----------------------------------------------------------------


def _suite_portrait_symmetry(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg, cap=8)

    def representatives(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n, n)
        x = float(rng.uniform(-1.5, 1.5))
        y = float(rng.uniform(0.0, 1.5))
        values = [min_singular(spectral.pseudo_resolvent(a, slice_compose(x, y, _rand_unit(rng))))
                  for _ in range(5)]
        spread = max(values) - min(values)
        return spread <= 1e-12 * (1.0 + max(values))

    def slice_choice(rng, k):
        # one portrait serves every slice: its cells match R_q on a random one
        a = rand.rand_qmatrix(rng, 3, 3)
        grid = spectral.GridSpec(-1.2, 1.2, 1.0, 7, 5)
        values = spectral.portrait(DenseOperator(a), grid).values
        xs, ys, unit = grid.xs(), grid.ys(), _rand_unit(rng)
        for cell in rng.choice(values.size, 5, replace=False):
            iy, ix = np.unravel_index(cell, values.shape)
            q = slice_compose(float(xs[ix]), float(ys[iy]), unit)
            want = min_singular(spectral.pseudo_resolvent(a, q))
            if not abs(values[iy, ix] - want) <= 1e-12 * (1.0 + want):
                return False
        return True

    r.run("representative-invariance", representatives)
    r.run("slice-independence", slice_choice)
    return r.result("portrait-symmetry")


def _rand_unit(rng) -> SliceUnit:
    while True:
        x, y, z = rng.uniform(-1, 1, 3)
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-3:
            return SliceUnit(x / n, y / n, z / n)


def _suite_portrait_boundary(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg, cap=3)
    # spheres parked on grid nodes so the portrait contains exact zeros
    grid = spectral.GridSpec(-1.5, 1.5, 1.2, 61, 25)

    def transition(rng, k):
        anchors = [Quaternion(0.0, 0.8), Quaternion(0.6, 0.6)]
        while True:
            extra = Quaternion(float(rng.choice(np.arange(-1.0, 1.05, 0.05))),
                               float(rng.choice(np.arange(0.5, 1.05, 0.05))))
            if all(sphere_of(extra).distance(sphere_of(s)) >= 0.45
                   for s in anchors):
                break
        op = DenseOperator(QMatrix.diag(anchors + [extra]))
        p = spectral.portrait(op, grid)
        trans = spectral.transition_cells(p.values, low=0.02, high=0.2)
        if not np.any(trans):
            return False
        return float(np.max(p.values[trans])) <= 0.2

    def threshold_and_fill(rng, k):
        spheres = [Quaternion(0.0, 0.8), Quaternion(0.6, 0.6)]
        op = DenseOperator(QMatrix.diag(spheres))
        p = spectral.portrait(op, grid)
        region = spectral.threshold_region(p)
        if region.cell_count() != 2:
            return False
        filled = spectral.full_spectrum(region)
        return filled.cell_count() == region.cell_count()

    def arc_fill(rng, k):
        g = spectral.GridSpec(-1.0, 1.0, 1.0, 64, 32)
        xs, ys = g.xs(), g.ys()
        mask = _arc_mask(g, 0.5)
        filled = spectral.full_spectrum(spectral.AxSymRegion(g, mask))
        ix = int(np.argmin(np.abs(xs - 0.0)))
        iy = int(np.argmin(np.abs(ys - 0.2)))
        return bool(filled.mask[iy, ix]) and not filled.mask[-1, -1]

    r.run("transition-cells", transition)
    r.run("threshold-fill", threshold_and_fill)
    r.run("arc-fill", arc_fill)
    return r.result("portrait-boundary")


def _arc_mask(g: spectral.GridSpec, radius: float) -> np.ndarray:
    """Rasterize the half circle of the given radius as a 1-cell chain.

    Marking the nearest cell of densely sampled arc points yields an
    8-connected wall, which the 4-connected hole fill cannot cross.
    """
    # math.cos/sin, since np.cos/sin may differ by an ulp, and argmin takes
    # the first of tied cells: the wall is bit for bit the one that nearest
    # cells of one sample point at a time give
    thetas = np.linspace(0.0, math.pi, 8 * max(g.nx, g.ny)).tolist()
    x = radius * np.array([math.cos(t) for t in thetas])
    y = radius * np.array([math.sin(t) for t in thetas])
    ix = np.argmin(np.abs(g.xs()[None, :] - x[:, None]), axis=1)
    iy = np.argmin(np.abs(g.ys()[None, :] - y[:, None]), axis=1)
    mask = np.zeros((g.ny, g.nx), dtype=bool)
    mask[iy, ix] = True
    return mask


# -- restriction / quotient ----------------------------------------------------


def _suite_restriction_quotient(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def coordinate_blocks(rng, k):
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        t, a, b, _ = rand.rand_block_upper(rng, n1, n2)
        basis = SubspaceBasis(QMatrix.identity(n1 + n2).take_cols(n1))
        rest = restrict(t, basis)
        quot = quotient(t, basis)
        ok = sphere_hausdorff(right_eigenspheres(rest),
                              right_eigenspheres(a)) <= cfg.tol
        return ok and sphere_hausdorff(right_eigenspheres(quot),
                                       right_eigenspheres(b)) <= cfg.tol

    def inclusions(rng, k):
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        n = n1 + n2
        t, _, _, _ = rand.rand_block_upper(rng, n1, n2)
        u = rand.rand_orthonormal(rng, n, n)
        t = u @ t @ u.adjoint()
        basis = SubspaceBasis(u.take_cols(n1))
        rest = restrict(t, basis)
        quot = quotient(t, basis)
        st = right_eigenspheres(t)
        sr = right_eigenspheres(rest)
        sq = right_eigenspheres(quot)
        return (sphere_subset(st, sphere_union(sr, sq), cfg.tol)
                and sphere_subset(sr, sphere_union(st, sq), cfg.tol)
                and sphere_subset(sq, sphere_union(st, sr), cfg.tol))

    def invariance_guard(rng, k):
        n = int(rng.integers(3, 6))
        a = rand.rand_qmatrix(rng, n, n)
        basis = SubspaceBasis(rand.rand_orthonormal(rng, n, 2))
        if invariance_defect(a, basis) <= 1e-8 * (1.0 + op_norm(a)):
            return True  # freak invariant draw; nothing to reject
        try:
            restrict(a, basis)
        except InvarianceError:
            return True
        return False

    r.run("coordinate-blocks", coordinate_blocks)
    r.run("three-inclusions", inclusions)
    r.run("invariance-guard", invariance_guard)
    return r.result("restriction-quotient")


# -- shifts --------------------------------------------------------------------


def _suite_shift_window(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg, cap=4)
    right = ShiftOperator("right")
    left = ShiftOperator("left")

    def monotone(rng, k):
        q = (Quaternion(0.5), Quaternion(0.9, 0.4),
             Quaternion(-0.3, 1.1), rand.rand_quaternion(rng, 1.5))[k % 4]
        values = [spectral.window_kappa(right, q, n) for n in (32, 64, 128)]
        return all(values[i + 1] <= values[i] + 1e-12 for i in range(2))

    def stabilization(rng, k):
        q = (Quaternion(0.5), Quaternion(1.3, 0.4), Quaternion(0.0, 1.7),
             Quaternion(-1.9, 0.3))[k % 4]
        k128 = spectral.window_kappa(right, q, 128)
        k256 = spectral.window_kappa(right, q, 256)
        # quadratic window convergence: relative gap per doubling < 1e-3
        return abs(k128 - k256) <= 2e-3 * k256

    def adjoint_sections(rng, k):
        n = int(rng.integers(4, 40))
        ls = left.finite_section(n)
        rs = right.finite_section(n).adjoint()
        return (np.array_equal(ls.c1, rs.c1)
                and np.array_equal(ls.c2, rs.c2))

    def eigenvector_residual(rng, k):
        q = (Quaternion(0.5), Quaternion(0.3, 0.4),
             Quaternion(-0.2, 0.0, 0.5), Quaternion(0.1, 0.2, 0.2, 0.4))[k % 4]
        v = truncated_eigenvector(q, 64)
        resid = pseudo_resolvent_apply(left, q, v).norm() / v.norm()
        if resid > 1e-12:
            return False
        return spectral.window_kappa(left, q, 64) <= 1e-10

    def interior_floor(rng, k):
        # window values decrease to the exact limit (1-|q|)^2 = 0.25 like 1/W^2
        limit = float(spectral.shift_kappa_limit("right", 0.5, 0.0))
        val = spectral.window_kappa(right, Quaternion(0.5), 128)
        return limit <= val <= limit + 1e-3

    r.run("kappa-monotone", monotone)
    r.run("kappa-stabilization", stabilization)
    r.run("adjoint-sections-exact", adjoint_sections)
    r.run("left-eigenvector", eigenvector_residual)
    r.run("right-interior-floor", interior_floor)
    return r.result("shift-window")


def _suite_shift_decomposability(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg, cap=1)
    target = EigenSphere(0.5, 0.0)

    def fails(side: str):
        def check(rng, k):
            verdict = localspec.decomposability_necessary(ShiftOperator(side))
            return (verdict.status == "FAIL" and verdict.witness is not None
                    and verdict.witness.matches(target, 1e-9))
        return check

    def svep_verdicts(rng, k):
        a = rand.rand_qmatrix(rng, 3, 3)
        return (localspec.svep_status(a).has_svep is True
                and localspec.svep_status(ShiftOperator("left")).has_svep is False
                and localspec.svep_status(ShiftOperator("right")).has_svep is True)

    r.run("right-shift-fails", fails("right"))
    r.run("left-shift-fails", fails("left"))
    r.run("svep-verdicts", svep_verdicts)
    return r.result("shift-decomposability")


# -- multiplication operators ----------------------------------------------------


def _rand_mult(rng, max_points: int = 20) -> MultiplicationOperator:
    m = int(rng.integers(3, max_points + 1))
    labels = tuple(f"x{j}" for j in range(m))
    values = tuple(rand.rand_quaternion(rng, 1.5) for _ in range(m))
    return MultiplicationOperator(labels, values)


def _suite_mult_operator(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def spectrum_is_values(rng, k):
        op = _rand_mult(rng)
        return sphere_sets_equal(right_eigenspheres(op.as_qmatrix()),
                                 op.value_spheres(), 1e-8 * _sphere_scale(op.value_spheres()))

    def classify_normal(rng, k):
        op = _rand_mult(rng, max_points=8)
        rep = spectral.classify(op.as_qmatrix())
        if not rep.coincident:
            return False
        for name in ("point", "approximate", "compression", "surjectivity"):
            if not sphere_sets_equal(rep.part(name), rep.spheres, cfg.tol):
                return False
        return True

    def support_formula(rng, k):
        op = _rand_mult(rng, max_points=10)
        n = op.dim
        comps = rand.rand_qvector(rng, n).to_components()
        keep = rng.integers(0, 2, n).astype(bool)
        if not keep.any():
            keep[int(rng.integers(0, n))] = True
        comps[~keep] = 0.0
        f = QVector.from_components(comps)
        expected = merge_spheres([sphere_of(op.values[j])
                                  for j in range(n) if keep[j]])
        got = localspec.local_spectrum(op.as_qmatrix(), f)
        return sphere_sets_equal(got, expected, cfg.tol)

    def resolvent_law(rng, k):
        op = _rand_mult(rng, max_points=8)
        f = rand.rand_qvector(rng, op.dim)
        q = _far_quaternion(rng, op.value_spheres(), real=True)
        h = localspec.local_resolvent_diag(op, f, q)
        resid = (pseudo_resolvent_apply(op, q, h) - f).norm()
        if resid > 1e-10 * (1.0 + f.norm()):
            return False
        for j in range(op.dim):
            g = op.values[j]
            lhs = abs(h.entry(j)) * abs(g - q) * abs(g - q.conjugate())
            if abs(lhs - abs(f.entry(j))) > 1e-10 * (1.0 + abs(f.entry(j))):
                return False
        return True

    def pole_guard(rng, k):
        op = _rand_mult(rng, max_points=6)
        f = QVector.from_quaternions([Quaternion(1.0)] * op.dim)
        q = op.values[0]
        try:
            localspec.local_resolvent_diag(op, f, q)
        except PoleError:
            return True
        return False

    def decomposable_pass(rng, k):
        op = _rand_mult(rng, max_points=8)
        verdict = localspec.decomposability_necessary(op)
        return verdict.status == "PASS"

    def partition(rng, k):
        op = _rand_mult(rng, max_points=8)
        spheres = [sphere_of(v) for v in op.values]
        mid = max(1, len(spheres) // 2)
        disks = [HalfPlaneRegion.disk(s.re, s.im, 0.05) for s in spheres]
        u1 = functools.reduce(HalfPlaneRegion.__or__, disks[:mid + 1])
        u2 = functools.reduce(HalfPlaneRegion.__or__, disks[mid:])
        y1, y2 = partition_splitting(op, u1, u2)
        m = op.as_qmatrix()
        for basis, region in ((y1, u1), (y2, u2)):
            if basis.dim == 0:
                continue
            if invariance_defect(m, basis) > 1e-10 * (1.0 + op_norm(m)):
                return False
            part = restrict(m, basis)
            for s in right_eigenspheres(part):
                if not region.contains(s):
                    return False
        return orthonormalize(hstack([y1.matrix, y2.matrix]), drop_tol=1e-9).cols == op.dim

    r.run("spectrum-equals-values", spectrum_is_values)
    r.run("classify-all-parts", classify_normal)
    r.run("support-formula", support_formula)
    r.run("resolvent-law", resolvent_law)
    r.run("pole-guard", pole_guard)
    r.run("decomposable-pass", decomposable_pass)
    r.run("partition-splitting", partition)
    return r.result("mult-operator")


# -- local spectrum laws ---------------------------------------------------------


def _suite_local_laws(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def three_laws(rng, k):
        n = int(rng.integers(2, 7))
        a = rand.rand_qmatrix(rng, n, n)
        phi, psi = rand.rand_qvector(rng, n), rand.rand_qvector(rng, n)
        qa, qb = rand.rand_quaternion(rng), rand.rand_quaternion(rng)
        b = rand.rand_commutant(rng, a)
        # the third law, an empty local spectrum of 0, ends ``containment``
        return (localspec.check_combination(a, phi, psi, qa, qb, cfg.tol)
                and localspec.check_commutant(a, b, phi, cfg.tol))

    def quaternion_commutant(rng, k):
        # real-entried A commutes with scalar matrices of any quaternion
        n = int(rng.integers(2, 6))
        comps = np.zeros((n, n, 4))
        comps[..., 0] = rng.uniform(-1, 1, (n, n))
        a = QMatrix.from_components(comps)
        c = rand.rand_quaternion(rng)
        b = QMatrix.diag([c] * n) + (a @ a).scale(float(rng.uniform(-1, 1)))
        phi = rand.rand_qvector(rng, n)
        return localspec.check_commutant(a, b, phi, cfg.tol)

    def eigenvector_law(rng, k):
        n = int(rng.integers(2, 6))
        d = _separated_diag(rng, n)
        s = rand.rand_invertible(rng, n)
        a = s @ d @ inverse_matrix(s)
        j = int(rng.integers(0, n))
        phi = s.col(j)
        got = localspec.local_spectrum(a, phi)
        target = sphere_of(d.entry(j, j))
        if len(got) != 1 or not got[0].matches(target, cfg.tol):
            return False
        return localspec.spectral_projections(a).certified

    def basis_union(rng, k):
        n = int(rng.integers(2, 6))
        a = rand.rand_qmatrix(rng, n, n)
        union: list[EigenSphere] = []
        for j in range(n):
            union.extend(localspec.local_spectrum(a, QVector.basis(n, j)))
        return sphere_sets_equal(merge_spheres(union),
                                 right_eigenspheres(a), cfg.tol)

    def containment(rng, k):
        n = int(rng.integers(2, 6))
        a = rand.rand_qmatrix(rng, n, n)
        phi = rand.rand_qvector(rng, n)
        loc = localspec.local_spectrum(a, phi)
        if not sphere_subset(loc, right_eigenspheres(a), cfg.tol):
            return False
        return len(localspec.local_spectrum(a, QVector.zeros(n))) == 0

    r.run("three-laws", three_laws)
    r.run("quaternion-commutant", quaternion_commutant)
    r.run("eigenvector-law", eigenvector_law)
    r.run("basis-union", basis_union)
    r.run("containment", containment)
    return r.result("local-laws")


# -- product laws ----------------------------------------------------------------


def _suite_product_laws(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def square_invertible(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_invertible(rng, n)
        b = rand.rand_qmatrix(rng, n, n)
        phi = rand.rand_qvector(rng, n)
        return localspec.check_ab_ba(a, b, phi, cfg.tol)

    def rectangular(rng, k):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n1, n2)
        b = rand.rand_qmatrix(rng, n2, n1)
        phi = rand.rand_qvector(rng, n2)
        return localspec.check_ab_ba(a, b, phi, cfg.tol)

    def singular_factor(rng, k):
        n = int(rng.integers(3, 5))
        a = rand.rand_qmatrix(rng, n, n - 1) @ rand.rand_qmatrix(rng, n - 1, n)
        b = rand.rand_qmatrix(rng, n, n)
        phi = rand.rand_qvector(rng, n)
        return localspec.check_ab_ba(a, b, phi, cfg.tol)

    def identity_factor(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n, n)
        phi = rand.rand_qvector(rng, n)
        return localspec.check_ab_ba(a, QMatrix.identity(n), phi, cfg.tol)

    def idempotent_pair(rng, k):
        p = rand.rand_idempotent(rng, 4, 2)
        q = rand.rand_idempotent(rng, 4, 2)
        phi = rand.rand_qvector(rng, 4)
        return localspec.check_aba(p @ q, q @ p, phi, cfg.tol)

    r.run("square-invertible", square_invertible)
    r.run("rectangular", rectangular)
    r.run("singular-factor", singular_factor)
    r.run("identity-factor", identity_factor)
    r.run("idempotent-pair", idempotent_pair)
    return r.result("product-laws")


# -- intertwining ------------------------------------------------------------------


def _suite_intertwining(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def similarity(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n, n)
        s = rand.rand_invertible(rng, n)
        b = s @ a @ inverse_matrix(s)
        phi = rand.rand_qvector(rng, n)
        spheres = right_eigenspheres(a)[:1]
        return localspec.check_intertwining(a, b, s, phi, spheres, cfg.tol)

    def block_projector(rng, k):
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        n = n1 + n2
        a1 = rand.rand_qmatrix(rng, n1, n1)
        a2 = rand.rand_qmatrix(rng, n2, n2)
        a = vstack([hstack([a1, QMatrix.zeros(n1, n2)]),
                    hstack([QMatrix.zeros(n2, n1), a2])])
        proj = QMatrix.diag([Quaternion(1.0)] * n1 + [Quaternion()] * n2)
        phi = rand.rand_qvector(rng, n)
        spheres = right_eigenspheres(a1)[:1]
        return localspec.check_intertwining(a, a, proj, phi, spheres, cfg.tol)

    def resolvent_identity(rng, k):
        n = int(rng.integers(2, 5))
        a = rand.rand_qmatrix(rng, n, n)
        phi = rand.rand_qvector(rng, n)
        spheres = right_eigenspheres(a)

        def f(q: Quaternion) -> QVector:
            return inverse_matrix(spectral.pseudo_resolvent(a, q)).apply(phi)

        samples = [_far_quaternion(rng, spheres) for _ in range(3)]
        return localspec.check_resolvent_identity(a, phi, f, samples, cfg.tol)

    def precondition_guard(rng, k):
        n = 3
        a = rand.rand_qmatrix(rng, n, n)
        phi = rand.rand_qvector(rng, n)
        bogus = rand.rand_qvector(rng, n).scale(10.0)
        try:
            localspec.check_resolvent_identity(
                a, phi, lambda q: bogus,
                [_far_quaternion(rng, right_eigenspheres(a))], cfg.tol)
        except ValueError:
            return True
        return False

    r.run("similarity", similarity)
    r.run("block-projector", block_projector)
    r.run("resolvent-identity", resolvent_identity)
    r.run("precondition-guard", precondition_guard)
    return r.result("intertwining")


# -- subspace laws -------------------------------------------------------------------


def _suite_subspace_laws(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def _matrix_and_split(rng):
        n = int(rng.integers(3, 6))
        a = rand.rand_qmatrix(rng, n, n)
        spheres = localspec.spectral_projections(a).spheres
        if len(spheres) < 2:
            return a, spheres, spheres
        m = int(rng.integers(1, len(spheres)))
        return a, spheres, spheres[:m]

    def local_global_equal(rng, k):
        a, _, f = _matrix_and_split(rng)
        v_loc = localspec.local_subspace(a, f)
        v_glo = localspec.global_subspace(a, f)
        if v_loc.dim != v_glo.dim:
            return False
        return op_norm(v_loc.projection() - v_glo.projection()) <= 1e-8 * 10

    def monotone(rng, k):
        a, spheres, f = _matrix_and_split(rng)
        small = localspec.local_subspace(a, f)
        big = localspec.local_subspace(a, spheres)
        outside = (QMatrix.identity(a.rows) - big.projection()) @ small.matrix
        return not np.any(outside.col_norms() > cfg.tol)

    def outside_ignored(rng, k):
        a, _, f = _matrix_and_split(rng)
        v1 = localspec.local_subspace(a, f)
        padded = tuple(f) + (EigenSphere(9.0, 3.0),)
        v2 = localspec.local_subspace(a, padded)
        return (v1.dim == v2.dim
                and op_norm(v1.projection() - v2.projection()) <= 1e-8 * 10)

    def hyperinvariant(rng, k):
        a, _, f = _matrix_and_split(rng)
        b = rand.rand_commutant(rng, a)
        v = localspec.local_subspace(a, f)
        p = v.projection()
        eye = QMatrix.identity(a.rows)
        defect = op_norm((eye - p) @ (b @ p))
        return defect <= 1e-7 * (1.0 + op_norm(b))

    def resolvent_invariant(rng, k):
        a, spheres, f = _matrix_and_split(rng)
        q = _far_quaternion(rng, f)
        v = localspec.local_subspace(a, f)
        p = v.projection()
        eye = QMatrix.identity(a.rows)
        rq = spectral.pseudo_resolvent(a, q)
        defect = op_norm((eye - p) @ (rq @ p))
        return defect <= 1e-7 * (1.0 + op_norm(rq))

    def empty_and_full(rng, k):
        a, spheres, _ = _matrix_and_split(rng)
        empty_loc = localspec.local_subspace(a, ())
        empty_glo = localspec.global_subspace(a, ())
        full_loc = localspec.local_subspace(a, spheres)
        full_glo = localspec.global_subspace(a, spheres)
        return (empty_loc.dim == 0 and empty_glo.dim == 0
                and full_loc.dim == a.rows and full_glo.dim == a.rows)

    r.run("local-global-equal", local_global_equal)
    r.run("monotone", monotone)
    r.run("outside-spectrum-ignored", outside_ignored)
    r.run("hyperinvariant", hyperinvariant)
    r.run("resolvent-invariant", resolvent_invariant)
    r.run("empty-and-full", empty_and_full)
    return r.result("subspace-laws")


# -- series ---------------------------------------------------------------------


def _rand_series(rng, degree: int, center: Quaternion | None = None) -> SliceSeries:
    coeffs = tuple(rand.rand_quaternion(rng) for _ in range(degree + 1))
    return SliceSeries(Quaternion() if center is None else center, coeffs)


def _coeff_gap(f: SliceSeries, g: SliceSeries) -> float:
    return max(abs(c) for c in (f - g).coefficients)


def _suite_series_algebra(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def associativity(rng, k):
        center = rand.rand_quaternion(rng, 0.5) if k % 2 else Quaternion()
        f = _rand_series(rng, int(rng.integers(1, 5)), center)
        g = _rand_series(rng, int(rng.integers(1, 5)), center)
        h = _rand_series(rng, int(rng.integers(1, 5)), center)
        lhs = star_product(star_product(f, g), h)
        rhs = star_product(f, star_product(g, h))
        return _coeff_gap(lhs, rhs) <= 1e-12 * 4

    def distributivity(rng, k):
        f = _rand_series(rng, 4)
        g = _rand_series(rng, 3)
        h = _rand_series(rng, 5)
        lhs = star_product(f, g + h)
        rhs = star_product(f, g) + star_product(f, h)
        return _coeff_gap(lhs, rhs) <= 1e-12 * 4

    def vector_sides(rng, k):
        n = 3
        center = Quaternion()
        vec = SliceSeries(center, tuple(rand.rand_qvector(rng, n)
                                        for _ in range(3)))
        scal = _rand_series(rng, 2)
        left = star_product(scal, vec)    # scalar coefficients act entrywise left
        right = star_product(vec, scal)   # scalar coefficients ride the right action
        q = rand.rand_quaternion(rng, 0.4)
        lv = left.eval(q)
        rv = right.eval(q)
        if not isinstance(lv, QVector) or not isinstance(rv, QVector):
            return False
        try:
            star_product(vec, vec)
        except TypeError:
            return lv.n == n and rv.n == n
        return False

    def complex_slice_reduction(rng, k):
        deg = int(rng.integers(2, 7))
        zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
        f = SliceSeries(Quaternion(), tuple(Quaternion(z.real, z.imag) for z in zs))
        x0, y0 = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        q = Quaternion(x0, y0)
        z = complex(x0, y0)
        total = 0j
        for c in reversed(zs):
            total = total * z + c
        got = f.eval(q)
        return (abs(got.w - total.real) <= 1e-12 * (1 + abs(total))
                and abs(got.x - total.imag) <= 1e-12 * (1 + abs(total))
                and abs(got.y) <= 1e-12 and abs(got.z) <= 1e-12)

    def derivative_linear(rng, k):
        f = _rand_series(rng, 5)
        g = _rand_series(rng, 4)
        lhs = slice_derivative(f + g)
        rhs = slice_derivative(f) + slice_derivative(g)
        return _coeff_gap(lhs, rhs) <= 1e-14

    r.run("star-associativity", associativity)
    r.run("star-distributivity", distributivity)
    r.run("vector-coefficient-sides", vector_sides)
    r.run("complex-slice-reduction", complex_slice_reduction)
    r.run("derivative-linearity", derivative_linear)
    return r.result("series-algebra")


def _suite_series_analysis(cfg: SuiteConfig) -> SuiteResult:
    r = _Runner(cfg)

    def derivative_fd(rng, k):
        f = _rand_series(rng, 5)
        df = slice_derivative(f)
        q = rand.rand_quaternion(rng, 0.8)
        h = 1e-4
        fd = (f.eval(q + Quaternion(h)) - f.eval(q - Quaternion(h))) * (0.5 / h)
        return abs(df.eval(q) - fd) <= 1e-6 * (1.0 + abs(fd))

    def cr_small(rng, k):
        f = _rand_series(rng, 5)
        pts = [rand.rand_quaternion(rng, 1.0) for _ in range(6)]
        return cr_residual(f, pts) <= 1e-6

    def cr_conjugate(rng, k):
        pts = [rand.rand_quaternion(rng, 1.0) for _ in range(6)]
        return cr_residual(lambda q: q.conjugate(), pts) >= 0.5

    def radius_estimate(rng, k):
        rr = float(rng.uniform(0.3, 3.0))
        c = float(rng.uniform(0.7, 1.4))
        coeffs = tuple(Quaternion(c * rr ** (-n)) for n in range(64))
        est = sigma_radius(SliceSeries(Quaternion(), coeffs))
        return abs(est - rr) <= 0.02 * rr

    def metric_invariance(rng, k):
        f = _rand_series(rng, 4)
        g = _rand_series(rng, 4)
        h = _rand_series(rng, 4)
        ex = default_exhaustion(2.0, 6)
        d1 = h_metric(f, g, exhaustion=ex)
        d2 = h_metric(f + h, g + h, exhaustion=ex)
        return abs(d1 - d2) <= 1e-12

    def metric_constant_oracle(rng, k):
        u = rand.rand_quaternion(rng, 1.0)
        u = u * (1.0 / abs(u)) if abs(u) > 1e-3 else Quaternion(1.0)
        c = rand.rand_quaternion(rng, 1.0)
        f = SliceSeries(Quaternion(), (c,))
        g = SliceSeries(Quaternion(), (c - u,))
        d = h_metric(f, g, exhaustion=default_exhaustion(math.inf, 4))
        return abs(d - 15.0 / 32.0) <= 1e-12

    def uniform_limit(rng, k):
        coeffs = tuple(rand.rand_quaternion(rng, 1.0) * (0.5 ** n)
                       for n in range(13))
        full = SliceSeries(Quaternion(), coeffs)
        pts = [rand.rand_quaternion(rng, 0.7) for _ in range(5)]
        base = cr_residual(full, pts)
        for cut in (9, 11, 13):
            part = SliceSeries(Quaternion(), coeffs[:cut])
            tail = sum(abs(coeffs[n]) * n * 1.0 ** (n - 1)
                       for n in range(cut, 13))
            if abs(cr_residual(part, pts) - base) > 10.0 * tail + 1e-9:
                return False
        return True

    r.run("derivative-vs-differences", derivative_fd)
    r.run("cr-regular", cr_small)
    r.run("cr-conjugate", cr_conjugate)
    r.run("radius-geometric", radius_estimate)
    r.run("metric-invariance", metric_invariance)
    r.run("metric-constant-oracle", metric_constant_oracle)
    r.run("uniform-limit", uniform_limit)
    return r.result("series-analysis")


# -- registry ---------------------------------------------------------------------


SUITES = {
    "scalar-algebra": _suite_scalar_algebra,
    "matrix-structure": _suite_matrix_structure,
    "eigensphere-similarity": _suite_eigensphere_similarity,
    "defective-similarity": _suite_defective_similarity,
    "adjoint-symmetry": _suite_adjoint_symmetry,
    "classify-parts": _suite_classify_parts,
    "portrait-symmetry": _suite_portrait_symmetry,
    "portrait-boundary": _suite_portrait_boundary,
    "restriction-quotient": _suite_restriction_quotient,
    "shift-window": _suite_shift_window,
    "shift-decomposability": _suite_shift_decomposability,
    "mult-operator": _suite_mult_operator,
    "local-laws": _suite_local_laws,
    "product-laws": _suite_product_laws,
    "intertwining": _suite_intertwining,
    "subspace-laws": _suite_subspace_laws,
    "series-algebra": _suite_series_algebra,
    "series-analysis": _suite_series_analysis,
}


def available_suites() -> list[str]:
    return list(SUITES)


def run_suite(name: str, cfg: SuiteConfig) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SUITES[name](cfg)


def run_many(names, cfg: SuiteConfig) -> list[SuiteResult]:
    expanded = [s for name in names for s in (SUITES if name == "all" else [name])]
    return [run_suite(name, cfg) for name in expanded]


def report_lines(results) -> list[str]:
    out: list[str] = []
    for res in results:
        out.extend(res.lines())
    checks_passed = sum(r.passed for r in results)
    checks_total = sum(r.total for r in results)
    suites_ok = sum(1 for r in results if r.ok)
    out.append(f"total: {suites_ok}/{len(results)} suites, "
               f"{checks_passed}/{checks_total} checks")
    return out
