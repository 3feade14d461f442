"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single [acceptance] line so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.  The
tolerances here are contract values, not tuning knobs.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qspec import localspec, operators, rand, spectral, suites
from qspec.operators import MultiplicationOperator, ShiftOperator
from qspec.qlinalg import QMatrix, QVector
from qspec.quat import (
    EigenSphere,
    Quaternion,
    merge_spheres,
    sphere_hausdorff,
    sphere_of,
    sphere_sets_equal,
    sphere_subset,
)
from qspec.sliceseries import (
    SliceSeries,
    cr_residual,
    default_exhaustion,
    h_metric,
    sigma_radius,
    slice_derivative,
    star_product,
)

Z = Quaternion(0)
ONE = Quaternion(1)


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_01_diagonal_spectra_exact():
    t0 = time.time()
    for k in range(100):
        rng = rand.generator(90001, k)
        n = int(rng.integers(1, 13))
        entries = [rand.rand_quaternion(rng) for _ in range(n)]
        a = QMatrix.diag(entries)
        got = spectral.s_spectrum(a)
        want = merge_spheres(tuple(sphere_of(q) for q in entries))
        assert sphere_sets_equal(got, want, 1e-8), (k, got, want)
    dt = time.time() - t0
    assert dt < 5.0
    report(f"1 diagonal spectra, 100 instances n<=12 at 1e-8 in {dt:.2f}s: PASS")


def test_02_adjoint_symmetry():
    for k in range(50):
        rng = rand.generator(90002, k)
        a = rand.rand_qmatrix(rng, 6, 6)
        d = sphere_hausdorff(spectral.s_spectrum(a),
                             spectral.s_spectrum(a.adjoint()))
        assert d <= 1e-6, (k, d)
    report("2 sigma_S(A) = sigma_S(A*) for 50 random 6x6 at 1e-6: PASS")


def test_03_shift_evidence():
    t0 = time.time()
    q = Quaternion(0.5)
    v = operators.truncated_eigenvector(q, 64)
    res = operators.pseudo_resolvent_apply(ShiftOperator("left"), q, v).norm()
    assert res / v.norm() <= 1e-12
    kappa = spectral.window_kappa(ShiftOperator("right"), q, 128)
    assert kappa >= 0.2
    verdict = localspec.decomposability_necessary(ShiftOperator("right"))
    assert verdict.status == "FAIL"
    assert verdict.witness.matches(EigenSphere(0.5, 0.0), 1e-9)
    dt = time.time() - t0
    assert dt < 30.0
    report(f"3 shift evidence (eigenvector 1e-12, kappa {kappa:.3f} >= 0.2, "
           f"FAIL at (0.5, 0)) in {dt:.1f}s: PASS")


def test_04_portrait_annulus_no_false_positives():
    g = spectral.GridSpec(-1.5, 1.5, 1.5, 128, 64)
    p = spectral.portrait(ShiftOperator("right"), g, window=128)
    region = spectral.threshold_region(p)
    xs, ys = g.xs(), g.ys()
    X, Y = np.meshgrid(xs, ys)
    rsq = X ** 2 + Y ** 2
    inside = np.logical_and(region.mask, rsq <= 0.81).sum()
    outside = np.logical_and(region.mask, rsq >= 1.21).sum()
    assert inside == 0 and outside == 0
    # the symbol route decides all but a few cells without the band
    assert p.hard_cells < 0.02 * g.nx * g.ny
    report("4 right-shift portrait 128x64 window 128: no approximate cell "
           f"off the unit annulus ({p.hard_cells} hard cells): PASS")


def test_05_multiplication_operators():
    t0 = time.time()
    for k in range(100):
        rng = rand.generator(90005, k)
        vals = tuple(rand.rand_quaternion(rng) for _ in range(20))
        labels = tuple(f"w{i}" for i in range(20))
        m = MultiplicationOperator(labels, vals)
        a = m.as_qmatrix()
        want = merge_spheres(tuple(sphere_of(v) for v in vals))
        assert sphere_sets_equal(spectral.s_spectrum(a), want, 1e-8)
        # support formula on a sparse vector
        keep = sorted(set(int(i) for i in rng.integers(0, 20, size=6)))
        f = QVector.from_quaternions([
            rand.rand_quaternion(rng) if i in keep else Z for i in range(20)])
        got = tuple(localspec.local_spectrum(a, f))
        support_spheres = merge_spheres(
            tuple(sphere_of(vals[i]) for i in keep
                  if f.entry(i).norm_sq() > 0))
        assert sphere_sets_equal(got, support_spheres, 1e-8)
        if k % 5 == 0:
            verdict = localspec.decomposability_necessary(a)
            assert verdict.status == "PASS"
    dt = time.time() - t0
    report(f"5 multiplication operators |support|=20, 100 instances "
           f"(spectrum, support formula, decomposability) in {dt:.1f}s: PASS")


def test_06_law_suites():
    cfg = suites.SuiteConfig(seed=42, trials=13, tol=1e-6)
    names = ("local-laws", "product-laws", "intertwining", "subspace-laws")
    results = suites.run_many(list(names), cfg)
    total = sum(r.total for r in results)
    assert total >= 100
    for r in results:
        bad = [c.failures for c in r.counts if c.failures]
        assert r.ok, (r.name, bad)
    report(f"6 law suites {', '.join(names)}: {total} instances, "
           "zero failures at 1e-6: PASS")


def test_07_block_triangular_inclusions():
    for k in range(100):
        rng = rand.generator(90007, k)
        t, a, b, _ = rand.rand_block_upper(rng, 3, 3)
        st = spectral.s_spectrum(t)
        sa = spectral.s_spectrum(a)
        sb = spectral.s_spectrum(b)
        from qspec.quat import sphere_union

        assert sphere_subset(st, sphere_union(sa, sb), 1e-6)
        assert sphere_subset(sa, sphere_union(st, sb), 1e-6)
        assert sphere_subset(sb, sphere_union(st, sa), 1e-6)
    report("7 block-triangular 6x6, 100 instances, three spectral "
           "inclusions at 1e-6: PASS")


def test_08_series_engine():
    rng = rand.generator(90008, 0)
    # star algebra at 1e-12
    p = rand.rand_quaternion(rng, 0.5)
    f = SliceSeries(p, tuple(rand.rand_quaternion(rng) for _ in range(4)))
    g = SliceSeries(p, tuple(rand.rand_quaternion(rng) for _ in range(3)))
    h = SliceSeries(p, tuple(rand.rand_quaternion(rng) for _ in range(3)))
    assoc = star_product(star_product(f, g), h) - star_product(f, star_product(g, h))
    assert all(c.norm_sq() < 1e-24 for c in assoc.coefficients)
    dist = star_product(f, g + h) - (star_product(f, g) + star_product(f, h))
    assert all(c.norm_sq() < 1e-24 for c in dist.coefficients)
    # derivative against centered differences at h = 1e-4
    s = SliceSeries(Z, tuple(rand.rand_quaternion(rng) for _ in range(6)))
    ds = slice_derivative(s)
    x, step = 0.29, 1e-4
    num = (s.eval(Quaternion(x + step)) - s.eval(Quaternion(x - step))) / (2 * step)
    assert (num - ds.eval(Quaternion(x))).norm_sq() < 1e-12
    # regularity residuals
    pts = [Quaternion(0.2, 0.3, 0.1, 0), Quaternion(-0.1, 0.1, 0.2, 0.3),
           Quaternion(0.4, 0, 0, 0.2)]
    poly = SliceSeries(Z, tuple(rand.rand_quaternion(rng) for _ in range(6)))
    assert cr_residual(poly, pts) <= 1e-6
    assert cr_residual(lambda q: q.conjugate(), pts) >= 0.5
    # radius recovery within 2 percent at 64 coefficients
    r = 1.7
    coeffs = tuple(Quaternion(0.9 * r ** (-n)) for n in range(64))
    assert sigma_radius(SliceSeries(Z, coeffs)) == pytest.approx(r, rel=0.02)
    # metric: translation invariance and the constant-difference value
    e = default_exhaustion(2.0, 6)
    a = SliceSeries(Z, tuple(rand.rand_quaternion(rng, 0.5) for _ in range(4)))
    b = SliceSeries(Z, tuple(rand.rand_quaternion(rng, 0.5) for _ in range(4)))
    c = SliceSeries(Z, tuple(rand.rand_quaternion(rng, 0.5) for _ in range(4)))
    assert abs(h_metric(a + c, b + c, exhaustion=e)
               - h_metric(a, b, exhaustion=e)) <= 1e-12
    d = h_metric(SliceSeries(Z, (Z,)), SliceSeries(Z, (ONE,)),
                 exhaustion=default_exhaustion(math.inf, 4))
    assert d == pytest.approx(15 / 32, abs=1e-15)
    report("8 series engine (star algebra 1e-12, derivative 1e-6, "
           "regularity, radius 2%, metric oracle 15/32): PASS")


def test_09_arc_fills_to_half_disk():
    g = spectral.GridSpec(-1.0, 1.0, 1.0, 256, 128)
    xs, ys = g.xs(), g.ys()
    mask = np.zeros((128, 256), dtype=bool)
    for t in np.linspace(0.0, np.pi, 8 * 256):
        x, y = 0.5 * np.cos(t), 0.5 * np.sin(t)
        ix = int(np.argmin(np.abs(xs - x)))
        iy = int(np.argmin(np.abs(ys - y)))
        mask[iy, ix] = True
    filled = spectral.full_spectrum(spectral.AxSymRegion(g, mask))
    X, Y = np.meshgrid(xs, ys)
    exact = X ** 2 + Y ** 2 <= 0.25
    cell = math.hypot(xs[1] - xs[0], ys[1] - ys[0])
    mism = filled.mask != exact
    off_band = np.abs(np.sqrt(X ** 2 + Y ** 2) - 0.5) > cell
    assert not np.logical_and(mism, off_band).any()
    report("9 half-circle arc floods to the half-disk within one cell "
           "on 256x128: PASS")


def test_10_cli_byte_determinism():
    outs = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "qspec", "check", "--suite", "all",
             "--seed", "42", "--trials", "6"],
            capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
    report("10 `check --suite all --seed 42` byte-identical across three "
           "reruns: PASS")
