import cmath
import copy
import dataclasses
import importlib.util
import math
import os
import pickle
import sys
import warnings

import numpy as np
import pytest
import file_forms
import series_reference as ref

from qspec import io, rand, sliceseries
from qspec.qlinalg import QVector
from qspec.quat import SLICE_I, Quaternion, SliceUnit, slice_compose
from qspec.sliceseries import (
    CompactExhaustion,
    DivergenceWarning,
    RadiusBiasWarning,
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
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)


def series(center, *coeffs):
    return SliceSeries(center, tuple(coeffs))


def test_eval_polynomial_center_zero():
    f = series(Z, ONE, 2 * ONE, ONE)  # 1 + 2q + q^2
    q = Quaternion(0.5, 0.5, 0, 0)
    expect = ONE + 2 * q + q * q
    assert f.eval(q).isclose(expect)


def test_star_square_of_linear_term():
    # f = (q - p) centered at p; its star square has monomials
    # p^2 - 2 p q + q^2, not the pointwise square
    p = J
    f = series(p, Z, ONE)
    sq = star_product(f, f)
    mono = sq.monomial_coefficients()
    assert mono[0].isclose(p * p)
    assert mono[1].isclose(-2 * p)
    assert mono[2].isclose(ONE)
    got = sq.eval(I)
    expect = I * I - 2 * (p * I) + p * p  # coefficient-left monomial sum
    assert got.isclose(expect)
    assert not got.isclose((I - p) * (I - p))


def test_star_product_matches_complex_on_slice():
    # series with real center and coefficients in one slice behave like
    # ordinary complex power series on that slice
    rng = rand.generator(131, 0)
    coeffs_a = [Quaternion(float(rng.standard_normal()), float(rng.standard_normal()), 0, 0)
                for _ in range(4)]
    coeffs_b = [Quaternion(float(rng.standard_normal()), float(rng.standard_normal()), 0, 0)
                for _ in range(3)]
    f = series(Z, *coeffs_a)
    g = series(Z, *coeffs_b)
    h = star_product(f, g)
    q = Quaternion(0.3, 0.7, 0, 0)
    za = complex(0.3, 0.7)
    fa = sum(complex(c.w, c.x) * za ** n for n, c in enumerate(coeffs_a))
    fb = sum(complex(c.w, c.x) * za ** n for n, c in enumerate(coeffs_b))
    got = h.eval(q)
    assert got.isclose(Quaternion((fa * fb).real, (fa * fb).imag, 0, 0),)


def test_star_product_distributes():
    rng = rand.generator(137, 0)
    f = series(Z, *(rand.rand_quaternion(rng) for _ in range(3)))
    g = series(Z, *(rand.rand_quaternion(rng) for _ in range(4)))
    h = series(Z, *(rand.rand_quaternion(rng) for _ in range(2)))
    lhs = star_product(f, g + h)
    rhs = star_product(f, g) + star_product(f, h)
    for a, b in zip(lhs.coefficients, rhs.coefficients):
        assert (a - b).norm_sq() < 1e-20


def test_star_product_associative():
    rng = rand.generator(139, 0)
    p = rand.rand_quaternion(rng, 0.5)
    f = series(p, *(rand.rand_quaternion(rng) for _ in range(3)))
    g = series(p, *(rand.rand_quaternion(rng) for _ in range(3)))
    h = series(p, *(rand.rand_quaternion(rng) for _ in range(2)))
    lhs = star_product(star_product(f, g), h)
    rhs = star_product(f, star_product(g, h))
    for a, b in zip(lhs.coefficients, rhs.coefficients):
        assert (a - b).norm_sq() < 1e-18


def test_vector_coefficients():
    rng = rand.generator(149, 0)
    vec_coeffs = tuple(rand.rand_qvector(rng, 3) for _ in range(3))
    f = SliceSeries(Z, vec_coeffs)
    assert f.is_vector
    g = series(Z, ONE, I)
    fv = star_product(g, f)   # scalar series acts from the left
    assert fv.is_vector
    with pytest.raises(TypeError):
        star_product(f, f)


def test_eval_vector_series():
    v = QVector.from_quaternions([ONE, I])
    f = SliceSeries(Z, (v,))
    out = f.eval(Quaternion(0.5))
    assert (out - v).norm() < 1e-15


def test_derivative_drops_degree():
    f = series(Z, ONE, 2 * I, 3 * J)
    df = slice_derivative(f)
    assert df.degree == 1
    assert df.coefficients[0].isclose(2 * I)
    assert df.coefficients[1].isclose(6 * J)


def test_derivative_matches_differences():
    rng = rand.generator(151, 0)
    f = series(Z, *(rand.rand_quaternion(rng) for _ in range(5)))
    df = slice_derivative(f)
    x, h = 0.37, 1e-4
    # real direction difference on the real axis stays slice free
    num = (f.eval(Quaternion(x + h)) - f.eval(Quaternion(x - h))) / (2 * h)
    assert (num - df.eval(Quaternion(x))).norm_sq() < 1e-12


def test_divergence_warning_outside_radius():
    f = SliceSeries(Z, (ONE, ONE), radius=1.0)
    with pytest.warns(DivergenceWarning):
        f.eval(Quaternion(3.0))


def test_sigma_radius_geometric_frozen():
    coeffs = tuple(Quaternion(0.5 ** n) for n in range(64))
    f = SliceSeries(Z, coeffs)
    assert sigma_radius(f) == pytest.approx(2.0, rel=1e-12)


def test_sigma_radius_prefactor_tolerance():
    rng = rand.generator(157, 0)
    r = 1.3
    coeffs = tuple(Quaternion(1.1 * r ** (-n)) for n in range(64))
    f = SliceSeries(Z, coeffs)
    assert sigma_radius(f) == pytest.approx(r, rel=0.02)


def test_sigma_radius_warns_on_short_series():
    f = series(Z, ONE, ONE, ONE)
    with pytest.warns(RadiusBiasWarning):
        sigma_radius(f)


def test_sigma_radius_zero_tail_infinite():
    # padded polynomial: the sampled tail is identically zero
    f = series(Z, ONE, I, J, *([Z] * 13))
    assert math.isinf(sigma_radius(f))


def test_cr_residual_regular_vs_conjugate():
    pts = [Quaternion(0.3, 0.2, 0.1, 0), Quaternion(-0.2, 0, 0.4, 0.1),
           Quaternion(0.1, -0.3, 0, 0.2)]
    f = series(Z, Z, Z, ONE)  # q^2
    assert cr_residual(f, pts) < 1e-6
    assert cr_residual(lambda q: q.conjugate(), pts) >= 0.5


def test_exhaustion_shapes():
    e = default_exhaustion(math.inf, 4)
    assert e.radii == (1.0, 2.0, 4.0, 8.0)
    f = default_exhaustion(3.0, 3)
    assert all(r < 3.0 for r in f.radii)
    assert f.radii == tuple(sorted(f.radii))
    with pytest.raises(ValueError):
        CompactExhaustion((2.0, 1.0))


def test_exhaustion_rejects_nan():
    nan = float("nan")
    for radii, limit in (((nan,), math.inf), ((1.0, nan), math.inf), ((1.0,), nan)):
        with pytest.raises(ValueError, match="exhaustion radii"):
            CompactExhaustion(radii, limit)


def test_h_metric_constant_oracle():
    c0 = SliceSeries(Z, (Z,))
    c1 = SliceSeries(Z, (ONE,))
    d = h_metric(c0, c1, exhaustion=default_exhaustion(math.inf, 4))
    assert d == pytest.approx(15 / 32, abs=1e-15)


def test_h_metric_translation_invariant():
    rng = rand.generator(163, 0)
    f = series(Z, *(rand.rand_quaternion(rng, 0.5) for _ in range(4)))
    g = series(Z, *(rand.rand_quaternion(rng, 0.5) for _ in range(4)))
    h = series(Z, *(rand.rand_quaternion(rng, 0.5) for _ in range(4)))
    e = default_exhaustion(2.0, 6)
    lhs = h_metric(f + h, g + h, exhaustion=e)
    rhs = h_metric(f, g, exhaustion=e)
    assert abs(lhs - rhs) <= 1e-12


def test_h_metric_identity_and_symmetry():
    f = series(Z, ONE, I)
    g = series(Z, ONE, J)
    e = default_exhaustion(1.0, 4)
    assert h_metric(f, f, exhaustion=e) == 0.0
    assert h_metric(f, g, exhaustion=e) == pytest.approx(
        h_metric(g, f, exhaustion=e))


def _slice_samples(center, r):
    """The engine's sample grid of the r-ball at center, one quaternion each."""
    return [Quaternion(*row) for row in sliceseries._sample_rows(center, r).tolist()]


def test_slice_samples_deterministic():
    a = _slice_samples(Z, 1.0)
    b = _slice_samples(Z, 1.0)
    assert len(a) == len(b) > 0
    assert all(p == q for p, q in zip(a, b))
    assert all(abs(p) <= 1.0 + 1e-12 for p in a)


# -- the array engine against the pure-Python reference ------------------------
#
# "1e-12 relative" is relative to the size of the terms a result sums, the
# quantity rounding errors scale with: sum_n |a_n| (|p| + |q|)^n for a value
# at q of a series centred at p.

CENTERS = {"zero": Z, "real": Quaternion(0.25),
           "slice": Quaternion(0.1, -0.2, 0.15, 0.05)}
DEGREES = (0, 1, 5, 40, 63)
POINTS = (Quaternion(0.35), Quaternion(-0.2, 0.3, -0.1, 0.25),
          Quaternion(0.1, 0.0, 0.4, 0.0), Quaternion(-0.45))


def _coeffs(rng, degree, vector):
    if vector:
        return tuple(rand.rand_qvector(rng, 3) for _ in range(degree + 1))
    return tuple(rand.rand_quaternion(rng) for _ in range(degree + 1))


def _size(c):
    return c.norm() if isinstance(c, QVector) else abs(c)


def _gap(a, b):
    return _size(a - b)


def _term_scale(f, reach):
    """sum_n |a_n| (|p| + reach)^n."""
    t = abs(f.center) + reach
    return sum(_size(a) * t ** n for n, a in enumerate(f.coefficients))


def _evaluator(f):
    mono = ref.monomial_coefficients(f)
    return lambda q: ref.sum_monomials(mono, q)


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("center", sorted(CENTERS))
def test_engine_monomials_and_values_match_reference(center, degree, vector):
    f = SliceSeries(CENTERS[center], _coeffs(rand.generator(211, degree), degree, vector))
    mono, want = f.monomial_coefficients(), ref.monomial_coefficients(f)
    assert len(mono) == len(want)
    p = abs(f.center)
    for m, (got, exp) in enumerate(zip(mono, want)):
        scale = sum(_size(a) * math.comb(n, m) * p ** (n - m)
                    for n, a in enumerate(f.coefficients) if n >= m)
        assert _gap(got, exp) <= 1e-12 * scale
    for q in POINTS:
        got = f.eval(q)
        assert isinstance(got, QVector if vector else Quaternion)
        assert _gap(got, ref.sum_monomials(want, q)) <= 1e-12 * _term_scale(f, abs(q))


@pytest.mark.parametrize("sides", ["scalar*scalar", "vector*scalar", "scalar*vector"])
@pytest.mark.parametrize("degree", DEGREES)
def test_engine_star_product_matches_reference(sides, degree):
    rng = rand.generator(223, degree)
    left, right = (side == "vector" for side in sides.split("*"))
    f = SliceSeries(CENTERS["slice"], _coeffs(rng, degree, left))
    g = SliceSeries(CENTERS["slice"], _coeffs(rng, 5, right))
    got, want = star_product(f, g).coefficients, ref.star_coefficients(f, g)
    assert len(got) == len(want) == degree + 6
    for s, (a, b) in enumerate(zip(got, want)):
        scale = sum(_size(f.coefficients[k]) * _size(g.coefficients[s - k])
                    for k in range(len(f)) if 0 <= s - k < len(g))
        assert _gap(a, b) <= 1e-12 * scale
    if sides == "scalar*scalar":
        assert all(a == b for a, b in zip(got, want))


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("degree", DEGREES)
def test_engine_derivative_matches_reference(degree, vector):
    f = SliceSeries(CENTERS["slice"], _coeffs(rand.generator(227, degree), degree, vector))
    got, want = slice_derivative(f).coefficients, ref.derivative_coefficients(f)
    assert len(got) == len(want) == max(degree, 1)
    assert all(_gap(a, b) == 0.0 for a, b in zip(got, want))


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("center", sorted(CENTERS))
def test_engine_cr_residual_matches_reference(center, degree, vector):
    f = SliceSeries(CENTERS[center], _coeffs(rand.generator(229, degree), degree, vector))
    h = 1e-4
    want = ref.cr_residual(_evaluator(f), POINTS, h)
    # the defect divides differences of values by h, so value errors of
    # 1e-12 relative reach it magnified by 1/h
    scale = _term_scale(f, max(abs(q) for q in POINTS) + h) / h
    assert abs(cr_residual(f, POINTS) - want) <= 1e-12 * scale


def test_engine_cr_residual_of_callable_matches_reference():
    conj = lambda q: q.conjugate()  # noqa: E731
    assert cr_residual(conj, POINTS) == pytest.approx(
        ref.cr_residual(conj, POINTS), rel=1e-12)
    assert cr_residual(conj, []) == 0.0


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("degree", (0, 5, 63))
@pytest.mark.parametrize("center", sorted(CENTERS))
def test_engine_h_metric_matches_reference(center, degree, vector):
    rng = rand.generator(233, degree)
    f = SliceSeries(CENTERS[center], _coeffs(rng, degree, vector))
    g = SliceSeries(CENTERS[center], _coeffs(rng, degree, vector))
    e = default_exhaustion(1.0, 4)
    want = ref.h_metric(_evaluator(f), _evaluator(g), f.center, e.radii)
    scale = _term_scale(f, e.radii[-1]) + _term_scale(g, e.radii[-1])
    assert abs(h_metric(f, g, exhaustion=e) - want) <= 1e-12 * scale
    assert h_metric(f, f, exhaustion=e) == 0.0


def test_engine_slice_samples_match_reference():
    p = CENTERS["slice"]
    assert _slice_samples(p, 0.7) == ref.slice_samples(p, 0.7)


def test_monomials_computed_once():
    f = series(CENTERS["slice"], ONE, I, J)
    f.eval(I)
    mono = f._monomials()
    f.eval(J)
    assert f._monomials() is mono
    assert not mono.flags.writeable


def test_evaluation_builds_no_monomials():
    f = series(CENTERS["slice"], ONE, I, J)
    f.eval(I)
    cr_residual(f, POINTS)
    h_metric(f, f + f, exhaustion=default_exhaustion(1.0, 2))
    assert f._mono is None


def test_divergence_warning_from_batches():
    f = SliceSeries(Z, (ONE, ONE), radius=1.0)
    with pytest.warns(DivergenceWarning):
        cr_residual(f, [Quaternion(0.5), Quaternion(3.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cr_residual(f, [Quaternion(0.5)])
        h_metric(f, f)


# -- the representation formula -------------------------------------------------
#
# A value at q = x + yI of a series centred at p = p0 + p1 J is read from the
# slice points x +- yJ, where star powers are powers of the complex numbers
# w+- = (x - p0) + i(+-y - p1).  Rounding errors scale with
# sum_n |a_n| max|w+-|^n, and each check allows 1e-12 of that.

def _unit_of(q):
    y = q.imag_norm()
    return SLICE_I if y == 0.0 else SliceUnit(q.x / y, q.y / y, q.z / y)


FAR = slice_compose(1.2, 1.6, _unit_of(Quaternion(0.0, 0.3, -0.5, 0.8)))  # |p| = 2
FORMULA_DEGREES = (0, 1, 7, 40, 80)


def _formula_scale(f, q):
    x, y = q.w, q.imag_norm()
    p0, p1 = f.center.w, f.center.imag_norm()
    t = max(abs(complex(x - p0, y - p1)), abs(complex(x - p0, -y - p1)))
    return sum(_size(a) * t ** n for n, a in enumerate(f.coefficients))


def _formula_points(center, rng):
    """Points on the centre's slice (I = J), on its mirror (I = -J), a real
    point and a generic one, all within 0.3 of the centre's real part."""
    unit = _unit_of(center)
    other = _unit_of(Quaternion(0.0, *rng.normal(size=3)))
    x, y = center.w + 0.1, center.imag_norm() + 0.15
    return {"I=J": slice_compose(x, y, unit), "I=-J": slice_compose(x, -y, unit),
            "real": Quaternion(x - 0.2), "generic": slice_compose(x, 0.2, other)}


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("degree", FORMULA_DEGREES)
@pytest.mark.parametrize("center", sorted(CENTERS))
def test_formula_matches_monomial_reference(center, degree, vector):
    rng = rand.generator(239, degree)
    f = SliceSeries(CENTERS[center], _coeffs(rng, degree, vector))
    mono = ref.monomial_coefficients(f)
    for kind, q in _formula_points(f.center, rng).items():
        got = f.eval(q)
        assert isinstance(got, QVector if vector else Quaternion)
        assert _gap(got, ref.sum_monomials(mono, q)) <= 1e-12 * _formula_scale(f, q), kind


def _geometric(center, coeff, ratio, degree, unit):
    """coeff * sum_{n <= degree} (ratio (q - center))^n with ratio on the
    slice of unit, and its closed form at points of that slice."""
    powers = [slice_compose((ratio ** n).real, (ratio ** n).imag, unit)
              for n in range(degree + 1)]
    if isinstance(coeff, QVector):
        f = SliceSeries(center, tuple(coeff.times(b) for b in powers))
    else:
        f = SliceSeries(center, tuple(coeff * b for b in powers))
    zc = complex(center.w, center.x * unit.x + center.y * unit.y + center.z * unit.z)

    def closed(q):
        r = ratio * (complex(q.w, q.x * unit.x + q.y * unit.y + q.z * unit.z) - zc)
        s = (1 - r ** (degree + 1)) / (1 - r)
        b = slice_compose(s.real, s.imag, unit)
        return coeff.times(b) if isinstance(coeff, QVector) else coeff * b

    return f, closed


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("degree", (1, 12, 40, 80))
@pytest.mark.parametrize("center", ["zero", "real", "slice", "far"])
def test_formula_matches_geometric_closed_form(center, degree, vector):
    rng = rand.generator(241, degree)
    p = FAR if center == "far" else CENTERS[center]
    coeff = rand.rand_qvector(rng, 3) if vector else rand.rand_quaternion(rng)
    points = _formula_points(p, rng)
    if p.imag_norm() == 0.0:
        # a real ratio commutes with every slice: the closed form holds on
        # each point's own slice
        ratio = complex(float(rng.uniform(0.5, 0.9)))
    else:
        ratio = cmath.rect(float(rng.uniform(0.4, 0.6)), float(rng.uniform(0, 2 * math.pi)))
        del points["generic"]
    for kind, q in points.items():
        f, closed = _geometric(p, coeff, ratio, degree, _unit_of(q if kind == "generic" else p))
        assert _gap(f.eval(q), closed(q)) <= 1e-12 * _formula_scale(f, q), kind


def test_imaginary_parts_that_underflow_count_as_real():
    rng = rand.generator(283, 0)
    for vector in (False, True):
        f = SliceSeries(CENTERS["slice"], _coeffs(rng, 9, vector))
        tiny = Quaternion(0.3, 1e-200, -1e-200, 0.0)
        assert _gap(f.eval(tiny), f.eval(Quaternion(0.3))) == 0.0
        assert cr_residual(f, [tiny]) == cr_residual(f, [Quaternion(0.3)])


def test_batched_values_match_one_point_at_a_time():
    rng = rand.generator(257, 0)
    f = SliceSeries(CENTERS["slice"], _coeffs(rng, 30, False))
    pts = [rand.rand_quaternion(rng, 0.4) for _ in range(300)]
    batch = f._values(sliceseries._rows(pts))
    for q, row in zip(pts, batch.tolist()):
        assert _gap(Quaternion(*row), f.eval(q)) <= 1e-15 * _formula_scale(f, q)


def _series_workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("qspec_bench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return workloads


# The largest error of the monomial engine that the representation formula
# replaced, over the same evaluations: relative to 1 + |value|, the value at
# each request's three points and the product and derivative at the second.
MONOMIAL_ENGINE_MAX_ERROR = 2.14e-15


def test_planted_series_errors_no_larger_than_the_monomial_engine(tmp_path):
    wl = _series_workloads()
    worst = 0.0
    for seed in range(51, 61):
        for req in wl.build_series(np.random.default_rng([seed, 3]), str(tmp_path)):
            e = req.expect
            f, g, pts = e["f"], e["g"], e["points"]
            center = Quaternion(*f.center)
            sf = SliceSeries(center, tuple(Quaternion(*c) for c in e["f_coefficients"]))
            sg = SliceSeries(center, tuple(Quaternion(*c) for c in e["g_coefficients"]))
            if f.center[1:] != (0.0, 0.0, 0.0):
                product = wl.qmul(f.slice_value(pts[1]), g.slice_value(pts[1]))
            else:
                product = wl._real_center_product(f, g, pts[1])
            cases = ((sf, pts[0], f.slice_value(pts[0])),
                     (star_product(sf, sg), pts[1], product),
                     (slice_derivative(sf), pts[1], f.slice_value(pts[1], derivative=True)),
                     (sf, pts[2], f.slice_value(pts[2])))
            for s, q, want in cases:
                v = s.eval(Quaternion(*q))
                worst = max(worst, wl.qdist((v.w, v.x, v.y, v.z), want) / (1 + wl.qnorm(want)))
    assert worst <= MONOMIAL_ENGINE_MAX_ERROR


# -- series kept as arrays ------------------------------------------------------


@pytest.fixture
def count_quaternions(monkeypatch):
    counts = {"built": 0}
    post = Quaternion.__post_init__

    def counted(self):
        counts["built"] += 1
        post(self)

    monkeypatch.setattr(Quaternion, "__post_init__", counted)
    return counts


def test_derived_series_build_no_quaternion_until_read(count_quaternions):
    rng = rand.generator(263, 0)
    center = CENTERS["slice"]
    f = SliceSeries(center, _coeffs(rng, 6, False))
    g = SliceSeries(center, _coeffs(rng, 4, False))
    v = SliceSeries(center, _coeffs(rng, 3, True))
    text = file_forms.format_series(SliceSeries(center, _coeffs(rng, 5, False), radius=0.75))
    count_quaternions["built"] = 0
    derived = {"product": star_product(f, g), "vector product": star_product(g, v),
               "derivative": slice_derivative(f), "sum": f + g, "difference": f - g,
               "parsed": io.parse_series(text)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RadiusBiasWarning)
        for s in derived.values():
            sigma_radius(s), len(s), s.degree, s.is_vector
    # the one quaternion is the parsed center
    assert count_quaternions["built"] == 1
    want = {"product": ref.star_coefficients(f, g),
            "vector product": ref.star_coefficients(g, v),
            "derivative": ref.derivative_coefficients(f),
            "sum": [a + b for a, b in zip(f.coefficients, g.coefficients)]
            + list(f.coefficients[len(g):]),
            "difference": [a - b for a, b in zip(f.coefficients, g.coefficients)]
            + list(f.coefficients[len(g):]),
            "parsed": [io.parse_quaternion(line) for line in text.splitlines()[2:]]}
    for name, s in derived.items():
        got = s.coefficients
        assert isinstance(got, tuple) and s.coefficients is got
        if name == "vector product":
            assert all(_gap(a, b) <= 1e-15 * (1 + _size(b)) for a, b in zip(got, want[name]))
        else:
            assert got == tuple(want[name]), name


@dataclasses.dataclass(frozen=True)
class _FrozenSeries:
    """The frozen dataclass SliceSeries used to be, for its == and hash."""

    center: Quaternion
    coefficients: tuple
    radius: float = math.inf


def test_equality_and_hash_as_a_frozen_dataclass():
    rng = rand.generator(269, 0)
    coeffs = _coeffs(rng, 3, False)
    vectors = _coeffs(rng, 2, True)
    f = SliceSeries(Z, coeffs)
    same = [f, SliceSeries(Z, coeffs), SliceSeries(Z, coeffs, math.inf),
            SliceSeries._from_array(Z, np.array([(c.w, c.x, c.y, c.z) for c in coeffs]),
                                    math.inf), copy.deepcopy(f), pickle.loads(pickle.dumps(f))]
    others = [SliceSeries(Z, coeffs, 2.0), SliceSeries(ONE, coeffs),
              SliceSeries(Z, coeffs[:3]), SliceSeries(Z, coeffs + (Z,)),
              slice_derivative(f), SliceSeries(Z, vectors), SliceSeries(Z, vectors),
              star_product(f, SliceSeries(Z, vectors))]
    everything = same + others
    for a in everything:
        old_a = _FrozenSeries(a.center, a.coefficients, a.radius)
        assert hash(a) == hash(old_a)
        for b in everything:
            old_b = _FrozenSeries(b.center, b.coefficients, b.radius)
            assert (a == b) == (old_a == old_b)
    assert all(a == f for a in same) and not any(a == f for a in others)
    assert f != coeffs and len({hash(a) for a in same}) == 1
    with pytest.raises(AttributeError):
        f.radius = 2.0


@pytest.mark.parametrize("vector", [False, True])
def test_sigma_radius_reads_the_array_as_the_objects_round(vector):
    rng = rand.generator(281, int(vector))
    for degree in (8, 20, 63):
        coeffs = tuple(c.scale(0.7 ** n) if vector else c * 0.7 ** n
                       for n, c in enumerate(_coeffs(rng, degree, vector)))
        f = SliceSeries(CENTERS["slice"], coeffs)
        derived = slice_derivative(f)
        assert sigma_radius(f) == ref.sigma_radius(coeffs)
        assert sigma_radius(derived) == ref.sigma_radius(derived.coefficients)
    many = SliceSeries(Z, _coeffs(rng, 2000, vector))
    assert sliceseries._magnitudes(many._coeffs) == [_size(c) for c in many.coefficients]
