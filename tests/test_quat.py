import math

import pytest
import series_reference as ref
from hypothesis import given
from hypothesis import strategies as st

from qspec.quat import (
    SLICE_I,
    SLICE_J,
    SLICE_K,
    EigenSphere,
    Quaternion,
    SliceUnit,
    merge_spheres,
    omega_dist,
    sigma_dist,
    slice_compose,
    sphere_hausdorff,
    sphere_of,
    sphere_sets_equal,
    sphere_subset,
    sphere_union,
)

ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_hamilton_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == Quaternion(-1)


def test_product_order_matters():
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)
    assert (ONE + J) * (ONE + I) == Quaternion(1, 1, 1, -1)


def test_inverse_frozen():
    q = Quaternion(1, 1, 1, 1)
    assert q.inverse() == Quaternion(0.25, -0.25, -0.25, -0.25)
    assert (q * q.inverse()).isclose(ONE)


def test_real_scalar_embedding():
    assert Quaternion(2.5) * I == Quaternion(0, 2.5, 0, 0)
    assert 2.0 * J == J * 2.0 == Quaternion(0, 0, 2, 0)


def test_division():
    q = Quaternion(2, -1, 0.5, 3)
    assert ((q / q) - ONE).norm_sq() < 1e-28


@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert abs(p * q) == pytest.approx(abs(p) * abs(q), rel=1e-9, abs=1e-9)


@given(quats, quats)
def test_conjugate_reverses_products(p, q):
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    assert (lhs - rhs).norm_sq() < 1e-18 * (1 + p.norm_sq()) * (1 + q.norm_sq())


@given(quats)
def test_conjugate_involution(q):
    assert q.conjugate().conjugate() == q


# slice_decompose is the series reference's split, which its
# Cauchy-Riemann defect reads its slice from


def test_slice_decompose_frozen():
    x, y, unit = ref.slice_decompose(Quaternion(1, 1, 1, 1))
    assert x == pytest.approx(1.0)
    assert y == pytest.approx(math.sqrt(3))
    s = 1 / math.sqrt(3)
    assert slice_compose(0.0, 1.0, unit).isclose(Quaternion(0, s, s, s))


def test_slice_decompose_real():
    x, y, unit = ref.slice_decompose(Quaternion(2))
    assert (x, y) == (2.0, 0.0)
    assert unit is None


def test_slice_roundtrip():
    q = Quaternion(0.3, -1, 2, 0.5)
    x, y, unit = ref.slice_decompose(q)
    assert slice_compose(x, y, unit).isclose(q)


def test_slice_unit_square_is_minus_one():
    s = 1 / math.sqrt(3)
    for u in (SLICE_I, SLICE_J, SLICE_K, SliceUnit(s, s, s)):
        q = slice_compose(0.0, 1.0, u)
        assert (q * q).isclose(Quaternion(-1))


def test_slice_unit_rejects_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="unit norm"):
        SliceUnit(nan, 0.0, 0.0)
    with pytest.raises(ValueError, match="unit norm"):
        SliceUnit(0.0, nan, 1.0)


def test_sphere_of_and_representative():
    s = sphere_of(Quaternion(1, 1, 1, 1))
    assert s.re == pytest.approx(1.0)
    assert s.im == pytest.approx(math.sqrt(3))
    rep = slice_compose(s.re, s.im, SLICE_J)
    assert sphere_of(rep).matches(s, 1e-12)


@given(quats, quats)
def test_conjugation_preserves_sphere(q, h):
    if abs(h) < 1e-3:
        h = h + ONE
    conj = h * q * h.inverse()
    assert sphere_of(conj).matches(sphere_of(q), 1e-6 * (1 + abs(q)))


def test_sphere_merge_dedupes():
    a = EigenSphere(1.0, 2.0)
    b = EigenSphere(1.0 + 1e-12, 2.0 - 1e-12)
    c = EigenSphere(3.0, 0.0)
    merged = merge_spheres((a, b, c))
    assert len(merged) == 2


def test_sphere_set_ops():
    u = (EigenSphere(0, 1), EigenSphere(2, 0))
    v = (EigenSphere(0, 1),)
    assert sphere_subset(v, u, 1e-9)
    assert not sphere_subset(u, v, 1e-9)
    assert sphere_sets_equal(sphere_union(u, v), u, 1e-9)
    assert sphere_hausdorff(u, u) == 0.0


def test_sphere_distance_metrics():
    # sigma distance is the max of endpoint distances, omega the min
    q = Quaternion(1, 1, 0, 0)
    p = Quaternion(1, -1, 0, 0)
    assert omega_dist(q, p) == pytest.approx(0.0, abs=1e-12)
    assert sigma_dist(q, p) == pytest.approx(2.0)
