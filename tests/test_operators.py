import numpy as np
import pytest

from qspec import rand
from qspec.errors import CoverError, InvarianceError
from qspec.operators import (
    DenseOperator,
    HalfPlaneRegion,
    MultiplicationOperator,
    ShiftOperator,
    complement_basis,
    invariance_defect,
    partition_splitting,
    pseudo_resolvent_apply,
    quotient,
    restrict,
    truncated_eigenvector,
)
from qspec.qlinalg import QMatrix, QVector, SubspaceBasis
from qspec.quat import EigenSphere, Quaternion, sphere_of
from qspec.spectral import s_spectrum, window_kappa

Z = Quaternion(0)
ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)


def test_shift_sections_are_nilpotent_bands():
    r = ShiftOperator("right").finite_section(4)
    l = ShiftOperator("left").finite_section(4)
    assert np.allclose(r.c1, np.eye(4, k=-1))
    assert np.allclose(l.c1, np.eye(4, k=1))
    assert np.allclose(r.c2, 0) and np.allclose(l.c2, 0)


def test_shift_adjoint_duality():
    left = ShiftOperator("left")
    right = ShiftOperator("right")
    assert left.adjoint_operator().side == "right"
    for n in (3, 7):
        ls = left.finite_section(n)
        rs = right.finite_section(n).adjoint()
        assert np.array_equal(ls.c1, rs.c1)
        assert np.array_equal(ls.c2, rs.c2)


def test_shift_takes_only_its_side():
    # the section size is portrait's window, not the operator's
    with pytest.raises(TypeError):
        ShiftOperator("left", window=16)
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        ShiftOperator("up")


def test_shift_column_action():
    sec = ShiftOperator("right").finite_section(8)
    v = QVector.basis(8, 0)
    assert sec.apply(v).entry(1) == ONE
    assert sec.apply(v).entry(0) == Z


def test_truncated_eigenvector_left_shift():
    q = Quaternion(0.5)
    v = truncated_eigenvector(q, 64)
    left = ShiftOperator("left")
    residual = pseudo_resolvent_apply(left, q, v).norm() / v.norm()
    assert residual <= 1e-12


def test_truncated_eigenvector_nonreal():
    q = Quaternion(0.3, 0.4, 0, 0)
    v = truncated_eigenvector(q, 96)
    left = ShiftOperator("left")
    residual = pseudo_resolvent_apply(left, q, v).norm() / v.norm()
    assert residual <= 1e-10


def test_window_kappa_uses_exact_columns():
    # rectangular sections make kappa independent of anything beyond the
    # window, so doubling the window can only lower it
    right = ShiftOperator("right")
    q = Quaternion(0.5)
    assert window_kappa(right, q, 64) >= window_kappa(right, q, 128) - 1e-12


def test_multiplication_operator_spectrum_is_value_set():
    vals = (I, 2 * J, ONE)
    m = MultiplicationOperator(("a", "b", "c"), vals)
    spheres = s_spectrum(m.as_qmatrix())
    expect = tuple(sorted({sphere_of(v).key() for v in vals}))
    assert len(spheres) == 3
    for v in vals:
        assert any(s.matches(sphere_of(v), 1e-9) for s in spheres)


def test_multiplication_operator_value_spheres():
    m = MultiplicationOperator(("a", "b"), (I, I))
    assert len(m.value_spheres()) == 1


def test_dense_operator_wraps_matrix():
    rng = rand.generator(61, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    op = DenseOperator(a)
    v = rand.rand_qvector(rng, 3)
    assert (op.apply(v) - a.apply(v)).norm() < 1e-14
    assert op.dim == 3


def test_restrict_requires_invariance():
    a = QMatrix.from_quaternions([[I, ONE], [Z, J]])
    good = SubspaceBasis(QMatrix.identity(2).take_cols(1))
    sub = restrict(a, good)
    assert sub.rows == 1
    assert s_spectrum(sub)[0].matches(EigenSphere(0, 1), 1e-9)
    bad = SubspaceBasis(QMatrix(np.eye(2)[:, 1:], np.zeros((2, 1))))
    with pytest.raises(InvarianceError):
        restrict(a, bad)


def test_invariance_defect_scales():
    a = QMatrix.from_quaternions([[I, ONE], [Z, J]])
    bad = SubspaceBasis(QMatrix(np.eye(2)[:, 1:], np.zeros((2, 1))))
    assert invariance_defect(a, bad) > 0.5


def test_quotient_spectrum_complements_restriction():
    rng = rand.generator(67, 0)
    t, a, b, c = rand.rand_block_upper(rng, 2, 2)
    top = SubspaceBasis(QMatrix.identity(4).take_cols(2))
    sub = restrict(t, top)
    quo = quotient(t, top)
    sub_spheres = s_spectrum(sub)
    quo_spheres = s_spectrum(quo)
    for s in s_spectrum(a):
        assert any(x.matches(s, 1e-7) for x in sub_spheres)
    for s in s_spectrum(b):
        assert any(x.matches(s, 1e-7) for x in quo_spheres)


def test_complement_basis_fills_space():
    basis = SubspaceBasis(QMatrix(np.eye(3)[:, 1:2], np.zeros((3, 1))))
    comp = complement_basis(basis)
    assert comp.dim == 2
    assert basis.dim + comp.dim == 3


def test_half_plane_region_membership():
    disk = HalfPlaneRegion.disk(0, 1, 0.2)
    assert disk.contains(EigenSphere(0, 1.1))
    assert not disk.contains(EigenSphere(1, 0))
    other = HalfPlaneRegion.disk(-0.5, 1.5, 0.5)
    both = disk | other
    assert both.contains(EigenSphere(-0.5, 1.5)) and both.contains(EigenSphere(0, 1.1))
    assert not other.contains(EigenSphere(-1, 1.5))  # boundary is outside


def test_disk_rejects_nan_radius():
    with pytest.raises(ValueError, match="disk radius"):
        HalfPlaneRegion.disk(0, 1, float("nan"))


def test_partition_splitting_by_value_sphere():
    m = MultiplicationOperator(
        ("a", "b", "c", "d"),
        (I, 3 * I + ONE, J, Quaternion(1, 0, 3, 0)))
    u1 = HalfPlaneRegion.disk(0, 1, 0.3)
    u2 = HalfPlaneRegion.disk(1, 3, 0.3)
    m1, m2 = partition_splitting(m, u1, u2)
    assert m1.dim == 2 and m2.dim == 2
    # each summand is invariant and carries the spectrum of its region
    r1 = restrict(m.as_qmatrix(), m1)
    for s in s_spectrum(r1):
        assert u1.contains(s)


def test_partition_splitting_needs_cover():
    m = MultiplicationOperator(("a", "b"), (I, 5 * ONE))
    u1 = HalfPlaneRegion.disk(0, 1, 0.5)
    u2 = HalfPlaneRegion.disk(0, 1, 0.4)
    with pytest.raises(CoverError):
        partition_splitting(m, u1, u2)
