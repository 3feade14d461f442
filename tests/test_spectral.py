import math

import numpy as np
import pytest

from qspec import rand
from qspec.operators import DenseOperator, MultiplicationOperator, ShiftOperator
from qspec.qlinalg import QMatrix, inverse_matrix, min_singular, op_norm
from qspec.quat import SLICE_I, SLICE_J, EigenSphere, Quaternion, sphere_of
from qspec.spectral import (
    GridSpec,
    _SectionKappa,
    annulus_check,
    classify,
    full_spectrum,
    growth_bounds,
    lower_bound_i,
    portrait,
    pseudo_resolvent,
    s_spectrum,
    spectral_radius,
    threshold_region,
    transition_cells,
    window_kappa,
)

import spectral_reference as ref

Z = Quaternion(0)
ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)


def test_pseudo_resolvent_kills_eigenvalue_sphere():
    a = QMatrix.from_quaternions([[I]])
    # R_q(A) = A^2 - 2 Re(q) A + |q|^2 vanishes on [q] = [i]
    r = pseudo_resolvent(a, J)  # j is a sphere mate of i
    assert min_singular(r) < 1e-12


def test_pseudo_resolvent_depends_only_on_sphere():
    rng = rand.generator(41, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    q = Quaternion(0.5, 1.0, 0, 0)
    p = Quaternion(0.5, 0, -1.0, 0)  # same (re, |im|)
    ra = pseudo_resolvent(a, q)
    rb = pseudo_resolvent(a, p)
    assert np.allclose(ra.c1, rb.c1) and np.allclose(ra.c2, rb.c2)


def test_s_spectrum_diagonal_frozen():
    a = QMatrix.from_quaternions([[I, Z], [Z, J + J]])
    spheres = s_spectrum(a)
    assert len(spheres) == 2
    assert spheres[0].matches(EigenSphere(0, 1), 1e-9)
    assert spheres[1].matches(EigenSphere(0, 2), 1e-9)


def test_s_spectrum_swap_real_pair():
    a = QMatrix.from_quaternions([[Z, ONE], [ONE, Z]])
    spheres = s_spectrum(a)
    assert len(spheres) == 2
    assert spheres[0].matches(EigenSphere(-1, 0), 1e-9)
    assert spheres[1].matches(EigenSphere(1, 0), 1e-9)


def test_s_spectrum_mixed_slices():
    # eigenvalues on different slices land on the same sphere set
    a = QMatrix.from_quaternions([[ONE + 2 * I, Z], [Z, ONE + 2 * J]])
    spheres = s_spectrum(a)
    assert len(spheres) == 1
    assert spheres[0].matches(EigenSphere(1, 2), 1e-9)


def test_classify_identity_all_parts():
    rep = classify(QMatrix.identity(2))
    assert rep.to_lines() == ["1 0 p a c s"]
    assert rep.coincident


def test_classify_parts_coincide_random():
    rng = rand.generator(43, 0)
    a = rand.rand_qmatrix(rng, 4, 4)
    rep = classify(a)
    assert rep.coincident
    for name in ("point", "approximate", "compression", "surjectivity"):
        assert len(rep.part(name)) == len(rep.spheres)


def test_spectral_radius_bounds_sphere_max():
    rng = rand.generator(47, 0)
    a = rand.rand_qmatrix(rng, 4, 4)
    rep = classify(a)
    top = max(s.abs_value() for s in rep.spheres)
    # power-norm bound: never below the true radius, tight for normal parts
    assert top <= rep.radius + 1e-9
    assert spectral_radius(a) == pytest.approx(rep.radius, rel=1e-12)
    # diagonal case is exact at n_max -> high powers
    d = QMatrix.from_quaternions([[2 * I, Z], [Z, J]])
    assert spectral_radius(d, n_max=64) == pytest.approx(2.0, rel=1e-2)


def test_annulus_bounds_hold():
    rng = rand.generator(53, 0)
    a = rand.rand_invertible(rng, 4)
    rep = classify(a)
    assert annulus_check(rep).ok
    assert lower_bound_i(a) <= rep.radius + 1e-9


def _two_loop_growth(a, n_max=8, window=None):
    """The growth bounds as two separate loops over the powers, the way
    they were computed before one pass shared them: (radius, lower, floor),
    where ``floor`` says whether some kappa(A^n) sat at the rounding floor
    2N eps |A^n| that the one-pass loop skips."""
    if isinstance(a, QMatrix):
        section, n_win, band = a, a.cols, 0
    else:
        n_win = window or a.window
        section, band = a.finite_section(n_win), a.bandwidth
    radius, lower, floor = math.inf, 0.0, False
    power = section
    for n in range(1, n_max + 1):
        cols = n_win - n * band
        if cols < 1:
            break
        radius = min(radius, op_norm(power.take_cols(cols)) ** (1.0 / n))
        if n < n_max:
            power = power @ section
    power = section
    for n in range(1, n_max + 1):
        cols = n_win - n * band
        if cols < 1:
            break
        rect = power.take_cols(cols)
        kappa = min_singular(rect)
        lower = max(lower, kappa ** (1.0 / n))
        floor |= kappa <= 2 * rect.rows * np.finfo(float).eps * op_norm(rect)
        if n < n_max:
            power = power @ section
    return radius, lower, floor


def _similarity_image(rng, entries):
    """S diag(entries) S^-1 with S = I plus a small random part."""
    n = len(entries)
    s = QMatrix.identity(n) + rand.rand_qmatrix(rng, n, n, scale=1.0 / n)
    return s @ QMatrix.diag(entries) @ inverse_matrix(s)


def _growth_inputs():
    rng = rand.generator(71, 0)
    out = [rand.rand_qmatrix(rng, n, n) for n in range(1, 9)]
    out += [QMatrix(rng.normal(size=(n, n)), np.zeros((n, n))) for n in (3, 6)]
    out += [QMatrix(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
                    np.zeros((4, 4)))]
    out.append(QMatrix(np.diag(np.ones(4), 1), np.zeros((5, 5))))    # nilpotent
    out.append(QMatrix.zeros(3, 3))
    for n in (6, 10):
        entries = [rand.rand_quaternion(rng) for _ in range(n - 1)]
        out.append(_similarity_image(rng, entries + [Quaternion(0.01, 0.01)]))
    out += [ShiftOperator("right", window=24), ShiftOperator("left", window=24)]
    return out


def test_growth_bounds_match_two_loop_reference():
    skipped = 0
    for a in _growth_inputs():
        radius, lower, floor = _two_loop_growth(a)
        assert growth_bounds(a) == (spectral_radius(a), lower_bound_i(a))
        assert spectral_radius(a) == radius
        assert lower_bound_i(a) <= lower
        if floor:
            skipped += 1
        else:
            assert lower_bound_i(a) == lower
    # the nilpotent, zero and left-shift inputs reach the floor
    assert 3 <= skipped < len(_growth_inputs())
    # an empty matrix keeps op_norm's 0 and min_singular's inf
    assert growth_bounds(QMatrix.zeros(0, 0)) == (0.0, math.inf)


def test_growth_bounds_of_the_shifts():
    # right shift: an isometry, every power norm 1 and kappa 1
    right = ShiftOperator("right", window=32)
    assert spectral_radius(right) == pytest.approx(1.0, rel=1e-12)
    assert lower_bound_i(right) == pytest.approx(1.0, rel=1e-12)
    # left shift: norm 1, but each power kills e_1, so kappa is 0
    left = ShiftOperator("left", window=32)
    assert spectral_radius(left) == pytest.approx(1.0, rel=1e-12)
    assert lower_bound_i(left) == 0.0


def _small_sphere(seed):
    """S D S^-1, n 8..14, with one sphere of modulus 0.015-0.02 and the
    others well away from zero; returns (matrix, smallest modulus)."""
    rng = rand.generator(883, seed)
    n = 8 + seed % 7
    r = rng.uniform(0.015, 0.02)
    theta = rng.uniform(0.0, math.pi)
    small = Quaternion(r * math.cos(theta), r * math.sin(theta))
    entries = [small]
    while len(entries) < n:
        q = rand.rand_quaternion(rng, 2.0)
        if abs(q) >= 0.2:
            entries.append(q)
    return _similarity_image(rng, entries), r


def test_lower_bound_stays_below_a_small_sphere():
    above = 0
    for seed in range(24):
        a, smallest = _small_sphere(seed)
        above += _two_loop_growth(a)[1] > smallest
        assert lower_bound_i(a) <= smallest
        if seed % 6 == 0:
            assert annulus_check(classify(a)).ok, seed
    # without the rounding-floor skip the bound rises above the sphere
    assert above >= 12


def test_window_kappa_right_shift_frozen():
    right = ShiftOperator("right")
    k = window_kappa(right, Quaternion(0.5), 128)
    assert 0.2 <= k <= 0.3
    # monotone non-increasing in the window
    ks = [window_kappa(right, Quaternion(0.5), n) for n in (32, 64, 128)]
    assert ks[0] >= ks[1] >= ks[2]


def test_window_kappa_left_shift_interior_zero():
    left = ShiftOperator("left")
    assert window_kappa(left, Quaternion(0.5), 64) < 1e-10
    assert window_kappa(left, Quaternion(0, 0.5), 64) < 1e-10


def test_grid_spec_validation():
    g = GridSpec(-1, 1, 1.0, 4, 3)
    assert len(g.xs()) == 4 and len(g.ys()) == 3
    with pytest.raises(ValueError):
        GridSpec(-1, 1, -0.5, 4, 3)


def test_portrait_slice_independent_and_deterministic():
    right = ShiftOperator("right")
    g = GridSpec(-1.2, 1.2, 1.0, 9, 5)
    p1 = portrait(right, g, window=32, slice_unit=SLICE_I)
    p2 = portrait(right, g, window=32, slice_unit=SLICE_J)
    assert np.array_equal(p1.values, p2.values)
    assert p1.csv_lines() == p2.csv_lines()
    assert p1.csv_lines()[0] == "x,y,kappa"


def test_portrait_matrix_operator_zeros_on_spectrum():
    a = QMatrix.from_quaternions([[I, Z], [Z, I]])
    g = GridSpec(-1, 1, 1.0, 5, 5)
    p = portrait(DenseOperator(a), g, window=2)
    ys = g.ys()
    xs = g.xs()
    iy = int(np.argmin(np.abs(ys - 1.0)))
    ix = int(np.argmin(np.abs(xs)))
    assert p.values[iy, ix] < 1e-10


def test_threshold_region_and_fill():
    a = QMatrix.from_quaternions([[I, Z], [Z, I]])
    g = GridSpec(-1.5, 1.5, 1.5, 31, 16)
    p = portrait(DenseOperator(a), g, window=2)
    region = threshold_region(p, tol=1e-8)
    assert region.cell_count() == 1  # the sphere [i] only touches (0, 1)
    filled = full_spectrum(region)
    assert filled.cell_count() == 1  # a point cannot trap interior cells


def test_full_spectrum_ring_traps_interior():
    g = GridSpec(-1, 1, 1.0, 21, 11)
    mask = np.zeros((11, 21), dtype=bool)
    # closed square ring of cells
    mask[3, 5:16] = True
    mask[8, 5:16] = True
    mask[3:9, 5] = True
    mask[3:9, 15] = True
    from qspec.spectral import AxSymRegion

    filled = full_spectrum(AxSymRegion(g, mask))
    assert filled.mask[5, 10]  # interior cell got flooded in
    assert filled.cell_count() > mask.sum()
    assert not filled.mask[0, 0]


def test_full_spectrum_not_seeded_from_real_axis():
    # arc touching y=0 twice: the region below it is NOT reachable from
    # the outer boundary because the real axis is interior to the domain
    g = GridSpec(-1, 1, 1.0, 41, 21)
    from qspec.spectral import AxSymRegion

    mask = np.zeros((21, 41), dtype=bool)
    xs, ys = g.xs(), g.ys()
    for t in np.linspace(0, np.pi, 400):
        x, y = 0.6 * np.cos(t), 0.6 * np.sin(t)
        ix = int(np.argmin(np.abs(xs - x)))
        iy = int(np.argmin(np.abs(ys - y)))
        mask[iy, ix] = True
    filled = full_spectrum(AxSymRegion(g, mask))
    ix0 = int(np.argmin(np.abs(xs)))
    assert filled.mask[0, ix0]  # (0, 0) sits under the arc


def test_transition_cells_flag_boundary():
    vals = np.ones((5, 7))
    vals[2, 3] = 0.0
    cells = transition_cells(vals, low=0.1, high=0.5)
    # neighbors of the zero cell see both sides of the band
    assert cells[2, 2] and cells[2, 4] and cells[1, 3] and cells[3, 3]
    assert not cells[0, 0]


# -- batched kappa against one SVD per point --------------------------------


def _dense_operators() -> dict:
    rng = rand.generator(307, 0)
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    real = rng.normal(size=(5, 5)).astype(np.complex128)
    return {
        "quaternionic": DenseOperator(rand.rand_qmatrix(rng, 3, 3)),
        "complex-slice": DenseOperator(QMatrix(c, np.zeros_like(c))),
        "real-slice": DenseOperator(QMatrix(real, np.zeros_like(real))),
        "diagonal-c-slice": DenseOperator(QMatrix.diag([Quaternion(0.0, 0.8),
                                                        Quaternion(0.6, 0.6), ONE])),
        "mult": MultiplicationOperator(range(6), [rand.rand_quaternion(rng) for _ in range(6)]),
    }


def _assert_matches_reference(op, window, grid):
    engine = _SectionKappa(op, window)
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    want = ref.section_kappas(op, engine.n, xs, ys)
    assert np.array_equal(engine.values(xs, ys), want)
    p = portrait(op, grid, window=window)
    assert np.array_equal(p.values, want)
    assert p.norm_scale == op_norm(op.finite_section(engine.n))
    assert engine.kappa(float(xs[0, -1]), float(ys[-1, 0])) == want[-1, -1]
    return engine


@pytest.mark.parametrize("name", sorted(_dense_operators()))
def test_section_kappa_dense_matches_per_point_svd(name):
    op = _dense_operators()[name]
    engine = _assert_matches_reference(op, None, GridSpec(-2.0, 2.0, 2.0, 37, 29))
    # several blocks, the last one partial
    assert 37 * 29 > engine._block and (37 * 29) % engine._block


@pytest.mark.parametrize("side", ["left", "right"])
def test_section_kappa_shifts_match_per_point_svd(side):
    op = ShiftOperator(side)
    for n in range(4, 41):
        _assert_matches_reference(op, n, GridSpec(-1.4, 1.3, 1.2, 7, 5))
    for n, grid in ((10, GridSpec(-1.2, 1.2, 1.2, 13, 11)), (24, GridSpec(-1, 1, 1, 4, 4))):
        engine = _assert_matches_reference(op, n, grid)
        points = grid.nx * grid.ny
        assert points > engine._block and points % engine._block


@pytest.mark.parametrize("grid", [GridSpec(0.3, 0.3, 0.0, 1, 1),
                                  GridSpec(0.5, 0.5, 1.1, 1, 9),
                                  GridSpec(-1.1, 1.1, 0.0, 9, 3)],
                         ids=["1x1", "nx1", "y1-zero"])
def test_section_kappa_degenerate_grids(grid):
    for op, window in ((ShiftOperator("right"), 12), (ShiftOperator("left"), 5),
                       (_dense_operators()["quaternionic"], None)):
        _assert_matches_reference(op, window, grid)


def test_window_kappa_matches_per_point_svd():
    for side in ("left", "right"):
        for q in (Quaternion(0.5), Quaternion(0.9, 0.4), Quaternion(-0.3, 0.1, 1.0, 0.2)):
            want = ref.section_kappas(ShiftOperator(side), 64, q.w, q.imag_norm())
            assert window_kappa(ShiftOperator(side), q, 64) == float(want)


def test_window_none_means_the_operators_own_window():
    g = GridSpec(-1.2, 1.2, 1.0, 5, 3)
    own = portrait(ShiftOperator("right", window=8), g)
    assert own.window == 8
    assert np.array_equal(own.values, portrait(ShiftOperator("right"), g, window=8).values)
    assert portrait(ShiftOperator("left"), g).window == 128


@pytest.mark.parametrize("window", [0, 3, -4])
def test_small_windows_rejected_for_infinite_operators(window):
    g = GridSpec(-1.0, 1.0, 1.0, 3, 2)
    with pytest.raises(ValueError, match="at least 4"):
        portrait(ShiftOperator("right"), g, window=window)
    with pytest.raises(ValueError, match="at least 4"):
        window_kappa(ShiftOperator("left"), Quaternion(0.5), window)
    with pytest.raises(ValueError, match="at least 4"):
        growth_bounds(ShiftOperator("left"), window=window)
    # a finite operator is probed on its whole matrix whatever the window
    dense = _dense_operators()["quaternionic"]
    assert portrait(dense, g, window=window).window == 3
