import contextlib
import importlib.util
import io
import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qspec import rand, spectral
from qspec.operators import DenseOperator, MultiplicationOperator, ShiftOperator
from qspec.qlinalg import (QMatrix, inverse_matrix, min_singular, op_norm, orthonormalize,
                           resolvent_singular_values)
from qspec.quat import SLICE_I, SLICE_J, SLICE_K, EigenSphere, Quaternion, SliceUnit, slice_compose
from qspec.spectral import (
    REGION_TOL,
    GridSpec,
    SlicePortrait,
    _BAND_ERR,
    _RIGHT_ERR,
    _SectionKappa,
    _decided,
    _fmt,
    _fmt_array,
    _section_size,
    _shift_kappas,
    annulus_check,
    classify,
    full_spectrum,
    growth_bounds,
    portrait,
    pseudo_resolvent,
    s_spectrum,
    shift_kappa_limit,
    spectral_radius,
    threshold_region,
    transition_cells,
    window_kappa,
)

import spectral_reference as ref

Z = Quaternion(0)
ONE = Quaternion(1)
#: the default threshold_region cut of a shift portrait (norm_scale 1)
REGION_CUT = REGION_TOL * 2.0
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
    # a normal matrix has |A^n| = r^n: the bound is exact from the first power
    d = QMatrix.from_quaternions([[2 * I, Z], [Z, J]])
    assert spectral_radius(d) == pytest.approx(2.0, rel=1e-12)


def test_annulus_bounds_hold():
    rng = rand.generator(53, 0)
    a = rand.rand_invertible(rng, 4)
    rep = classify(a)
    assert annulus_check(rep).ok
    assert growth_bounds(a)[1] <= rep.radius + 1e-9


def _two_loop_growth(a):
    """The growth bounds as two separate loops over the first eight powers,
    the way they were computed before one pass shared them: (radius, lower,
    floor), where ``floor`` says whether some kappa(A^n) sat at the rounding
    floor 2N eps |A^n| that the one-pass loop skips."""
    radius, lower, floor = math.inf, 0.0, False
    power = a
    for n in range(1, 9):
        radius = min(radius, op_norm(power) ** (1.0 / n))
        power = power @ a
    power = a
    for n in range(1, 9):
        kappa = min_singular(power)
        lower = max(lower, kappa ** (1.0 / n))
        floor |= kappa <= 2 * power.rows * np.finfo(float).eps * op_norm(power)
        power = power @ a
    return radius, lower, floor


def _similarity_image(rng, entries):
    """S diag(entries) S^-1 with S = I plus a small random part."""
    n = len(entries)
    s = QMatrix.identity(n) + QMatrix.from_components(rng.uniform(-1.0 / n, 1.0 / n, (n, n, 4)))
    return s @ QMatrix.diag(entries) @ inverse_matrix(s)


def _rotated(a):
    """Q A Q^T for a seeded real orthogonal Q, which commutes with every
    quaternion: not diagonal for a diagonal A that is not scalar, with A's
    spheres, multiplicities and singular values, and with each power, and
    each R_q(A), real, complex-slice or quaternionic exactly when A's is."""
    q, _ = np.linalg.qr(np.random.default_rng([73, a.rows]).normal(size=(a.rows, a.rows)))
    return QMatrix(q @ a.c1 @ q.T, q @ a.c2 @ q.T)


def _growth_inputs():
    """Inputs of the power loop.  A diagonal matrix takes the closed form
    (tests/test_diagonal.py), so none is diagonal: the 1 x 1 draw is the
    corner of a 2 x 2 triangle, and a nonzero matrix whose square vanishes
    stands in for the zero matrix."""
    rng = rand.generator(71, 0)
    out = [rand.rand_qmatrix(rng, n, n) for n in range(1, 9)]
    corner = out[0].entry(0, 0)
    out[0] = QMatrix.from_quaternions([[corner, ONE], [Z, corner]])
    out += [QMatrix(rng.normal(size=(n, n)), np.zeros((n, n))) for n in (3, 6)]
    out += [QMatrix(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
                    np.zeros((4, 4)))]
    out.append(QMatrix(np.diag(np.ones(4), 1), np.zeros((5, 5))))    # nilpotent
    out.append(QMatrix(np.eye(3, k=2), np.zeros((3, 3))))    # its square is zero
    for n in (6, 10):
        entries = [rand.rand_quaternion(rng) for _ in range(n - 1)]
        out.append(_similarity_image(rng, entries + [Quaternion(0.01, 0.01)]))
    # the shifts' 24 x 24 sections, both nilpotent
    out += [ShiftOperator(side).finite_section(24) for side in ("right", "left")]
    return out


def test_growth_bounds_match_two_loop_reference():
    skipped = 0
    for a in _growth_inputs():
        radius, lower, floor = _two_loop_growth(a)
        assert growth_bounds(a)[0] == spectral_radius(a) == radius
        assert growth_bounds(a)[1] <= lower
        if floor:
            skipped += 1
        else:
            assert growth_bounds(a)[1] == lower
    # the nilpotent, square-zero and shift-section inputs reach the floor
    assert 3 <= skipped < len(_growth_inputs())
    # an empty matrix keeps op_norm's 0 and min_singular's inf
    assert growth_bounds(QMatrix.zeros(0, 0)) == (0.0, math.inf)


def test_stacked_growth_bounds_match_the_per_power_loop():
    # i B (B real) squares to a real block and j B to a complex-slice
    # -B^2, so their powers fall into several (dtype, shape) groups
    b = np.random.default_rng(7).normal(size=(5, 5))
    # i P and j P for permutations P stand in for the scalar matrices i and j
    cycle, swap = np.roll(np.eye(3), 1, axis=0), np.eye(2)[::-1]
    mixed = [QMatrix(1j * cycle, np.zeros((3, 3))), QMatrix(np.zeros((2, 2)), swap),
             _rotated(QMatrix.diag([Quaternion(0.5, 0, 0.5), Quaternion(0, 0.7)])),
             QMatrix(1j * b, np.zeros((5, 5))), QMatrix(np.zeros((5, 5)), b)]
    assert not any(a.is_diagonal for a in _growth_inputs() + mixed)
    for a in _growth_inputs() + mixed:
        assert growth_bounds(a) == ref.growth_bounds(a)


def test_growth_bounds_stop_before_an_overflowing_power():
    # at entries 1e60 the sixth power passes double precision; each power
    # bounds the spectrum alone, so the first five give the bounds
    a = _rotated(QMatrix.diag([Quaternion(1e60, 0.3), Quaternion(-2e60, 0.0, 0.1)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert growth_bounds(a) == ref.growth_bounds(a, 5)
    assert growth_bounds(a)[0] == pytest.approx(2e60, rel=1e-12)
    # the stack forms all eight powers and finds the cut afterwards: the
    # first power past double precision is each of A^2 .. A^8 in turn, with
    # a factor of 1e20 or more on either side of the overflow
    for k in range(2, 9):
        top = 10.0 ** (308 / (k - 0.5))    # top^(k - 1) is finite, top^k is not
        a = _rotated(QMatrix.diag([Quaternion(top / 2, 0.3), Quaternion(-top, 0.0, 0.1)]))
        powers = [a]
        with np.errstate(over="ignore", invalid="ignore"):
            while len(powers) < k:
                powers.append(powers[-1] @ a)
        finite = [np.isfinite(p.c1).all() and np.isfinite(p.c2).all() for p in powers]
        assert finite == [True] * (k - 1) + [False], k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert growth_bounds(a) == ref.growth_bounds(a, k - 1), k
        assert growth_bounds(a)[0] == pytest.approx(top, rel=1e-12), k


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
        assert growth_bounds(a)[1] <= smallest
        if seed % 6 == 0:
            assert annulus_check(classify(a)).ok, seed
    # without the rounding-floor skip the bound rises above the sphere
    assert above >= 12


def _matrix_request_values(tmp_path, seed: int, name: str):
    """The entries of the ``matrix`` benchmark's diagonal input ``name`` of
    ``seed``, from the benchmark's own request builder."""
    from qspec import io as qio

    _workloads().build_matrix(np.random.default_rng([seed, 1]), str(tmp_path))
    return qio.parse_qfun(qio.read_text(str(tmp_path / name))).values


@pytest.mark.xfail(strict=True, reason="the rounding-floor skip admits kappa(A^n) whose "
                                       "error lifts the lower bound above the smallest sphere")
def test_lower_bound_of_a_unitary_image_stays_below_its_smallest_sphere(tmp_path):
    # the matrix benchmark's seed-4 input m145.qfun, diagonal, in a unitary
    # basis: kappa(A^n) for n up to 8 is min|g|^n in exact arithmetic, but
    # the floor 2N eps |A^n| admits values whose rounding error is up to
    # 1/(2N) of them, and sup kappa(A^n)^(1/n) lands 2.3e-6 above min|g|
    values = _matrix_request_values(tmp_path, 4, "m145.qfun")
    u = orthonormalize(rand.rand_qmatrix(rand.generator(900, 0), len(values), len(values)))
    a = u @ QMatrix.diag(values) @ u.adjoint()
    assert not a.is_diagonal
    assert growth_bounds(a)[1] <= min(abs(q) for q in values) * (1.0 + 1e-12)


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


@pytest.mark.parametrize("side", ["right", "left"])
def test_shift_kappa_limit_brackets_the_window_values(side):
    g = GridSpec(-1.5, 1.5, 1.5, 31, 16)
    x, y = g.xs()[None, :], g.ys()[:, None]
    limit = shift_kappa_limit(side, x, y)
    scale = 1.0 + 2.0 * np.abs(x) + x * x + y * y
    gaps = {}
    for window in (32, 128, 512):
        gaps[window] = portrait(ShiftOperator(side), g, window=window).values - limit
        # section columns are exact images: every window value bounds the limit
        assert np.all(gaps[window] >= -4.0 * np.finfo(float).eps * scale)
    # the gap is O(1/W^2) away from the circle once W is past the transient
    # near the circle's end points c = +-1 (at 32 -> 128 some cells fall 6.5x)
    far = np.abs(np.hypot(x, y) - 1.0) > 0.1
    assert np.all(gaps[128] <= gaps[32] + 4.0 * np.finfo(float).eps * scale)
    assert np.all(10.0 * gaps[512][far] <= gaps[128][far])


def test_shift_kappa_limit_pinned_values():
    assert shift_kappa_limit("right", 0.5, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert shift_kappa_limit("right", 0.9, 0.0) == pytest.approx(0.01, abs=1e-15)
    assert shift_kappa_limit("left", 1.2, 0.3) == pytest.approx(0.128544, abs=1e-6)
    assert shift_kappa_limit("left", 0.5, 0.0) == 0.0
    # q = 0: R_q is S^2, an isometry for the right shift
    assert shift_kappa_limit("right", 0.0, 0.0) == 1.0
    assert shift_kappa_limit("right", [[0.5, 0.9]], 0.0).shape == (1, 2)
    with pytest.raises(ValueError, match="side"):
        shift_kappa_limit("up", 0.5, 0.0)


def test_shift_kappa_limit_matches_brute_force_on_the_circle():
    rng = np.random.default_rng(2024)
    xs, ys = rng.uniform(-2.0, 2.0, 300), rng.uniform(0.0, 2.0, 300)
    # |p| takes the same values on the lower half circle (real coefficients)
    z = np.exp(1j * np.linspace(0.0, math.pi, 200_001))
    brute = np.array([np.abs(z * z - 2.0 * x * z + (x * x + y * y)).min()
                      for x, y in zip(xs, ys)])
    assert np.max(np.abs(shift_kappa_limit("right", xs, ys) - brute)) <= 1e-8
    outside = xs * xs + ys * ys > 1.0
    left = shift_kappa_limit("left", xs, ys)
    assert np.all(left[~outside] == 0.0)
    assert np.max(np.abs(left[outside] - brute[outside])) <= 1e-8


def test_grid_spec_validation():
    g = GridSpec(-1, 1, 1.0, 4, 3)
    assert len(g.xs()) == 4 and len(g.ys()) == 3
    with pytest.raises(ValueError):
        GridSpec(-1, 1, -0.5, 4, 3)


def test_portrait_slice_independent_and_deterministic():
    # one portrait holds on every slice: each cell is kappa of the section's
    # R_q at q = x + yI for I = i, j, k and a random unit
    right = ShiftOperator("right")
    g = GridSpec(-1.2, 1.2, 1.0, 9, 5)
    p1 = portrait(right, g, window=32)
    p2 = portrait(right, g, window=32)
    assert np.array_equal(p1.values, p2.values)
    assert p1.csv_lines() == p2.csv_lines()
    assert p1.csv_lines()[0] == "x,y,kappa"
    section, kept = right.finite_section(32), 32 - right.section_margin
    u = np.random.default_rng(5).normal(size=3)
    u /= np.linalg.norm(u)
    for unit in (SLICE_I, SLICE_J, SLICE_K, SliceUnit(*u)):
        for (iy, y), (ix, x) in itertools.product(enumerate(g.ys()), enumerate(g.xs())):
            q = slice_compose(float(x), float(y), unit)
            want = min_singular(pseudo_resolvent(section, q).take_cols(kept))
            assert abs(p1.values[iy, ix] - want) <= 1e-12 * (1.0 + want), (unit, x, y)


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
    region = threshold_region(p)
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


def _block_sizes(engine, points: int) -> list[int]:
    """Points per stacked SVD when the kernel runs ``points`` points on the
    engine's section."""
    zeros = np.zeros(points)
    return [len(s) for s in resolvent_singular_values(engine._image(), zeros, zeros)]


def _assert_shift_agrees(op, window, xs, ys, got, want):
    """A shift's portrait against one banded solve per point (``want``): the
    same printed values and threshold cells, the cells the symbol route
    left to the band bit for bit, and each symbol value within its stated
    bound."""
    assert [_fmt(v) for v in got.ravel()] == [_fmt(v) for v in want.ravel()]
    assert np.array_equal(got <= REGION_CUT, want <= REGION_CUT)
    xs, ys = np.broadcast_arrays(xs, ys)
    cols = _section_size(op, window) - op.section_margin
    _, reach, hard = _shift_kappas(op.side, cols, xs.ravel().astype(float),
                                   ys.ravel().astype(float))
    diff = np.abs(got.ravel() - want.ravel())
    assert np.all(diff <= reach)
    assert np.all(diff[hard] == 0.0)


def _assert_matches_reference(op, window, grid):
    engine = _SectionKappa(op, window)
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    shift = isinstance(op, ShiftOperator)
    want = (ref.band_kappas(op.side, engine.n, xs, ys) if shift
            else ref.section_kappas(op, engine.n, xs, ys))
    got = engine.values(xs, ys)
    p = portrait(op, grid, window=window)
    if shift:
        # the symbol route meets one banded solve per point in print, not in bits
        _assert_shift_agrees(op, window, xs, ys, got, want)
        assert np.array_equal(p.values, got)
        assert np.array_equal(threshold_region(p).mask, want <= REGION_CUT)
        assert _fmt(engine.kappa(float(xs[0, -1]), float(ys[-1, 0]))) == _fmt(want[-1, -1])
    else:
        assert np.array_equal(got, want)
        assert np.array_equal(p.values, want)
        assert engine.kappa(float(xs[0, -1]), float(ys[-1, 0])) == want[-1, -1]
    assert p.norm_scale == op_norm(op.finite_section(engine.n))
    return engine


@pytest.mark.parametrize("name", sorted(_dense_operators()))
def test_section_kappa_dense_matches_per_point_svd(name):
    op = _dense_operators()[name]
    engine = _assert_matches_reference(op, None, GridSpec(-2.0, 2.0, 2.0, 37, 29))
    # several blocks, the last one partial
    sizes = _block_sizes(engine, 37 * 29)
    assert len(sizes) > 1 and sizes[-1] < sizes[0]


@pytest.mark.parametrize("side", ["left", "right"])
def test_section_kappa_shifts_match_per_point_svd(side):
    # against one banded solve per point, which
    # test_band_lies_near_one_svd_per_point holds to one SVD per point
    op = ShiftOperator(side)
    for n in range(4, 41):
        _assert_matches_reference(op, n, GridSpec(-1.4, 1.3, 1.2, 7, 5))
    for n, grid in ((10, GridSpec(-1.2, 1.2, 1.2, 13, 11)), (24, GridSpec(-1, 1, 1, 4, 4))):
        _assert_matches_reference(op, n, grid)


@pytest.mark.parametrize("grid", [GridSpec(0.3, 0.3, 0.0, 1, 1),
                                  GridSpec(0.5, 0.5, 1.1, 1, 9),
                                  GridSpec(-1.1, 1.1, 0.0, 9, 3)],
                         ids=["1x1", "nx1", "y1-zero"])
def test_section_kappa_degenerate_grids(grid):
    for op, window in ((ShiftOperator("right"), 12), (ShiftOperator("left"), 5),
                       (_dense_operators()["quaternionic"], None)):
        _assert_matches_reference(op, window, grid)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("window", [4, 5, 66, 128, 1024])
def test_shift_band_is_the_interleaved_golub_kahan_matrix(side, window):
    # the band the hard cells fill, one fancy assignment per point, is bit
    # for bit the band of the Golub-Kahan matrix of the kept section built
    # entry by entry, and that section is the operator's: half-bandwidth 3
    op = ShiftOperator(side)
    engine = _SectionKappa(op, window)
    diagonal, column, coef = spectral._golub_kahan_band(side, window)
    square = op.band(window)
    for x, y in ((0.3, 1.2), (-1.1, 0.4), (0.0, 1.5)):
        r2 = x * x + y * y
        ab = np.zeros((4, 2 * window - 2))
        ab[diagonal, column] = np.array([1.0, -2.0 * x, r2])[coef]
        g = ref.golub_kahan(side, window, x, y)
        assert ab.tobytes() == ref.lower_band(g, 3).tobytes()
        # (the left section at W = 4 holds no entry 1)
        assert not np.triu(g, 4).any()
        assert np.diag(g, 3).any() or (side, window) == ("left", 4)
        section = (square @ square - 2.0 * x * square + r2 * np.eye(window))[:, :window - 2]
        assert np.array_equal(ref.kept_section(side, window, x, y), section)
        if window <= 128:
            assert engine._banded(np.array([x]), np.array([y])).tobytes() == \
                ref.band_kappas(side, window, x, y).tobytes()


def test_shift_portraits_build_no_complex_section(monkeypatch):
    from qspec import cli

    def refuse(self, n):
        raise AssertionError("a shift portrait built a complex section")

    monkeypatch.setattr(ShiftOperator, "finite_section", refuse)
    grid = GridSpec(-1.2, 1.2, 1.5, 3, 3)
    hard = 0
    for side in ("left", "right"):
        hard += portrait(ShiftOperator(side), grid, window=40).hard_cells
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["portrait", "--op", f"shift:{side}",
                             "--grid=-1.2,1.2,1.5,3x3", "--window", "40"]) == 0
    # the left shift's x = 0, |q| > 1 cell takes the band
    assert hard >= 1


def test_window_kappa_matches_per_point_svd():
    for side in ("left", "right"):
        for q in (Quaternion(0.5), Quaternion(0.9, 0.4), Quaternion(-0.3, 0.1, 1.0, 0.2)):
            x, y = np.array([q.w]), np.array([q.imag_norm()])
            want = ref.band_kappas(side, 64, x, y)
            got = np.array([window_kappa(ShiftOperator(side), q, 64)])
            _assert_shift_agrees(ShiftOperator(side), 64, x, y, got, want)


# -- the shift symbol route against one banded solve per point -------------


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("window", [96, 128, 160, 257])
def test_symbol_route_matches_reference_at_wide_windows(side, window):
    _assert_matches_reference(ShiftOperator(side), window, GridSpec(-1.7, 1.6, 1.5, 7, 4))


@pytest.mark.parametrize("side", ["left", "right"])
def test_symbol_route_matches_reference_at_window_1024(side):
    op, grid = ShiftOperator(side), GridSpec(-1.3, 1.45, 1.2, 3, 2)
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    got = _SectionKappa(op, 1024).values(xs, ys)
    _assert_shift_agrees(op, 1024, xs, ys, got, ref.band_kappas(side, 1024, xs, ys))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("window", [5, 9, 10, 33, 34, 128])
def test_symbol_route_special_points(side, window):
    # x = 0 with odd and even n = window - 2 (repeated modes), q = 0 (every
    # d_k equal to 1), the real axis (a double root of the symbol), and
    # |q| = 1 exactly (a zero corner weight of the left Gram)
    t = np.linspace(0.0, math.pi, 9)
    xs = np.concatenate([[0.0, 0.0, 0.0, 0.0, -0.7, 0.4, 1.0, -1.0, 1.3], np.cos(t), [0.6, 0.8]])
    ys = np.concatenate([[0.0, 0.5, 1.0, 1.6, 0.0, 0.0, 0.0, 0.0, 0.0], np.sin(t), [0.8, 0.6]])
    op = ShiftOperator(side)
    got = _SectionKappa(op, window).values(xs, ys)
    _assert_shift_agrees(op, window, xs, ys, got, ref.band_kappas(op.side, window, xs, ys))


def test_symbol_route_cells_at_the_threshold_cut():
    # left-shift points where one banded solve per point gives kappa within
    # 1e-13 of the cut 2e-8, on two rays through the disc
    op, window = ShiftOperator("left"), 16
    for angle in (0.7, 2.2):
        c, s = math.cos(angle), math.sin(angle)

        def banded(r):
            return float(ref.band_kappas("left", window, r * c, r * s))

        lo, hi = 0.05, 0.95
        assert banded(lo) < REGION_CUT < banded(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if banded(mid) <= REGION_CUT else (lo, mid)
        rs = np.array([lo * (1 - 1e-12), lo, hi, hi * (1 + 1e-12)])
        xs, ys = rs * c, rs * s
        want = ref.band_kappas("left", window, xs, ys)
        assert np.all(np.abs(want - REGION_CUT) < 1e-13)
        got = _SectionKappa(op, window).values(xs, ys)
        _assert_shift_agrees(op, window, xs, ys, got, want)


def test_fmt_array_prints_values_past_the_rounding_range():
    # rounding to 12 places scales by 1e12, which overflows past about 1e296
    values = np.array([1e300, -1.5e305, 2.5e296, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fmt_array(values) == ["1e+300", "-1.5e+305", "2.5e+296", "0.25"]


def test_decided_rounds_as_the_csv_prints():
    # x is a hair past the half-way point -0.5507484141545: Python's round
    # gives ...155, and numpy's, which the CSV prints with, ...154
    x = -0.5507484141545
    below, above = np.nextafter(x, -1.0), np.nextafter(x, 0.0)
    assert _fmt(x) != _fmt(np.float64(x))
    values = np.concatenate([[below, x, above, 0.0, -0.0, 5e-13, -5e-13],
                             np.random.default_rng(7).uniform(-2.0, 2.0, 20000)])
    assert _fmt_array(values) == [_fmt(v) for v in values]
    portrait = SlicePortrait(grid=GridSpec(0.0, 1.0, 1.0, 3, 1), window=3,
                             norm_scale=1.0, values=np.array([[below, x, above]]))
    printed = [line.split(",")[2] for line in portrait.csv_lines()[1:]]
    assert printed == ["-0.550748414155", "-0.550748414154", "-0.550748414154"]
    # [x, above] prints one value, [below, x] two
    got = _decided(np.array([x, below]), np.array([above, x]), 0.0)
    assert got.tolist() == [True, False]


def test_inverse_series_is_the_array_recurrence():
    # step by step into the transposed series, bit for bit the recurrence
    # run column by column on the (points, cols) array, and as contiguous,
    # up to a full chunk of points; rows that overflow, and q = 0, stay
    # non-finite
    rng = np.random.default_rng(5)
    r, t = rng.uniform(0.3, 0.99, 257), rng.uniform(0.0, math.pi, 257)
    xs = np.concatenate([[0.0, 1e-200, 1e-100], r * np.cos(t)])
    ys = np.concatenate([[0.0, 0.0, 0.0], r * np.sin(t)])
    r2 = xs * xs + ys * ys
    for cols in (2, 3, 94, 158):
        want = np.empty((len(xs), cols))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            want[:, 0] = 1.0 / r2
            want[:, 1] = 2.0 * xs * want[:, 0] / r2
            for k in range(2, cols):
                want[:, k] = (2.0 * xs * want[:, k - 1] - want[:, k - 2]) / r2
        got = spectral._inverse_series(xs, r2, cols)
        assert got.flags.c_contiguous
        finite = np.all(np.isfinite(want), axis=1)
        assert np.array_equal(np.all(np.isfinite(got), axis=1), finite)
        assert not finite[:2].any() and finite[2] == (cols == 2) and finite[3:].all()
        assert got[finite].tobytes() == want[finite].tobytes()


def _decided_by_strings(lo, hi, cut):
    """``_decided`` as it reads without the numeric screen: every pair printed."""
    same = np.array([a == b for a, b in zip(_fmt_array(lo), _fmt_array(hi))], dtype=bool)
    return same & ((hi <= cut) | (lo > cut))


def test_decided_screen_matches_the_string_rule():
    rng = np.random.default_rng(11)
    # random pairs, from equal ends to widths far past the 12th decimal
    lo = rng.uniform(-3.0, 3.0, 4000) * 10.0 ** rng.integers(-14, 4, 4000)
    hi = lo + np.abs(lo) * 10.0 ** rng.uniform(-18.0, -8.0, 4000) * rng.integers(0, 2, 4000)
    # and pairs around the screen's edge, ends 1e-11 of the larger apart
    near = rng.uniform(-3.0, 3.0, 4000) * 10.0 ** rng.integers(-2, 4, 4000)
    lo = np.concatenate([lo, near])
    hi = np.concatenate([hi, near * (1.0 + 10.0 ** rng.uniform(-11.5, -10.5, 4000))])
    # adversarial ends: one ulp either side of a 12-decimal half-way point,
    # signed zeros, nan, infinities, and values where np.round overflows
    x = -0.5507484141545
    below, above = np.nextafter(x, -1.0), np.nextafter(x, 0.0)
    special = np.array([x, below, above, 0.0, -0.0, 5e-13, -5e-13, 4.9e-13, np.nan,
                        np.inf, -np.inf, 1e296, 2.5e296, -1.5e305, 1e300,
                        np.nextafter(1e300, np.inf), 1.7976931348623157e308])
    pairs = np.array([(a, b) for a in special for b in special]).T
    lo, hi = np.concatenate([lo, pairs[0]]), np.concatenate([hi, pairs[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cut in (0.0, REGION_CUT, 1e300):
            got = _decided(lo, hi, cut)
            assert np.array_equal(got, _decided_by_strings(lo, hi, cut)), cut
    assert got.any() and not got.all()


#: left-shift points off the real axis with |q| in [1.05, 1.8], where the
#: smallest singular values come in close pairs (the conjugate roots of p);
#: the angle pi / 2 puts a column at x = cos(pi / 2), zero to rounding
_PAIR_R, _PAIR_T = np.meshgrid(np.linspace(1.05, 1.8, 6), np.linspace(0.15, math.pi - 0.15, 7))
NEAR_PAIRS = (_PAIR_R * np.cos(_PAIR_T)).ravel(), (_PAIR_R * np.sin(_PAIR_T)).ravel()
#: real-axis points with |q| in [1.0, 1.05], where the lowest modes cluster
#: and the Gram's smallest eigenvalue sits near its rounding level
_REAL = np.linspace(1.0, 1.05, 6)
NEAR_CIRCLE = np.concatenate([_REAL, -_REAL]), np.zeros(2 * len(_REAL))
STRESS_WINDOWS = (96, 128, 151, 160)


@pytest.mark.parametrize("window", STRESS_WINDOWS)
@pytest.mark.parametrize("points", [NEAR_PAIRS, NEAR_CIRCLE], ids=["near-pairs", "near-circle"])
def test_symbol_route_left_shift_stress_points(window, points):
    op = ShiftOperator("left")
    xs, ys = points
    got = _SectionKappa(op, window).values(xs, ys)
    _assert_shift_agrees(op, window, xs, ys, got, ref.band_kappas(op.side, window, xs, ys))


@pytest.mark.parametrize("window", STRESS_WINDOWS)
@pytest.mark.parametrize("points", [NEAR_PAIRS, NEAR_CIRCLE], ids=["near-pairs", "near-circle"])
def test_right_shift_one_secular_solve_matches_two(window, points):
    # the odd and even modes in one stacked solve, the shorter parity padded
    # with a pole at +inf of weight 0, against one solve per parity: not bit
    # for bit (the sums group differently), but within two ulps of kappa,
    # far inside the route's error bound (measured: at most one ulp)
    op = ShiftOperator("right")
    xs, ys = points
    cols = window - op.section_margin
    c, s = spectral._sine_modes(cols)
    d, r2 = spectral._symbol(c, s, xs, ys), xs * xs + ys * ys
    w = np.broadcast_to((4.0 / (cols + 1)) * s * s, d.shape)
    two = np.minimum(spectral._secular_min(d[:, 0::2], w[:, 0::2], r2),
                     spectral._secular_min(d[:, 1::2], w[:, 1::2], r2))
    one, two = np.sqrt(spectral._right_gram_min(c, s, d, r2)), np.sqrt(two)
    scale = 1.0 + 2.0 * np.abs(xs) + r2
    assert np.all(np.abs(one - two) <= 2.0 * np.spacing(np.maximum(one, two)))
    assert np.all(np.abs(one - two) <= _RIGHT_ERR * spectral._EPS * scale)


@pytest.mark.parametrize("window", STRESS_WINDOWS)
@pytest.mark.parametrize("points", [NEAR_PAIRS, NEAR_CIRCLE], ids=["near-pairs", "near-circle"])
def test_symbol_route_right_shift_stress_points(window, points):
    op = ShiftOperator("right")
    xs, ys = points
    got = _SectionKappa(op, window).values(xs, ys)
    _assert_shift_agrees(op, window, xs, ys, got, ref.band_kappas(op.side, window, xs, ys))


#: the points where one SVD per point was measured farthest from kappa (40
#: digits), in eps (1 + 2|x| + r2): (side, W, x, y, that error); the band
#: lies within 0.71 of kappa at each
SVD_WORST_POINTS = (
    ("right", 151, math.cos(math.pi / 2) * 1.5, 1.5, 6.96),
    ("right", 257, 1e-16, 2.0, 13.05),
    ("left", 96, 1e-12, 2.0, 2.89),
    ("left", 32, 1.0, 3.16e5, 28.9),
)
#: the largest error of one SVD per point on those points and the stress sets
_SVD_ERR = 29.0


@pytest.mark.parametrize("side", ["left", "right"])
def test_band_lies_near_one_svd_per_point(side):
    # the two routes within the sum of their measured errors, on the stress
    # sets, the worst points and a grid through the disc
    op = ShiftOperator(side)
    grid = GridSpec(-1.4, 1.3, 1.2, 7, 5)
    xs, ys = np.broadcast_arrays(grid.xs()[None, :], grid.ys()[:, None])
    sets = [(window, *points) for window in STRESS_WINDOWS for points in (NEAR_PAIRS, NEAR_CIRCLE)]
    sets += [(window, np.array([x]), np.array([y])) for _, window, x, y, _ in SVD_WORST_POINTS]
    sets.append((40, xs.ravel(), ys.ravel()))
    for window, xs, ys in sets:
        got = _SectionKappa(op, window)._banded(xs, ys)
        want = ref.section_kappas(op, window, xs, ys)
        scale = 1.0 + 2.0 * np.abs(xs) + xs * xs + ys * ys
        assert np.all(np.abs(got - want) <= (_BAND_ERR + _SVD_ERR) * spectral._EPS * scale)


def test_band_error_bound_holds_against_40_digits():
    # kappa to 40 digits lies within _BAND_ERR eps (1 + 2|x| + r2) of the
    # band at the points where one SVD per point lies farthest from it, at
    # the stress sets of W = 151 and at two large-|q| points, but not of that SVD
    pytest.importorskip("mpmath")
    points = [(side, window, x, y) for side, window, x, y, _ in SVD_WORST_POINTS]
    for side in ("left", "right"):
        for xs, ys in (NEAR_PAIRS, NEAR_CIRCLE):
            points += [(side, 151, float(x), float(y)) for x, y in zip(xs, ys)]
        points += [(side, 97, 0.0316, 1e4), (side, 32, -1.0, 3.16e5)]
    for side, window, x, y in points:
        value = float(_SectionKappa(ShiftOperator(side), window)._banded(
            np.array([x]), np.array([y]))[0])
        assert ref.kappa_within(side, window, x, y, value, _BAND_ERR), (side, window, x, y)
    for side, window, x, y, _ in SVD_WORST_POINTS:
        value = float(ref.section_kappas(ShiftOperator(side), window, x, y))
        assert not ref.kappa_within(side, window, x, y, value, _BAND_ERR), (side, window, x, y)


#: points where the band lies farther than _BAND_ERR from kappa (40 digits),
#: in eps (1 + 2|x| + r2): near the imaginary axis and near q = 0 its error
#: grows with W (20.2 and 29.4 at these points), and past |q| of about 1e3
#: with |q| (15.3 here); the symbol routes decide all three, so there a
#: certificate against the band is off
BAND_ERR_EXCEEDED = (("right", 254, 1e-9, 2.444), ("right", 254, 1e-7, 0.0),
                     ("right", 374, 7320.154020977144, 5638.170175530907))


@pytest.mark.xfail(strict=True, reason="the band's error exceeds _BAND_ERR off the measured sets")
@pytest.mark.parametrize("point", BAND_ERR_EXCEEDED, ids=["near-axis", "near-origin", "large-q"])
def test_band_error_bound_off_the_measured_sets(point):
    pytest.importorskip("mpmath")
    side, window, x, y = point
    value = float(_SectionKappa(ShiftOperator(side), window)._banded(np.array([x]), np.array([y]))[0])
    assert ref.kappa_within(side, window, x, y, value, _BAND_ERR)


def test_left_gram_takes_a_bounded_number_of_probes(monkeypatch):
    # close pairs and real-axis clusters take O(1) steps each, so a batch
    # of points takes a bounded number of probes
    probes, per_call = [0], []
    probe, gram_min = spectral._LeftGram.probe, spectral._left_gram_min

    def counted_probe(self, mu, k):
        probes[0] += 1
        return probe(self, mu, k)

    def counted_min(*args):
        start = probes[0]
        out = gram_min(*args)
        per_call.append(probes[0] - start)
        return out

    monkeypatch.setattr(spectral._LeftGram, "probe", counted_probe)
    monkeypatch.setattr(spectral, "_left_gram_min", counted_min)
    for window in STRESS_WINDOWS:
        for xs, ys in (NEAR_PAIRS, NEAR_CIRCLE):
            _SectionKappa(ShiftOperator("left"), window).values(xs, ys)
    assert len(per_call) == 2 * len(STRESS_WINDOWS)
    assert np.mean(per_call) <= 8 and max(per_call) <= 12, per_call
    # the left-shift benchmark requests, whose real-axis points with large
    # |x| put a cluster of weakly coupled modes at the bottom of the symbol
    per_call.clear()
    for req in _gate_requests():
        if req.expect["side"] == "left":
            _SectionKappa(ShiftOperator("left"), req.expect["window"]).values(
                req.expect["xs"][None, :], req.expect["ys"][:, None])
    assert len(per_call) == 55
    assert np.mean(per_call) <= 8 and max(per_call) <= 12, per_call


def _left_gram_points(name):
    """(xs, ys, cols) of points the left Gram route takes: the stress sets at
    W = 128, and the symbol-route points of the first left-shift benchmark
    request of seed 51."""
    if name == "near-pairs":
        return (*NEAR_PAIRS, 126)
    if name == "near-circle":
        return (*NEAR_CIRCLE, 126)
    req = next(r for r in _gate_requests() if r.expect["side"] == "left")
    xs, ys = np.broadcast_arrays(req.expect["xs"][None, :], req.expect["ys"][:, None])
    xs, ys, cols = xs.ravel(), ys.ravel(), req.expect["window"] - 2
    r2 = xs * xs + ys * ys
    route = (r2 >= 1.0) & (np.abs(xs) > spectral._NEAR_AXIS * spectral._EPS * r2 * (cols + 1))
    return xs[route], ys[route], cols


@pytest.mark.parametrize("name", ["near-pairs", "near-circle", "benchmark"])
def test_left_gram_rows_are_independent(name):
    # _left_gram_min drops settled points with take(), so each point's probe,
    # count and error must not depend on the points beside it: a taken
    # Gram gives exactly those rows of the whole batch's results
    xs, ys, cols = _left_gram_points(name)
    c, s = spectral._sine_modes(cols)
    gram = spectral._LeftGram(c, s, spectral._symbol(c, s, xs, ys), xs, xs * xs + ys * ys)
    count = len(xs)
    assert count >= 12
    keeps = (np.arange(count) % 2 == 0, np.flatnonzero(np.arange(count) % 3 != 1),
             np.array([count // 2]))
    # _left_gram_min's first probe, just below d_(2), and one between d_(1) and d_(2)
    for mu, k in ((gram.d[:, 1] * (1.0 - 8.0 * spectral._EPS), np.ones(count, dtype=int)),
                  (0.5 * (gram.d[:, 0] + gram.d[:, 1]), np.zeros(count, dtype=int))):
        below, model = gram.probe(mu, k)
        assert np.isfinite(model).all()
        counts, clear = gram.count(mu)
        spread = gram.error(mu)
        for keep in keeps:
            sub = gram.take(keep)
            sub_below, sub_model = sub.probe(mu[keep], k[keep])
            assert np.array_equal(sub_below, below[keep])
            assert sub_model.tobytes() == model[:, keep].tobytes()
            sub_counts, sub_clear = sub.count(mu[keep])
            assert np.array_equal(sub_counts, counts[keep])
            assert np.array_equal(sub_clear, clear[keep])
            assert sub.error(mu[keep]).tobytes() == spread[keep].tobytes()


def test_symbol_route_left_shift_gate_requests():
    # every fifth left-shift benchmark request of seed 51, 9 x 5 points at
    # W = 96 ... 160: the fast path against one banded solve per point
    op = ShiftOperator("left")
    left = [req for req in _gate_requests() if req.expect["side"] == "left"]
    assert len(left) == 55
    for req in left[::5]:
        window = req.expect["window"]
        xs, ys = req.expect["xs"][None, :], req.expect["ys"][:, None]
        got = _SectionKappa(op, window).values(xs, ys)
        _assert_shift_agrees(op, window, xs, ys, got, ref.band_kappas(op.side, window, xs, ys))


def test_shift_portraits_leave_scipy_unloaded():
    # the symbol kernels run on numpy alone, and the band on scipy's
    # ``_flapack`` loaded by file path, so a portrait pays neither scipy's
    # import time nor its memory
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectral.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import contextlib, io, sys\n"
        "from qspec import cli, spectral\n"
        "from qspec.operators import ShiftOperator\n"
        "grid = spectral.GridSpec(-1.2, 1.2, 1.5, 3, 3)\n"
        "hard = 0\n"
        "for side in ('left', 'right'):\n"
        "    hard += spectral.portrait(ShiftOperator(side), grid, window=40).hard_cells\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['portrait', '--op', f'shift:{side}',\n"
        "                         '--grid=-1.2,1.2,1.5,3x3', '--window', '40']) == 0\n"
        "print(hard, any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    hard, scipy_loaded = proc.stdout.split()
    # the left shift's x = 0, |q| > 1 cell takes the band
    assert int(hard) >= 1
    assert scipy_loaded == "False"


def _workloads():
    """The benchmark's own request builders, ``perfbench/workloads.py``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("qspec_bench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return workloads


def _gate_requests():
    """The ``portrait`` benchmark requests of seed 51."""
    return _workloads().build_portrait(np.random.default_rng([51, 2]), "")


def test_gate_requests_print_the_per_point_csv():
    from qspec import cli

    requests = _gate_requests()
    for req in requests[:6] + requests[-6:]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(req.argv) == 0
        side, window = req.expect["side"], req.expect["window"]
        xs, ys = req.expect["xs"], req.expect["ys"]
        grid = GridSpec(float(xs[0]), float(xs[-1]), float(ys[-1]), len(xs), len(ys))
        want = ref.band_kappas(side, window, xs[None, :], ys[:, None])
        p = SlicePortrait(grid=grid, window=window, norm_scale=1.0, values=want)
        assert out.getvalue() == "\n".join(p.csv_lines()) + "\n"


def test_shift_section_norm_is_one():
    for n in (4, 5, 17, 64, 199, 256):
        for side in ("left", "right"):
            op = ShiftOperator(side)
            assert op_norm(op.finite_section(n)) == 1.0
            assert _SectionKappa(op, n).norm_scale() == 1.0


def test_window_none_means_the_default_window():
    g = GridSpec(-1.2, 1.2, 1.0, 5, 3)
    for side in ("left", "right"):
        p = portrait(ShiftOperator(side), g)
        assert p.window == spectral.DEFAULT_WINDOW == 128
        assert np.array_equal(p.values, portrait(ShiftOperator(side), g, window=128).values)


@pytest.mark.parametrize("window", [0, 3, -4])
def test_small_windows_rejected_for_infinite_operators(window):
    g = GridSpec(-1.0, 1.0, 1.0, 3, 2)
    with pytest.raises(ValueError, match="at least 4"):
        portrait(ShiftOperator("right"), g, window=window)
    with pytest.raises(ValueError, match="at least 4"):
        window_kappa(ShiftOperator("left"), Quaternion(0.5), window)
    # a finite operator is probed on its whole matrix whatever the window
    dense = _dense_operators()["quaternionic"]
    assert portrait(dense, g, window=window).window == 3
