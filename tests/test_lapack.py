"""The LAPACK wrappers behind the Schur decomposition and the shift
portrait's banded solve: scipy's ``_flapack`` loaded by file path,
cross-tested bit for bit against the slow reference route through
``scipy.linalg``."""

import importlib.machinery

import numpy as np
import pytest
import scipy.linalg
from test_golden import COUNT, build_case

from qspec import io, localspec, qlinalg, spectral
from qspec.errors import NumericalError
from qspec.operators import DenseOperator, ShiftOperator
from qspec.qlinalg import spectral_decomposition

#: a grid whose x = 0 column holds left-shift cells with |q| > 1, which the
#: symbol route leaves to the band
HARD_GRID = spectral.GridSpec(-1.2, 1.2, 1.5, 5, 4)


@pytest.fixture
def routes(monkeypatch):
    """(direct, fallback): what ``_lapack()`` gives, and what it gives when
    loading by path fails."""
    lapack = qlinalg._lapack
    lapack.cache_clear()
    direct = lapack()
    monkeypatch.setattr(qlinalg, "_flapack", lambda: None)
    lapack.cache_clear()
    fallback = lapack()
    monkeypatch.undo()
    lapack.cache_clear()
    yield direct, fallback
    lapack.cache_clear()


def test_loader_gives_none_without_the_file_or_a_routine(monkeypatch):
    # the shift portrait's dsbevx is one of them, so a _flapack without it
    # falls back as a whole
    assert "dsbevx" in qlinalg._LAPACK_ROUTINES
    monkeypatch.setattr(qlinalg, "_LAPACK_ROUTINES", qlinalg._LAPACK_ROUTINES + ("zmissing",))
    assert qlinalg._flapack() is None
    monkeypatch.undo()
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    assert qlinalg._flapack() is None


def _case_matrix(idx: int) -> tuple[str, qlinalg.QMatrix]:
    name, op, text, _ = build_case(idx)
    if op == "dense":
        return name, io.parse_qmat(text)
    fn = io.parse_qfun(text)
    return name, fn.finite_section(fn.dim)


def test_fallback_route_matches_direct_on_golden_inputs(routes, monkeypatch):
    direct, fallback = routes
    assert direct.__name__ == "qspec._flapack" and fallback is scipy.linalg.lapack
    assert direct.zgees is not fallback.zgees
    for idx in range(COUNT):
        got = []
        for lapack in (direct, fallback):
            monkeypatch.setattr(qlinalg, "_lapack", lambda lapack=lapack: lapack)
            # one parse per route: a matrix keeps its first decomposition
            name, a = _case_matrix(idx)
            dec = spectral_decomposition(a)    # ztrtri inverts W here
            # the decomposition keeps no T: a fresh one, on this route
            got.append((dec, qlinalg._schur(dec.m)[0]))
        (d, d_t), (f, f_t) = got
        assert np.array_equal(d_t, f_t), f"{name}: t"
        fields = ("z", "w", "inverse", "exact", "singular_values") + (
            ("factors", "split", "bounds") if d.z is not None else ())
        for field in fields:
            got, want = getattr(d, field), getattr(f, field)
            for x, y in zip(*((got, want) if isinstance(got, tuple) else ((got,), (want,)))):
                assert np.array_equal(x, y), f"{name}: {field}"
        assert d.spheres == f.spheres, name
        assert d.multiplicities == f.multiplicities, name
    hard = 0
    for side in ("left", "right"):
        got = []
        for lapack in (direct, fallback):
            monkeypatch.setattr(qlinalg, "_lapack", lambda lapack=lapack: lapack)
            got.append(spectral.portrait(ShiftOperator(side), HARD_GRID, window=40))
        d, f = got
        assert d.hard_cells == f.hard_cells and d.values.tobytes() == f.values.tobytes()
        hard += d.hard_cells
    assert hard >= 1


@pytest.mark.parametrize("n", [1, 2, 7, 28])
def test_zgees_matches_scipy_schur(routes, monkeypatch, n):
    rng = np.random.default_rng([11, n])
    inputs = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
              rng.normal(size=(n, n)))    # a real C_i block goes through as complex
    for lapack in routes:
        monkeypatch.setattr(qlinalg, "_lapack", lambda lapack=lapack: lapack)
        for m in inputs:
            before = m.copy()
            t, z = qlinalg._schur(m)
            want_t, want_z = scipy.linalg.schur(m, output="complex")
            assert np.array_equal(t, want_t) and np.array_equal(z, want_z)
            assert np.array_equal(m, before)


#: the calls that ``classify`` and ``decomposability_necessary`` make on three
#: golden matrices, one of each kind of ``matrix`` benchmark request, and on
#: the validator's size-3 Jordan input: (zgees, ztrsen, ztrsyl, ztrtri, numpy
#: SVD).  zgees runs twice per Schur form, a workspace query first, and
#: ztrtri inverts W once, for the bounds on R_q's values and the projection
#: factors.  The SVDs are the growth bounds' stacked one and one per width of
#: the projections' conditions; R_q takes one only for spheres the bounds
#: leave open, which on the Jordan input are its Jordan sphere and the one
#: beside it, each read in its own call.  A change that keeps the input bits
#: of every call, as the output gate's digests require, keeps these counts.
#: A diagonal input reads its decomposition, growth bounds and coordinate
#: projections off its entries: it makes no LAPACK call and no SVD.
CLASSIFY_CALLS = {
    "g06-generic-dense-n9": (2, 1, 15, 1, 2),
    "g08-imaginary-dense-n11": (2, 2, 7, 1, 4),
    "g10-repeated-mult-n13": (0, 0, 0, 0, 0),
    "jordan3": (2, 1, 8, 1, 5),
}


def _pinned_matrix(name: str) -> tuple[str, qlinalg.QMatrix]:
    if name == "jordan3":
        from test_decomposition import VALIDATOR_INPUTS
        return next((label, a) for label, a in VALIDATOR_INPUTS if label == name)
    return _case_matrix(int(name[1:3]))


@pytest.mark.parametrize("name", sorted(CLASSIFY_CALLS))
def test_classify_makes_the_recorded_lapack_calls(name, monkeypatch):
    calls = dict.fromkeys(("zgees", "ztrsen", "ztrsyl", "ztrtri", "svd"), 0)
    lapack, svd = qlinalg._lapack(), np.linalg.svd

    def counted(key, routine):
        def call(*args, **kwargs):
            calls[key] += 1
            return routine(*args, **kwargs)
        return call

    class Counted:
        def __getattr__(self, attr):
            routine = getattr(lapack, attr)
            return counted(attr, routine) if attr in calls else routine

    monkeypatch.setattr(qlinalg, "_lapack", Counted)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    got_name, a = _pinned_matrix(name)
    assert got_name == name
    a = qlinalg.QMatrix(a.c1, a.c2)    # a matrix of its own, with no decomposition kept
    spectral.classify(a)
    localspec.decomposability_necessary(a)
    assert tuple(calls.values()) == CLASSIFY_CALLS[name]
    dec = spectral_decomposition(a)
    # the SVDs of R_q that were taken: none unless the bounds left a sphere open
    assert (sorted(dec._exact) if dec.z is not None else []) == ([1, 2] if name == "jordan3" else [])


def _count_calls(monkeypatch, names) -> dict[str, int]:
    """Count the calls to the LAPACK routines ``names`` and numpy's SVD."""
    calls = dict.fromkeys((*names, "svd"), 0)
    lapack, svd = qlinalg._lapack(), np.linalg.svd

    def counted(key, routine):
        def call(*args, **kwargs):
            calls[key] += 1
            return routine(*args, **kwargs)
        return call

    class Counted:
        def __getattr__(self, attr):
            routine = getattr(lapack, attr)
            return counted(attr, routine) if attr in calls else routine

    monkeypatch.setattr(qlinalg, "_lapack", Counted)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    return calls


@pytest.mark.parametrize("side", ["left", "right"])
def test_shift_portrait_makes_one_dsbevx_call_per_hard_cell(side, monkeypatch):
    calls = _count_calls(monkeypatch, ("dsbevx",))
    p = spectral.portrait(ShiftOperator(side), HARD_GRID, window=40)
    if side == "left":
        assert p.hard_cells >= 1
    assert (calls["dsbevx"], calls["svd"]) == (p.hard_cells, 0)


def test_a_failed_band_solve_raises(monkeypatch):
    lapack = qlinalg._lapack()

    class Failing:
        def __getattr__(self, attr):
            return getattr(lapack, attr)

        @staticmethod
        def dsbevx(*args, **kwargs):
            w, z, found, ifail, _ = lapack.dsbevx(*args, **kwargs)
            return w, z, found, ifail, 3

    monkeypatch.setattr(qlinalg, "_lapack", Failing)
    with pytest.raises(NumericalError, match="dsbevx info 3"):
        spectral.portrait(ShiftOperator("left"), HARD_GRID, window=40)


def test_dense_portrait_makes_its_stacked_svds(monkeypatch):
    calls = _count_calls(monkeypatch, ("dsbevx",))
    _, a = _case_matrix(6)
    grid = spectral.GridSpec(-2.0, 2.0, 3.0, 37, 29)
    p = spectral.portrait(DenseOperator(a), grid, window=None)
    # one stacked SVD per block of 2^13 // (2n)^2 points, and one for the norm
    per_block = (1 << 13) // (2 * a.rows) ** 2
    blocks = -(-grid.nx * grid.ny // per_block)
    assert blocks > 1 and p.hard_cells == 0
    assert (calls["dsbevx"], calls["svd"]) == (0, blocks + 1)
