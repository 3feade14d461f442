"""The LAPACK wrappers behind the Schur decomposition: scipy's ``_flapack``
loaded by file path, cross-tested bit for bit against the slow reference
route through ``scipy.linalg``."""

import importlib.machinery

import numpy as np
import pytest
import scipy.linalg
from test_golden import COUNT, build_case

from qspec import io, localspec, qlinalg, spectral
from qspec.qlinalg import spectral_decomposition


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
            dec = spectral_decomposition(a)
            dec.factors    # ztrtri, while this route is in place
            got.append(dec)
        d, f = got
        for field in ("t", "z", "w", "singular_values", "factors"):
            assert np.array_equal(getattr(d, field), getattr(f, field)), f"{name}: {field}"
        assert d.spheres == f.spheres, name
        assert d.multiplicities == f.multiplicities, name


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
#: golden matrices, one of each kind of ``matrix`` benchmark request: (zgees,
#: ztrsen, ztrsyl, numpy SVD).  zgees runs twice per Schur form, a workspace
#: query first.  A change that keeps the input bits of every call, as the
#: output gate's digests require, keeps these counts.
CLASSIFY_CALLS = {
    "g06-generic-dense-n9": (2, 1, 15, 3),
    "g08-imaginary-dense-n11": (2, 2, 7, 3),
    "g10-repeated-mult-n13": (2, 4, 6, 3),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_CALLS))
def test_classify_makes_the_recorded_lapack_calls(name, monkeypatch):
    calls = dict.fromkeys(("zgees", "ztrsen", "ztrsyl", "svd"), 0)
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
    idx = int(name[1:3])
    got_name, a = _case_matrix(idx)
    assert got_name == name
    report = spectral.classify(a)
    localspec.decomposability_necessary(a, report=report)
    assert (calls["zgees"], calls["ztrsen"], calls["ztrsyl"], calls["svd"]) == CLASSIFY_CALLS[name]
