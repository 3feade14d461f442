"""The LAPACK wrappers behind the Schur decomposition: scipy's ``_flapack``
loaded by file path, cross-tested bit for bit against the slow reference
route through ``scipy.linalg``."""

import importlib.machinery

import numpy as np
import pytest
import scipy.linalg
from test_golden import COUNT, build_case

from qspec import io, qlinalg
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
