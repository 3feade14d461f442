"""The one Schur decomposition behind spectrum, classify, projections and
local spectra: cross-tested against the eigvals route it replaced
(``spectral_reference``), and regression inputs that split that route."""

import math

import numpy as np
import pytest
import spectral_reference as ref

from qspec import localspec, rand, spectral
from qspec.errors import NumericalError
from qspec.operators import MultiplicationOperator
from qspec.qlinalg import (QMatrix, QVector, _left_eigenvectors, op_norm,
                           spectral_decomposition)
from qspec.quat import EigenSphere, SliceUnit, slice_compose


def _chi(c1, c2):
    return np.block([[c1, c2], [-np.conj(c2), np.conj(c1)]])


def _conditioned_similarity(rng, d: np.ndarray, c2: np.ndarray | None = None) -> QMatrix:
    """S D S^-1 for D = d + c2 j, with a random quaternionic S of cond(chi S) <= 30."""
    n = d.shape[0]
    c2 = np.zeros_like(d) if c2 is None else c2
    while True:
        s = rng.normal(size=(n, n, 4)) / math.sqrt(4 * n)
        s[:, :, 0] += np.eye(n)
        chi_s = _chi(s[:, :, 0] + 1j * s[:, :, 1], s[:, :, 2] + 1j * s[:, :, 3])
        if np.linalg.cond(chi_s) <= 30.0:
            break
    m = chi_s @ _chi(d, c2) @ np.linalg.inv(chi_s)
    return QMatrix(m[:n, :n], m[:n, n:])


def _unit(rng) -> SliceUnit:
    v = rng.normal(size=3)
    return SliceUnit(*(v / np.linalg.norm(v)))


def _planted(rng, n: int, spectrum: str) -> QMatrix:
    """Like the matrix benchmark: generic, repeated or imaginary spheres on
    random slices, under a similarity of condition <= 30."""
    if spectrum == "generic":
        spheres = [(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 2))) for _ in range(n)]
    else:
        distinct = int(rng.integers(2, n // 2 + 1))
        spheres = [(0.0 if spectrum == "imaginary" else -2.0 + 4.0 * (k + 0.5) / distinct,
                    float(rng.uniform(0.2, 3.0))) for k in range(distinct)]
        spheres = [spheres[int(rng.integers(distinct))] if k >= distinct else spheres[k]
                   for k in range(n)]
    entries = [slice_compose(re, im, _unit(rng)) for re, im in spheres]
    diag = QMatrix.diag(entries)
    return _conditioned_similarity(rng, np.asarray(diag.c1), np.asarray(diag.c2))


def _inputs():
    """(label, matrix) pairs over every input family the route must match."""
    out = []
    for k in range(8):
        rng = rand.generator(61, k)
        n = 2 + k % 7
        a = rand.rand_qmatrix(rng, n, n)
        out.append((f"dense{k}", a))
        comps = a.to_components()
        comps[..., 1:] = 0.0
        out.append((f"real{k}", QMatrix.from_components(comps)))
        comps = a.to_components()
        comps[..., 2:] = 0.0
        out.append((f"slice{k}", QMatrix.from_components(comps)))
        values = [rand.rand_quaternion(rng, 1.5) for _ in range(1 + k % 3)]
        reps = [slice_compose(values[j % len(values)].w, values[j % len(values)].imag_norm(),
                              _unit(rng)) for j in range(n + 1)]
        out.append((f"repeated-diag{k}", QMatrix.diag(reps)))
        op = MultiplicationOperator([f"x{j}" for j in range(n + 2)],
                                    [rand.rand_quaternion(rng, 1.5) for _ in range(n + 2)])
        out.append((f"mult{k}", op.as_qmatrix()))
    for k in range(9):
        rng = np.random.default_rng([71, k])
        spectrum = ("generic", "repeated", "imaginary")[k % 3]
        out.append((f"planted-{spectrum}{k}", _planted(rng, 8 + k % 7, spectrum)))
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("label,a", INPUTS, ids=[lab for lab, _ in INPUTS])
def test_decomposition_matches_reference_route(label, a):
    got = spectral.classify(a)
    want = ref.classify(a)
    assert got.to_lines() == want.to_lines()
    assert [spectral._fmt(x) for s in spectral.s_spectrum(a) for x in s.key()] == \
        [spectral._fmt(x) for s in ref.eigen_spheres(a) for x in s.key()]
    assert got.coincident == want.coincident
    proj = localspec.spectral_projections(a, got.decomposition)
    old = ref.projection_set(a)
    assert proj.multiplicities == old.multiplicities
    assert proj.certified == old.certified
    for p, q in zip(proj.projections, old.projections):
        assert op_norm(p - q) <= 1e-10


def test_decomposition_is_read_by_every_consumer():
    a = INPUTS[0][1]
    rep = spectral.classify(a)
    proj = localspec.spectral_projections(a, rep.decomposition)
    assert proj.spheres is rep.decomposition.spheres
    loc = localspec.local_spectrum(a, QVector.basis(a.rows, 0), projections=proj)
    assert all(any(s is t for t in rep.spheres) for s in loc)


def _jordan(k: int, lam: complex) -> np.ndarray:
    d = np.diag([lam] * k + [-1.0, 1.3 + 0.4j]).astype(complex)
    for i in range(k - 1):
        d[i, i + 1] = 1.0
    return d


@pytest.mark.parametrize("lam", [0.5, 0.5 + 0.8j], ids=["real", "nonreal"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_jordan_blocks_under_similarity(k, lam):
    # a size-k block splits its eigenvalue by about eps^(1/k); the spheres,
    # multiplicities, projections and local spectra must not see that
    planted = sorted([(lam.real, abs(lam.imag), k), (-1.0, 0.0, 1), (1.3, 0.4, 1)])
    for seed in range(8):
        rng = np.random.default_rng([seed, k, int(lam.imag * 10)])
        a = _conditioned_similarity(rng, _jordan(k, lam))
        rep = spectral.classify(a)
        proj = localspec.spectral_projections(a, rep.decomposition)
        got = [(s.re, s.im, m) for s, m in zip(proj.spheres, proj.multiplicities)]
        assert len(got) == 3, (seed, got)
        for (re, im, m), (pre, pim, pm) in zip(got, planted):
            assert m == pm and abs(re - pre) < 1e-9 and abs(im - pim) < 1e-9, (seed, got)
        # the Jordan sphere prints as planted: a real one with im 0
        assert f"{spectral._fmt(lam.real)} {spectral._fmt(abs(lam.imag))} p a c s" \
            in rep.to_lines()
        # ker R_q is the whole block only for a real sphere with k <= 2,
        # since R_q = (A - q)^2 there
        assert proj.certified == (k == 2 and lam.imag == 0)
        assert rep.coincident
        phi = QVector.from_components(rng.normal(size=(a.rows, 4)))
        assert set(localspec.local_spectrum(a, phi, projections=proj)) <= set(rep.spheres)
        assert localspec.decomposability_necessary(a, report=rep).status == "PASS"


@pytest.mark.parametrize("gap", [3e-8, 1e-7, 3e-7, 1e-6])
def test_close_sphere_pair_splits_cleanly(gap):
    for seed in range(8):
        rng = np.random.default_rng([seed, 99])
        d = np.diag([0.3 + 0.7j, 0.3 + gap + 0.7j, -0.8 + 0.2j, 1.1]).astype(complex)
        a = _conditioned_similarity(rng, d)
        spheres = spectral.s_spectrum(a)
        assert len(spheres) == 4
        proj = localspec.spectral_projections(a)
        assert proj.certified and proj.multiplicities == (1, 1, 1, 1)
        assert max(proj.conditions) <= 30.0
        phi = QVector.from_components(rng.normal(size=(4, 4)))
        assert set(localspec.local_spectrum(a, phi, projections=proj)) <= set(spheres)
        one = localspec.local_subspace(a, spheres[1:2], projections=proj)
        assert one.dim == 1


def test_every_build_counts_n_with_at_most_n_spheres():
    for label, a in INPUTS:
        dec = spectral_decomposition(a)
        assert len(dec.spheres) <= a.rows, label
        assert sum(dec.multiplicities) == a.rows, label


def test_ill_separated_eigenvalues_share_a_block():
    # the eigenvalues 1 and 1 + 1e-4 are 1e-4 apart, but splitting them
    # needs a Sylvester solution of norm 1e12: one block, one sphere
    a = QMatrix(np.array([[1.0, 1e8], [0.0, 1.0 + 1e-4]]), np.zeros((2, 2)))
    dec = spectral_decomposition(a)
    assert dec.blocks == ((0, 2),)
    assert dec.multiplicities == (2,)
    assert dec.spheres[0].matches(EigenSphere(1.0 + 5e-5, 0.0), 1e-12)
    # with a coupling of 1, |Y| = 1e4 < GROWTH_LIMIT: two blocks, two spheres
    far = QMatrix(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-4]]), np.zeros((2, 2)))
    assert len(spectral_decomposition(far).spheres) == 2


def test_nonfinite_input_raises_numerical_error():
    a = QMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))
    with pytest.raises(NumericalError):
        spectral_decomposition(a)


def test_left_eigenvector_rows_are_the_sylvester_solutions():
    from scipy.linalg import lapack
    rng = np.random.default_rng(5)
    for m in (1, 2, 5, 12):
        t = np.triu(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        lev, norms = _left_eigenvectors(t)
        for p in range(m - 1):
            y, scale, info = lapack.ztrsyl(t[p:p + 1, p:p + 1], t[p + 1:, p + 1:],
                                           t[p:p + 1, p + 1:], isgn=-1)
            assert info == 0
            assert np.allclose(lev[p, p + 1:], y[0] / scale, rtol=1e-10, atol=1e-12)
            assert norms[p] == pytest.approx(np.linalg.norm(y / scale), rel=1e-10)
    # a repeated eigenvalue makes its own rows non-finite and no other row
    t = np.triu(rng.normal(size=(4, 4)).astype(complex))
    t[1, 1] = t[3, 3]
    lev, norms = _left_eigenvectors(t)
    assert not np.isfinite(norms[1])
    assert np.all(np.isfinite(lev[[0, 2, 3]])) and np.all(np.isfinite(norms[[0, 2, 3]]))


@pytest.mark.parametrize("label,a", INPUTS + [
    (f"jordan{k}", _conditioned_similarity(np.random.default_rng([9, k]),
                                           _jordan(k, 0.5 + 0.8j * (k % 2))))
    for k in (2, 3, 4)], ids=lambda v: v if isinstance(v, str) else "")
def test_coupling_matrix_block_diagonalizes_the_schur_form(label, a):
    # lone eigenvalues take their rows of W from the left eigenvectors, grown
    # blocks from ztrsyl, and reordering rotates the rows above: every path
    # must leave W T W^-1 block diagonal
    dec = spectral_decomposition(a)
    d = dec.w @ dec.t @ np.linalg.inv(dec.w)
    scale = np.linalg.norm(dec.t) * np.linalg.cond(dec.w)
    for start, stop in dec.blocks:
        assert np.linalg.norm(d[start:stop, stop:]) <= 1e-12 * scale, label
        assert np.linalg.norm(d[stop:, start:stop]) <= 1e-12 * scale, label
