"""The one Schur decomposition behind spectrum, classify, projections and
local spectra: cross-tested against the eigvals route it replaced
(``spectral_reference``), and regression inputs that split that route."""

import ast
import dataclasses
import hashlib
import importlib
import math
import os

import numpy as np
import pytest
import scipy.linalg
import spectral_reference as ref
from test_golden import COUNT, build_case
from test_spectral import _rotated

from qspec import io, localspec, qlinalg, rand, spectral
from qspec.errors import NumericalError, ShapeError
from qspec.operators import DenseOperator, MultiplicationOperator
from qspec.qlinalg import (QMatrix, QVector, _kernel_dim, _singular_values,
                           complex_adjoint, op_norm,
                           pseudo_resolvent, resolvent_singular_values, spectral_decomposition)
from qspec.quat import EigenSphere, Quaternion, SliceUnit, slice_compose, sphere_in


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
    proj = localspec.spectral_projections(a)
    old = ref.projection_set(a)
    assert proj.multiplicities == old.multiplicities
    assert proj.certified == old.certified
    for p, q in zip(ref.projections(proj), old.projections):
        assert op_norm(p - q) <= 1e-10


def test_decomposition_is_read_by_every_consumer():
    a = INPUTS[0][1]
    rep = spectral.classify(a)
    proj = localspec.spectral_projections(a)
    assert proj.spheres is spectral_decomposition(a).spheres is rep.spheres
    loc = localspec.local_spectrum(a, QVector.basis(a.rows, 0))
    assert all(any(s is t for t in rep.spheres) for s in loc)


def test_each_matrix_keeps_its_decomposition_and_projections():
    import qspec

    a = rand.rand_qmatrix(rand.generator(19, 0), 4, 4)
    dec = spectral_decomposition(a)
    assert spectral_decomposition(a) is dec
    # the projections are the decomposition's own, kept from the first read
    assert localspec.spectral_projections(a) is dec
    assert localspec.spectral_projections(a).projection_factors is dec.projection_factors
    assert dec.conditions is dec.conditions
    # an equal matrix is another object, with a decomposition of its own
    other = QMatrix(a.c1, a.c2)
    assert spectral_decomposition(other) is not dec
    assert spectral_decomposition(other).spheres == dec.spheres
    with pytest.raises(ValueError):
        dec.z[0, 0] = 0.0
    for name in ("projection_factors", "conditions", "certified"):
        with pytest.raises(AttributeError):
            setattr(dec, name, None)
    # the factors are the projections' one form
    assert not hasattr(dec, "projections")
    # a local spectrum is a plain tuple of the projections' own spheres
    loc = localspec.local_spectrum(a, QVector.basis(4, 0))
    assert type(loc) is tuple and all(any(s is t for t in dec.spheres) for s in loc)
    assert not hasattr(localspec, "LocalSpectrum") and "LocalSpectrum" not in qspec.__all__


def test_spectral_projections_returns_the_decomposition():
    import qspec

    for a in (rand.rand_qmatrix(rand.generator(21, 0), 5, 5), QMatrix.zeros(0),
              QMatrix.diag([Quaternion(0.5, 2.0)] * 3)):
        dec = localspec.spectral_projections(a)
        assert dec is spectral_decomposition(a)
        assert len(ref.projections(dec)) == len(dec.conditions) == len(dec.spheres)
        assert dec.certified == (dec.kernel_dims() == dec.multiplicities)
    assert ref.projections(localspec.spectral_projections(QMatrix.zeros(0))) == ()
    with pytest.raises(ShapeError, match="square"):
        localspec.spectral_projections(QMatrix.zeros(2, 3))
    # the verdict names the step a non-square matrix cannot take
    with pytest.raises(ShapeError, match="classification needs a square matrix"):
        localspec.decomposability_necessary(QMatrix.zeros(2, 3))
    assert not hasattr(localspec, "SpectralProjectionSet")
    assert "SpectralProjectionSet" not in qspec.__all__
    assert qspec.SpectralDecomposition is qlinalg.SpectralDecomposition


def test_projections_are_built_on_their_first_read(monkeypatch):
    built = _counted_projections(monkeypatch)
    a = rand.rand_qmatrix(rand.generator(22, 0), 4, 4)
    dec = spectral_decomposition(a)
    spectral.classify(a)
    assert built == [] and "_validated" not in vars(dec)
    conditions = dec.conditions
    assert built == [] and "_validated" in vars(dec)
    assert localspec.spectral_projections(a) is dec and dec.conditions is conditions
    # the verdict and local spectra read the factors and form no projection
    localspec.decomposability_necessary(a)
    localspec.local_spectrum(a, QVector.basis(4, 0))
    assert built == [] and not hasattr(dec, "projections")
    # a subspace forms the one projection of its sphere set, and keeps none
    first = (True,) + (False,) * (len(dec.spheres) - 1)
    localspec.local_subspace(a, dec.spheres[:1])
    assert built == [(dec, first)]
    localspec.global_subspace(a, dec.spheres[:1])
    assert built == [(dec, first), (dec, tuple(not c for c in first))]


def test_failed_validation_raises_again_and_keeps_nothing(monkeypatch):
    # not diagonal: a diagonal matrix's projections take no factored check
    a = _rotated(QMatrix.diag([Quaternion(1.0, 0.5), Quaternion(-1.0, 0.3), Quaternion(2.0)]))
    assert not a.is_diagonal
    dec = spectral_decomposition(a)
    check = qlinalg._check_projections
    monkeypatch.setattr(qlinalg, "_check_projections",
                        lambda m, fa, fb, owner, conditions: check(m, fa, 1.01 * fb, owner,
                                                                   conditions))
    for _ in range(2):
        with pytest.raises(NumericalError, match="do not sum to the identity"):
            localspec.spectral_projections(a)
        assert "_validated" not in vars(dec)
    monkeypatch.undo()
    assert localspec.spectral_projections(a) is dec and len(ref.projections(dec)) == 3


def _module_tree(name: str) -> ast.Module:
    with open(importlib.import_module(f"qspec.{name}").__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_qlinalg_imports_nothing_from_localspec():
    imported = []
    for node in ast.walk(_module_tree("qlinalg")):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not any("localspec" in name for name in imported)


def test_only_qlinalg_writes_a_decomposition():
    # a frozen decomposition is written only through object.__setattr__, and
    # outside qlinalg that sets up nothing but an object's own fields
    for name in ("cli", "io", "localspec", "operators", "quat", "rand", "sliceseries",
                 "spectral", "suites"):
        for node in ast.walk(_module_tree(name)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__"):
                target = node.args[0]
                assert isinstance(target, ast.Name) and target.id == "self", name


def _counted_projections(monkeypatch) -> list:
    """(decomposition, whether each sphere is chosen) for each sphere-set
    projection formed from now on, by ``localspec._set_projection``, the
    one place the library forms a projection as a QMatrix."""
    built = []
    form = localspec._set_projection

    def counted(dec, chosen):
        built.append((dec, tuple(chosen.tolist())))
        return form(dec, chosen)

    monkeypatch.setattr(localspec, "_set_projection", counted)
    return built


def test_intertwining_builds_one_projector_stack_per_matrix(monkeypatch):
    built = _counted_projections(monkeypatch)
    rng = rand.generator(23, 0)
    a1, a2 = rand.rand_qmatrix(rng, 2, 2), rand.rand_qmatrix(rng, 3, 3)
    a = QMatrix(np.block([[a1.c1, np.zeros((2, 3))], [np.zeros((3, 2)), a2.c1]]),
                np.block([[a1.c2, np.zeros((2, 3))], [np.zeros((3, 2)), a2.c2]]))
    r = QMatrix.diag([Quaternion(1.0)] * 2 + [Quaternion()] * 3)
    phi = rand.rand_qvector(rng, 5)
    spheres = spectral.s_spectrum(a1)[:1]
    assert localspec.check_intertwining(a, a, r, phi, spheres)
    # one projection of F per subspace call, A's and then B's (here A again)
    dec = spectral_decomposition(a)
    chosen = tuple(sphere_in(s, spheres) for s in dec.spheres)
    assert sum(chosen) == 1 and built == [(dec, chosen)] * 2


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
        proj = localspec.spectral_projections(a)
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
        assert set(localspec.local_spectrum(a, phi)) <= set(rep.spheres)
        assert localspec.decomposability_necessary(a).status == "PASS"


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
        assert set(localspec.local_spectrum(a, phi)) <= set(spheres)
        one = localspec.local_subspace(a, spheres[1:2])
        assert one.dim == 1


def test_every_build_counts_n_with_at_most_n_spheres():
    for label, a in INPUTS:
        dec = spectral_decomposition(a)
        assert len(dec.spheres) <= a.rows, label
        assert sum(dec.multiplicities) == a.rows, label


def test_ill_separated_eigenvalues_share_a_block():
    # the eigenvalues 1 and 1 + 1e-4 are 1e-4 apart, but splitting them
    # needs a Sylvester solution of norm 1e12: one block, one sphere, of
    # all four eigenvalues of chi(A), which holds each twice
    a = QMatrix(np.array([[1.0, 1e8], [0.0, 1.0 + 1e-4]]), np.zeros((2, 2)))
    dec = spectral_decomposition(a)
    assert dec.blocks == ((0, 4),)
    assert dec.multiplicities == (2,)
    assert dec.spheres[0].matches(EigenSphere(1.0 + 5e-5, 0.0), 1e-12)
    # with a coupling of 1, |Y| = 1e4 < GROWTH_LIMIT: two blocks, two spheres
    far = QMatrix(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-4]]), np.zeros((2, 2)))
    assert len(spectral_decomposition(far).spheres) == 2


def test_nonfinite_input_raises_numerical_error():
    for bad in (np.nan, np.inf):
        a = QMatrix(np.array([[bad, 0.0], [0.0, 1.0]]), np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="Schur iteration failed"):
            spectral_decomposition(a)


def _counted_lapack(monkeypatch) -> dict[str, int]:
    """Calls of ``ztrsen`` and ``ztrsyl`` by the Schur split, counted."""
    calls = {"ztrsen": 0, "ztrsyl": 0}
    lapack = qlinalg._lapack()

    class Counted:
        def __getattr__(self, name):
            routine = getattr(lapack, name)
            if name not in calls:
                return routine

            def counted(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)
            return counted

    monkeypatch.setattr(qlinalg, "_lapack", Counted)
    return calls


def test_lone_eigenvalues_split_by_one_solve_each(monkeypatch):
    calls = _counted_lapack(monkeypatch)
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 12):
        # well-separated eigenvalues: every seed is one eigenvalue, no block grows
        t = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
        t += np.diag(np.arange(n) * (1.0 + 0.5j))
        z = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        t0, z0 = t.copy(), z.copy()
        calls.update(ztrsen=0, ztrsyl=0)
        blocks, w = qlinalg._split_schur(t, z)
        assert blocks == [(p, p + 1) for p in range(n)]
        assert np.array_equal(t, t0) and np.array_equal(z, z0)
        assert calls == {"ztrsen": 0, "ztrsyl": n - 1}
        # the rows of W are the left eigenvectors: W T = diag(T) W
        assert np.allclose(w @ t, t.diagonal()[:, None] * w, rtol=0.0, atol=1e-12 * n)


def test_one_gather_per_repeated_seed_unless_a_block_grows(monkeypatch):
    calls = _counted_lapack(monkeypatch)
    d = np.diag([0.5 + 0.8j, -1.0, 0.5 + 0.8j, 1.2 - 0.3j, -1.0, 0.5 + 0.8j]).astype(complex)
    inputs = [_conditioned_similarity(np.random.default_rng([29, k]), d) for k in range(4)]
    inputs += [a for label, a in INPUTS if label.startswith("planted") or "repeated" in label]
    gathered = 0
    for a in inputs:
        calls.update(ztrsen=0, ztrsyl=0)
        # a matrix of its own, so that the decomposition runs here
        dec = spectral_decomposition(QMatrix(a.c1, a.c2))
        # with no block grown, each block is one seed split off by one solve
        if calls["ztrsyl"] == len(dec.blocks) - 1:
            assert calls["ztrsen"] <= sum(stop - start > 1 for start, stop in dec.blocks)
            gathered += calls["ztrsen"]
    # the repeated spheres need reordering before they split off
    assert gathered >= 4


@pytest.mark.parametrize("label,a", INPUTS + [
    (f"jordan{k}", _conditioned_similarity(np.random.default_rng([9, k]),
                                           _jordan(k, 0.5 + 0.8j * (k % 2))))
    for k in (2, 3, 4)], ids=lambda v: v if isinstance(v, str) else "")
def test_coupling_matrix_block_diagonalizes_the_schur_form(label, a):
    # each block's rows of W are its ztrsyl solution, and every reordering
    # rotates the rows above: W T W^-1 must come out block diagonal.  T is
    # a fresh Schur form of the image, whose split gives the decomposition's
    # W and blocks; a diagonal A takes the Schur route here
    dec = ref.schur_route(a) if a.is_diagonal else spectral_decomposition(a)
    t, _, blocks, w = ref.schur_split(dec.m)
    assert np.array_equal(dec.w, w) and dec.blocks == blocks, label
    d = w @ t @ np.linalg.inv(w)
    scale = np.linalg.norm(t) * np.linalg.cond(w)
    for start, stop in blocks:
        assert np.linalg.norm(d[start:stop, stop:]) <= 1e-12 * scale, label
        assert np.linalg.norm(d[stop:, start:stop]) <= 1e-12 * scale, label


# -- the factored projection check against the QMatrix reference -------------


def _factored(a: QMatrix):
    """The factors A, B, the sphere of each column of A and the conditions
    that ``spectral_projections`` keeps: for a matrix with two spheres or
    more that is not diagonal, exactly those it hands to
    ``_check_projections``; else the coordinate factors I, I."""
    dec = localspec.spectral_projections(a)
    return dec.projection_factors, list(dec.conditions)


def _checks_agree(a: QMatrix, factors, conditions) -> str:
    """The factored check and the QMatrix reference on the projections of
    one set of factors: the same accept or the same message."""
    outcomes = []
    for run in (lambda: qlinalg._check_projections(complex_adjoint(a), *factors, conditions),
                lambda: ref.validate_projections(a, list(ref.factor_projections(*factors)),
                                                 conditions)):
        try:
            run()
            outcomes.append("accept")
        except NumericalError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _copied(factors, i: int, j: int, eps: float, moved: bool = False):
    """Sphere i gets a copy of sphere j's columns and eps times its rows, so
    that P_i becomes P_i + eps P_j; ``moved`` also scales P_j by 1 - eps."""
    fa, fb, owner = factors
    cols = owner == j
    kept = fb.copy()
    if moved:
        kept[cols] *= 1.0 - eps
    return (np.hstack([fa, fa[:, cols]]), np.vstack([kept, eps * fb[cols]]),
            np.concatenate([owner, np.full(int(cols.sum()), i)]))


def _validator_inputs():
    out = [(lab, a) for lab, a in INPUTS if lab[:4] in ("dens", "real", "slic", "mult")][:16]
    for k, lam in ((2, 0.5), (3, 0.5 + 0.8j)):
        rng = np.random.default_rng([k, 17])
        out.append((f"jordan{k}", _conditioned_similarity(rng, _jordan(k, lam))))
    d = np.diag([0.3 + 0.7j, 0.3 + 1e-7 + 0.7j, -0.8 + 0.2j, 1.1]).astype(complex)
    out.append(("close-pair", _conditioned_similarity(np.random.default_rng([5, 99]), d)))
    out.append(("single-sphere", QMatrix.diag([Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0),
                                               Quaternion(0, 0.6, 0, 0.8)])))
    return out


VALIDATOR_INPUTS = _validator_inputs()


def _tol(a: QMatrix, conditions) -> float:
    return 1e-8 * max(1.0, max(conditions)) * max(1.0, op_norm(a))


@pytest.mark.parametrize("label,a", VALIDATOR_INPUTS, ids=[lab for lab, _ in VALIDATOR_INPUTS])
def test_stacked_validator_matches_reference(label, a):
    # faults made to the factors at half and twice the tolerance: B_i
    # scaled, an eps-copy of P_j added to P_i, and that copy moved out of P_j
    factors, conditions = _factored(a)
    assert _checks_agree(a, factors, conditions) == "accept"
    fa, fb, owner = factors
    tol = _tol(a, conditions)
    k = len(conditions)
    for i in range(k):
        for f, verdict in ((0.5, None), (2.0, "spectral projections do not sum to the identity")):
            # B_i (1 +- delta): the sum is off by delta |P_i| = f tol
            for sign in (1.0, -1.0):
                bad = fb.copy()
                bad[owner == i] *= 1.0 + sign * f * tol / conditions[i]
                got = _checks_agree(a, (fa, bad, owner), conditions)
                if verdict:
                    assert got == verdict
            if k == 1:
                continue
            j = (i + 1) % k
            # P_i + eps P_j: the sum is off by eps |P_j| = f tol
            eps = f * tol / conditions[j]
            got = _checks_agree(a, _copied(factors, i, j, eps), conditions)
            if verdict:
                assert got == verdict
            # moving eps P_j from P_j to P_i keeps the sum but not P_i P_j = 0
            got = _checks_agree(a, _copied(factors, i, j, eps, moved=True), conditions)
            if verdict:
                assert got == "spectral projections are not orthogonal idempotents"


@pytest.mark.parametrize("label,a", VALIDATOR_INPUTS + [
    (lab, a) for lab, a in INPUTS if lab.startswith("planted")],
    ids=lambda v: v if isinstance(v, str) else "")
def test_block_check_accepts_valid_projections(label, a, monkeypatch):
    # every valid set passes in the block coordinates of the factors, the
    # ill-conditioned ones too, with no residual formed; every set gets the
    # conditions of the stacked SVD to rounding from the factors, and the
    # structure defects |P - J conj(P) J^-1|_F of the whole projectors from
    # their top halves.  A diagonal A takes the Schur route here, since its
    # own decomposition has no Schur factors
    dec = ref.schur_route(a) if a.is_diagonal else spectral_decomposition(QMatrix(a.c1, a.c2))
    conditions = qlinalg._conditioned(dec)
    for spheres, vs, us in dec.sphere_factors:
        stack = vs @ us
        want = np.linalg.norm(stack, 2, axis=(1, 2))
        assert np.allclose(np.array(conditions)[spheres], want, rtol=1e-12, atol=0.0)
        defects = np.linalg.norm(stack - ref.j_conj(stack), axis=(1, 2))
        got = qlinalg._structure_defects(vs, us)
        assert np.all(np.abs(got - defects) <= 1e-12 * defects + 1e-30)
    monkeypatch.setattr(qlinalg, "_exceeds", _never_formed)
    qlinalg._check_projections(dec.m, *dec.factors, dec.positions[0], conditions)


def _never_formed(residual, bound):
    raise AssertionError("a residual was formed as an N x N matrix")


def test_check_screens_are_the_frobenius_norms_of_the_residuals():
    # on valid and on broken factors, each screen is the squared Frobenius
    # norm of the residual A_i C_ij B_j or X_i B_i formed outright, to 1e-10
    # relative or within the rounding bound that comes with it; on valid
    # factors that bound lies far below the square of the tolerance
    for label, a in VALIDATOR_INPUTS:
        factors, conditions = _factored(a)
        sets = [(factors, 1e-6 * _tol(a, conditions) ** 2)]
        if len(conditions) > 1:
            rng = np.random.default_rng(a.rows)
            k = rng.normal(size=(2, len(factors[0]), len(factors[0])))
            u = scipy.linalg.expm(1e-3 * (k[0] - k[0].T + 1j * (k[1] + k[1].T)))
            sets += [(_copied(factors, 0, 1, 1e-3), np.inf),
                     ((u @ factors[0], factors[1] @ u.conj().T, factors[2]), np.inf)]
        for (fa, fb, owner), slack in sets:
            count = int(owner.max()) + 1
            _, c, x, pairs, invariance, rounding = qlinalg._factored_residuals(
                complex_adjoint(a), fa, fb, owner, count)
            assert rounding <= slack, label
            cols = [owner == i for i in range(count)]
            for i in range(count):
                residuals = [(pairs[i, j], fa[:, cols[i]] @ c[np.ix_(cols[i], cols[j])]
                              @ fb[cols[j]]) for j in range(count)]
                residuals.append((invariance[i], x[:, cols[i]] @ fb[cols[i]]))
                for got, formed in residuals:
                    want = np.linalg.norm(formed) ** 2
                    assert abs(got - want) <= 1e-10 * want + rounding, (label, i)


def test_check_accepts_a_large_draw_without_forming_a_residual(monkeypatch):
    # at n = 32 the block-coordinate bounds this check replaced could not
    # accept; the Frobenius screens accept every residual
    rng = np.random.default_rng(3)
    c1 = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    c2 = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    a = QMatrix(c1, c2)
    monkeypatch.setattr(qlinalg, "_exceeds", _never_formed)
    dec = localspec.spectral_projections(a)
    assert len(ref.projections(dec)) == len(dec.spheres) == 32


@pytest.mark.parametrize("label,a", VALIDATOR_INPUTS, ids=[lab for lab, _ in VALIDATOR_INPUTS])
def test_checked_factors_give_the_returned_projections(label, a, monkeypatch):
    # the check and the projections it passes cannot drift apart
    checked = []
    check = qlinalg._check_projections

    def recorded(m, fa, fb, owner, conditions):
        checked.append((fa, fb, owner))
        return check(m, fa, fb, owner, conditions)

    monkeypatch.setattr(qlinalg, "_check_projections", recorded)
    a = QMatrix(a.c1, a.c2)    # a matrix of its own, with no projections kept yet
    dec = localspec.spectral_projections(a)
    factors = dec.projection_factors
    if len(dec.spheres) < 2 or a.is_diagonal:
        # coordinate projections, exact: nothing to check but their owners
        eye = np.eye(len(dec.m))
        assert checked == [] and all(np.array_equal(f, eye) for f in factors[:2])
        if len(dec.spheres) < 2:
            one, = ref.projections(dec)
            assert np.array_equal(one.c1, np.eye(a.rows)) and not one.c2.any()
    else:
        assert len(checked) == 1 and all(x is y for x, y in zip(checked[0], factors))
    for p, q in zip(ref.projections(dec), ref.factor_projections(*factors)):
        got, want = complex_adjoint(p), complex_adjoint(q)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), label


@pytest.mark.parametrize("label,a", VALIDATOR_INPUTS, ids=[lab for lab, _ in VALIDATOR_INPUTS])
def test_spectral_projections_builds_the_stack_once(label, a, monkeypatch):
    # the factors are validated and kept once; validation, the verdict and
    # local spectra form no QMatrix projection, and each subspace forms the
    # one projection of its sphere set, never one per sphere
    built = _counted_projections(monkeypatch)
    a = QMatrix(a.c1, a.c2)    # a matrix of its own, with no projections kept yet
    dec = spectral_decomposition(a)
    factors = localspec.spectral_projections(a).projection_factors
    localspec.spectral_projections(a)
    localspec.decomposability_necessary(a)
    localspec.local_spectrum(a, QVector.basis(a.rows, 0))
    assert built == []
    first = tuple(k == 0 for k in range(len(dec.spheres)))
    rest = tuple(not c for c in first)
    localspec.local_subspace(a, dec.spheres[:1])
    localspec.global_subspace(a, dec.spheres[:1])
    # with one sphere, F^c is empty and the global subspace is the whole space
    assert built == [(dec, first)] + ([(dec, rest)] if any(rest) else []), label
    assert dec.projection_factors is factors and not hasattr(dec, "projections")


#: the relative gap allowed between a factored read and the same number from
#: the formed QMatrix projections: both round sums of K = 2N <= 120 terms of
#: size up to cond^2 |x|^2, cond <= 30 on these inputs, about 2e-11 at
#: worst (4e-16 measured on them)
FACTORED_RTOL = 1e-10


def _assert_factored_reads_match(label: str, a: QMatrix, vectors) -> None:
    """The factored reads of A's projections against the matrix route of
    ``spectral_reference``: each sphere's largest column norm, and |P_i phi|
    as ``local_spectrum`` sees it, for each of ``vectors``.  Scaled (or
    with tol set) to straddle the threshold by 0.1 %, the two routes keep
    the same spheres."""
    dec = localspec.spectral_projections(a)
    fa, fb, owner = dec.projection_factors
    count = len(dec.spheres)
    projections = ref.projections(dec)
    want = ref.largest_columns(projections)
    got = localspec._largest_columns(fa, fb, owner, count, a.rows)
    assert np.allclose(got, want, rtol=FACTORED_RTOL, atol=0.0), label
    for top in want:
        assert top >= 1.0 / math.sqrt(a.rows) * (1.0 - FACTORED_RTOL), label
        for f in (0.999, 1.001):
            scale = f * localspec.MEMBER_TOL / top
            scaled = localspec._largest_columns(scale * fa, fb, owner, count, a.rows)
            kept = [x > localspec.MEMBER_TOL for x in scaled]
            assert kept == [x > localspec.MEMBER_TOL for x in ref.largest_columns(
                [p.scale(scale) for p in projections])], label
    for phi in vectors:
        norm = phi.norm()
        seen = [p.apply(phi).norm() for p in projections]
        assert np.allclose(localspec._applied_norms(dec, phi), seen,
                           rtol=FACTORED_RTOL, atol=FACTORED_RTOL * max(dec.conditions) * norm)
        assert localspec.local_spectrum(a, phi) == tuple(
            s for s, x in zip(dec.spheres, seen) if x > localspec.MEMBER_TOL * norm), label
        for x in seen:
            # a norm well above the rounding of both routes
            if x > 1e-4 * norm:
                for f in (0.999, 1.001):
                    tol = f * x / norm
                    assert localspec.local_spectrum(a, phi, tol) == tuple(
                        s for s, y in zip(dec.spheres, seen) if y > tol * norm), label


def _vectors(a: QMatrix, seed: int) -> list[QVector]:
    """A seeded vector, the first and last basis vectors, and a column of
    the first projection, which lies in one sphere's range."""
    rng = np.random.default_rng([seed, a.rows])
    n = a.rows
    first = ref.projections(localspec.spectral_projections(a))[0]
    return [QVector.from_components(rng.normal(size=(n, 4))), QVector.basis(n, 0),
            QVector.basis(n, n - 1), first.col(int(np.argmax(first.col_norms())))]


@pytest.mark.parametrize("label,a", VALIDATOR_INPUTS, ids=[lab for lab, _ in VALIDATOR_INPUTS])
def test_local_union_reads_each_projections_own_column_norms(label, a):
    # the factored column norms and local spectra match each projection's
    # own col_norms and apply to rounding, so the decomposability verdict
    # and local spectra keep the spheres they kept
    _assert_factored_reads_match(label, a, _vectors(a, 31))
    empty = np.eye(0)
    assert localspec._largest_columns(empty, empty, np.zeros(0, dtype=int), 0, 0) == []


def _half_width_inputs():
    """The validator's Jordan and close-pair inputs, a size-4 Jordan block
    and a close pair at the smallest gap that still splits."""
    out = [(lab, a) for lab, a in VALIDATOR_INPUTS if lab.startswith(("jordan", "close-pair"))]
    out.append(("jordan4", _conditioned_similarity(np.random.default_rng([4, 17]),
                                                    _jordan(4, 0.5 + 0.8j))))
    d = np.diag([0.3 + 0.7j, 0.3 + 3e-8 + 0.7j, -0.8 + 0.2j, 1.1]).astype(complex)
    out.append(("close-pair-3e-8", _conditioned_similarity(np.random.default_rng([2, 99]), d)))
    return out


HALF_WIDTH_INPUTS = _half_width_inputs()


@pytest.mark.parametrize("label,a", HALF_WIDTH_INPUTS, ids=[lab for lab, _ in HALF_WIDTH_INPUTS])
def test_half_width_reads_match_the_symmetrized_projections(label, a):
    # each read of the factors V_i U_i takes the J-symmetrized projector:
    # the sphere-set projection, |P_i phi| and the largest column norms
    # match the reference's symmetrized projections to rounding, while the
    # raw top block row of V_i U_i carries the pair's structure defect
    dec = localspec.spectral_projections(a)
    v, u, owner = dec.projection_factors
    projections = ref.projections(dec)
    count = len(dec.spheres)
    scale = max(dec.conditions)
    for chosen in (np.arange(count) == 0, np.arange(count) % 2 == 0, np.ones(count, bool)):
        got = complex_adjoint(localspec._set_projection(dec, chosen))
        want = complex_adjoint(sum((p for p, c in zip(projections, chosen) if c),
                                   QMatrix.zeros(a.rows)))
        assert np.linalg.norm(got - want) <= 1e-14 * scale * np.linalg.norm(want), label
    rng = np.random.default_rng([43, a.rows])
    for phi in (QVector.from_components(rng.normal(size=(a.rows, 4))), QVector.basis(a.rows, 0)):
        seen = [p.apply(phi).norm() for p in projections]
        assert np.allclose(localspec._applied_norms(dec, phi), seen, rtol=1e-13 * scale,
                           atol=1e-15 * scale * phi.norm()), label
    want = np.array(ref.largest_columns(projections))
    tops = localspec._largest_columns(v, u, owner, count, a.rows)
    assert np.allclose(tops, want, rtol=1e-13 * scale, atol=0.0), label
    # read as a quaternionic matrix, the raw top block row of V_i U_i misses
    # by its structure defect: about 1e-9 relative on the close pairs
    raw = np.array([np.sqrt((np.abs(v[:a.rows, owner == i] @ u[owner == i]) ** 2)
                            .reshape(a.rows, 2, a.rows).sum(axis=(0, 1))).max()
                    for i in range(count)])
    if label.startswith("close-pair"):
        assert np.max(np.abs(raw - want) / want) > 1e-11, label


@pytest.mark.parametrize("label,a", VALIDATOR_INPUTS + HALF_WIDTH_INPUTS[-2:],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_projection_factors_are_half_width(label, a):
    # V and U are N x N for N = 2n, sphere i owning 2 m_i of their columns
    # and rows; the sphere factors are those columns and rows, unpadded, in
    # groups of spheres of one width
    dec = localspec.spectral_projections(a)
    v, u, owner = dec.projection_factors
    size = 2 * a.rows
    assert v.shape == u.shape == (size, size) and owner.shape == (size,), label
    assert np.bincount(owner).tolist() == [2 * m for m in dec.multiplicities], label
    if dec.z is None:
        return
    seen = []
    for spheres, vs, us in dec.sphere_factors:
        width = 2 * dec.multiplicities[spheres[0]]
        assert vs.shape == (len(spheres), size, width), label
        assert us.shape == (len(spheres), width, size), label
        for k, i in enumerate(spheres.tolist()):
            assert np.array_equal(vs[k], v[:, owner == i]) and np.array_equal(us[k], u[owner == i])
            seen.append(i)
    assert sorted(seen) == list(range(len(dec.spheres))), label


def test_factored_reads_match_the_matrix_route_on_golden_and_gate_inputs(tmp_path):
    # the golden inputs and the 504 inputs of the matrix and classify gates
    from test_golden import COUNT, build_case
    from test_spectral import _workloads

    from qspec import io as qio

    inputs = []
    for idx in range(COUNT):
        name, op, text, _ = build_case(idx)
        inputs.append((name, qio.parse_qmat(text) if op == "dense"
                       else qio.parse_qfun(text).as_qmatrix()))
    for seed in (51, 52, 53):
        folder = tmp_path / str(seed)
        folder.mkdir()
        for req in _workloads().build_matrix(np.random.default_rng([seed, 1]), str(folder)):
            kind, path = req.argv[-1].split(":", 1)
            text = qio.read_text(path)
            inputs.append((f"{seed}-{os.path.basename(path)}", qio.parse_qmat(text)
                           if kind == "dense" else qio.parse_qfun(text).as_qmatrix()))
    assert len(inputs) == COUNT + 504
    for k, (label, a) in enumerate(inputs):
        _assert_factored_reads_match(label, a, _vectors(a, k)[:1])


def _rotation(rng, n: int, angle: float) -> np.ndarray:
    """chi of a quaternionic unitary exp(angle K), K skew-Hermitian."""
    b = rand.rand_qmatrix(rng, n, n)
    u = scipy.linalg.expm(angle * complex_adjoint(b - b.adjoint()))
    return 0.5 * (u + ref.j_conj(u))


# the complex-slice inputs go last, so that the others keep their ids
ROTATED_INPUTS = ([(lab, a) for lab, a in VALIDATOR_INPUTS
                   if not a.is_complex_slice and lab != "single-sphere"]
                  + [(lab, a) for lab, a in VALIDATOR_INPUTS if a.is_complex_slice])


@pytest.mark.parametrize("label,a", ROTATED_INPUTS)
def test_stacked_validator_rejects_rotated_ranges(label, a):
    # rotating every projection, A -> R A and B -> B R^H, keeps the sum and
    # the products but moves the ranges off the invariant subspaces of A
    (fa, fb, owner), conditions = _factored(a)
    u = _rotation(rand.generator(3, a.rows), a.rows, 1e-3)
    rotated = (u @ fa, fb @ u.conj().T, owner)
    assert _checks_agree(a, rotated, conditions) == "a projection range is not invariant"
    u = _rotation(rand.generator(3, a.rows), a.rows, 1e-15)
    assert _checks_agree(a, (u @ fa, fb @ u.conj().T, owner), conditions) == "accept"


def test_frobenius_screen_defers_to_the_svd_and_accepts(monkeypatch):
    # P_0 + c I with c < tol < c sqrt(N): the Frobenius screen cannot accept
    # the sum residual, the 2-norm can
    a = QMatrix.diag([Quaternion(k + 1.0, 0.5, 0.2, 0.0) for k in range(4)])
    (fa, fb, owner), conditions = _factored(a)
    tol = _tol(a, conditions)
    c = 0.5 * tol
    eye = np.eye(len(fa))
    assert np.linalg.norm(c * eye) > tol
    formed = []
    exceeds = qlinalg._exceeds
    monkeypatch.setattr(qlinalg, "_exceeds",
                        lambda residual, bound: formed.append(bound) or exceeds(residual, bound))
    bad = (np.hstack([fa, eye]), np.vstack([fb, c * eye]), np.concatenate([owner, [0] * len(eye)]))
    assert _checks_agree(a, bad, conditions) == "accept"
    assert formed


def test_spectral_projections_reaches_every_raise_path(monkeypatch):
    from qspec.qlinalg import SpectralDecomposition

    # not diagonal: a diagonal matrix's coordinate projections take none of
    # these paths (tests/test_diagonal.py)
    a = _rotated(QMatrix.diag([Quaternion(1.0, 0.5, 0.2, 0.0), Quaternion(-1.0, 0.3, 0.0, 0.4),
                               Quaternion(2.0, 0.0, 0.0, 0.0)]))
    assert not a.is_diagonal
    factors, _ = _factored(a)
    fa, fb, owner = factors

    def raised(sphere_factors=None, factors=None) -> str:
        # conditioning and structure faults go in through the sphere factors
        # the conditions and the projectors' structure are read from, and
        # the others through the factors the check reads
        if sphere_factors is not None:
            monkeypatch.setattr(SpectralDecomposition, "sphere_factors",
                                property(lambda self: sphere_factors))
        if factors is not None:
            monkeypatch.setattr(qlinalg, "_check_projections",
                                lambda m, fa, fb, owner, conditions, check=qlinalg._check_projections:
                                check(m, *factors, conditions))
        with pytest.raises(NumericalError) as info:
            # a matrix of its own: a's projections are kept from _factored
            localspec.spectral_projections(QMatrix(a.c1, a.c2))
        monkeypatch.undo()
        return str(info.value)

    # three spheres of multiplicity 1: one group of width 2
    (spheres, vs, us), = spectral_decomposition(a).sphere_factors
    assert spheres.tolist() == [0, 1, 2]
    big = vs.copy()
    big[1] *= 1e9
    assert "beyond the conditioning limit" in raised(sphere_factors=((spheres, big, us),))
    # one entry of U_0 moved: P_0 = V_0 U_0 gains a rank-one term that is
    # not J-symmetric
    foreign = us.copy()
    foreign[0, 0, 1] += 1e-3
    assert raised(sphere_factors=((spheres, vs, foreign),)) == \
        "projection broke the quaternionic structure"
    assert raised(factors=(fa, 1.01 * fb, owner)) == \
        "spectral projections do not sum to the identity"
    assert raised(factors=_copied(factors, 0, 1, 1e-4, moved=True)) == \
        "spectral projections are not orthogonal idempotents"
    u = _rotation(rand.generator(4, 0), a.rows, 1e-3)
    assert raised(factors=(u @ fa, fb @ u.conj().T, owner)) == \
        "a projection range is not invariant"


def test_decomposition_raises_on_an_odd_cluster_and_a_failed_residual_check():
    # chi(A) holds each sphere's eigenvalues in conjugate pairs, so a
    # cluster of odd size cannot be a sphere of A
    with pytest.raises(NumericalError, match="eigenvalue cluster broke a conjugate pair"):
        qlinalg._block_spheres(np.array([1 + 1j, 1 - 1j, 2.0]), [(0, 1), (1, 2), (2, 3)])
    # every sphere's R_q must be numerically singular: a smallest value
    # above 1e-6 (1 + |A|_F^2) fails, and names the first sphere that does
    a = INPUTS[0][1]
    dec = spectral_decomposition(a)
    unknown = np.full(len(dec.spheres), np.inf)
    assert qlinalg._checked(a, dec, unknown) is dec
    # a sphere whose kappa ceiling does not pass takes its SVD: here values
    # lifted past the check, so the first sphere fails with its kappa
    check = 1e-6 * (1.0 + a.frobenius() ** 2)
    lifted = dataclasses.replace(dec)
    lifted._exact.update({i: s + 2.0 * check for i, s in enumerate(dec.singular_values)})
    first = dec.spheres[0]
    with pytest.raises(NumericalError, match=r"failed the direct residual check") as info:
        qlinalg._checked(a, lifted, unknown)
    assert str(info.value) == (f"eigen-sphere ({first.re}, {first.im}) failed the direct "
                               f"residual check: kappa = {dec.singular_values[0, -1] + 2 * check:.3e}")
    # a ceiling at or below the check passes the sphere without its SVD
    assert qlinalg._checked(a, lifted, np.zeros(len(dec.spheres))) is lifted


# -- the R_q kernel against the QMatrix pseudo-resolvent ----------------------


def _kernel_inputs():
    out = list(INPUTS)
    for k, lam in ((2, 0.5), (3, 0.5 + 0.8j), (4, 0.8j)):
        rng = np.random.default_rng([83, k])
        out.append((f"jordan{k}", _conditioned_similarity(rng, _jordan(k, lam))))
    # R_q(A) is complex-slice at Re q = 0 although A is not: the QMatrix route
    # takes n singular values there, the image 2n
    values = [Quaternion(0, 0, 1), Quaternion(0, 0, 0, 2), Quaternion(0, 0.6, 0.8),
              Quaternion(0, 0, 1.5), Quaternion(0, 0, 0, 1)]
    out.append(("imaginary-mult", MultiplicationOperator(range(5), values).as_qmatrix()))
    return out


KERNEL_INPUTS = _kernel_inputs()


@pytest.mark.parametrize("label,a", KERNEL_INPUTS, ids=[lab for lab, _ in KERNEL_INPUTS])
def test_resolvent_kernel_matches_pseudo_resolvent(label, a):
    # the decomposition and the norms the reference counts with read chi(A);
    # the dense portrait kernel alone reads the C_i block of a complex-slice A
    m = complex_adjoint(a)
    image = spectral._SectionKappa(DenseOperator(a), None)._image()
    assert np.array_equal(image, a.c1 if a.is_complex_slice else m)
    assert (image.dtype == np.float64) == (a.is_complex_slice and not np.any(a.c1.imag))
    dec = spectral_decomposition(a)
    assert np.array_equal(dec.m, m)
    rng = np.random.default_rng([97, a.rows])
    points = [Quaternion(s.re, s.im) for s in dec.spheres]
    points += [rand.rand_quaternion(rng, 1.5) for _ in range(4)]
    got = np.concatenate(list(resolvent_singular_values(
        m, [q.w for q in points], [q.imag_norm() for q in points])))
    # the decomposition holds the kernel's values bit for bit; a diagonal A
    # reads them off its entries (tests/test_diagonal.py), so a rotation of
    # it that is not diagonal stands in for it on this line
    b = _rotated(a) if a.is_diagonal else a
    pinned = spectral_decomposition(b)
    assert not b.is_diagonal
    assert np.array_equal(np.concatenate(list(resolvent_singular_values(
        complex_adjoint(b), [s.re for s in pinned.spheres], [s.im for s in pinned.spheres]))),
        pinned.singular_values)
    scale = 1.0 + a.frobenius() ** 2
    for q, s in zip(points, got):
        r = pseudo_resolvent(a, q)
        want = _singular_values(r)
        # R_q(A) vanishes at the sphere of a one-sphere matrix, and its
        # values are rounding of terms of size |A|_F^2 there
        top = want[0] if want[0] > 1e-12 * scale else scale
        assert abs(s[-1] - want[-1]) <= 1e-14 * top, (q, s[-1], want[-1])
        for tol in (1e-8, 1e-10):
            assert _kernel_dim(s, a.cols, tol) == ref.nullity(r, tol), (q, tol)
    for tol in (1e-8, 1e-10):
        assert dec.kernel_dims(tol) == tuple(
            ref.nullity(pseudo_resolvent(a, q), tol) for q in points[:len(dec.spheres)])


# -- the bound route against the full SVD -------------------------------------

#: the kernel thresholds the library reads: classify's default tol, that of
#: ``certified`` and that of the decomposability verdict
BOUND_TOLS = (1e-8, 1e-10, localspec.MEMBER_TOL)


def _bound_families(tmp_path) -> dict[str, list[QMatrix]]:
    """The Schur-route inputs of each family: the dense golden inputs, the
    dense inputs of the classify gate (seeds 51-53), the classify-large
    draws, and Jordan and close-pair inputs as this file plants them."""
    from test_spectral import _workloads

    families = {"golden": [], "gate": [], "large": [], "jordan": [], "close-pair": []}
    for idx in range(COUNT):
        _, op, text, _ = build_case(idx)
        if op == "dense":
            families["golden"].append(io.parse_qmat(text))
    for seed in (51, 52, 53):
        folder = tmp_path / str(seed)
        folder.mkdir()
        for req in _workloads().build_matrix(np.random.default_rng([seed, 1]), str(folder)):
            kind, path = req.argv[-1].split(":", 1)
            if kind == "dense":
                families["gate"].append(io.parse_qmat(io.read_text(path)))
    for n in (16, 24, 32, 40, 48, 60):
        rng = np.random.default_rng(3)
        c1, c2 = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(2))
        families["large"].append(QMatrix(c1, c2))
    for k, lam in ((2, 0.5), (3, 0.5), (3, 0.5 + 0.8j), (4, 0.8j)):
        for seed in range(4):
            families["jordan"].append(
                _conditioned_similarity(np.random.default_rng([seed, k, 7]), _jordan(k, lam)))
    for gap in (3e-8, 1e-7, 3e-7, 1e-6):
        for seed in range(4):
            d = np.diag([0.3 + 0.7j, 0.3 + gap + 0.7j, -0.8 + 0.2j, 1.1]).astype(complex)
            families["close-pair"].append(
                _conditioned_similarity(np.random.default_rng([seed, 99]), d))
    return families


def _kappa_ceilings(m: np.ndarray) -> np.ndarray:
    """The direct check's ceilings on each sphere's kappa, formed again
    from the same Schur form and split as the decomposition of m's."""
    t, z = qlinalg._schur(m)
    blocks, w = qlinalg._split_schur(t, z)
    spheres, _, _ = qlinalg._block_spheres(t.diagonal(), blocks)
    inverse, _ = qlinalg._lapack().ztrtri(w, unitdiag=1)
    return qlinalg._split_scales(m, t, w, inverse, blocks, spheres)[1]


def test_bound_route_matches_the_full_svd(tmp_path):
    # the bounds hold the full SVD's values and |R_q(A)|_F as _kernel_dim
    # sums them, and the direct check's ceilings hold its kappa; every
    # kernel count and kappa flag, read before any SVD,
    # equals the SVD's at each threshold the library reads; the golden, gate
    # and large inputs decide every case at classify's default tol, while
    # the Jordan and close-pair inputs, whose blocks or split leave the
    # intervals wide, take the fallback SVD
    undecided = {}
    for family, mats in _bound_families(tmp_path).items():
        open_cases = dict.fromkeys(BOUND_TOLS, 0)
        for a in mats:
            dec = spectral_decomposition(a)
            assert dec.z is not None, family
            got = {tol: (dec.kernel_dims(tol), dec.kappa_at_most(
                spectral.membership_threshold(a, tol)).tolist()) for tol in BOUND_TOLS}
            s = dec.singular_values
            lower, upper, bound_fro = dec.bounds
            assert np.all(lower <= s) and np.all(s <= upper), family
            assert np.all(s[:, -1] <= _kappa_ceilings(dec.m)), family
            top = s[:, :1]
            fro = top[:, 0] * np.sqrt(np.sum((s / top) ** 2, axis=1) / 2)
            assert np.all(bound_fro[:, 0] <= fro) and np.all(fro <= bound_fro[:, 1]), family
            for tol in BOUND_TOLS:
                dims, left_open = qlinalg._bounded_kernel_dims(lower, upper, bound_fro, tol)
                want = _kernel_dim(s, a.rows, tol)
                assert np.array_equal(dims[~left_open], want[~left_open]), family
                assert got[tol] == (tuple(want.tolist()), (s[:, -1] <= spectral.membership_threshold(
                    a, tol)).tolist()), family
                open_cases[tol] += int(left_open.sum())
        undecided[family] = open_cases
    for family in ("golden", "gate", "large"):
        assert undecided[family][1e-8] == 0, (family, undecided)
    for family in ("jordan", "close-pair"):
        assert sum(undecided[family].values()) > 0, (family, undecided)


def test_real_image_has_the_schur_form_of_its_complex_block():
    reals = [a for label, a in INPUTS if label.startswith("real")]
    for a in reals:
        m = spectral._SectionKappa(DenseOperator(a), None)._image()
        assert a.is_complex_slice and m.dtype == np.float64
        t, z = scipy.linalg.schur(m, output="complex")
        t1, z1 = scipy.linalg.schur(a.c1, output="complex")
        assert np.array_equal(t, t1) and np.array_equal(z, z1)
    assert len(reals) == 8


# -- one layout: every decomposition is of chi(A) -----------------------------


def _layout_inputs():
    """The real, slice and mult inputs, an empty and two 1 x 1 matrices, and
    the complex-slice diagonals of tests/test_diagonal.py."""
    from test_diagonal import INPUTS as DIAGONAL_INPUTS

    out = [(lab, a) for lab, a in INPUTS if lab.startswith(("real", "slice", "mult"))]
    out += [("empty", QMatrix.zeros(0)),
            ("one", rand.rand_qmatrix(rand.generator(34, 0), 1, 1)),
            ("one-slice", QMatrix(np.array([[0.5 - 1.25j]]), np.zeros((1, 1))))]
    return out + [(lab, a) for lab, a in DIAGONAL_INPUTS if a.is_complex_slice]


LAYOUT_INPUTS = _layout_inputs()

#: the multiplicities and the spheres, as qspec prints them, of each
#: complex-slice input when it was decomposed on its C_i block rather than
#: on chi(A).  Then every kernel count equalled its multiplicity, at tol
#: 1e-8 and 1e-10, every sphere was flagged p a c s, the verdict passed,
#: every seeded vector saw every sphere, and the first sphere's local and
#: global subspaces had its multiplicity as dimension
C_BLOCK_TABLE = {
    "real0": ((1, 1), ("0.301564313667 0", "0.559551839697 0")),
    "slice0": ((1, 1), ("-0.04475717005 0.02065180797", "0.905873323415 0.833721141975")),
    "real1": ((1, 1, 1), ("-1.5712944391 0", "-0.936448497437 0", "0.443519174036 0")),
    "slice1": ((1, 1, 1), ("-1.16882577747 1.4969426221", "-1.15902778201 0.391675472764",
        "0.263629796982 0.812442028027")),
    "real2": ((1, 1, 2), ("-0.999003012712 0", "-0.555504379205 0",
        "1.03549732655 0.39750945381")),
    "slice2": ((1, 1, 1, 1), ("-1.05818504568 0.621695237988", "-0.788622792025 0.917510880546",
        "0.835003593401 1.01471585844", "1.52829150548 0.220202419615")),
    "real3": ((1, 1, 1, 2), ("-1.25401181501 0", "-0.753831068142 0", "0.072916649961 0",
        "0.490250125495 0.555462383958")),
    "slice3": ((1, 1, 1, 1, 1), ("-1.23108722303 1.09082470562", "-1.01688515622 1.15425876542",
        "-0.808821598785 0.149631036993", "0.787760977219 1.06308322558",
        "1.31460701861 0.96330579362")),
    "real4": ((1, 2, 2, 1), ("-1.24189108874 0", "0.278221864571 1.3099615033",
        "0.363957115337 0.277436984307", "1.36132249631 0")),
    "slice4": ((1, 1, 1, 1, 1, 1), ("-1.41570915892 0.787017564034",
        "-0.389538916652 0.242988811235", "0.015259021157 1.49734956717",
        "0.327976231552 2.29360854019", "0.617403571935 0.159898651064",
        "2.24839861831 0.342163478395")),
    "real5": ((1, 1, 2, 2, 1), ("-1.83529117525 0", "-0.894758556587 0",
        "-0.432225858373 0.672789211313", "0.334485649531 0.30910700149", "0.779925223579 0")),
    "slice5": ((1, 1, 1, 1, 1, 1, 1), ("-1.96000061499 1.57135883938",
        "-1.13835994586 0.403702962073", "-0.997240987515 0.781084918243",
        "-0.199766189705 1.2418049833", "0.059808736203 1.93367121847",
        "0.473312215442 0.277301252937", "1.61664186048 0.730323702168")),
    "real6": ((1, 1, 2, 2, 2), ("-1.60767043653 0", "-0.300967673395 0",
        "0.231750891998 0.984910734497", "0.247838985929 1.14431407995",
        "0.632953464515 0.294967308507")),
    "slice6": ((1, 1, 1, 1, 1, 1, 1, 1), ("-1.90230957959 0.080969100162",
        "-1.16044773228 0.058399226793", "-0.313151286628 2.24755057716",
        "-0.235628353977 1.80975845809", "0.576942398639 0.130437624512",
        "0.884826592238 0.551667244366", "1.13264655243 0.520868109988",
        "1.33356998414 2.01308174802")),
    "real7": ((1, 1), ("-0.396615031665 0", "0.526707876927 0")),
    "slice7": ((1, 1), ("-0.35010326193 0.891599770452", "0.480196107192 0.210017665559")),
    "empty": ((), ()),
    "one-slice": ((1,), ("0.5 1.25",)),
    "complex-slice": ((1, 1, 2, 1), ("0 0.25", "0 0.5", "1 2", "3 0")),
    "real-slice": ((1, 1, 2), ("-2 0", "0.5 0", "1 0")),
}


@pytest.mark.parametrize("label,a", LAYOUT_INPUTS, ids=[lab for lab, _ in LAYOUT_INPUTS])
def test_every_decomposition_is_of_chi(label, a):
    a = QMatrix(a.c1, a.c2)    # a matrix of its own, decomposed here
    dec = spectral_decomposition(a)
    chi = complex_adjoint(a)
    assert dec.m.dtype == chi.dtype and dec.m.shape == chi.shape
    assert dec.m.tobytes() == chi.tobytes()
    assert "half" not in {f.name for f in dataclasses.fields(dec)} and not hasattr(dec, "half")
    if not a.is_complex_slice:
        return
    mult, printed = C_BLOCK_TABLE[label]
    assert [f"{spectral._fmt(s.re)} {spectral._fmt(s.im)}" for s in dec.spheres] == list(printed)
    assert dec.multiplicities == mult == dec.kernel_dims(1e-8) == dec.kernel_dims()
    assert dec.certified
    assert spectral.classify(a).to_lines() == sorted(f"{p} p a c s" for p in printed)
    assert localspec.decomposability_necessary(a).status == "PASS"
    rng = np.random.default_rng([34, a.rows])
    for _ in range(4):
        v = QVector.from_components(rng.uniform(-1.0, 1.0, (a.rows, 4)))
        assert localspec.local_spectrum(a, v) == dec.spheres
    first = dec.spheres[:1]
    assert localspec.local_subspace(a, first).dim == sum(mult[:1])
    assert localspec.global_subspace(a, first).dim == sum(mult[:1])


# -- one image: the norms and the growth bounds read chi(A) --------------------


def _growth_inputs():
    """Every non-diagonal input of this file, once each, then every golden
    ``dense`` case."""
    seen = {}
    for lab, a in INPUTS + VALIDATOR_INPUTS + KERNEL_INPUTS:
        if not a.is_diagonal:
            seen.setdefault(id(a), (lab, a))
    out = list(seen.values())
    for idx in range(COUNT):
        name, op, text, _ = build_case(idx)
        if op == "dense":
            out.append((name, io.parse_qmat(text)))
    return out


#: sha256 over ``growth_bounds`` of the non-complex-slice inputs of
#: ``_growth_inputs``, taken when the growth bounds still read the C_i block
#: of a complex-slice power: the images of these inputs' powers were chi
#: then too, so their bounds keep every bit
GROWTH_DIGEST = "c82f47302fcff193615b38e07eb05ce369f06efbcd5f6d982a77592843b0b91b"


def test_growth_bounds_and_norms_read_chi():
    inputs = _growth_inputs()
    assert len(inputs) == 69
    digest = hashlib.sha256()
    sliced = 0
    for label, a in inputs:
        bounds = spectral.growth_bounds(a)
        assert bounds == ref.growth_bounds(a), label
        if not a.is_complex_slice:
            digest.update(np.array(bounds).tobytes())
            continue
        # chi of a complex-slice A holds each value of its C_i block twice:
        # the norms of A and of its powers match the block's SVD
        sliced += 1
        power = a
        for n in range(1, 9):
            s = np.linalg.svd(power.c1, compute_uv=False)
            scale = 1.0 + s[0]
            assert abs(op_norm(power) - s[0]) <= 1e-14 * scale, (label, n)
            assert abs(qlinalg.min_singular(power) - s[-1]) <= 1e-14 * scale, (label, n)
            power = power @ a
    assert sliced == 16
    assert digest.hexdigest() == GROWTH_DIGEST


def test_only_the_portrait_kernel_picks_the_c_i_block():
    # qlinalg keeps one image of a matrix, chi(A); the one read of
    # is_complex_slice outside its definition is the dense portrait kernel's
    assert not hasattr(qlinalg, "complex_image")
    reads = set()
    for name in ("cli", "io", "localspec", "operators", "qlinalg", "quat", "rand",
                 "sliceseries", "spectral", "suites"):
        for func in ast.walk(_module_tree(name)):
            if isinstance(func, ast.FunctionDef):
                reads.update((name, func.name) for node in ast.walk(func)
                             if isinstance(node, ast.Attribute)
                             and node.attr == "is_complex_slice")
    assert reads == {("spectral", "_image")}
