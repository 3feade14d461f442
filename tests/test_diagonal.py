"""Diagonal matrices in closed form: ``spectral_decomposition`` and
``growth_bounds`` read a diagonal matrix off its entries, and the Schur
route and the power loop, which every other matrix takes, are their
reference here."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
import spectral_reference as ref
from test_golden import COUNT, build_case

from qspec import io, localspec, qlinalg, spectral
from qspec.errors import NumericalError
from qspec.qlinalg import RESOLVENT_OVERFLOW, QMatrix, QVector, op_norm
from qspec.quat import SPHERE_MERGE_TOL, Quaternion

EPS = np.finfo(float).eps


def _diag(*entries) -> QMatrix:
    return QMatrix.diag([Quaternion(*e) for e in entries])


def _inputs():
    """(label, diagonal matrix): the golden ``mult`` cases and entries that
    break naive code."""
    out = []
    for idx in range(COUNT):
        name, op, text, _ = build_case(idx)
        if op == "mult":
            out.append((name, io.parse_qfun(text).as_qmatrix()))
    units = np.random.default_rng(5).normal(size=(4, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    # one sphere on four slices, with both signs of each unit
    out.append(("repeated-units", _diag(*[(0.3, *(s * 1.2 * u)) for u in units for s in (1, -1)],
                                        (-1.0, 0.5, 0.0, 0.0))))
    out.append(("imaginary-and-real", _diag((0.0, 0.0, 1.5, 0.0), (0.0, 0.3, 0.4, 0.0),
                                            (2.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0),
                                            (2.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, -0.5),
                                            (0.0, -1.5, 0.0, 0.0))))
    # C_i diagonals: conjugate entries on one sphere, and a real one
    out.append(("complex-slice", QMatrix(np.diag([1 + 2j, 1 - 2j, -0.5j, 3.0, 0.25j]),
                                         np.zeros((5, 5)))))
    out.append(("real-slice", QMatrix(np.diag([1.0, -2.0, 1.0, 0.5]), np.zeros((4, 4)))))
    out.append(("zero-entry", _diag((0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0),
                                    (0.0, 0.0, 0.0, 0.0), (-0.7, 0.0, 0.2, 0.1))))
    # a chain of entries 0.3 SPHERE_MERGE_TOL apart merges into one sphere;
    # 2.5 of it away, another stays apart
    step = 0.3 * SPHERE_MERGE_TOL * 2.0
    out.append(("within-merge-tol", _diag((1.0, 0.5, 0.0, 0.0), (1.0 + step, 0.0, 0.5, 0.0),
                                          (1.0 + 2 * step, 0.0, 0.0, 0.5 + step),
                                          (1.0 + 12 * step, 0.5, 0.0, 0.0),
                                          (-1.0, 0.2, 0.0, 0.0))))
    return out


INPUTS = _inputs()


@pytest.mark.parametrize("label,a", INPUTS, ids=[lab for lab, _ in INPUTS])
def test_closed_form_matches_the_schur_route(label, a):
    assert a.is_diagonal
    got, want = qlinalg.spectral_decomposition(a), ref.schur_route(a)
    # the same spheres, in an order of their own: equal real parts go by im
    # here, and by the rounding in re on the Schur route
    order = [min(range(len(want.spheres)), key=lambda j: s.distance(want.spheres[j]))
             for s in got.spheres]
    assert sorted(order) == list(range(len(want.spheres)))
    assert [s.key() for s in got.spheres] == sorted(s.key() for s in got.spheres)
    for s, j in zip(got.spheres, order):
        assert s.matches(want.spheres[j], 1e-14), (s, want.spheres[j])
    assert got.multiplicities == tuple(want.multiplicities[j] for j in order)
    for tol in (1e-8, 1e-10):
        assert got.kernel_dims(tol) == tuple(want.kernel_dims(tol)[j] for j in order)
    top = want.singular_values.max()
    assert np.abs(got.singular_values - want.singular_values[order]).max() <= 1e-14 * top
    assert got.certified == want.certified
    got_p, want_p = ref.projections(got), ref.projections(want)
    for p, q in zip(got_p, [want_p[j] for j in order]):
        assert op_norm(p - q) <= 1e-10
    # coordinate projections: 0/1 on the diagonal, exactly, of condition 1,
    # and the full factored check accepts them with no residual formed
    assert got.conditions == (1.0,) * len(got.spheres)
    for p in got_p:
        assert np.array_equal(p.c1, np.diag(p.c1.diagonal())) and not p.c2.any()
        assert set(p.c1.diagonal().tolist()) <= {0.0, 1.0}
    assert np.array_equal(sum(p.c1 for p in got_p), np.eye(a.rows))
    qlinalg._check_projections(got.m, *got.projection_factors, got.conditions)
    # the closed form keeps no Schur factors
    assert got.z is None and got.w is None
    radius, lower = spectral.growth_bounds(a)
    loop_radius, loop_lower = ref.growth_bounds(a)
    assert abs(radius - loop_radius) <= 1e-14 * radius
    moduli = [abs(a.entry(k, k)) for k in range(a.rows)]
    assert radius == pytest.approx(max(moduli), rel=2 * EPS, abs=0.0)
    assert lower == pytest.approx(min(moduli), rel=2 * EPS, abs=0.0)
    # the loop's kappa(A) is an SVD value, min|g| up to its rounding
    assert lower <= loop_lower + 2 * EPS * lower


#: sha256 of ``_closed_form_digest`` over INPUTS, taken when the closed
#: form also built an eigenvector basis Z, W = I and a diagonal T, and
#: re-taken when the complex-slice inputs moved from their C_i block to
#: chi(A), with the digest of the other inputs and their spheres and
#: multiplicities unchanged: what it keeps must stay bit for bit what it was
CLOSED_FORM_DIGEST = "5ce6dc0b057b1980069ad93b7a9fd41735a5c6d6f823b222070580f85d9c1b57"


def _closed_form_digest(decs) -> str:
    """sha256 over the spheres, multiplicities, singular values, blocks,
    owners, entries and projection factors of each decomposition."""
    h = hashlib.sha256()
    for dec in decs:
        spheres = np.array([(s.re, s.im) for s in dec.spheres], dtype=float)
        ints = [np.array(x, dtype=np.int64) for x in (dec.multiplicities, dec.blocks,
                                                      dec.owner, dec.entries)]
        for x in (spheres, dec.singular_values, *ints, *dec.projection_factors):
            h.update(f"{x.dtype.str} {x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def test_only_the_schur_route_keeps_schur_factors():
    # a diagonal matrix keeps no Z, W or T, and what it keeps is unchanged
    decs = []
    for label, a in INPUTS:
        dec = qlinalg.spectral_decomposition(QMatrix(a.c1, a.c2))
        assert dec.z is None and dec.w is None and not hasattr(dec, "t"), label
        decs.append(dec)
    assert _closed_form_digest(decs) == CLOSED_FORM_DIGEST
    # every other matrix keeps the Z, W and blocks of a fresh Schur form
    # of its image and its split, and no T
    for idx in range(COUNT):
        name, op, text, _ = build_case(idx)
        if op != "dense":
            continue
        a = io.parse_qmat(text)
        assert not a.is_diagonal, name
        dec = qlinalg.spectral_decomposition(a)
        _, z, blocks, w = ref.schur_split(dec.m)
        assert np.array_equal(dec.z, z) and np.array_equal(dec.w, w), name
        assert dec.blocks == blocks and not hasattr(dec, "t"), name


def test_no_schur_factors_to_read_on_a_diagonal_or_empty_matrix():
    # a decomposition with z = w = None says so, rather than failing inside
    # a matrix product
    for a in (_diag((1.0, 0.5, 0.0, 0.0), (2.0, 0.0, 0.3, 0.0)), QMatrix.zeros(0)):
        dec = qlinalg.spectral_decomposition(a)
        assert dec.z is None and dec.w is None
        for read in (lambda: dec.factors, lambda: dec.sphere_factors):
            with pytest.raises(ValueError, match="decomposition has no Schur factors"):
                read()


def test_classify_reads_the_closed_form_lower_bound(tmp_path):
    # the seed-1 matrix benchmark input m134.qfun: the power loop printed
    # 0.032778695027, above its smallest sphere |g| = 0.0327785798276774
    from test_spectral import _matrix_request_values

    values = _matrix_request_values(tmp_path, 1, "m134.qfun")
    a = QMatrix.diag(values)
    smallest = min(abs(q) for q in values)
    assert spectral._fmt(ref.growth_bounds(a)[1]) == "0.032778695027"
    report = spectral.classify(a)
    assert report.lower_bound == pytest.approx(smallest, rel=2 * EPS, abs=0.0)
    assert spectral.annulus_check(report).ok
    assert min(s.abs_value() for s in report.spheres) == pytest.approx(smallest, rel=1e-14)


#: diagonal inputs the Schur route refuses, and what it says
ERRORS = {
    "resolvent-overflow": _diag((1e160, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0)),
    "resolvent-overflow-chi": _diag((1e160, 0.0, 1.0, 0.0), (1.0, 0.5, 0.0, 0.0)),
    "resolvent-overflow-real": QMatrix(np.diag([2e154, 1.0]), np.zeros((2, 2))),
    "nan": _diag((math.nan, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0)),
    "inf-chi": _diag((1.0, 0.0, math.inf, 0.0), (1.0, 0.5, 0.0, 0.0)),
}


@pytest.mark.parametrize("label", sorted(ERRORS))
def test_closed_form_raises_as_the_schur_route(label):
    a = ERRORS[label]
    assert a.is_diagonal
    with pytest.raises(NumericalError) as want:
        ref.schur_route(a)
    with pytest.raises(NumericalError) as got:
        qlinalg.spectral_decomposition(a)
    assert str(got.value) == str(want.value)
    if label.startswith("resolvent"):
        assert str(got.value) == RESOLVENT_OVERFLOW
    # and a failed build keeps nothing
    assert getattr(a, "_spectral", None) is None


def test_squared_singular_values_overflow_as_on_the_schur_route():
    # R_q's values near 1e200 would pass double precision when squared; |A|_F
    # is summed over the values scaled by the largest, so both routes count
    # the kernels, and count them alike
    a = _diag((1e100, 0.0, 0.0, 0.0), (-1e100, 0.3, 0.0, 0.0), (1.0, 0.0, 0.5, 0.0))
    closed, schur = qlinalg.spectral_decomposition(a), ref.schur_route(a)
    assert closed.singular_values.max() > 1e200
    assert closed.kernel_dims() == schur.kernel_dims() == closed.multiplicities == (1, 1, 1)
    assert closed.kernel_dims(1e-8) == schur.kernel_dims(1e-8) == (1, 1, 1)


def test_diagonal_matrices_take_no_schur_form(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a diagonal matrix took the Schur route")

    monkeypatch.setattr(qlinalg, "_schur", refused)
    monkeypatch.setattr(qlinalg, "resolvent_singular_values", refused)
    for _, a in INPUTS:
        b = QMatrix(a.c1, a.c2)
        spectral.classify(b)
        ref.projections(localspec.spectral_projections(b))


def test_diagonal_verdict_makes_no_lapack_call_and_no_svd(monkeypatch):
    # classify, the decomposability verdict, local spectra and the
    # projections of a diagonal matrix come off its entries
    def refused(*args, **kwargs):
        raise AssertionError("a diagonal matrix made a LAPACK call or an SVD")

    class Refused:
        def __getattr__(self, attr):
            return refused

    monkeypatch.setattr(qlinalg, "_lapack", Refused)
    for name in ("svd", "qr", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refused)
    monkeypatch.setattr(qlinalg, "_conditioned", refused)
    monkeypatch.setattr(qlinalg, "_factored_residuals", refused)
    for label, a in INPUTS:
        b = QMatrix(a.c1, a.c2)
        report = spectral.classify(b)
        assert localspec.decomposability_necessary(b).status == "PASS", label
        localspec.local_spectrum(b, QVector.basis(b.rows, 0))
        assert len(ref.projections(localspec.spectral_projections(b))) == len(report.spheres)


@pytest.mark.parametrize("complex_slice", [False, True], ids=["chi", "complex-slice"])
def test_an_entry_with_two_owners_breaks_the_structure(complex_slice):
    # the one check of coordinate projections: every entry of A has exactly
    # one owner among the spheres.  An entry whose two positions on chi(A)
    # went to two spheres has two, whether the positions were swapped or
    # one was moved onto another entry
    a = (QMatrix(np.diag([1.0 + 2j, -0.5j, 3.0]), np.zeros((3, 3))) if complex_slice
         else _diag((1.0, 0.5, 0.0, 0.0), (-1.0, 0.0, 0.3, 0.0), (2.0, 0.0, 0.0, 0.0)))
    dec = qlinalg.spectral_decomposition(a)
    owner, _ = dec.positions
    entries = np.array(dec.entries)
    p, q = 0, int(np.flatnonzero(owner != owner[0])[0])
    if complex_slice:
        entries[p] = entries[q]
    else:
        entries[p], entries[q] = entries[q], entries[p]
    broken = dataclasses.replace(dec, entries=entries)
    for _ in range(2):
        with pytest.raises(NumericalError, match="projection broke the quaternionic structure"):
            broken.conditions
        assert "_validated" not in vars(broken)
    assert dec.conditions == (1.0,) * len(dec.spheres)


def test_is_diagonal_reads_the_entries():
    d = _diag((1.0, 0.5, 0.0, 0.0), (2.0, 0.0, 0.3, 0.0))
    assert d.is_diagonal and QMatrix.zeros(3, 3).is_diagonal and QMatrix.identity(1).is_diagonal
    assert QMatrix.zeros(0, 0).is_diagonal
    c1, c2 = np.array(d.c1), np.array(d.c2)
    c2[0, 1] = 1e-300
    assert not QMatrix(c1, c2).is_diagonal
    c1[1, 0], c2[0, 1] = 1e-300, 0.0
    assert not QMatrix(c1, c2).is_diagonal
    # a rectangular matrix is not diagonal, whatever its entries
    assert not QMatrix.zeros(2, 3).is_diagonal
