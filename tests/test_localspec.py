import numpy as np
import pytest
import spectral_reference as ref
from test_spectral import _rotated

from qspec import rand, spectral
from qspec.errors import PoleError
from qspec.localspec import (
    check_ab_ba,
    check_aba,
    check_combination,
    check_commutant,
    check_intertwining,
    check_resolvent_identity,
    decomposability_necessary,
    global_subspace,
    local_resolvent_diag,
    local_spectrum,
    local_subspace,
    spectral_projections,
    svep_status,
)
from qspec.operators import MultiplicationOperator, ShiftOperator
from qspec.qlinalg import QMatrix, QVector, op_norm, spectral_decomposition
from qspec.quat import EigenSphere, Quaternion, sphere_in

Z = Quaternion(0)
ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)

DIAG = QMatrix.from_quaternions([[I, Z], [Z, 2 * J]])


def test_local_spectrum_of_basis_vectors():
    s1 = tuple(local_spectrum(DIAG, QVector.basis(2, 0)))
    assert len(s1) == 1 and s1[0].matches(EigenSphere(0, 1), 1e-9)
    s2 = tuple(local_spectrum(DIAG, QVector.basis(2, 1)))
    assert len(s2) == 1 and s2[0].matches(EigenSphere(0, 2), 1e-9)


def test_local_spectrum_of_mixed_vector():
    phi = QVector.from_quaternions([I, J])
    spheres = tuple(local_spectrum(DIAG, phi))
    assert len(spheres) == 2


def test_local_spectrum_zero_vector_empty():
    assert local_spectrum(DIAG, QVector.zeros(2)) == ()
    a = rand.rand_qmatrix(rand.generator(67, 0), 4, 4)
    assert local_spectrum(a, QVector.zeros(4)) == ()


def test_local_spectra_union_is_spectrum():
    rng = rand.generator(71, 0)
    a = rand.rand_qmatrix(rng, 4, 4)
    union = []
    for k in range(4):
        union.extend(local_spectrum(a, QVector.basis(4, k)))
    from qspec.quat import merge_spheres, sphere_sets_equal
    from qspec.spectral import s_spectrum

    assert sphere_sets_equal(merge_spheres(tuple(union)), s_spectrum(a), 1e-6)


def test_spectral_projections_identities():
    rng = rand.generator(73, 0)
    a = rand.rand_qmatrix(rng, 4, 4)
    ps = spectral_projections(a)
    assert ps.certified
    projections = ref.projections(ps)
    total = projections[0]
    for p in projections[1:]:
        total = total + p
    assert np.allclose(total.c1, np.eye(4), atol=1e-8)
    for idx, p in enumerate(projections):
        assert op_norm(p @ p - p) < 1e-8 * max(1.0, ps.conditions[idx])
        # ranges are invariant: A P = P A P
        lhs = a @ p
        rhs = p @ (a @ p)
        assert op_norm(lhs - rhs) < 1e-6 * (1 + op_norm(a))


def test_spectral_projection_single_sphere_is_identity():
    a = QMatrix.from_quaternions([[I, Z], [Z, J]])  # one sphere (0,1)
    ps = spectral_projections(a)
    assert len(ref.projections(ps)) == 1
    assert np.allclose(ref.projections(ps)[0].c1, np.eye(2))


def test_single_sphere_projection_is_exactly_the_identity():
    # a lone sphere takes the general path and comes out as I bit for bit,
    # on chi(A) and on the C_i block
    for a in (QMatrix.from_quaternions([[I, Z], [Z, J]]),
              QMatrix.diag([Quaternion(0.5, 2.0)] * 3)):
        ps = spectral_projections(a)
        assert ps.conditions == (1.0,)
        one, = ref.projections(ps)
        assert np.array_equal(one.c1, np.eye(a.rows))
        assert not np.any(one.c2)


def _memory_inputs():
    """(label, matrix): 40 spheres of equal width at n = 40, and one 30-fold
    sphere (on 30 slices) among 31 at n = 60, each rotated off the diagonal,
    where the coordinate projections would take over."""
    n = 40
    equal = QMatrix(np.diag(np.arange(1.0, n + 1) + 0.3j), np.diag(np.full(n, 0.4 + 0j)))
    units = np.random.default_rng(7).normal(size=(30, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    entries = [Quaternion(0.5, *(1.2 * u)) for u in units]
    entries += [Quaternion(-2.0 + 4.0 * k / 30, 0.3 + 0.05 * k) for k in range(30)]
    return [("equal-widths", _rotated(equal)), ("mixed-widths", _rotated(QMatrix.diag(entries)))]


def test_spectral_projections_memory_stays_within_three_stacks():
    # the (k, 2n, 2n) complex stack of all projectors is 4.1 MB for 40
    # spheres at n = 40 and 7.1 MB for 31 at n = 60; all k^2 products at
    # once would be 164 MB for the first.  Validation forms the projectors a
    # chunk at a time and checks the factors: the peaks were 1.1 and 1.8
    # stacks, against 2.6 and 3.6 when the stack and its J-conjugate were
    # formed whole
    import tracemalloc

    for label, a in _memory_inputs():
        dec = spectral_decomposition(a)
        assert not a.is_diagonal and "_validated" not in vars(dec)
        equal = label == "equal-widths"
        assert sorted(set(dec.multiplicities)) == ([1] if equal else [1, 30])
        assert len(dec.spheres) == (40 if equal else 31)
        stack_bytes = len(dec.spheres) * len(dec.m) ** 2 * 16
        tracemalloc.start()
        try:
            assert spectral_projections(a) is dec
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dec.conditions) == len(dec.spheres)
        assert peak <= 2 * stack_bytes, (label, peak / stack_bytes)


def test_local_resolvent_diag_frozen():
    m = MultiplicationOperator(("p",), (I,))
    f = QVector.from_quaternions([ONE])
    h = local_resolvent_diag(m, f, Quaternion(2))
    # d = g^2 - 4 g + 4 = 3 - 4i, h = d^{-1} = (3 + 4i) / 25
    assert h.entry(0).isclose(Quaternion(0.12, 0.16, 0, 0))


def test_local_resolvent_pole_guard():
    m = MultiplicationOperator(("p",), (I,))
    f = QVector.from_quaternions([ONE])
    with pytest.raises(PoleError):
        local_resolvent_diag(m, f, J)  # [j] = [i] hits the value sphere


def test_local_resolvent_is_zero_at_a_pole_where_f_is():
    # q = j lies on the sphere of g = i, but f vanishes there: no pole
    m = MultiplicationOperator(("p", "r"), (I, Quaternion(2)))
    f = QVector.from_quaternions([Quaternion(), ONE])
    h = local_resolvent_diag(m, f, J)
    # at g = 2, d = g^2 + |j|^2 = 5
    assert h.entry(0) == Quaternion() and h.entry(1).isclose(Quaternion(0.2))


def test_local_resolvent_inverts_pseudo_resolvent():
    rng = rand.generator(79, 0)
    vals = tuple(rand.rand_quaternion(rng) for _ in range(5))
    m = MultiplicationOperator(tuple("abcde"), vals)
    f = rand.rand_qvector(rng, 5)
    q = Quaternion(4.0, 1.0, 0, 0)  # far from every value sphere
    h = local_resolvent_diag(m, f, q)
    a = m.as_qmatrix()
    from qspec.spectral import pseudo_resolvent

    back = pseudo_resolvent(a, q).apply(h)
    assert (back - f).norm() < 1e-8 * (1 + f.norm())


def test_local_subspace_dimensions():
    part = local_subspace(DIAG, (EigenSphere(0, 1),))
    assert part.dim == 1
    assert ref.in_subspace(part, QVector.basis(2, 0), 1e-8)
    both = local_subspace(DIAG, (EigenSphere(0, 1), EigenSphere(0, 2)))
    assert both.dim == 2


def test_global_subspace_matches_local():
    rng = rand.generator(83, 0)
    a = rand.rand_qmatrix(rng, 4, 4)
    ps = spectral_projections(a)
    take = ps.spheres[:1]
    loc = local_subspace(a, take)
    glo = global_subspace(a, take)
    assert loc.dim == glo.dim
    assert op_norm(loc.projection() - glo.projection()) < 1e-7


def _subspace_inputs():
    """(label, matrix): the golden inputs, the validator inputs (Jordan,
    close-pair, single-sphere and ``mult:`` inputs among them) and 0 x 0."""
    from test_decomposition import VALIDATOR_INPUTS
    from test_golden import COUNT, build_case

    from qspec import io as qio

    out = list(VALIDATOR_INPUTS)
    for idx in range(COUNT):
        name, op, text, _ = build_case(idx)
        out.append((name, qio.parse_qmat(text) if op == "dense"
                    else qio.parse_qfun(text).as_qmatrix()))
    return out + [("empty", QMatrix.zeros(0))]


SUBSPACE_INPUTS = _subspace_inputs()


@pytest.mark.parametrize("label,a", SUBSPACE_INPUTS, ids=[lab for lab, _ in SUBSPACE_INPUTS])
def test_subspaces_match_the_per_sphere_route(label, a):
    # one projection of F (or of F^c) against the per-sphere projections
    # side by side (or stacked), for F empty, whole, one sphere, every other
    # sphere, outside the spectrum, and one sphere with an outside one
    dec = spectral_projections(a)
    spheres, far = dec.spheres, (EigenSphere(99.0, 7.0),)
    for f in ((), spheres, spheres[:1], spheres[::2], far, spheres[:1] + far):
        chosen = [sphere_in(s, f) for s in dec.spheres]
        for got, want in ((local_subspace(a, f), ref.local_subspace(dec, chosen)),
                          (global_subspace(a, f), ref.global_subspace(dec, chosen))):
            assert got.dim == want.dim == sum(m for m, c in zip(dec.multiplicities, chosen)
                                              if c), (label, f)
            assert op_norm(got.projection() - want.projection()) <= 1e-8, (label, f)


def _large_draw(n: int) -> QMatrix:
    """The complex-normal draw of the classify-large gate: c1, then c2."""
    rng = np.random.default_rng(3)
    c1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return QMatrix(c1, c2)


def test_subspaces_of_a_large_draw_stay_small():
    # at n = 40 (40 spheres) the stack of the 39 other spheres' projections
    # handed its 3120 x 80 image to a full SVD, whose U alone is 156 MB (the
    # peak was 164 MB); one complementary projection is an 80 x 80 image
    import tracemalloc

    a = _large_draw(40)
    spheres = spectral_projections(a).spheres
    assert len(spheres) == 40
    for fn in (local_subspace, global_subspace):
        for f in (spheres[:1], spheres[:20]):
            tracemalloc.start()
            try:
                basis = fn(a, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert basis.dim == len(f)
            assert peak <= 4e6, (fn.__name__, len(f), peak)


def test_check_combination_and_commutant():
    rng = rand.generator(89, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    phi = rand.rand_qvector(rng, 3)
    psi = rand.rand_qvector(rng, 3)
    b = rand.rand_commutant(rng, a)
    assert check_combination(a, phi, psi, rand.rand_quaternion(rng),
                             rand.rand_quaternion(rng))
    assert check_commutant(a, b, phi)


def test_check_commutant_rejects_noncommuting():
    rng = rand.generator(97, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    b = rand.rand_qmatrix(rng, 3, 3)
    if op_norm(a @ b - b @ a) > 1e-6:
        with pytest.raises(ValueError):
            check_commutant(a, b, rand.rand_qvector(rng, 3))


def test_check_ab_ba_square_and_rectangular():
    rng = rand.generator(101, 0)
    a = rand.rand_invertible(rng, 3)
    b = rand.rand_qmatrix(rng, 3, 3)
    assert check_ab_ba(a, b, rand.rand_qvector(rng, 3))
    wide = rand.rand_qmatrix(rng, 2, 4)
    tall = rand.rand_qmatrix(rng, 4, 2)
    assert check_ab_ba(wide, tall, rand.rand_qvector(rng, 4))


def test_check_aba_idempotents():
    rng = rand.generator(103, 0)
    p = rand.rand_idempotent(rng, 4, 2)
    q = rand.rand_idempotent(rng, 4, 2)
    assert check_aba(p @ q, q @ p, rand.rand_qvector(rng, 4))


def test_check_intertwining_similarity():
    rng = rand.generator(107, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    s = rand.rand_invertible(rng, 3)
    from qspec.qlinalg import inverse_matrix

    b = s @ a @ inverse_matrix(s)
    phi = rand.rand_qvector(rng, 3)
    from qspec.spectral import s_spectrum

    assert check_intertwining(a, b, s, phi, s_spectrum(a)[:1])


def test_check_resolvent_identity_callable():
    rng = rand.generator(109, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    phi = rand.rand_qvector(rng, 3)
    from qspec.qlinalg import inverse_matrix
    from qspec.spectral import pseudo_resolvent

    samples = (Quaternion(9.0), Quaternion(8.0, 3.0, 0, 0))

    def f(q):
        return inverse_matrix(pseudo_resolvent(a, q)).apply(phi)

    assert check_resolvent_identity(a, phi, f, samples)


def test_matrix_decomposability_passes():
    rng = rand.generator(113, 0)
    a = rand.rand_qmatrix(rng, 4, 4)
    verdict = decomposability_necessary(a)
    assert verdict.status == "PASS" and bool(verdict)


def test_shift_decomposability_fails_with_witness():
    right = decomposability_necessary(ShiftOperator("right"))
    assert right.status == "FAIL" and not bool(right)
    assert right.witness.matches(EigenSphere(0.5, 0.0), 1e-9)
    left = decomposability_necessary(ShiftOperator("left"))
    assert left.status == "FAIL"
    assert left.witness.matches(EigenSphere(0.5, 0.0), 1e-9)


def test_shift_decomposability_builds_no_section(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a shift verdict must not sample a finite section")

    monkeypatch.setattr(ShiftOperator, "finite_section", refuse)
    monkeypatch.setattr(spectral._SectionKappa, "values", refuse)
    for side in ("right", "left"):
        verdict = decomposability_necessary(ShiftOperator(side))
        assert verdict.status == "FAIL"
        assert verdict.witness.matches(EigenSphere(0.5, 0.0), 1e-9)
        assert "limit kappa 0.00e+00" in verdict.detail
        assert "limit kappa 0.250" in verdict.detail


def test_svep_verdicts():
    rng = rand.generator(127, 0)
    assert svep_status(rand.rand_qmatrix(rng, 3, 3)).has_svep is True
    assert svep_status(ShiftOperator("left")).has_svep is False
    assert svep_status(ShiftOperator("right")).has_svep is True
    with pytest.raises(TypeError):
        svep_status(object())
