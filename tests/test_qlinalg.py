import copy
import math
import pickle
import re

import numpy as np
import pytest
import spectral_reference as ref
from hypothesis import given
from hypothesis import strategies as st

from qspec import rand
from qspec.errors import NumericalError, ShapeError
from qspec.qlinalg import (
    QMatrix,
    QVector,
    SubspaceBasis,
    _kernel_dim,
    complex_adjoint,
    inner,
    inverse_matrix,
    kernel_basis,
    min_singular,
    op_norm,
    orthonormalize,
    pseudo_resolvent,
    right_eigenspheres,
    spectral_decomposition,
)
from qspec.quat import EigenSphere, Quaternion

Z = Quaternion(0)
ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def test_vector_entries_roundtrip():
    v = QVector.from_quaternions([ONE + I, J - K])
    assert v.entry(0) == ONE + I
    assert v.entry(1) == J - K
    assert QVector.from_quaternions([v.entry(k) for k in range(v.n)]).to_components().tolist() \
        == v.to_components().tolist()


def test_inner_product_conjugate_linear_left():
    u = QVector.from_quaternions([I])
    v = QVector.from_quaternions([J])
    # <i e | j e> = conj(i) j = -ij = -k
    assert inner(u, v) == -K
    assert inner(v, u) == K


def test_inner_right_linearity():
    rng = rand.generator(7, 0)
    u = rand.rand_qvector(rng, 3)
    v = rand.rand_qvector(rng, 3)
    q = rand.rand_quaternion(rng)
    lhs = inner(u, v.times(q))
    rhs = inner(u, v) * q
    assert (lhs - rhs).norm_sq() < 1e-20 * (1 + lhs.norm_sq())


def test_right_scalar_action_commutes_with_matrix():
    rng = rand.generator(11, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    v = rand.rand_qvector(rng, 3)
    q = rand.rand_quaternion(rng)
    lhs = a.apply(v.times(q))
    rhs = a.apply(v).times(q)
    assert (lhs - rhs).norm() < 1e-10 * (1 + rhs.norm())


def test_chi_shape_and_frozen_value():
    m = QMatrix.from_quaternions([[J]])
    chi = complex_adjoint(m)
    assert chi.shape == (2, 2)
    assert np.allclose(chi, np.array([[0, 1], [-1, 0]], dtype=complex))


def test_chi_multiplicative():
    rng = rand.generator(3, 1)
    a = rand.rand_qmatrix(rng, 3, 3)
    b = rand.rand_qmatrix(rng, 3, 3)
    lhs = complex_adjoint(a @ b)
    rhs = complex_adjoint(a) @ complex_adjoint(b)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_chi_of_adjoint_is_hermitian_transpose():
    rng = rand.generator(3, 2)
    a = rand.rand_qmatrix(rng, 2, 4)
    lhs = complex_adjoint(a.adjoint())
    rhs = complex_adjoint(a).conj().T
    assert np.allclose(lhs, rhs)


def test_structure_residual_zero_for_honest_chi():
    rng = rand.generator(5, 0)
    a = rand.rand_qmatrix(rng, 3, 2)
    chi = complex_adjoint(a)
    assert np.array_equal(ref.j_conj(chi), chi)
    # a stack of complex adjoints is fixed as a whole
    stack = np.stack([chi, complex_adjoint(rand.rand_qmatrix(rng, 3, 2))])
    assert np.array_equal(ref.j_conj(stack), stack)
    assert np.array_equal(chi[:3, :2], a.c1) and np.array_equal(chi[:3, 2:], a.c2)


def test_structure_residual_detects_foreign_matrix():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.linalg.norm(m - ref.j_conj(m)) > 0.5
    stack = np.stack([complex_adjoint(QMatrix.identity(1)), m])
    assert np.linalg.norm(stack[1] - ref.j_conj(stack)[1]) > 0.5
    assert np.array_equal(ref.j_conj(stack)[0], stack[0])


def test_adjoint_frozen_example():
    a = QMatrix.from_quaternions([[I, J], [Z, K]])
    at = a.adjoint()
    expect = QMatrix.from_quaternions([[-I, Z], [-J, -K]])
    assert np.allclose(at.c1, expect.c1) and np.allclose(at.c2, expect.c2)


def test_adjoint_moves_inner_product():
    rng = rand.generator(9, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    u = rand.rand_qvector(rng, 3)
    v = rand.rand_qvector(rng, 3)
    lhs = inner(a.apply(u), v)
    rhs = inner(u, a.adjoint().apply(v))
    assert (lhs - rhs).norm_sq() < 1e-18 * (1 + rhs.norm_sq())


def test_matmul_associative_and_shapes():
    rng = rand.generator(13, 0)
    a = rand.rand_qmatrix(rng, 2, 3)
    b = rand.rand_qmatrix(rng, 3, 4)
    c = rand.rand_qmatrix(rng, 4, 2)
    lhs = (a @ b) @ c
    rhs = a @ (b @ c)
    assert lhs.shape == (2, 2)
    assert np.allclose(lhs.c1, rhs.c1, atol=1e-10)
    with pytest.raises(ShapeError):
        _ = a @ a


def test_right_eigenspheres_diagonal():
    a = QMatrix.from_quaternions([[I, Z], [Z, J + J]])
    spheres = right_eigenspheres(a)
    assert len(spheres) == 2
    assert spheres[0].matches(EigenSphere(0, 1), 1e-9)
    assert spheres[1].matches(EigenSphere(0, 2), 1e-9)


def test_kernel_basis_counts():
    a = QMatrix.from_quaternions([[ONE, Z], [Z, Z]])
    ker = kernel_basis(a)
    assert ker.shape == (2, 1)
    assert (a @ ker).frobenius() < 1e-12
    assert kernel_basis(QMatrix.identity(3)).shape == (3, 0)


def _rank_product(rng, n, m, r, kind):
    """An n x m product of rank r: quaternionic, complex-slice or real."""
    if kind == "quaternion":
        return rand.rand_qmatrix(rng, n, r) @ rand.rand_qmatrix(rng, r, m)
    left, right = rng.normal(size=(n, r)), rng.normal(size=(r, m))
    if kind == "complex":
        left = left + 1j * rng.normal(size=(n, r))
        right = right + 1j * rng.normal(size=(r, m))
    return QMatrix(left @ right, np.zeros((n, m)))


def _planted_resolvents(rng):
    """(R_q(S D S^-1), eigenspace dimension) at each planted sphere.

    One quaternionic and one complex-slice similarity image, each with a
    sphere carried by two diagonal entries (i and j; 1+2i and 1-2i).
    """
    out = []
    s = rand.rand_invertible(rng, 5)
    d = QMatrix.diag([I, J, 2 * ONE + K, Quaternion(0.5), Quaternion(-1, 0, 3, 0)])
    a = s @ d @ inverse_matrix(s)
    for q, dim in ((I, 2), (2 * ONE + K, 1), (Quaternion(0.5), 1), (Quaternion(-1, 3), 1)):
        out.append((pseudo_resolvent(a, q), dim))
    sc = QMatrix(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), np.zeros((4, 4)))
    dc = QMatrix.diag([Quaternion(1, 2), Quaternion(1, -2), Quaternion(3), Quaternion(0, 1)])
    ac = sc @ dc @ inverse_matrix(sc)
    for q, dim in ((Quaternion(1, 2), 2), (Quaternion(3), 1), (J, 1)):
        out.append((pseudo_resolvent(ac, q), dim))
    return out


def test_nullity_matches_kernel_basis():
    rng = rand.generator(61, 0)
    cases = [(QMatrix.identity(3), 0), (QMatrix.zeros(3, 4), 4),
             (QMatrix.zeros(0, 2), 2), (QMatrix.zeros(2, 0), 0)]
    # 5e-10 is above tol = 1e-10 but below the threshold tol * (1 + |A|_F)
    for small in (Quaternion(5e-10), 5e-10 * K):
        cases.append((QMatrix.diag([10 * ONE, 10 * I, small]), 1))
    for rows, cols in ((4, 4), (3, 5), (5, 3)):
        cases.append((rand.rand_qmatrix(rng, rows, cols), max(cols - rows, 0)))
    for kind in ("quaternion", "complex", "real"):
        for n, m, r in ((5, 5, 2), (6, 4, 1), (4, 6, 3), (3, 3, 3)):
            cases.append((_rank_product(rng, n, m, r, kind), m - r))
    cases.extend(_planted_resolvents(rng))
    for a, dim in cases:
        assert ref.nullity(a) == kernel_basis(a).cols == dim, (a, dim)
        assert ref.nullity(a, tol=1e-8) == kernel_basis(a, tol=1e-8).cols == dim


def test_kernel_basis_takes_the_full_svd_only_when_wide(monkeypatch):
    # a tall or square A's thin SVD has the same s and vh, so the same basis
    # bits, with no (2 rows)^2 U; a wide A needs the full vh for its null rows
    import tracemalloc

    rng = rand.generator(63, 0)
    cases = [rand.rand_qmatrix(rng, rows, cols) for rows, cols in ((6, 3), (4, 4), (3, 5))]
    cases += [_rank_product(rng, n, m, r, kind) for kind in ("quaternion", "complex", "real")
              for n, m, r in ((7, 4, 2), (5, 5, 2), (4, 6, 3), (6, 3, 0))]
    thin = [kernel_basis(a) for a in cases]
    assert [b.cols for b in thin] == [ref.nullity(a) for a in cases]
    svd, asked = np.linalg.svd, []

    def full(x, full_matrices=True, **kwargs):
        asked.append(full_matrices)
        return svd(x, full_matrices=True, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", full)
    for a, got in zip(cases, thin):
        want = kernel_basis(a)
        assert np.array_equal(got.c1, want.c1) and np.array_equal(got.c2, want.c2), a
    assert asked == [a.rows < a.cols for a in cases]
    monkeypatch.undo()
    tall = rand.rand_qmatrix(rng, 400, 3)
    tracemalloc.start()
    try:
        assert kernel_basis(tall).cols == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full U alone is 800^2 complex entries, 10.2 MB; the thin one 77 kB
    assert peak <= 1e6, peak


def test_nullity_reuses_given_singular_values():
    # the kernel count reads only the singular values it is given
    a = rand.rand_qmatrix(rand.generator(62, 0), 2, 2)
    assert _kernel_dim(np.array([2.0, 2.0, 0.0, 0.0]), a.cols, 1e-10) == 1
    # chi values come in pairs; an odd count of small ones is a failure
    with pytest.raises(NumericalError):
        _kernel_dim(np.array([1.0, 1.0, 1.0, 0.0]), a.cols, 1e-10)


def _row_by_row(s: np.ndarray, cols: int, half: bool, tol: float):
    """The counts of the rows of s one at a time, or the message of the
    first row that fails."""
    try:
        return tuple(ref.kernel_dim(row, cols, half, tol) for row in s)
    except NumericalError as exc:
        return str(exc)


def _all_rows(s: np.ndarray, cols: int, half: bool, tol: float):
    """The counts of ``_kernel_dim``, which reads chi values: a C_i block's
    values (``half``) go in twice each, as chi of its matrix holds them."""
    try:
        return tuple(_kernel_dim(np.repeat(s, 2, axis=-1) if half else s, cols, tol).tolist())
    except NumericalError as exc:
        return str(exc)


@pytest.mark.parametrize("half", [False, True])
def test_kernel_dims_of_a_block_match_the_rule_row_by_row(half):
    # random value blocks: chi values in pairs, some rows with an unpaired
    # small value, values spread around the threshold, rows whose squares
    # would pass double precision, and rows with a value that is not
    # finite; every block gives the row-by-row counts or the first failing
    # row's message.  C_i-block values, counted once by the reference, give
    # the same counts as chi's, which holds each twice
    rng = np.random.default_rng([63, half])
    outcomes, huge_counted = set(), False
    for _ in range(400):
        spheres, cols = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        base = 10.0 ** rng.uniform(-13, 3, (spheres, cols))
        s = base if half else np.repeat(base, 2, axis=1)
        if not half and rng.random() < 0.3:
            s[int(rng.integers(spheres)), -1] *= 10.0 ** rng.uniform(-12, 0)
        huge = rng.random() < 0.1
        if huge:
            s[int(rng.integers(spheres)), :1 if half else 2] = 1e160    # a chi pair
        if rng.random() < 0.05:
            s[int(rng.integers(spheres)), 0] = np.inf
        s = -np.sort(-s, axis=1)
        for tol in (1e-8, 1e-10):
            want = _row_by_row(s, cols, half, tol)
            assert _all_rows(s, cols, half, tol) == want
            outcomes.add(want if isinstance(want, str) else "counts")
            huge_counted |= huge and not isinstance(want, str)
    assert "counts" in outcomes and huge_counted
    assert any("no finite |A|_F" in o for o in outcomes)
    assert half or any("odd" in o for o in outcomes)


def test_kernel_dims_raise_at_the_first_failing_row():
    odd, wide = [2.0, 2.0, 1.0, 0.0], [1e200, 1e200, 1.0, 1.0]
    # values near 1e200 count: |A|_F is summed over them scaled by the largest
    assert _kernel_dim(np.array([wide, [1e200] * 4]), 2, 1e-10).tolist() == [1, 0]
    for rows in ([odd, wide], [wide, odd]):
        with pytest.raises(NumericalError, match="chi\\(A\\) has an odd null space dimension 1"):
            _kernel_dim(np.array(rows), 2, 1e-10)
    # a value that is not finite gives no |A|_F, and fails where it stands
    for bad in (np.inf, np.nan):
        for rows, message in (([odd, [bad, 1.0, 1.0, 1.0]], "odd null space dimension 1"),
                              ([[bad, 1.0, 1.0, 1.0], odd], f"up to {bad:.3e} give no finite")):
            with pytest.raises(NumericalError, match=re.escape(message)):
                _kernel_dim(np.array(rows), 2, 1e-10)
    # the values of a C_i block, twice each on chi, count in pairs
    assert _kernel_dim(np.repeat([odd], 2, axis=1), 4, 1e-10).tolist() == [1]
    assert _kernel_dim(np.empty((0, 4)), 2, 1e-10).tolist() == []


def test_min_singular_invertible_vs_singular():
    assert min_singular(QMatrix.identity(4)) == pytest.approx(1.0)
    a = QMatrix.from_quaternions([[ONE, ONE], [ONE, ONE]])
    assert min_singular(a) < 1e-12


def test_op_norm_bounds_frobenius():
    rng = rand.generator(17, 0)
    a = rand.rand_qmatrix(rng, 4, 4)
    assert op_norm(a) <= a.frobenius() + 1e-12
    v = rand.rand_qvector(rng, 4)
    assert a.apply(v).norm() <= op_norm(a) * v.norm() * (1 + 1e-10)


def test_inverse_matrix():
    rng = rand.generator(19, 0)
    a = rand.rand_invertible(rng, 3)
    ia = inverse_matrix(a)
    eye = a @ ia
    assert np.allclose(eye.c1, np.eye(3), atol=1e-9)
    assert np.allclose(eye.c2, 0, atol=1e-9)


def test_orthonormalize_and_subspace():
    rng = rand.generator(23, 0)
    vs = [rand.rand_qvector(rng, 4) for _ in range(2)]
    vs.append(vs[0].times(I) + vs[1].times(J))  # right-dependent
    sub = SubspaceBasis(orthonormalize(_block(vs, 4)))
    assert sub.space_dim == 4 and sub.dim == 2
    assert ref.in_subspace(sub, vs[2], 1e-8)
    assert not ref.in_subspace(sub, QVector.basis(4, 3), 1e-3)


def _block(vs, n):
    """The length-n vectors ``vs`` as the columns of one matrix."""
    return QMatrix(np.array([v.c1 for v in vs]).reshape(len(vs), n).T,
                   np.array([v.c2 for v in vs]).reshape(len(vs), n).T)


def _kept_indices(counts):
    """Input indices that add a basis vector, read from the prefix counts."""
    return [i for i in range(len(counts) - 1) if counts[i + 1] > counts[i]]


def _span_projector(y):
    y = complex_adjoint(y)
    return y @ y.conj().T


def _assert_routes_agree(cols, drop_tol=1e-10):
    """The block CGS2 on the columns against the reference modified
    Gram-Schmidt on them one QVector at a time."""
    vs = [cols.col(j) for j in range(cols.cols)]
    fast, slow = orthonormalize(cols, drop_tol), ref.orthonormalize(vs, drop_tol)
    prefixes = range(cols.cols + 1)
    assert _kept_indices([orthonormalize(cols.take_cols(i), drop_tol).cols for i in prefixes]) \
        == _kept_indices([len(ref.orthonormalize(vs[:i], drop_tol)) for i in prefixes])
    n, k = fast.shape
    assert n == cols.rows
    gap = np.abs(_span_projector(fast) - _span_projector(_block(slow, n)))
    assert gap.max(initial=0.0) <= 1e-12
    if k:
        gram = fast.adjoint() @ fast
        err = np.hypot(np.abs(gram.c1 - np.eye(k)), np.abs(gram.c2)).max()
        assert err <= 1e-14 * k
    return fast


def _right_dependent_set(rng, n):
    """Random vectors mixed with right combinations of earlier ones, zeros,
    vectors with a zero c1, and the pair [v, v j]."""
    vs = []
    for _ in range(int(rng.integers(1, 3 * n + 1))):
        kind = int(rng.integers(0, 6))
        if kind == 0 or not vs:
            vs.append(rand.rand_qvector(rng, n))
        elif kind == 1:
            a, b = (vs[int(rng.integers(0, len(vs)))] for _ in range(2))
            vs.append(a.times(I) + b.times(J))
        elif kind == 2:
            vs.append(vs[int(rng.integers(0, len(vs)))].times(rand.rand_quaternion(rng)))
        elif kind == 3:
            vs.append(QVector.zeros(n))
        elif kind == 4:
            v = rand.rand_qvector(rng, n)
            vs.append(QVector(np.zeros(n), v.c2))
        else:
            v = vs[int(rng.integers(0, len(vs)))]
            vs.extend([v, v.times(J)])
    return vs


@pytest.mark.parametrize("seed", range(6))
def test_orthonormalize_matches_reference_on_random_sets(seed):
    rng = rand.generator(401, seed)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        cols = _block(_right_dependent_set(rng, n), n)
        for drop_tol in (1e-6, 1e-9, 1e-10):
            _assert_routes_agree(cols, drop_tol)


def test_orthonormalize_right_dependent_inputs():
    rng = rand.generator(403, 0)
    v0, v1 = rand.rand_qvector(rng, 4), rand.rand_qvector(rng, 4)
    q = rand.rand_quaternion(rng)
    assert _assert_routes_agree(_block([v0, v1, v0.times(I) + v1.times(J)], 4)).cols == 2
    assert _assert_routes_agree(_block([v0, v0.times(q), v1], 4)).cols == 2
    # one right span: a complex-only Gram-Schmidt, without the partner
    # column embed(v j), would keep both
    pair = [v0, v0.times(J)]
    assert np.linalg.matrix_rank(np.stack([v.embed() for v in pair])) == 2
    assert _assert_routes_agree(_block(pair, 4)).cols == 1


def test_orthonormalize_edge_inputs():
    rng = rand.generator(405, 0)
    assert _assert_routes_agree(QMatrix.zeros(3, 0)).shape == (3, 0)
    assert _assert_routes_agree(QMatrix.zeros(3, 2)).shape == (3, 0)
    assert _assert_routes_agree(QMatrix.zeros(0, 2)).shape == (0, 0)
    one = _assert_routes_agree(QMatrix.from_quaternions([[Z, I + J, K]]))
    assert one.cols == 1
    c2_only = [QVector(np.zeros(3), rand.rand_qvector(rng, 3).c2) for _ in range(4)]
    assert _assert_routes_agree(_block(c2_only, 3)).cols == 3
    assert _assert_routes_agree(_block([QVector.zeros(3)] + c2_only[:1], 3)).cols == 1


@pytest.mark.parametrize("drop_tol", [1e-6, 1e-9, 1e-10])
@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
def test_orthonormalize_drop_rule_at_threshold(drop_tol, factor):
    """A residual of drop_tol (1 +- 1e-3) times the input norm is kept or
    dropped alike on both routes, and as the rule says."""
    rng = rand.generator(407, 0)
    ratio = factor * drop_tol
    expected = 2 if factor > 1 else 1
    for n in (2, 3, 5):
        q, p = rand.rand_quaternion(rng), rand.rand_quaternion(rng)
        t = ratio * abs(q) / math.sqrt(1 - ratio ** 2)  # residual / |v| = ratio
        # on coordinate vectors both routes find the residual exactly
        i, j = rng.choice(n, 2, replace=False)
        b = QVector.basis(n, int(i))
        v = b.times(q) + QVector.basis(n, int(j)).times(p / abs(p)).scale(t)
        assert _assert_routes_agree(_block([b, v], n), drop_tol).cols == expected
        # in general position the residual, and with it the kept direction,
        # is known only to about eps / ratio, but the decision is the same
        b, u = ref.orthonormalize([rand.rand_qvector(rng, n) for _ in range(2)])
        v = b.times(q) + u.times(p / abs(p)).scale(t)
        assert orthonormalize(_block([b, v], n), drop_tol).cols == expected
        assert len(ref.orthonormalize([b, v], drop_tol)) == expected
    # n = 1: a right multiple of b leaves only a rounding residual
    b = QVector.basis(1, 0)
    pair = [b, b.times(rand.rand_quaternion(rng))]
    assert _assert_routes_agree(_block(pair, 1), drop_tol).cols == 1


@pytest.fixture
def constructions(monkeypatch):
    """Counts of QVector and Quaternion constructions; reset it to start."""
    counts = {"vectors": 0, "quaternions": 0}
    init, post = QVector.__init__, Quaternion.__post_init__

    def counted_init(self, *args):
        counts["vectors"] += 1
        init(self, *args)

    def counted_post(self):
        counts["quaternions"] += 1
        post(self)

    monkeypatch.setattr(QVector, "__init__", counted_init)
    monkeypatch.setattr(Quaternion, "__post_init__", counted_post)
    return counts


def test_orthonormalize_builds_no_quaternion_or_intermediate_vector(constructions):
    rng = rand.generator(409, 0)
    vs = [rand.rand_qvector(rng, 5) for _ in range(4)]
    cols = _block(vs + [vs[0].times(J) + vs[1]], 5)
    constructions.update(vectors=0, quaternions=0)
    basis = orthonormalize(cols)
    assert basis.shape == (5, 4)
    assert constructions == {"vectors": 0, "quaternions": 0}


def test_subspace_bases_build_no_vector(constructions):
    """Kernels, local subspaces and complements stay column blocks: no
    QVector per column on the way."""
    from qspec.localspec import local_subspace, spectral_projections
    from qspec.operators import complement_basis

    rng = rand.generator(411, 0)
    a = rand.rand_qmatrix(rng, 5, 3) @ rand.rand_qmatrix(rng, 3, 5)
    m = rand.rand_qmatrix(rng, 4, 4)
    proj = spectral_projections(m)
    sub = SubspaceBasis(rand.rand_orthonormal(rng, 4, 2))
    constructions["vectors"] = 0
    assert kernel_basis(a).shape == (5, 2)
    assert local_subspace(m, proj.spheres[:2]).dim \
        == sum(proj.multiplicities[:2])
    assert complement_basis(sub).dim == 2
    assert constructions["vectors"] == 0


def test_projection_idempotent():
    rng = rand.generator(29, 0)
    sub = SubspaceBasis(orthonormalize(rand.rand_qmatrix(rng, 4, 2)))
    p = sub.projection()
    diff = p @ p - p
    assert op_norm(diff) < 1e-10


def test_subspace_basis_is_its_matrix():
    empty = SubspaceBasis(QMatrix.zeros(3, 0))
    assert (empty.space_dim, empty.dim) == (3, 0)
    assert empty.projection().shape == (3, 3) and empty.projection().frobenius() == 0.0
    with pytest.raises(ValueError, match="not orthonormal"):
        SubspaceBasis(QMatrix.identity(3).take_cols(2).scale(2.0))


def test_embedding_pullback():
    rng = rand.generator(31, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    v = rand.rand_qvector(rng, 3)
    chi = complex_adjoint(a)
    lhs = chi @ v.embed()
    rhs = a.apply(v).embed()
    assert np.allclose(lhs, rhs, atol=1e-10)
    back = QVector(rhs[:3], -np.conj(rhs[3:]))
    assert (back - a.apply(v)).norm() < 1e-12


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_min_singular_matches_chi_svd(seed):
    rng = rand.generator(seed, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    direct = float(np.linalg.svd(complex_adjoint(a), compute_uv=False)[-1])
    assert min_singular(a) == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_pickle_and_deepcopy_round_trips():
    from qspec.localspec import spectral_projections

    rng = rand.generator(37, 0)
    a = rand.rand_qmatrix(rng, 3, 3)
    v = rand.rand_qvector(rng, 3)
    basis = SubspaceBasis(orthonormalize(rand.rand_qmatrix(rng, 4, 2)))
    proj = spectral_projections(a)
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        b, u, sub = clone(a), clone(v), clone(basis)
        assert type(sub) is SubspaceBasis and sub is not basis
        for x, y in ((a, b), (v, u), (basis.matrix, sub.matrix)):
            assert type(y) is type(x) and y is not x
            assert np.array_equal(x.c1, y.c1) and np.array_equal(x.c2, y.c2)
        # the copy starts without the original's decomposition
        assert spectral_decomposition(b) is not spectral_decomposition(a)
        assert spectral_decomposition(b).spheres == spectral_decomposition(a).spheres
        p = clone(proj)
        assert p.spheres == proj.spheres and p.conditions == proj.conditions
        assert all(np.array_equal(x.c1, y.c1) and np.array_equal(x.c2, y.c2)
                   for x, y in zip(ref.projections(p), ref.projections(proj)))
