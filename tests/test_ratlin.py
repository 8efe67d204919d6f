"""Exact linear algebra: ranks, kernels, quotients, and their invariants."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import apply, columns, echelon_basis, kernel_basis
from liecoh.cecomplex import CochainLevel, differential_matrix
from liecoh.extensions import builtin
from liecoh.gmod import trivial_module
from liecoh.liealg import unit
from liecoh import ratlin
from liecoh.ratlin import (
    EchelonSpan,
    Matrix,
    SubspaceNotContained,
    _kernel_echelon,
    _rref_rows,
    quotient_dim,
    solve_columns,
    vector,
)

# d_1 of sl2 with trivial coefficients, computed by hand from the
# structure constants: rows are the pairs (H,E), (H,F), (E,F) and the
# entry at (pair, l) is the l-th coefficient of [e_j, e_i].
SL2_D1 = Matrix.from_rows([[0, -2, 0], [0, 0, 2], [-1, 0, 0]])

# d_1 of the Heisenberg algebra [X,Y] = Z: only the (X,Y) row sees -w(Z)
HEIS_D1 = Matrix.from_rows([[0, 0, -1], [0, 0, 0], [0, 0, 0]])


def test_rank_identity():
    assert Matrix.identity(3).rank() == 3


def test_rank_proportional_rows():
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_rank_sl2_d1_is_full():
    assert SL2_D1.rank() == 3


def test_kernel_zero_matrix_is_standard_basis():
    assert kernel_basis(Matrix.zero(2, 2)) == [unit(2, 0), unit(2, 1)]


def test_kernel_identity_is_empty():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_heisenberg_d1():
    # 1-forms closed on the Heisenberg algebra: exactly those killing Z
    assert kernel_basis(HEIS_D1) == [unit(3, 0), unit(3, 1)]


def test_quotient_dim_plain():
    e1, e2 = unit(2, 0), unit(2, 1)
    assert quotient_dim([e1, e2], [e1]) == 1
    assert quotient_dim([e1], [e1]) == 0
    assert quotient_dim([], []) == 0
    # zero vectors of small span nothing and lie in every span
    zero = vector([0, 0])
    assert quotient_dim([e1, e2], [zero, e1, zero]) == 1
    assert quotient_dim([e1], [zero]) == 1
    assert quotient_dim([], [zero]) == 0


def test_quotient_dim_top_degree_cocycles():
    # top-degree cocycle space of a 3-dim algebra is everything (d_3 = 0
    # into nothing); coboundaries from the zero d_2 of sl2
    top_cocycles = kernel_basis(Matrix.zero(0, 1))
    assert top_cocycles == [unit(1, 0)]
    d2_image = [c for c in columns(Matrix.zero(1, 3)) if any(c)]
    assert quotient_dim(top_cocycles, d2_image) == 1


def test_quotient_dim_rejects_noncontained():
    with pytest.raises(SubspaceNotContained, match=r"^span of rank 1 is not inside the rank-1 span$"):
        quotient_dim([unit(2, 0)], [unit(2, 1)])
    # the message gives the rank of small, zero vectors and all
    with pytest.raises(SubspaceNotContained, match=r"^span of rank 2 is not inside the rank-1 span$"):
        quotient_dim([unit(3, 0)], [unit(3, 1), vector([0, 0, 0]), unit(3, 0)])
    # an empty big spans only zero
    with pytest.raises(SubspaceNotContained, match=r"^span of rank 1 is not inside the rank-0 span$"):
        quotient_dim([], [unit(2, 1)])
    with pytest.raises(ValueError):
        quotient_dim([unit(2, 0)], [unit(3, 0)])


def test_rref_is_canonical():
    m = Matrix.from_rows([[2, 4, 6], [1, 2, 4], [0, 0, 2]])
    red, pivots = m.rref()
    assert pivots == (0, 2)
    assert red.entries == Matrix.from_rows([[1, 2, 0], [0, 0, 1], [0, 0, 0]]).entries


def test_solve_columns():
    a = Matrix.from_rows([[1, 1], [0, 1], [2, 0]])
    b = Matrix.from_columns([[3, 1, 4]], rows=3)
    x = solve_columns(a, b)
    assert x.column(0) == (Q(2), Q(1))
    inconsistent = Matrix.from_columns([[1, 0, 0]], rows=3)
    assert solve_columns(a, inconsistent) is None


def test_echelon_span_incremental_matches_batch():
    vecs = [vector([1, 2, 3]), vector([2, 4, 6]), vector([0, 1, 1])]
    span = EchelonSpan(3)
    added = [span.add(v) for v in vecs]
    assert added == [True, False, True]
    assert span.rank == len(echelon_basis(vecs)) == 2
    assert span.contains(vector([1, 3, 4]))
    assert not span.contains(vector([0, 0, 1]))


def test_views_kept_for_the_benchmark_tracer_match_the_test_references():
    # perfbench/tracer.py traces these names; they must keep their meaning
    m = Matrix.from_rows([[1, 2, 0, 3], [2, 4, 1, 0], [0, 0, 1, -6]])
    v = vector([1, 0, 2, Q(1, 3)])
    assert m.apply(v) == apply(m, v) == (Q(2), Q(4), Q(0))
    assert Matrix.zero(0, 2).apply(vector([1, 1])) == ()
    with pytest.raises(ValueError):
        m.apply(vector([1, 2]))
    assert m.kernel_basis() == kernel_basis(m) and len(m.kernel_basis()) == 2
    rows = m.entries
    assert ratlin.echelon_basis(rows) == echelon_basis(rows)
    assert ratlin.span_rank(rows) == m.rank() == 2
    assert ratlin.echelon_basis([]) == [] and ratlin.span_rank([]) == 0


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    ent = draw(
        st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.from_rows(ent)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity(m):
    assert m.rank() + len(kernel_basis(m)) == m.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_are_exact(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in apply(m, v))
    assert all(all(r.values()) for r in m.kernel_rows())


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_permutation_and_scaling(m, rng):
    rows = list(m.entries)
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        c = Q(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 3]))
        scaled.append([c * x for x in row])
    permuted_cols = list(range(m.cols))
    rng.shuffle(permuted_cols)
    shuffled = [[row[j] for j in permuted_cols] for row in scaled]
    assert Matrix.from_rows(shuffled).rank() == m.rank()


@given(matrices(max_dim=4), matrices(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_product_rank_bound(a, b):
    if a.cols != b.rows:
        b = Matrix.zero(a.cols, 2)
    assert (a * b).rank() <= min(a.rank(), b.rank())


# -- independent oracle and sparse-storage invariants ------------------

sparse_rationals = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), rationals)


@st.composite
def sparse_matrices(draw, max_dim=7, rows=None, cols=None):
    rows = draw(st.integers(1, max_dim)) if rows is None else rows
    cols = draw(st.integers(1, max_dim)) if cols is None else cols
    ent = draw(
        st.lists(
            st.lists(sparse_rationals, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(rows, cols, ent)


def _stores_no_zeros(m):
    return all(all(r.values()) for r in m.sparse_rows)


def _to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(*m.row(i)[j].as_integer_ratio()))


def _from_sympy(v):
    return tuple(Q(int(x.p), int(x.q)) for x in v)


def _check_rref_and_kernel(sympy, m):
    ref = _to_sympy(sympy, m)
    ref_red, ref_pivots = ref.rref()
    red, pivots = m.rref()
    assert m.rank() == ref.rank()
    assert pivots == tuple(ref_pivots)
    assert red.entries == tuple(_from_sympy(ref_red.row(i)) for i in range(ref_red.rows))
    assert _stores_no_zeros(red)
    # sympy's nullspace is the same canonical basis: one vector per free column
    null = ref.nullspace()
    assert kernel_basis(m) == [_from_sympy(v) for v in null]
    # the dense canonical bases the library reads share rref's normalisation
    assert _rref_rows(m._span()) == tuple(_from_sympy(ref_red.row(i)) for i in range(len(ref_pivots)))
    ref_ker = sympy.Matrix.hstack(*null).T.rref()[0] if null else sympy.zeros(0, m.cols)
    assert _kernel_echelon(m) == tuple(_from_sympy(ref_ker.row(i)) for i in range(len(null)))


def _check_solve(sympy, a, b):
    ref_a = _to_sympy(sympy, a)
    x = solve_columns(a, b)
    if ref_a.row_join(_to_sympy(sympy, b)).rank() > ref_a.rank():
        assert x is None
    else:
        assert x is not None and a * x == b


@given(sparse_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_and_rref_agree_with_sympy(m):
    sympy = pytest.importorskip("sympy")
    _check_rref_and_kernel(sympy, m)


@st.composite
def shaped_matrices(draw, tall):
    long, short = draw(st.integers(7, 12)), draw(st.integers(1, 6))
    rows, cols = (long, short) if tall else (short, long)
    return draw(sparse_matrices(rows=rows, cols=cols))


@pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_and_solve_agree_with_sympy(tall, data):
    sympy = pytest.importorskip("sympy")
    a = data.draw(shaped_matrices(tall))
    _check_rref_and_kernel(sympy, a)
    # a random right-hand side, or one in the column space of a
    b = data.draw(
        st.one_of(
            sparse_matrices(max_dim=3, rows=a.rows),
            sparse_matrices(max_dim=3, rows=a.cols).map(lambda x: a * x),
        )
    )
    _check_solve(sympy, a, b)


@pytest.mark.parametrize("k", [2, 3])
def test_sl2sl2_differentials_agree_with_sympy(k):
    sympy = pytest.importorskip("sympy")
    g = builtin("sl2sl2").algebra
    d = differential_matrix(CochainLevel(g, trivial_module(g, 1), k))
    _check_rref_and_kernel(sympy, d)
    _check_solve(sympy, d, Matrix.identity(d.rows))
    _check_solve(sympy, d, d * Matrix.from_rows([[(i * j) % 5 - 2 for j in range(3)] for i in range(d.cols)]))


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_cancellation_leaves_no_stored_zeros(a):
    z = a + (-a)
    assert z == Matrix.zero(a.rows, a.cols)
    assert hash(z) == hash(Matrix.zero(a.rows, a.cols))
    assert z.sparse_rows == ({},) * a.rows
    assert (a - a) == z and (a * 0) == z and _stores_no_zeros(a.scale(Q(-3, 2)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_product_matches_transposed_product(data):
    a = data.draw(sparse_matrices())
    b = data.draw(sparse_matrices(cols=None, rows=a.cols))
    ab = a * b
    assert ab == (b.transpose() * a.transpose()).transpose()
    assert _stores_no_zeros(ab)
    assert ab.entries == tuple(
        tuple(sum((x * y for x, y in zip(a.row(i), b.column(j))), Q(0)) for j in range(b.cols))
        for i in range(a.rows)
    )


def test_product_cancellation_is_dropped():
    a = Matrix.from_rows([[1, 1], [2, 0]])
    b = Matrix.from_rows([[1], [-1]])
    ab = a * b
    assert ab.sparse_rows == ({}, {0: Q(2)})
    assert ab == Matrix.from_rows([[0], [2]])
    assert hash(ab) == hash(Matrix.from_rows([[0], [2]]))


def test_equal_matrices_hash_equal_whatever_their_history():
    a = Matrix.from_rows([[1, 0, 2], [0, 0, 3]])
    b = Matrix.from_columns([[1, 0], [0, 0], [2, 3]]).transpose().transpose()
    assert a == b and hash(a) == hash(b)
    assert a != Matrix.from_rows([[1, 0, 2], [0, 0, 4]])


def test_entries_is_a_dense_read_only_view():
    m = Matrix.from_rows([[0, "1/2"], [0, 0]])
    assert m.entries == ((Q(0), Q(1, 2)), (Q(0), Q(0)))
    assert m.sparse_rows == ({1: Q(1, 2)}, {})
    with pytest.raises(AttributeError):
        m.entries = ()
    with pytest.raises(ValueError):
        Matrix(2, 2, [[1, 2]])


@given(st.lists(st.lists(sparse_rationals, min_size=4, max_size=4), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_echelon_span_agrees_with_batch_rank(vecs):
    span = EchelonSpan(4)
    for i, v in enumerate(vecs):
        before = span.rank
        grew = span.add(v)
        assert grew == (span.rank == before + 1)
        assert span.rank == len(echelon_basis(vecs[: i + 1]))
        assert span.contains(v)


@given(sparse_matrices())
@settings(max_examples=80, deadline=None)
def test_echelon_span_takes_dicts_and_dense_rows_alike(m):
    from_dicts, from_dense = EchelonSpan(m.cols), EchelonSpan(m.cols)
    for i, r in enumerate(m.sparse_rows):
        assert from_dicts.add(r) == from_dense.add(m.row(i))
        assert from_dicts.rank == from_dense.rank
    assert from_dicts.rank == m.rank()
    for r in m.kernel_rows():
        v = tuple(r.get(j, Q(0)) for j in range(m.cols))
        assert from_dicts.contains(r) == from_dense.contains(v)
