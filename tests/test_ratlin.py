"""Exact linear algebra: ranks, kernels, quotients, and their invariants."""

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
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
    _linear_combination,
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
    added = [span.add(r) for r in Matrix.from_rows(vecs).int_rows]
    assert added == [True, False, True]
    assert span.rank == len(echelon_basis(vecs)) == 2
    assert span.contains({0: 1, 1: 3, 2: 4})
    assert not span.contains({2: 1})


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
    assert all(all(r.values()) for r in m.kernel().int_rows)


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
    assert _canonical(red)
    # sympy's nullspace is the same canonical basis: one vector per free column
    null = ref.nullspace()
    assert kernel_basis(m) == [_from_sympy(v) for v in null]
    ker = m.kernel()
    assert _canonical(ker)
    assert (ker.rows, ker.cols) == (m.cols - m.rank(), m.cols)
    assert (m * ker.transpose()).is_zero()
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
        assert (x.rows, x.cols) == (a.cols, b.cols) and _canonical(x)


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


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_linear_combination_is_the_fold_of_scale_and_add(data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    mats = data.draw(st.lists(sparse_matrices(rows=rows, cols=cols), max_size=5))
    terms = [(data.draw(sparse_rationals), m) for m in mats]
    # a term and its negative cancel exactly, entry for entry
    if terms and data.draw(st.booleans()):
        c, m = data.draw(st.sampled_from(terms))
        terms.append((-c, m))
    expected = Matrix.zero(rows, cols)
    for c, m in terms:
        expected = expected + m.scale(c)
    total = _linear_combination(terms, rows, cols)
    assert total == expected and hash(total) == hash(expected)
    assert _stores_no_zeros(total)


def test_linear_combination_skips_zero_coefficients_and_checks_shapes():
    m = Matrix.from_rows([[1, 2], [0, 3]])
    assert _linear_combination([(0, Matrix.zero(3, 3))], 2, 2) == Matrix.zero(2, 2)
    assert _linear_combination([(Q(1), m), (Q(-1), m)], 2, 2).sparse_rows == ({}, {})
    assert _linear_combination([], 0, 4) == Matrix.zero(0, 4)
    with pytest.raises(ValueError):
        _linear_combination([(Q(1), m), (Q(1), Matrix.identity(3))], 2, 2)


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
    for i, r in enumerate(Matrix.from_rows(vecs).int_rows):
        before = span.rank
        grew = span.add(r)
        assert grew == (span.rank == before + 1)
        assert span.rank == len(echelon_basis(vecs[: i + 1]))
        assert span.contains(r)


@given(sparse_matrices(), st.integers(-50, 50).filter(bool))
@settings(max_examples=80, deadline=None)
def test_echelon_span_ignores_the_scale_of_an_integer_row(m, c):
    as_is, scaled = EchelonSpan(m.cols), EchelonSpan(m.cols)
    for r in m.int_rows:
        assert as_is.add(r) == scaled.add({j: c * v for j, v in r.items()})
        assert as_is.rank == scaled.rank
    assert as_is.rank == m.rank()
    for r in m.int_rows + m.rref()[0].int_rows + m.kernel().int_rows:
        assert as_is.contains(r) == scaled.contains({j: c * v for j, v in r.items()})


# -- the integer representation against the dense Fraction reference -----


@st.composite
def mixed_matrices(draw, rows, cols):
    """rows x cols matrices, 0 x n and n x 0 included, with mixed denominators and zero rows."""
    row = st.one_of(
        st.just([Q(0)] * cols), st.lists(sparse_rationals, min_size=cols, max_size=cols)
    )
    return Matrix(rows, cols, draw(st.lists(row, min_size=rows, max_size=rows)))


def _reference(m):
    return m.rows, m.cols, m.entries


def _canonical(m):
    """den > 0, lowest terms (den 1 when zero), no stored zeros, and a reduced Fraction view."""
    values = [v for r in m.int_rows for v in r.values()]
    assert type(m.den) is int and m.den > 0
    assert all(type(v) is int and v for v in values)
    assert gcd(m.den, *values) == 1
    view = m.sparse_rows
    assert all(type(x) is Q and x for r in view for x in r.values())
    assert all(gcd(x.numerator, x.denominator) == 1 for r in view for x in r.values())
    assert view == tuple({j: Q(v, m.den) for j, v in r.items()} for r in m.int_rows)
    return True


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_integer_rows_match_the_dense_fraction_reference(data):
    rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(mixed_matrices(rows, inner))
    b = data.draw(mixed_matrices(rows, inner))
    c = data.draw(mixed_matrices(inner, cols))
    p = data.draw(rationals.filter(bool))
    ra, rb, rc = map(_reference, (a, b, c))
    coeffs = data.draw(st.lists(st.one_of(sparse_rationals, st.integers(-3, 3)), max_size=4))
    mats = [data.draw(mixed_matrices(rows, inner)) for _ in coeffs]
    cases = [
        (a * c, dense.product(ra, rc)),
        (a + b, dense.combination([(1, ra), (1, rb)], rows, inner)),
        (a - b, dense.combination([(1, ra), (-1, rb)], rows, inner)),
        (-a, dense.combination([(-1, ra)], rows, inner)),
        (a.scale(0), dense.combination([], rows, inner)),
        (a.scale(p), dense.combination([(p, ra)], rows, inner)),
        (a.transpose(), dense.transpose(ra)),
        (
            _linear_combination(zip(coeffs, mats), rows, inner),
            dense.combination([(x, _reference(m)) for x, m in zip(coeffs, mats)], rows, inner),
        ),
    ]
    for got, want in cases:
        assert _reference(got) == want and _canonical(got)
    for same in ((a * 2) * Q(1, 2), (a + b) - b, a.scale(p).scale(1 / p)):
        assert same == a and hash(same) == hash(a)
    assert a.scale(0) == Matrix.zero(rows, inner) and a.scale(0).den == 1
