"""Structure-constant validation, adjoint maps, Killing form, classification."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import files, liealg
from liecoh.extensions import builtin
from liecoh.liealg import (
    MAX_DIM,
    AlgebraTooLarge,
    DimensionMismatch,
    JacobiViolation,
    SubalgebraNotClosed,
    change_of_basis,
    killing_determinant,
    killing_form,
    structure_report,
    subalgebra,
    unit,
    validate,
)
from liecoh.ratlin import Matrix, vector

SL2_BRACKETS = {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}


def test_validate_sl2():
    g = validate(3, ("H", "E", "F"), SL2_BRACKETS)
    assert g.brackets[0].row(1) == (Q(0), Q(2), Q(0))
    assert g.brackets[1].row(0) == (Q(0), Q(-2), Q(0))
    assert g.brackets[2].row(2) == (Q(0), Q(0), Q(0))


def test_validate_abelian():
    g = validate(4, ("a", "b", "c", "d"), {})
    assert all(not any(g.brackets[i].row(j)) for i in range(4) for j in range(4))


def test_explicit_zero_brackets_are_not_stored():
    heis = {(1, 2): (1, 0, 0)}
    g = validate(3, ("x", "y", "z"), heis)
    with_zeros = validate(3, ("x", "y", "z"), {**heis, (0, 1): (0, 0, 0), (0, 2): (0, 0, 0)})
    assert with_zeros == g
    assert hash(with_zeros) == hash(g)
    assert files.algebra_digest(with_zeros) == files.algebra_digest(g)
    stored = [row for b in with_zeros.brackets for row in b.sparse_rows]
    assert sum(map(len, stored)) == 2  # [y, z] = x and [z, y] = -x
    assert all(all(row.values()) for row in stored)


_CATALOG = ["sl2", "so3", "sl2sl2", "heis3", "abelian:3", "sl2_so2_pair", "sl2R_ext",
            "fivedim_ext:1", "fivedim_ext:-3/4"]


@pytest.mark.parametrize("name", _CATALOG)
def test_stored_brackets_are_antisymmetric(name):
    g = builtin(name).algebra
    assert len(g.brackets) == g.dim
    for i in range(g.dim):
        assert not g.brackets[i].sparse_rows[i]
        for j in range(g.dim):
            row = g.brackets[i].sparse_rows[j]
            assert g.brackets[j].sparse_rows[i] == {c: -t for c, t in row.items()}


def test_validate_rejects_broken_sl2():
    # replacing [E,F] = H by H + E breaks Jacobi on (H,E,F) with residual 2E
    broken = dict(SL2_BRACKETS)
    broken[(1, 2)] = (1, 1, 0)
    with pytest.raises(JacobiViolation) as exc:
        validate(3, ("H", "E", "F"), broken)
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual == (Q(0), Q(2), Q(0))


def test_validate_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        validate(2, ("a",), {})
    with pytest.raises(DimensionMismatch):
        validate(2, ("a", "b"), {(0, 1): (1, 0, 0)})
    with pytest.raises(DimensionMismatch):
        validate(2, ("a", "b"), {(1, 0): (1, 0)})


def test_ad_matrix_sl2_h_is_diagonal():
    g = builtin("sl2").algebra
    assert g.ad_matrix((1, 0, 0)) == Matrix.from_rows(
        [[0, 0, 0], [0, 2, 0], [0, 0, -2]]
    )


def test_ad_matrix_of_zero():
    g = builtin("so3").algebra
    assert g.ad_matrix((0, 0, 0)).is_zero()


def test_ad_matrix_heisenberg():
    g = builtin("heis3").algebra
    adx = g.ad_matrix((1, 0, 0))
    assert adx.column(1) == (Q(0), Q(0), Q(1))  # X sends Y to Z
    assert adx.column(0) == (Q(0), Q(0), Q(0))
    assert adx.column(2) == (Q(0), Q(0), Q(0))


def test_killing_form_sl2():
    g = builtin("sl2").algebra
    assert killing_form(g) == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    assert killing_determinant(g) == Q(-128)


def _reference_det(a):
    """Fraction Gaussian elimination with row swaps, independent of liealg._det."""
    a = [list(row) for row in a]
    n = len(a)
    det = Q(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Q(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for cc in range(c, n):
                a[r][cc] -= f * a[c][cc]
    return det


@pytest.mark.parametrize("name", _CATALOG)
def test_killing_determinant_matches_gaussian_elimination(name):
    g = builtin(name).algebra
    b = killing_form(g)
    assert killing_determinant(g) == _reference_det(b.entries)
    # a random change of basis P gives the Killing matrix P^T B P, det(P)^2 det(B)
    rng = random.Random(name)
    p = [[Q(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(g.dim)] for _ in range(g.dim)]
    if _reference_det(p):
        h = change_of_basis(g, [tuple(row[j] for row in p) for j in range(g.dim)])
        assert killing_determinant(h) == _reference_det(killing_form(h).entries)
        assert killing_determinant(h) == _reference_det(p) ** 2 * killing_determinant(g)


def test_det_on_random_rational_matrices():
    rng = random.Random(7)
    kinds = {"singular": 0, "swap": 0, "regular": 0}
    for _ in range(300):
        n = rng.randint(0, 6)
        a = [
            [Q(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))) if rng.random() < 0.6 else Q(0)
             for _ in range(n)]
            for _ in range(n)
        ]
        if n >= 2 and rng.random() < 0.3:  # a repeated row, combined: singular
            a[rng.randrange(1, n)] = [2 * x for x in a[0]]
        if n >= 2 and rng.random() < 0.3:  # a zero leading pivot forces a row swap
            a[0][0] = Q(0)
        want = _reference_det(a)
        got = liealg._det([list(row) for row in a])
        assert got == want, a
        if not want:
            kinds["singular"] += 1
        elif n and not a[0][0]:
            kinds["swap"] += 1
        else:
            kinds["regular"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_det_small_cases():
    assert liealg._det([]) == 1
    assert liealg._det([[Q(-3, 4)]]) == Q(-3, 4)
    assert liealg._det([[Q(0), Q(1)], [Q(1), Q(0)]]) == -1
    assert liealg._det([[Q(0), Q(1)], [Q(0), Q(2)]]) == 0
    assert liealg._det([[Q(1, 2), Q(1, 3)], [Q(1, 5), Q(1, 7)]]) == Q(1, 14) - Q(1, 15)


def test_killing_form_abelian_and_heisenberg_vanish():
    assert killing_form(builtin("abelian:3").algebra).is_zero()
    assert killing_form(builtin("heis3").algebra).is_zero()


def test_killing_form_so3():
    assert killing_form(builtin("so3").algebra) == Matrix.identity(3).scale(Q(-2))


def test_structure_report_sl2():
    rep = structure_report(builtin("sl2").algebra)
    assert rep.is_semisimple and rep.is_reductive
    assert rep.center.dim == 0 and rep.derived.dim == 3


def test_structure_report_semisimple_builtins_have_no_center():
    for name in ("sl2", "so3", "sl2sl2"):
        rep = structure_report(builtin(name).algebra)
        assert rep.is_semisimple and rep.center.dim == 0


def test_structure_report_abelian():
    rep = structure_report(builtin("abelian:2").algebra)
    assert not rep.is_semisimple and rep.is_reductive
    assert rep.center.dim == 2 and rep.derived.dim == 0


def test_structure_report_heisenberg():
    g = builtin("heis3").algebra
    rep = structure_report(g)
    assert not rep.is_semisimple and not rep.is_reductive
    assert rep.center.dim == 1 and rep.derived.dim == 1
    assert rep.center.vectors == ((Q(0), Q(0), Q(1)),)
    assert rep.derived.vectors == ((Q(0), Q(0), Q(1)),)


def test_subalgebra_accepts_so2_in_sl2():
    g = builtin("sl2").algebra
    h = subalgebra(g, [(0, 1, -1)])
    assert h.dim == 1


def test_subalgebra_rejects_span_E_F():
    g = builtin("sl2").algebra
    with pytest.raises(SubalgebraNotClosed):
        subalgebra(g, [(0, 1, 0), (0, 0, 1)])  # [E,F] = H leaves the span


def test_subalgebra_rejects_dependent_vectors():
    g = builtin("sl2").algebra
    with pytest.raises(SubalgebraNotClosed):
        subalgebra(g, [(0, 1, -1), (0, 2, -2)])


small_vectors = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=3, max_size=3
).map(tuple)


@given(small_vectors, small_vectors)
@settings(max_examples=40, deadline=None)
def test_ad_is_bracket_homomorphism(x, y):
    for name in ("sl2", "so3", "heis3"):
        g = builtin(name).algebra
        lhs = g.ad_matrix(g.bracket(x, y))
        rhs = g.ad_matrix(x) * g.ad_matrix(y) - g.ad_matrix(y) * g.ad_matrix(x)
        assert lhs == rhs


@given(small_vectors, small_vectors, small_vectors)
@settings(max_examples=40, deadline=None)
def test_killing_form_invariance(x, y, z):
    for name in ("sl2", "so3"):
        g = builtin(name).algebra
        b = killing_form(g)

        def pair(u, v):
            return sum(b.entries[i][j] * a * c for i, a in enumerate(u) for j, c in enumerate(v))

        assert pair(g.bracket(x, y), z) + pair(y, g.bracket(x, z)) == 0


def test_change_of_basis_preserves_structure():
    g = builtin("sl2").algebra
    # new basis: H+E, E, F (unit upper-triangular change)
    g2 = change_of_basis(g, [(1, 1, 0), (0, 1, 0), (0, 0, 1)])
    rep = structure_report(g2)
    assert rep.is_semisimple
    assert killing_determinant(g2) == Q(-128)  # determinant of P is 1


# -- Jacobi validation against the dense triple loop ----------------------


def _dense_bracket(table, dim, x, y):
    out = [Q(0)] * dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b and i != j:
                coeffs = table[(i, j)] if i < j else [-t for t in table[(j, i)]]
                for k, t in enumerate(coeffs):
                    out[k] += a * b * t
    return tuple(out)


def _reference_jacobi(dim, brackets):
    """The dense check on every triple i < j < k: None or (triple, residual)."""
    table = {(i, j): [Q(0)] * dim for i in range(dim) for j in range(i + 1, dim)}
    for key, coeffs in brackets.items():
        table[key] = list(vector(coeffs))

    def basis_bracket(a, b):
        return table[(a, b)] if a < b else [-t for t in table[(b, a)]]

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                terms = [
                    _dense_bracket(table, dim, unit(dim, x), basis_bracket(y, z))
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
                ]
                residual = tuple(sum(col, Q(0)) for col in zip(*terms))
                if any(residual):
                    return (i, j, k), residual
    return None


def _assert_agrees_with_reference(dim, brackets):
    expected = _reference_jacobi(dim, brackets)
    names = tuple(f"x{i}" for i in range(dim))
    if expected is None:
        validate(dim, names, brackets)
        return True
    (i, j, k), residual = expected
    with pytest.raises(JacobiViolation) as exc:
        validate(dim, names, brackets)
    assert exc.value.triple == (i, j, k)
    assert exc.value.residual == residual
    assert all(type(x) is Q for x in exc.value.residual)
    pretty = ", ".join(str(x) for x in residual)
    assert str(exc.value) == (
        f"Jacobi identity fails on basis triple ({i},{j},{k}); residual ({pretty})"
    )
    return False


def _upper_triangular(n):
    """Upper-triangular n x n matrices in the basis of matrix units E_ab, a <= b."""
    units = [(a, b) for a in range(n) for b in range(a, n)]
    index = {u: t for t, u in enumerate(units)}
    dim = len(units)
    brackets = {}
    for x, (a, b) in enumerate(units):
        for y in range(x + 1, dim):
            c, d = units[y]
            vec = [0] * dim
            if b == c:
                vec[index[(a, d)]] += 1
            if d == a:
                vec[index[(c, b)]] -= 1
            if any(vec):
                brackets[(x, y)] = tuple(vec)
    return dim, brackets


def _monomial_change(dim, brackets, rng):
    """The same algebra in a permuted and rescaled basis."""
    perm = list(range(dim))
    rng.shuffle(perm)
    scale = [Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5])) for _ in range(dim)]
    out = {}
    for (a, b), coeffs in brackets.items():
        pa, pb = perm[a], perm[b]
        vec = [Q(0)] * dim
        for c, t in enumerate(coeffs):
            if t:
                vec[perm[c]] = scale[a] * scale[b] * Q(t) / scale[c]
        out[(pa, pb) if pa < pb else (pb, pa)] = tuple(vec if pa < pb else [-v for v in vec])
    return out


def _valid_tables(rng):
    tables = []
    for n in (2, 3):
        dim, brackets = _upper_triangular(n)
        tables.append((dim, brackets))
        tables.append((dim, _monomial_change(dim, brackets, rng)))
    for name in ("sl2", "so3", "heis3", "sl2sl2", "sl2R_ext", "fivedim_ext:-3/4"):
        g = builtin(name).algebra
        cols = [
            [Q(rng.randint(-2, 2)) + (1 if r == c else 0) for r in range(g.dim)]
            for c in range(g.dim)
        ]
        if Matrix.from_columns(cols).rank() == g.dim:
            g = change_of_basis(g, cols)
        brackets = {
            (i, j): g.brackets[i].row(j)
            for i in range(g.dim) for j in range(i + 1, g.dim) if any(g.brackets[i].row(j))
        }
        tables.append((g.dim, brackets))
    return tables


def _broken(dim, brackets, rng):
    """Add a random rational to one structure constant (of a zero bracket too)."""
    out = dict(brackets)
    i, j = sorted(rng.sample(range(dim), 2))
    vec = list(out.get((i, j), (0,) * dim))
    vec[rng.randrange(dim)] += Q(rng.choice([1, -1, 2, -2]), rng.choice([1, 3]))
    out[(i, j)] = tuple(vec)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_validate_agrees_with_dense_reference(seed):
    rng = random.Random(seed)
    verdicts = []
    for dim, brackets in _valid_tables(rng):
        assert _assert_agrees_with_reference(dim, brackets)
        for _ in range(3):
            verdicts.append(_assert_agrees_with_reference(dim, _broken(dim, brackets, rng)))
    for _ in range(12):
        # sparse random tables, almost always broken
        dim = rng.randint(3, 7)
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        brackets = {
            p: tuple(rng.choice([0, 0, 0, 1, -1, Q(1, 2)]) for _ in range(dim))
            for p in rng.sample(pairs, rng.randint(1, 3))
        }
        verdicts.append(_assert_agrees_with_reference(dim, brackets))
    assert False in verdicts


def test_validate_rejects_break_with_one_nonzero_outer_pair():
    # on (0, 1, 3) only [e0, e1] = e2 is nonzero, and [e2, e3] = e2 makes
    # [e3, [e0, e1]] = -e2
    brackets = {(0, 1): (0, 0, 1, 0), (2, 3): (0, 0, 1, 0)}
    assert not _assert_agrees_with_reference(4, brackets)
    with pytest.raises(JacobiViolation) as exc:
        validate(4, "abcd", brackets)
    assert exc.value.triple == (0, 1, 3)
    assert exc.value.residual == (Q(0), Q(0), Q(-1), Q(0))


def test_validate_rejects_break_with_one_nonzero_inner_pair():
    # on (0, 2, 3) only [e2, e3] = e1 is nonzero, and [e0, e1] = e0 makes
    # [e0, [e2, e3]] = e0, although [e0, e2] is zero
    brackets = {(2, 3): (0, 1, 0, 0), (0, 1): (1, 0, 0, 0)}
    assert not _assert_agrees_with_reference(4, brackets)
    with pytest.raises(JacobiViolation) as exc:
        validate(4, "abcd", brackets)
    assert exc.value.triple == (0, 2, 3)
    assert exc.value.residual == (Q(1), Q(0), Q(0), Q(0))


def test_abelian_200_validates():
    g = builtin("abelian:200").algebra
    assert g.dim == 200 and g.brackets[17].row(199) == (Q(0),) * 200


def test_validate_refuses_dimension_over_the_limit():
    # the limit is checked before any name or bracket table is looked at
    with pytest.raises(AlgebraTooLarge, match="over the limit"):
        validate(MAX_DIM + 1, (), {})


# -- sparse adjoint and Killing matrices against dense references --------


def _reference_ad_matrix(g, x):
    cols = []
    for j in range(g.dim):
        col = [Q(0)] * g.dim
        for i, a in enumerate(x):
            for k, t in enumerate(g.brackets[i].row(j)):
                col[k] += a * t
        cols.append(col)
    return Matrix.from_columns(cols, rows=g.dim)


@pytest.mark.parametrize("name", ["sl2", "so3", "heis3", "sl2sl2", "sl2R_ext", "fivedim_ext:5/2"])
def test_ad_matrix_and_killing_form_match_dense_references(name):
    g = builtin(name).algebra
    rng = random.Random(name)
    vectors = [unit(g.dim, i) for i in range(g.dim)]
    vectors += [tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(g.dim))
                for _ in range(4)]
    for x in vectors:
        assert g.ad_matrix(x) == _reference_ad_matrix(g, x)
    ads = [_reference_ad_matrix(g, unit(g.dim, i)) for i in range(g.dim)]
    dense = [[sum((ads[i] * ads[j]).row(r)[r] for r in range(g.dim)) for j in range(g.dim)]
             for i in range(g.dim)]
    assert killing_form(g) == Matrix.from_rows(dense)
