"""Cochain levels, the differential, i_X/L_X, the degree -1 map, relatives."""

import hashlib
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import apply, echelon_basis, kernel_basis
from liecoh import suite
from liecoh.cecomplex import (
    Cochain,
    CochainLevel,
    basis_cochain,
    differential_matrix,
    interior_product_matrix,
    j_map_matrix,
    lie_derivative_matrix,
    relative_closure_holds,
    relative_subspace,
    tuple_basis,
    wedge_one_form_matrix,
)
from liecoh.cohomology import killing_three_form
from liecoh.extensions import BUILTIN_NAMES, builtin
from liecoh.gmod import adjoint_module, coadjoint_module, trivial_module
from liecoh.liealg import DimensionMismatch, subalgebra, unit
from liecoh.cohomology import betti_sequence
from liecoh.ratlin import Matrix
from liecoh.suite import check_operator_identities, random_identity_sample


def level(name, spec, k):
    g = builtin(name).algebra
    mod = {"trivial": trivial_module(g, 1), "adjoint": adjoint_module(g),
           "coadjoint": coadjoint_module(g)}[spec]
    return CochainLevel(g, mod, k)


def test_tuple_basis_is_lexicographic():
    assert tuple_basis(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert tuple_basis(3, 0) == ((),)
    assert tuple_basis(3, 4) == ()


def test_wedge_convention_on_basis_forms():
    lvl = level("sl2", "trivial", 2)
    w = basis_cochain(lvl, (1, 2))  # E* ^ F*
    assert w.evaluate((1, 2)) == (Q(1),)
    assert w.evaluate((2, 1)) == (Q(-1),)
    assert w.evaluate((1, 1)) == (Q(0),)
    assert w.evaluate((0, 2)) == (Q(0),)


def test_differential_of_h_star():
    lvl = level("sl2", "trivial", 1)
    d = differential_matrix(lvl)
    image = apply(d, basis_cochain(lvl, (0,)).coords)  # H*
    out = Cochain(lvl.shifted(1), image)
    # d(H*) = -E* ^ F*
    assert out.evaluate((1, 2)) == (Q(-1),)
    assert out.evaluate((0, 1)) == (Q(0),)
    assert out.evaluate((0, 2)) == (Q(0),)


def test_differential_at_top_degree_is_zero_map():
    lvl = level("sl2", "trivial", 3)
    d = differential_matrix(lvl)
    assert d.rows == 0 and d.cols == 1


def test_heisenberg_d1_has_rank_one():
    assert differential_matrix(level("heis3", "trivial", 1)).rank() == 1


def test_interior_product_examples():
    lvl = level("sl2", "trivial", 2)
    w = basis_cochain(lvl, (1, 2)).coords  # E* ^ F*
    i_h = apply(interior_product_matrix(lvl, (1, 0, 0)), w)
    assert not any(i_h)
    i_e = apply(interior_product_matrix(lvl, (0, 1, 0)), w)
    assert Cochain(lvl.shifted(-1), i_e).evaluate((2,)) == (Q(1),)  # F*
    assert Cochain(lvl.shifted(-1), i_e).evaluate((0,)) == (Q(0),)


def test_lie_derivative_on_scalars_is_zero():
    lvl = level("so3", "trivial", 0)
    for i in range(3):
        assert lie_derivative_matrix(lvl, unit(3, i)).is_zero()


def test_cartan_relation_all_levels():
    rng = random.Random(5)
    for name, spec in (("sl2", "adjoint"), ("heis3", "coadjoint"), ("so3", "trivial")):
        g = builtin(name).algebra
        x = tuple(Q(rng.randint(-2, 2)) for _ in range(g.dim))
        for k in range(g.dim + 1):
            lvl = level(name, spec, k)
            lhs = lie_derivative_matrix(lvl, x)
            rhs = differential_matrix(lvl.shifted(-1)) * interior_product_matrix(lvl, x) + (
                interior_product_matrix(lvl.shifted(1), x) * differential_matrix(lvl)
            )
            assert lhs == rhs, (name, spec, k)


def test_differential_squares_to_zero_on_builtins():
    for name in ("sl2", "so3", "heis3", "sl2sl2", "abelian:3"):
        for spec in ("trivial", "adjoint", "coadjoint"):
            g = builtin(name).algebra
            for k in range(g.dim + 1):
                lvl = level(name, spec, k)
                assert (differential_matrix(lvl.shifted(1)) * differential_matrix(lvl)).is_zero()


def test_relative_dims_sl2_so2():
    entry = builtin("sl2_so2_pair")
    dims = [
        len(relative_subspace(CochainLevel(entry.algebra, trivial_module(entry.algebra, 1), k), entry.h))
        for k in range(4)
    ]
    assert dims == [1, 0, 1, 0]


def test_relative_survivor_is_hyperbolic_area_form():
    entry = builtin("sl2_so2_pair")
    lvl = CochainLevel(entry.algebra, trivial_module(entry.algebra, 1), 2)
    (v,) = relative_subspace(lvl, entry.h)
    w = Cochain(lvl, v)
    # the invariant 2-form pairs H with E and F equally and kills E^F
    assert w.evaluate((0, 1)) == w.evaluate((0, 2))
    assert w.evaluate((1, 2)) == (Q(0),)
    assert w.evaluate((0, 1)) != (Q(0),)


def test_relative_basis_vectors_are_annihilated():
    # every basis vector of a relative subspace is killed by i_X and L_X
    # for every X in the subalgebra basis, as exact matrix identities
    for name in ("sl2_so2_pair", "sl2R_ext"):
        entry = builtin(name)
        g = entry.algebra
        for k in range(g.dim - entry.h.dim + 1):
            lvl = CochainLevel(g, adjoint_module(g), k)
            for v in relative_subspace(lvl, entry.h):
                for x in entry.h.vectors:
                    assert not any(apply(interior_product_matrix(lvl, x), v))
                    assert not any(apply(lie_derivative_matrix(lvl, x), v))


def test_relative_with_zero_subalgebra_is_full_space():
    g = builtin("so3").algebra
    h0 = subalgebra(g, [])
    lvl = CochainLevel(g, trivial_module(g, 1), 2)
    assert len(relative_subspace(lvl, h0)) == lvl.space_dim


def test_relative_with_whole_algebra_kills_one_forms():
    g = builtin("sl2").algebra
    h = subalgebra(g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lvl = CochainLevel(g, trivial_module(g, 1), 1)
    assert relative_subspace(lvl, h) == ()


def test_relative_closure_under_differential():
    for name in ("sl2_so2_pair", "sl2R_ext", "fivedim_ext:1"):
        entry = builtin(name)
        g = entry.algebra
        top = g.dim - entry.h.dim
        for spec in ("trivial", "adjoint"):
            mod = trivial_module(g, 1) if spec == "trivial" else adjoint_module(g)
            for k in range(top + 1):
                assert relative_closure_holds(CochainLevel(g, mod, k), entry.h), (name, spec, k)


def test_j_map_on_killing_three_form():
    g = builtin("sl2").algebra
    kappa = killing_three_form(g).form
    j = j_map_matrix(g, 3)
    out = Cochain(CochainLevel(g, coadjoint_module(g), 2), apply(j, kappa.coords))
    # the value on (E, F) is the covector sending H to kappa(H,E,F) = 8
    assert out.evaluate((1, 2)) == (Q(8), Q(0), Q(0))


def test_j_map_degree_one_is_tautological():
    for name in ("sl2", "heis3"):
        g = builtin(name).algebra
        assert j_map_matrix(g, 1) == Matrix.identity(g.dim)


def test_j_map_rejects_degree_zero():
    with pytest.raises(ValueError):
        j_map_matrix(builtin("sl2").algebra, 0)


def test_j_relations_on_builtins():
    rng = random.Random(11)
    for name in ("sl2", "so3", "heis3", "sl2sl2"):
        g = builtin(name).algebra
        triv = trivial_module(g, 1)
        coad = coadjoint_module(g)
        x = tuple(Q(rng.randint(-2, 2)) for _ in range(g.dim))
        for k in range(1, g.dim + 1):
            jk = j_map_matrix(g, k)
            lhs = differential_matrix(CochainLevel(g, coad, k - 1)) * jk
            if k < g.dim:
                assert lhs == -(j_map_matrix(g, k + 1) * differential_matrix(CochainLevel(g, triv, k)))
            else:
                assert lhs.is_zero()
            lhs = interior_product_matrix(CochainLevel(g, coad, k - 1), x) * jk
            if k > 1:
                assert lhs == -(j_map_matrix(g, k - 1) * interior_product_matrix(CochainLevel(g, triv, k), x))
            else:
                assert lhs.is_zero()
            assert lie_derivative_matrix(CochainLevel(g, coad, k - 1), x) * jk == (
                jk * lie_derivative_matrix(CochainLevel(g, triv, k), x)
            )


def test_doubled_differential_identity():
    for name in ("sl2", "so3", "heis3"):
        g = builtin(name).algebra
        for k in range(g.dim):
            lvl = CochainLevel(g, trivial_module(g, 1), k)
            total = None
            for i in range(g.dim):
                term = wedge_one_form_matrix(lvl, unit(g.dim, i)) * lie_derivative_matrix(lvl, unit(g.dim, i))
                total = term if total is None else total + term
            assert differential_matrix(lvl).scale(Q(2)) == total


def test_one_form_differential_via_structure_constants():
    for name in ("sl2", "so3", "heis3", "sl2sl2"):
        g = builtin(name).algebra
        d1 = differential_matrix(CochainLevel(g, trivial_module(g, 1), 1))
        rows = []
        for (i, j) in tuple_basis(g.dim, 2):
            rows.append(g.brackets[j].row(i))
        assert d1 == Matrix.from_rows(rows)


def test_randomized_identity_samples():
    # a quick slice of the full 200-sample sweep in the acceptance suite
    rng = random.Random(987)
    for _ in range(25):
        g, module, k, x = random_identity_sample(rng)
        assert g.dim <= 5
        assert check_operator_identities(g, module, k, x) == []


# sha256 of repr((checked, failures)) of the whole sweep: 557 checks with
# 0 failures for the coadjoint action, 71 failures with its sign flipped
_SWEEP_DIGESTS = {
    "coadjoint": "0e2b0384954e6c3404775835ae31ad2bb3be112f417bed83a2f68f55b0481c99",
    "flipped": "773f44d587ef928728a2fcee5ba2bf84552eaa78c22b353dddc1c9a1a155d7cb",
}


@pytest.mark.parametrize("factory", sorted(_SWEEP_DIGESTS))
def test_operator_identity_sweep_is_pinned(factory):
    coadjoint = {"coadjoint": None, "flipped": suite.flipped_coadjoint_module}[factory]
    checked, failures = suite.run_operator_identity_suite(coadjoint)
    assert (checked, len(failures)) == (557, 71 if coadjoint else 0)
    digest = hashlib.sha256(repr((checked, failures)).encode()).hexdigest()
    assert digest == _SWEEP_DIGESTS[factory]


def test_coadjoint_only_sweep_finds_every_failure_of_the_sign_flip():
    # the self-check reruns only these steps: under the flip they must
    # fail exactly where the full sweep does, in the same order
    _, full = suite.run_operator_identity_suite(suite.flipped_coadjoint_module)
    restricted = [
        label
        for name in suite.IDENTITY_SUITE_BUILTINS
        for _, labels in suite._builtin_sweep(
            name, suite.flipped_coadjoint_module, coadjoint_only=True
        )
        for label in labels
    ]
    assert restricted == full
    assert all(":coadjoint:" in label or ":j-" in label for label in full)


def test_doubling_a_unit_vector_doubles_its_lie_derivative():
    lvl = level("sl2", "adjoint", 2)
    e1 = unit(3, 1)
    doubled = lie_derivative_matrix(lvl, tuple(2 * c for c in e1))
    assert doubled == lie_derivative_matrix(lvl, e1).scale(Q(2))


_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _operator_case(draw):
    """A catalog level with a, b, X, Y; on some coordinates a*X + b*Y cancels."""
    name = draw(st.sampled_from(_catalog_names()))
    spec = draw(st.sampled_from(["trivial", "adjoint", "coadjoint"]))
    lvl = level(name, spec, draw(st.integers(0, builtin(name).algebra.dim)))
    n = lvl.algebra.dim
    a, b = draw(_coefficient), draw(_coefficient.filter(bool))
    x = draw(st.lists(_coefficient, min_size=n, max_size=n))
    y = draw(st.lists(_coefficient, min_size=n, max_size=n))
    cancel = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    y = [-a * xi / b if c else yi for xi, yi, c in zip(x, y, cancel)]
    return lvl, a, b, x, y


@given(_operator_case())
@settings(max_examples=60, deadline=None)
def test_interior_and_lie_derivative_are_linear_in_x(case):
    lvl, a, b, x, y = case
    combined = [a * xi + b * yi for xi, yi in zip(x, y)]
    for op in (interior_product_matrix, lie_derivative_matrix):
        assert op(lvl, combined) == op(lvl, x).scale(a) + op(lvl, y).scale(b), op.__name__


@pytest.mark.parametrize("x", [(1,), (0, 0, 0, 1)], ids=["short", "long"])
@pytest.mark.parametrize(
    "op", [interior_product_matrix, lie_derivative_matrix, wedge_one_form_matrix]
)
def test_operators_reject_a_vector_of_the_wrong_length(op, x):
    with pytest.raises(DimensionMismatch):
        op(level("sl2", "adjoint", 2), x)


def _reference_relative_subspace(level, h):
    """Joint kernel of i_X and L_X, X in h, one operator at a time."""
    n = level.space_dim
    basis = [unit(n, i) for i in range(n)]  # spans the forms killed so far
    for w in h.vectors:
        for op in (interior_product_matrix(level, w), lie_derivative_matrix(level, w)):
            if not basis:
                return ()
            b = Matrix.from_columns(basis, rows=n)
            basis = [apply(b, v) for v in kernel_basis(op * b)]
    return tuple(echelon_basis(basis))


@pytest.mark.parametrize("name", ["sl2_so2_pair", "sl2R_ext", "fivedim_ext:1"])
def test_relative_subspace_matches_one_operator_at_a_time(name):
    entry = builtin(name)
    g = entry.algebra
    for spec in ("trivial", "adjoint", "coadjoint"):
        for k in range(g.dim + 1):
            lvl = level(name, spec, k)
            assert relative_subspace(lvl, entry.h) == _reference_relative_subspace(lvl, entry.h), (
                spec, k)


def _catalog_names():
    return [n.replace(":n", ":3").replace(":alpha", ":1") for n in BUILTIN_NAMES]


def _alternating_sum(xs):
    return sum((-1) ** k * x for k, x in enumerate(xs))


@pytest.mark.parametrize("name", _catalog_names())
def test_euler_characteristic_of_absolute_cohomology(name):
    # sum (-1)^k dim C^k = sum (-1)^k b_k, whatever the ranks of the d_k
    g = builtin(name).algebra
    for spec in ("trivial", "adjoint"):
        levels = [level(name, spec, k) for k in range(g.dim + 1)]
        bettis = betti_sequence(g, levels[0].module)
        assert _alternating_sum(lvl.space_dim for lvl in levels) == _alternating_sum(bettis), (
            spec, bettis)
