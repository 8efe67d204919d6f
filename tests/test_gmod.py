"""Module constructors and the exact bracket-relation check."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import apply, kernel_basis
from liecoh import suite
from liecoh.cohomology import cohomology
from liecoh.extensions import BUILTIN_NAMES, builtin
from liecoh.gmod import (
    GModule,
    MixedAlgebras,
    MAX_LEVEL_DIM,
    ModuleAxiomViolation,
    ModuleTooLarge,
    UnknownModuleSpec,
    adjoint_module,
    check_module_axiom,
    coadjoint_module,
    direct_sum,
    dual_module,
    make_module,
    module_from_spec,
    trivial_module,
)
from liecoh.liealg import change_of_basis, unit
from liecoh.ratlin import Matrix


def test_trivial_module_is_valid():
    g = builtin("sl2").algebra
    m = make_module(g, 1, [Matrix.zero(1, 1)] * 3)
    check_module_axiom(m)


# every catalog template, with extra parameters where they change the shape
_CATALOG = [n.replace(":n", ":3").replace(":alpha", ":1") for n in BUILTIN_NAMES] + [
    "abelian:0", "abelian:1", "fivedim_ext:-3/4",
]


def _rebased(g, c: Q):
    """g in the basis f_j = e_j + c e_(j+1 mod dim)."""
    cols = [tuple(Q(i == j) + (c if i == (j + 1) % g.dim else 0) for i in range(g.dim))
            for j in range(g.dim)]
    return change_of_basis(g, cols)


@pytest.mark.parametrize("name,c", [(n, None) for n in _CATALOG] + [
    ("sl2", "1/2"), ("heis3", "-2"), ("sl2R_ext", "3"), ("fivedim_ext:1", "1/3"),
])
def test_adjoint_module_is_valid(name, c):
    # adjoint_module and coadjoint_module skip the axiom check; it holds here
    g = builtin(name).algebra
    if c is not None:
        g = _rebased(g, Q(c))
    m = adjoint_module(g)
    check_module_axiom(m)
    check_module_axiom(coadjoint_module(g))
    for i in range(g.dim):
        assert m.actions[i] == g.ad_matrix(unit(g.dim, i))


def test_perturbed_adjoint_violates_axiom():
    g = builtin("sl2").algebra
    ads = [g.ad_matrix(unit(3, i)) for i in range(3)]
    ads[2] = ads[2] + Matrix.identity(3)
    with pytest.raises(ModuleAxiomViolation) as exc:
        make_module(g, 3, ads)
    # the identity perturbation breaks the [H,F] = -2F relation: action([H,F])
    # - [action(H), action(F)] is -2 (ad F + I) + 2 ad F
    assert exc.value.pair == (0, 2)
    assert exc.value.residual == Matrix.identity(3).scale(-2)


def test_coadjoint_action_on_sl2():
    g = builtin("sl2").algebra
    co = coadjoint_module(g)
    # the action of H sends E* to -2 E*
    e_star = unit(3, 1)
    assert apply(co.actions[0], e_star) == (Q(0), Q(-2), Q(0))
    check_module_axiom(co)


def test_coadjoint_of_abelian_is_trivial():
    g = builtin("abelian:3").algebra
    assert all(m.is_zero() for m in coadjoint_module(g).actions)


def test_dual_of_trivial_is_trivial():
    g = builtin("so3").algebra
    assert dual_module(trivial_module(g, 2)) == trivial_module(g, 2)


def test_dual_of_adjoint_equals_coadjoint():
    # verify_vanishing reads the coadjoint module as the dual of the adjoint one
    for name in _CATALOG:
        g = builtin(name).algebra
        assert dual_module(adjoint_module(g)) == coadjoint_module(g), name


@given(st.sampled_from(range(len(suite._sample_bases()))), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_dual_of_adjoint_equals_coadjoint_in_any_basis(which, seed):
    base = suite._sample_bases()[which]
    cols = suite._random_invertible(random.Random(seed), base.dim)
    g = change_of_basis(base, [tuple(row[j] for row in cols) for j in range(base.dim)])
    assert dual_module(adjoint_module(g)) == coadjoint_module(g)


def test_double_dual_is_identity():
    g = builtin("sl2").algebra
    m = adjoint_module(g)
    assert dual_module(dual_module(m)) == m


def test_direct_sum_blocks():
    g = builtin("sl2").algebra
    s = direct_sum([trivial_module(g, 1), adjoint_module(g)])
    assert s.vdim == 4
    check_module_axiom(s)
    # block structure: first row/column stays zero
    for act in s.actions:
        assert all(act.entries[0][j] == 0 for j in range(4))
        assert all(act.entries[i][0] == 0 for i in range(4))


def test_direct_sum_rejects_mixed_algebras():
    with pytest.raises(MixedAlgebras):
        direct_sum([trivial_module(builtin("sl2").algebra, 1),
                    trivial_module(builtin("so3").algebra, 1)])


def test_module_spec_parsing():
    g = builtin("sl2").algebra
    assert module_from_spec(g, "trivial").vdim == 1
    assert module_from_spec(g, "trivial:3").vdim == 3
    assert module_from_spec(g, "adjoint") == adjoint_module(g)
    assert module_from_spec(g, "coadjoint") == coadjoint_module(g)
    assert module_from_spec(g, "dual:adjoint") == coadjoint_module(g)
    assert module_from_spec(g, "sum:trivial+adjoint").vdim == 4
    for bad in ("nonsense", "trivial:x", "sum:adjoint", "dual:"):
        with pytest.raises(UnknownModuleSpec):
            module_from_spec(g, bad)


def test_module_spec_bounds_the_largest_cochain_level():
    # sl2 levels have at most 3 tuples, so trivial:n reaches 3n cochains
    g = builtin("sl2").algebra
    n = MAX_LEVEL_DIM // 3
    assert module_from_spec(g, f"trivial:{n}").vdim == n
    for bad in (f"trivial:{n + 1}", f"sum:trivial:{n}+trivial"):
        with pytest.raises(ModuleTooLarge):
            module_from_spec(g, bad)
    # the largest level the benchmark reaches: sl4-sized trivial, C(15, 7)
    assert module_from_spec(builtin("abelian:15").algebra, "trivial").vdim == 1


def _invariants(g, mod):
    # H^0(g, V) = V^g: the representatives of degree-0 cohomology
    return [c.coords for c in cohomology(g, mod, 0).cocycle_representatives]


def test_simple_adjoint_modules_have_no_invariants():
    for name in ("sl2", "so3"):
        g = builtin(name).algebra
        assert _invariants(g, adjoint_module(g)) == []


def test_heisenberg_adjoint_has_central_invariant():
    g = builtin("heis3").algebra
    assert _invariants(g, adjoint_module(g)) == [(Q(0), Q(0), Q(1))]


_H0_NAMES = ["sl2", "so3", "sl2sl2", "heis3", "abelian:3", "sl2_so2_pair", "sl2R_ext",
             "fivedim_ext:1", "fivedim_ext:-3/4"]
_H0_SPECS = ["trivial", "trivial:2", "adjoint", "coadjoint", "dual:adjoint", "sum:trivial+adjoint"]


@pytest.mark.parametrize("spec", _H0_SPECS)
@pytest.mark.parametrize("name", _H0_NAMES)
def test_degree_zero_cohomology_is_the_kernel_of_the_stacked_actions(name, spec):
    g = builtin(name).algebra
    mod = module_from_spec(g, spec)
    # the canonical kernel basis of the actions stacked one above the other
    stacked = Matrix.from_rows([row for m in mod.actions for row in m.entries])
    assert _invariants(g, mod) == kernel_basis(stacked)


def test_unvalidated_container_can_hold_nonmodules():
    # GModule is a plain container; the axiom check is explicit
    g = builtin("sl2").algebra
    flipped = GModule(g, 3, tuple(g.ad_matrix(unit(3, i)).transpose() for i in range(3)))
    with pytest.raises(ModuleAxiomViolation):
        check_module_axiom(flipped)
