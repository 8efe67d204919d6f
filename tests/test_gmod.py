"""Module constructors and the exact bracket-relation check."""

from fractions import Fraction as Q

import pytest

from liecoh.extensions import builtin
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
    invariant_vectors,
    make_module,
    module_from_spec,
    trivial_module,
)
from liecoh.liealg import unit
from liecoh.ratlin import Matrix


def test_trivial_module_is_valid():
    g = builtin("sl2").algebra
    m = make_module(g, 1, [Matrix.zero(1, 1)] * 3)
    check_module_axiom(m)


def test_adjoint_module_is_valid():
    g = builtin("sl2").algebra
    m = adjoint_module(g)
    check_module_axiom(m)
    assert m.actions[0] == g.ad_matrix(unit(3, 0))


def test_perturbed_adjoint_violates_axiom():
    g = builtin("sl2").algebra
    ads = [g.ad_matrix(unit(3, i)) for i in range(3)]
    ads[2] = ads[2] + Matrix.identity(3)
    with pytest.raises(ModuleAxiomViolation) as exc:
        make_module(g, 3, ads)
    # the identity perturbation breaks the [H,F] = -2F relation
    assert exc.value.pair == (0, 2)


def test_coadjoint_action_on_sl2():
    g = builtin("sl2").algebra
    co = coadjoint_module(g)
    # the action of H sends E* to -2 E*
    e_star = unit(3, 1)
    assert co.actions[0].apply(e_star) == (Q(0), Q(-2), Q(0))
    check_module_axiom(co)


def test_coadjoint_of_abelian_is_trivial():
    g = builtin("abelian:3").algebra
    assert all(m.is_zero() for m in coadjoint_module(g).actions)


def test_dual_of_trivial_is_trivial():
    g = builtin("so3").algebra
    assert dual_module(trivial_module(g, 2)) == trivial_module(g, 2)


def test_dual_of_adjoint_equals_coadjoint():
    for name in ("sl2", "so3", "heis3"):
        g = builtin(name).algebra
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


def test_simple_adjoint_modules_have_no_invariants():
    for name in ("sl2", "so3"):
        g = builtin(name).algebra
        assert invariant_vectors(adjoint_module(g)) == []


def test_heisenberg_adjoint_has_central_invariant():
    g = builtin("heis3").algebra
    assert invariant_vectors(adjoint_module(g)) == [(Q(0), Q(0), Q(1))]


def test_unvalidated_container_can_hold_nonmodules():
    # GModule is a plain container; the axiom check is explicit
    g = builtin("sl2").algebra
    flipped = GModule(g, 3, tuple(g.ad_matrix(unit(3, i)).transpose() for i in range(3)))
    with pytest.raises(ModuleAxiomViolation):
        check_module_axiom(flipped)
