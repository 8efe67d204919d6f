"""Betti numbers, distinguished classes, volume forms, duality reports."""

from fractions import Fraction as Q
from itertools import combinations

import pytest

from dense import apply, columns, kernel_basis
from liecoh import suite
from liecoh.cecomplex import CochainLevel, differential_matrix, relative_subspace, tuple_basis
from liecoh.cohomology import (
    NotSemisimple,
    betti_sequence,
    cohomology,
    duality_report,
    invariant_volume_form,
    killing_three_form,
)
from liecoh.extensions import BUILTIN_NAMES, builtin
from liecoh.gmod import adjoint_module, coadjoint_module, dual_module, trivial_module
from liecoh.liealg import subalgebra, unit, validate
from liecoh.ratlin import EchelonSpan, Matrix, SubspaceNotContained, quotient_dim


def test_betti_sl2_trivial():
    g = builtin("sl2").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 0, 0, 1)


def test_betti_sl2_adjoint_all_vanish():
    g = builtin("sl2").algebra
    assert betti_sequence(g, adjoint_module(g)) == (0, 0, 0, 0)


def test_betti_heisenberg():
    g = builtin("heis3").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 2, 2, 1)


def test_betti_sl2sl2_kunneth_pattern():
    g = builtin("sl2sl2").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 0, 0, 2, 0, 0, 1)


def test_betti_abelian_binomials():
    g = builtin("abelian:4").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 4, 6, 4, 1)


def test_relative_betti_sl2_so2():
    entry = builtin("sl2_so2_pair")
    assert betti_sequence(entry.algebra, trivial_module(entry.algebra, 1), entry.h) == (1, 0, 1)


def test_representatives_are_cocycles_and_independent():
    g = builtin("heis3").algebra
    mod = trivial_module(g, 1)
    for k in range(4):
        res = cohomology(g, mod, k)
        assert len(res.cocycle_representatives) == res.betti
        level = CochainLevel(g, mod, k)
        delta = differential_matrix(level)
        boundary_span = EchelonSpan(level.space_dim)
        for col in differential_matrix(level.shifted(-1)).transpose().int_rows:
            boundary_span.add(col)
        for rep in res.cocycle_representatives:
            assert not any(apply(delta, rep.coords))
            # independent of coboundaries
            assert boundary_span.add(Matrix.from_rows([rep.coords]).int_rows[0])


def test_module_spec_is_carried():
    g = builtin("sl2").algebra
    res = cohomology(g, adjoint_module(g), 1, module_spec="adjoint")
    assert res.module_spec == "adjoint" and not res.relative


def test_euler_characteristic_identity():
    # alternating sum of betti equals alternating sum of level dimensions
    for name, spec in (("sl2", "trivial"), ("heis3", "trivial"), ("sl2", "adjoint"),
                       ("so3", "coadjoint"), ("abelian:3", "trivial")):
        g = builtin(name).algebra
        mod = {"trivial": trivial_module(g, 1), "adjoint": adjoint_module(g),
               "coadjoint": coadjoint_module(g)}[spec]
        betti = betti_sequence(g, mod)
        dims = [len(tuple_basis(g.dim, k)) * mod.vdim for k in range(g.dim + 1)]
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == sum(
            (-1) ** k * d for k, d in enumerate(dims)
        )


def test_semisimple_builtins_low_degree_pattern():
    # degrees 1 and 2 vanish; degree 3 carries at least the Killing class
    for name in ("sl2", "so3", "sl2sl2"):
        g = builtin(name).algebra
        seq = betti_sequence(g, trivial_module(g, 1))
        assert seq[1] == 0 and seq[2] == 0
        assert seq[3] >= 1


def test_whitehead_vanishing_for_coadjoint():
    for name in ("sl2", "so3"):
        g = builtin(name).algebra
        assert betti_sequence(g, coadjoint_module(g)) == (0, 0, 0, 0)


def test_killing_three_form_sl2():
    g = builtin("sl2").algebra
    res = killing_three_form(g)
    assert res.form.evaluate((0, 1, 2)) == (Q(8),)
    assert res.class_nonzero
    assert not any(apply(differential_matrix(res.form.level), res.form.coords))


def test_killing_three_form_so3():
    g = builtin("so3").algebra
    res = killing_three_form(g)
    assert res.form.evaluate((0, 1, 2)) == (Q(-2),)
    assert res.class_nonzero


def test_killing_three_form_rejects_heisenberg():
    with pytest.raises(NotSemisimple):
        killing_three_form(builtin("heis3").algebra)


def test_volume_form_sl2_so2():
    entry = builtin("sl2_so2_pair")
    res = invariant_volume_form(entry.algebra, entry.h)
    assert res.dim_top_relative == 1
    assert res.form is not None and res.form.level.degree == 2


def test_volume_form_with_trivial_isotropy():
    for name in ("sl2", "heis3", "abelian:2"):
        g = builtin(name).algebra
        res = invariant_volume_form(g, None)
        assert res.dim_top_relative == 1
        assert res.form.level.degree == g.dim


def test_volume_form_extension_pair():
    entry = builtin("sl2R_ext")
    res = invariant_volume_form(entry.algebra, entry.h)
    assert res.dim_top_relative == 1
    assert res.form.level.degree == 3


def test_duality_extension_pair_adjoint():
    entry = builtin("sl2R_ext")
    rep = duality_report(entry.algebra, entry.h, adjoint_module(entry.algebra), 1)
    assert (rep.left, rep.right, rep.equal) == (0, 0, True)


def test_duality_sl2_so2_trivial():
    entry = builtin("sl2_so2_pair")
    rep = duality_report(entry.algebra, entry.h, trivial_module(entry.algebra, 1), 0)
    assert (rep.left, rep.right, rep.equal) == (1, 1, True)


def test_duality_abelian_line():
    g = builtin("abelian:1").algebra
    rep = duality_report(g, None, trivial_module(g, 1), 0)
    assert (rep.left, rep.right, rep.equal) == (1, 1, True)


def test_dual_module_duality_is_symmetric():
    entry = builtin("sl2_so2_pair")
    g, h = entry.algebra, entry.h
    mod = trivial_module(g, 1)
    for k in range(3):
        fwd = duality_report(g, h, mod, k)
        bwd = duality_report(g, h, dual_module(mod), 2 - k)
        assert fwd.left == bwd.right and fwd.right == bwd.left


def test_degree_bounds_are_enforced():
    g = builtin("sl2").algebra
    with pytest.raises(ValueError):
        cohomology(g, trivial_module(g, 1), 4)
    with pytest.raises(ValueError):
        duality_report(g, None, trivial_module(g, 1), 5)


# -- the one-pass core against the three-rank quotient formula ---------

ORACLE_NAMES = tuple(n for n in BUILTIN_NAMES if ":" not in n) + (
    "abelian:4",
    "fivedim_ext:1",
    "fivedim_ext:-3/4",
)
MODULES = {"trivial": lambda g: trivial_module(g, 1), "adjoint": adjoint_module,
           "coadjoint": coadjoint_module}


def _quotient_formula_betti(g, mod, k, h=None):
    """dim Z/B from dense cocycles and coboundaries by quotient_dim."""
    level = CochainLevel(g, mod, k)
    d_k = differential_matrix(level)
    d_prev = differential_matrix(level.shifted(-1))
    if h is None:
        cocycles = kernel_basis(d_k)
        coboundaries = [c for c in columns(d_prev) if any(c)]
    else:
        sub_k = relative_subspace(level, h)
        cocycles = []
        if sub_k:
            bmat = Matrix.from_columns(sub_k, rows=level.space_dim)
            cocycles = [apply(bmat, v) for v in kernel_basis(d_k * bmat)]
        images = (apply(d_prev, v) for v in relative_subspace(level.shifted(-1), h))
        coboundaries = [w for w in images if any(w)]
    return quotient_dim(cocycles, coboundaries)


@pytest.mark.parametrize("spec", sorted(MODULES))
@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_betti_matches_the_quotient_formula(name, spec):
    entry = builtin(name)
    g = entry.algebra
    mod = MODULES[spec](g)
    for k in range(g.dim + 1):
        assert cohomology(g, mod, k).betti == _quotient_formula_betti(g, mod, k)
    if entry.h is not None:
        for k in range(g.dim - entry.h.dim + 1):
            got = cohomology(g, mod, k, entry.h).betti
            assert got == _quotient_formula_betti(g, mod, k, entry.h)


def test_containment_check_fires_on_a_non_module():
    # +ad^T is an anti-homomorphism, so delta o delta != 0 and some
    # coboundaries of degrees 1 and 2 are not cocycles
    g = builtin("sl2").algebra
    flipped = suite.flipped_coadjoint_module(g)
    for k in (1, 2):
        with pytest.raises(SubspaceNotContained):
            cohomology(g, flipped, k)
    assert [cohomology(g, flipped, k).betti for k in (0, 3)] == [0, 0]


# -- Cartan's theorem on the symmetric pairs (so(n,1), so(n)) --------------


def _so_n1(n):
    """so(n,1) from matrix units, rotations R_ij (i < j < n) first, then boosts B_i.

    R_ij = E_ij - E_ji and B_i = E_in + E_ni preserve the form diag(1, .., 1, -1);
    the pair's subalgebra so(n) is spanned by the rotations.
    """
    rotations = list(combinations(range(n), 2))
    elems = [{(i, j): 1, (j, i): -1} for i, j in rotations]
    elems += [{(i, n): 1, (n, i): 1} for i in range(n)]

    def product(x, y):
        out = {}
        for (i, k), a in x.items():
            for (k2, j), b in y.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + a * b
        return out

    def coordinates(m):
        return [m.get(p, 0) for p in rotations] + [m.get((i, n), 0) for i in range(n)]

    brackets = {}
    for a, b in combinations(range(len(elems)), 2):
        xy, yx = product(elems[a], elems[b]), product(elems[b], elems[a])
        brackets[(a, b)] = coordinates({p: xy.get(p, 0) - yx.get(p, 0) for p in {*xy, *yx}})
    g = validate(len(elems), [f"e{i}" for i in range(len(elems))], brackets)
    return g, subalgebra(g, [unit(g.dim, i) for i in range(len(rotations))])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_relative_betti_of_so_n1_is_that_of_the_sphere(n):
    # H*(so(n,1), so(n)) = H*(S^n), the compact dual (Cartan): 1 + t^n
    g, h = _so_n1(n)
    assert betti_sequence(g, trivial_module(g, 1), h) == (1,) + (0,) * (n - 1) + (1,)
