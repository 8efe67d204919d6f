"""The weight-graded absolute complex: only the weight-zero cells are eliminated.

Every graded result is compared with the full level: Betti numbers and
representatives with the greedy pass of ``cohomology.cohomology`` run here
on the full-level differential, as ``cecomplex.reduction`` does for an
ungraded module, the graded differential with the block of the full
differential, and the whole Poincare polynomials of sl2, sl3 and sl4 with
Chevalley-Eilenberg.
"""

import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from liecoh import cecomplex, gmod, suite
from liecoh.cecomplex import (
    CochainLevel,
    differential_matrix,
    graded_differential,
    tuple_basis,
    weight_grading,
    weight_zero_cells,
)
from liecoh.cohomology import betti_sequence, cohomology
from liecoh.extensions import BUILTIN_NAMES, builtin
from liecoh.gmod import (
    GModule,
    adjoint_module,
    coadjoint_module,
    module_from_spec,
    trivial_module,
)
from liecoh.liealg import change_of_basis, unit, validate
from liecoh.ratlin import SubspaceNotContained

_SRC = Path(__file__).resolve().parent.parent / "src"

# the package's ``cohomology`` attribute is the function, not its module
cohomology_module = importlib.import_module("liecoh.cohomology")

MODULE_SPECS = ("trivial", "trivial:0", "trivial:2", "adjoint", "coadjoint", "dual:adjoint",
                "sum:trivial+adjoint")


def _sl(n, seed):
    """sl_n from the matrix units H_i = E_ii - E_(i+1)(i+1) and E_ij, i != j.

    The basis is then permuted and each vector scaled by a seeded monomial
    change, so every basis vector stays a weight vector of the H_i.
    """
    mats = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    mats += [{(i, j): 1} for i in range(n) for j in range(n) if i != j]
    units = {key: a for a, m in enumerate(mats) if len(m) == 1 for key in m}

    def coordinates(m):
        out = [0] * len(mats)
        trace = 0
        for i in range(n - 1):
            # H_i = E_ii - E_(i+1)(i+1): the H_i coefficient is a partial trace
            trace += m.get((i, i), 0)
            out[i] = trace
        for key, v in m.items():
            if key[0] != key[1]:
                out[units[key]] = v
        return tuple(out)

    def commutator(x, y):
        out = {}
        for (i, k), a in x.items():
            for (l, j), b in y.items():
                if k == l:
                    out[(i, j)] = out.get((i, j), 0) + a * b
                if j == i:
                    out[(l, k)] = out.get((l, k), 0) - a * b
        return out

    dim = len(mats)
    brackets = {(a, b): coordinates(commutator(mats[a], mats[b]))
                for a in range(dim) for b in range(a + 1, dim)}
    g = validate(dim, tuple(f"x{a}" for a in range(dim)), brackets)
    rng = random.Random(f"sl{n}:{seed}")
    perm = list(range(dim))
    rng.shuffle(perm)
    scales = [rng.choice((1, -1, 2, Q(-1, 2), 3)) for _ in range(dim)]
    return change_of_basis(g, [[s * x for x in unit(dim, p)] for s, p in zip(scales, perm)])


SL = {n: _sl(n, 1) for n in (2, 3, 4)}


def _full_level_cohomology(lvl):
    """(betti, representatives) from the full-level differential, with no grading."""
    cocycles = differential_matrix(lvl).kernel()
    span = differential_matrix(lvl.shifted(-1)).transpose()._span()
    betti = cocycles.rows - span.rank
    reps = [cocycles.row(i) for i, v in enumerate(cocycles.int_rows) if span.add(v)]
    if len(reps) != betti:
        raise SubspaceNotContained("some coboundary is not a cocycle")
    return betti, reps


def _graded_cohomology(lvl):
    res = cohomology(lvl.algebra, lvl.module, lvl.degree)
    return res.betti, [c.coords for c in res.cocycle_representatives]


def _poincare_sl(n):
    """prod over m = 1..n-1 of (1 + t^(2m+1)), as a coefficient list."""
    coeffs = [1]
    for m in range(1, n):
        shifted = [0] * (2 * m + 1) + coeffs
        coeffs = [a + b for a, b in zip(coeffs + [0] * (2 * m + 1), shifted)]
    return tuple(coeffs)


def _catalog_names():
    return [n.replace(":n", ":3").replace(":alpha", ":1") for n in BUILTIN_NAMES] + ["abelian:0"]


@pytest.mark.parametrize("name", _catalog_names() + ["sl3"])
def test_graded_path_agrees_with_the_full_level(name):
    g = SL[3] if name == "sl3" else builtin(name).algebra
    for spec in MODULE_SPECS:
        mod = module_from_spec(g, spec)
        for k in range(g.dim + 1):
            lvl = CochainLevel(g, mod, k)
            assert _graded_cohomology(lvl) == _full_level_cohomology(lvl), (spec, k)


def test_graded_path_agrees_with_the_full_level_on_sl4():
    # the middle degrees of sl4 are out of reach of the full level in a
    # test; the Poincare polynomial below covers them
    g = SL[4]
    small = (*range(5), *range(11, 16))
    cases = [(trivial_module(g, n), small) for n in (0, 1, 2)]
    cases += [(mod, (0, 1, 2, 13, 14, 15)) for mod in (adjoint_module(g), coadjoint_module(g))]
    for mod, degrees in cases:
        assert weight_grading(mod) is not None
        for k in degrees:
            lvl = CochainLevel(g, mod, k)
            assert _graded_cohomology(lvl) == _full_level_cohomology(lvl), (mod.vdim, k)


def test_weight_zero_cells_are_the_filtered_cells_in_flat_order():
    sl2sl2 = builtin("sl2sl2").algebra
    for g, mod in ((SL[3], adjoint_module(SL[3])), (SL[3], module_from_spec(SL[3], "sum:trivial+adjoint")),
                   (SL[4], trivial_module(SL[4], 1)), (sl2sl2, coadjoint_module(sl2sl2))):
        cartan = [h for h in range(g.dim)
                  if all(r.keys() <= {i} for i, r in enumerate(g.brackets[h].sparse_rows))]

        def alpha(a, h):
            return g.brackets[h].sparse_rows[a].get(a, 0)

        def mu(m, h):
            return mod.actions[h].sparse_rows[m].get(m, 0)

        for k in range(-1, g.dim + 2):
            want = [(t, m) for t in tuple_basis(g.dim, k) for m in range(mod.vdim)
                    if all(sum(alpha(a, h) for a in t) == mu(m, h) for h in cartan)]
            got = [(t, m) for t, ms in weight_zero_cells(CochainLevel(g, mod, k)) for m in ms]
            assert got == want, k


def test_graded_differential_is_the_weight_zero_block():
    # delta keeps weights: the weight-zero columns of the full differential
    # have no entry outside the weight-zero rows, and the block is the
    # graded differential
    for g, mod in ((SL[3], adjoint_module(SL[3])), (SL[3], trivial_module(SL[3], 2)),
                   (builtin("sl2R_ext").algebra, coadjoint_module(builtin("sl2R_ext").algebra))):
        for k in range(-1, g.dim + 1):
            lvl = CochainLevel(g, mod, k)

            def flat(level):
                return [cecomplex._rank(g.dim, t) * mod.vdim + m
                        for t, ms in weight_zero_cells(level) for m in ms]

            cols, rows = flat(lvl), flat(lvl.shifted(1))
            full = differential_matrix(lvl).transpose().sparse_rows
            block = graded_differential(lvl).transpose().sparse_rows
            assert len(block) == len(cols)
            for col, entries in zip(cols, block):
                assert {rows[j]: v for j, v in entries.items()} == full[col], (k, col)


def test_poincare_polynomials_of_sl2_sl3_sl4():
    # Chevalley-Eilenberg: prod over the exponents m = 1..n-1 of (1 + t^(2m+1))
    for n, g in SL.items():
        assert weight_grading(trivial_module(g, 1)) is not None
        assert betti_sequence(g, trivial_module(g, 1)) == _poincare_sl(n), n
    assert _poincare_sl(4) == (1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1)


def test_whitehead_vanishing_for_sl3_adjoint():
    assert betti_sequence(SL[3], adjoint_module(SL[3])) == (0,) * 9


def test_graded_cohomology_builds_no_full_level_differential(monkeypatch):
    expected = {k: _full_level_cohomology(CochainLevel(SL[3], adjoint_module(SL[3]), k))
                for k in range(9)}

    def refuse(*args):
        raise AssertionError("full-level differential assembled")

    monkeypatch.setattr(cecomplex, "differential_matrix", refuse)
    monkeypatch.setattr(cohomology_module, "differential_matrix", refuse)
    # uncached, so no graded differential computed before the patch can stand in
    monkeypatch.setattr(cecomplex, "graded_differential", graded_differential.__wrapped__)
    for k, want in expected.items():
        got = cohomology(SL[3], adjoint_module(SL[3]), k)
        assert (got.betti, [c.coords for c in got.cocycle_representatives]) == want, k
    sl4 = [cohomology(SL[4], trivial_module(SL[4], 1), k).betti for k in range(16)]
    assert tuple(sl4) == _poincare_sl(4)


def test_degree_all_builds_each_graded_differential_once():
    g = _sl(3, 2)  # a basis no other test uses, so every cache starts cold
    before = graded_differential.cache_info().misses
    for k in range(g.dim + 1):
        cohomology(g, adjoint_module(g), k)
    # the levels 0..dim, each built once; degree 0 has no coboundaries, so
    # the level -1 is not built
    assert graded_differential.cache_info().misses - before == g.dim + 1


def _doubled_e(g):
    # the adjoint action with ad(E) doubled: still diagonal in H and weight
    # compatible, but [rho(E), rho(F)] = 4 ad(H) != rho([E, F]) = ad(H)
    actions = list(adjoint_module(g).actions)
    actions[1] = actions[1] * 2
    return GModule(g, g.dim, tuple(actions))


def test_gate_refuses_a_weight_compatible_non_module():
    g = builtin("sl2").algebra
    mod = _doubled_e(g)
    assert weight_grading(mod) is None
    assert weight_grading(adjoint_module(g)) is not None
    for k in (1, 2):
        with pytest.raises(SubspaceNotContained):
            cohomology(g, mod, k)
        with pytest.raises(SubspaceNotContained):
            _full_level_cohomology(CochainLevel(g, mod, k))
    assert [cohomology(g, mod, k).betti for k in (0, 3)] == [0, 0]


def test_every_graded_module_is_checked_once_and_a_non_module_is_refused(monkeypatch):
    g = builtin("sl2").algebra
    modules = [trivial_module(g, 1), adjoint_module(g), coadjoint_module(g),
               module_from_spec(g, "sum:trivial+adjoint"), _doubled_e(g),
               suite.flipped_coadjoint_module(g), GModule(g, g.dim, adjoint_module(g).actions)]
    checked = []
    real = gmod.check_module_axiom
    monkeypatch.setattr(gmod, "check_module_axiom", lambda mod: checked.append(mod) or real(mod))
    weight_grading.cache_clear()
    for _ in range(2):
        gradings = [weight_grading(mod) for mod in modules]
    # the bare GModule equals the adjoint module: one check and one grading serve both
    assert len(checked) == len(set(modules)) == 6 and set(checked) == set(modules)
    assert None not in gradings[:4] and gradings[4:6] == [None, None]
    assert gradings[6] == gradings[1]
    # the flipped coadjoint action is no module, whatever was graded before it
    with pytest.raises(SubspaceNotContained):
        betti_sequence(g, suite.flipped_coadjoint_module(g))


def test_one_suite_run_checks_the_module_axiom_77_times():
    # a fresh interpreter, so every cache starts cold as in one verify-paper run;
    # make_module checks each module it builds, and weight_grading each module
    # it grades, the trivial and adjoint modules of sl2 among them;
    # verify_vanishing builds no dual module
    code = (
        "from liecoh import gmod, suite\n"
        "calls, real = [], gmod.check_module_axiom\n"
        "gmod.check_module_axiom = lambda mod: calls.append(mod) or real(mod)\n"
        "print(len(calls) if suite.run_suite().passed else 'failed', end='')\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(_SRC)},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "77"


@pytest.mark.parametrize("name", ["so3", "heis3", "abelian:3", "abelian:0"])
def test_algebras_without_nonzero_diagonal_weights_take_the_full_level(name, monkeypatch):
    # so3 has no diagonal ad(e_h) over Q; heis3 and the abelian algebras
    # have diagonal ones, with every weight zero
    g = builtin(name).algebra
    mods = (trivial_module(g, 1), adjoint_module(g), coadjoint_module(g))
    assert all(weight_grading(mod) is None for mod in mods)

    def refuse(*args):
        raise AssertionError("graded differential assembled")

    monkeypatch.setattr(cecomplex, "graded_differential", refuse)
    for mod in mods:
        for k in range(g.dim + 1):
            got = cohomology(g, mod, k)
            want = _full_level_cohomology(CochainLevel(g, mod, k))
            assert (got.betti, [c.coords for c in got.cocycle_representatives]) == want

