"""Acceptance suite: one test per criterion, exact values, pinned budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Everything asserted here is an exact integer or
rational equality; the only tolerances are wall-clock budgets.
"""

import time
from fractions import Fraction as Q

from liecoh import files, suite
from liecoh.cecomplex import differential_matrix
from liecoh.cli import EXIT_OK, main
from liecoh.cohomology import (
    betti_sequence,
    invariant_volume_form,
    killing_three_form,
)
from liecoh.extensions import builtin, verify_vanishing
from liecoh.gmod import adjoint_module, trivial_module
from liecoh.liealg import killing_determinant, killing_form, structure_report
from liecoh.ratlin import Matrix


def _report(num, label, passed, detail):
    line = f"criterion {num:2d} ({label}): {'PASS' if passed else 'FAIL'} -- {detail}"
    print(line)
    assert passed, line


def test_criterion_01_absolute_betti_tables():
    t0 = time.monotonic()
    got = {}
    for name in ("sl2", "so3", "heis3"):
        g = builtin(name).algebra
        got[name] = betti_sequence(g, trivial_module(g, 1))
    elapsed = time.monotonic() - t0
    expected = {"sl2": (1, 0, 0, 1), "so3": (1, 0, 0, 1), "heis3": (1, 2, 2, 1)}
    _report(
        1,
        "absolute betti tables",
        got == expected and elapsed < 1.0,
        f"{got} in {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_02_whitehead_vanishing():
    got = {}
    for name in ("sl2", "so3"):
        g = builtin(name).algebra
        got[name] = betti_sequence(g, adjoint_module(g))
    ok = all(seq == (0, 0, 0, 0) for seq in got.values())
    _report(2, "adjoint-coefficient vanishing", ok, f"{got}")


def test_criterion_03_relative_pair():
    entry = builtin("sl2_so2_pair")
    seq = betti_sequence(entry.algebra, trivial_module(entry.algebra, 1), entry.h)
    vol = invariant_volume_form(entry.algebra, entry.h).dim_top_relative
    _report(
        3,
        "relative pair betti and volume form",
        seq == (1, 0, 1) and vol == 1,
        f"betti={seq} volume_dim={vol}",
    )


def test_criterion_04_vanishing_three_dim():
    t0 = time.monotonic()
    rep = verify_vanishing(builtin("sl2R_ext").pair)
    elapsed = time.monotonic() - t0
    ok = (
        rep.betti1_adjoint == 0
        and rep.betti_top_minus_one_coadjoint == 0
        and rep.volume_form_dim == 1
        and elapsed < 1.0
    )
    _report(
        4,
        "central extension vanishing, 3-dim",
        ok,
        f"b1(adjoint)={rep.betti1_adjoint} b2(coadjoint)={rep.betti_top_minus_one_coadjoint} "
        f"volume_dim={rep.volume_form_dim} in {elapsed:.3f}s (budget 1s)",
    )


def test_criterion_05_vanishing_five_dim():
    t0 = time.monotonic()
    results = {}
    for alpha in ("1", "2", "3", "1/2"):
        rep = verify_vanishing(builtin(f"fivedim_ext:{alpha}").pair)
        results[alpha] = (rep.betti1_adjoint, rep.betti_top_minus_one_coadjoint)
    elapsed = time.monotonic() - t0
    ok = all(v == (0, 0) for v in results.values()) and elapsed < 10.0
    _report(
        5,
        "central extension vanishing, 5-dim",
        ok,
        f"(b1, b4) per slope {results} in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_06_operator_identity_suites():
    t0 = time.monotonic()
    checked, failures = suite.run_operator_identity_suite()
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    _report(
        6,
        "operator identity suites",
        ok,
        f"{checked} checks, {len(failures)} failures in {elapsed:.2f}s (budget 30s)",
    )


def test_criterion_07_killing_data():
    g = builtin("sl2").algebra
    b = killing_form(g)
    det = killing_determinant(g)
    three = killing_three_form(g)
    kappa = three.form.evaluate((0, 1, 2))[0]
    closed = not any(differential_matrix(three.form.level).apply(three.form.coords))
    ok = (
        b == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
        and det == Q(-128)
        and kappa == Q(8)
        and closed
        and three.class_nonzero
    )
    _report(
        7,
        "Killing form data",
        ok,
        f"det={det} kappa(H,E,F)={kappa} closed={closed} class_nonzero={three.class_nonzero}",
    )


def test_criterion_08_volume_constants(capsys):
    code1 = main(["volume", "seifert", "--chi", "-5/2", "--e", "3/2", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["volume", "sl2tilde", "--n", "1", "--e", "3/2", "--json"])
    out2 = capsys.readouterr().out
    c1 = files.parse_report(out1).get("volume_pi2_coefficient")
    c2 = files.parse_report(out2).get("volume_pi2_coefficient")
    ok = code1 == code2 == EXIT_OK and c1 == "50/3" and c2 == "6"
    with capsys.disabled():
        _report(8, "closed-form volume constants", ok, f"seifert={c1}*pi^2 sl2tilde={c2}*pi^2")


def test_criterion_09_structure_classification():
    flags = {}
    flags["sl2"] = structure_report(builtin("sl2").algebra).is_semisimple
    ab = structure_report(builtin("abelian:2").algebra)
    flags["abelian"] = ab.is_reductive and not ab.is_semisimple
    he = structure_report(builtin("heis3").algebra)
    flags["heisenberg"] = not he.is_reductive
    for name in ("sl2R_ext", "fivedim_ext:1", "fivedim_ext:1/2"):
        pair = builtin(name).pair
        rep = structure_report(pair.algebra)
        flags[name] = rep.is_reductive and rep.center.dim == pair.rank
    _report(9, "structure classification", all(flags.values()), f"{flags}")


def test_criterion_10_mutation_sensitivity():
    _, flipped_failures = suite.run_operator_identity_suite(suite.flipped_coadjoint_module)
    j_broken = any(":j-" in f for f in flipped_failures)
    broken_suite = suite.run_suite(mutation="omit-diagonal")
    vanishing_rows = [r for r in broken_suite.rows if r.name.startswith("extension-vanishing")]
    vanishing_broken = any(not r.passed for r in vanishing_rows)
    ok = j_broken and vanishing_broken
    _report(
        10,
        "mutation sensitivity",
        ok,
        f"sign flip breaks a degree-lowering relation: {j_broken}; "
        f"diagonal omission breaks vanishing rows: {vanishing_broken}",
    )
