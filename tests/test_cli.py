"""Command-line surface: file format, reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import cli, extensions, files, gmod, liealg, suite
from liecoh.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    _looks_like_catalog_name,
    build_parser,
    main,
)
from liecoh.cohomology import betti_sequence
from liecoh.extensions import BUILTIN_NAMES, builtin
from liecoh.gmod import adjoint_module

SL2_JSON = {
    "format": 1,
    "name": "sl2-from-file",
    "dim": 3,
    "basis": ["H", "E", "F"],
    "brackets": {"[0,1]": {"1": "2"}, "[0,2]": {"2": "-2"}, "[1,2]": {"0": "1"}},
}


def write_json(tmp_path, data, name="alg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_uncaptured(argv):
    # StringIO takes any str, such as a lone surrogate, where captured
    # stderr would fail to encode it
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- file format ------------------------------------------------------


def test_load_algebra_from_file(tmp_path):
    g, h, name = files.load_algebra(write_json(tmp_path, SL2_JSON))
    assert name == "sl2-from-file"
    assert g.dim == 3 and h is None
    assert g.brackets[1].row(2) == (Q(1), Q(0), Q(0))


def test_save_load_round_trip_with_subalgebra(tmp_path):
    entry = builtin("fivedim_ext:2")
    path = tmp_path / "pair.json"
    files.save_algebra(path, entry.algebra, entry.h, name="fivedim")
    g, h, name = files.load_algebra(path)
    assert name == "fivedim"
    assert g == entry.algebra
    assert h.vectors == entry.h.vectors
    # the reloaded pair computes the same relative cohomology: degree 0
    # sees the 1-dim center acting invariantly, degree 1 vanishes
    assert betti_sequence(g, adjoint_module(g), h)[:2] == (1, 0)


def test_parse_rejects_floats(tmp_path):
    bad = dict(SL2_JSON)
    bad["brackets"] = {"[0,1]": {"1": "2.5"}}
    with pytest.raises(files.ParseError) as exc:
        files.load_algebra(write_json(tmp_path, bad))
    assert "[0,1]" in str(exc.value)


def test_parse_rejects_bad_keys_and_versions(tmp_path):
    for mutilate in (
        lambda d: d.update(format=99),
        lambda d: d.update(brackets={"(0,1)": {"1": "2"}}),
        lambda d: d.update(brackets={"[1,0]": {"1": "2"}}),
        lambda d: d.update(basis=["H", "E"]),
    ):
        data = json.loads(json.dumps(SL2_JSON))
        mutilate(data)
        with pytest.raises(files.ParseError):
            files.load_algebra(write_json(tmp_path, data))


def _check_file(capsys, tmp_path, data):
    return run(capsys, ["check", write_json(tmp_path, data)])


def test_dim_true_is_rejected(capsys, tmp_path):
    bad = dict(SL2_JSON, dim=True, basis=["H"], brackets={})
    code, out, err = _check_file(capsys, tmp_path, bad)
    assert code == EXIT_PARSE and out == ""
    assert "dim must be a nonnegative integer" in err


def test_duplicate_basis_names_are_rejected(capsys, tmp_path):
    bad = dict(SL2_JSON, basis=["H", "E", "H"])
    code, out, err = _check_file(capsys, tmp_path, bad)
    assert code == EXIT_PARSE and out == ""
    assert "distinct" in err


def test_aliased_bracket_keys_are_rejected(capsys, tmp_path):
    # [0,1] and [00,1] name the same pair; neither may silently win
    bad = json.loads(json.dumps(SL2_JSON))
    bad["brackets"]["[00,1]"] = {"1": "3"}
    code, out, err = _check_file(capsys, tmp_path, bad)
    assert code == EXIT_PARSE and out == ""
    assert "repeats the pair (0,1)" in err
    # the same aliasing inside one bracket's coefficient indices
    bad = json.loads(json.dumps(SL2_JSON))
    bad["brackets"]["[0,1]"] = {"1": "2", "01": "3"}
    code, _, err = _check_file(capsys, tmp_path, bad)
    assert code == EXIT_PARSE and "repeats index 1" in err


def test_json_booleans_are_not_rationals(capsys, tmp_path):
    for flag in (True, False):
        with pytest.raises(files.ParseError):
            files.parse_rational(flag)
        bad = json.loads(json.dumps(SL2_JSON))
        bad["brackets"]["[1,2]"] = {"0": flag}
        code, out, err = _check_file(capsys, tmp_path, bad)
        assert code == EXIT_PARSE and out == ""
        assert "not an exact rational" in err


# every number of the file format is ASCII: int() and Fraction() would take
# these digits, the underscore and the surrounding space
@pytest.mark.parametrize("mutilate", [
    lambda b: b.update({"[\u0660,\u0661]": b.pop("[0,1]")}),
    lambda b: b.update({"[0,1]": {"\u0661": "2"}}),
    lambda b: b.update({"[0,2]": {" 2": "-2"}}),
    lambda b: b.update({"[1,2]": {"0_0": "1"}}),
    lambda b: b.update({"[0,1]": {"1": "\u0662"}}),
    lambda b: b.update({"[0,1]\n": b.pop("[0,1]")}),
], ids=["key-digits", "index-digits", "index-space", "index-underscore", "value-digits",
        "key-newline"])
def test_algebra_file_numbers_are_ascii(capsys, tmp_path, mutilate):
    data = json.loads(json.dumps(SL2_JSON))
    mutilate(data["brackets"])
    code, out, err = _check_file(capsys, tmp_path, data)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("kind", ["nul-in-path", "surrogate-in-path", "not-utf8", "deeply-nested"])
def test_unreadable_files_are_parse_errors(tmp_path, kind):
    if kind == "nul-in-path":
        path = "alg\x00.json"
    elif kind == "surrogate-in-path":
        path = "alg\ud800.json"
    else:
        content = b"\xff\xfe{}" if kind == "not-utf8" else b"[" * 100_000
        path = tmp_path / "alg.json"
        path.write_bytes(content)
        path = str(path)
    for argv in (["check", path], ["cohomology", "sl2", "--coeffs", path]):
        code, out, err = _run_uncaptured(argv)
        assert code == EXIT_PARSE
        assert out == "" and err.startswith("parse error: cannot read")


def test_rational_formatting():
    assert files.format_rational(Q(-3, 7)) == "-3/7"
    assert files.format_rational(Q(5)) == "5"
    assert files.parse_rational("-3/7") == Q(-3, 7)
    assert files.parse_rational(4) == Q(4)


@given(
    st.integers(min_value=-(10**30) + 1, max_value=10**30 - 1),
    st.integers(min_value=1, max_value=10**30 - 1),
)
@settings(max_examples=100, deadline=None)
def test_rational_round_trip(p, q):
    x = Q(p, q)
    assert files.parse_rational(files.format_rational(x)) == x


# -- check ------------------------------------------------------------


def test_every_builtin_name_is_recognised_as_catalog_name():
    examples = {"abelian:n": "abelian:3", "fivedim_ext:alpha": "fivedim_ext:-3/4"}
    for key in BUILTIN_NAMES:
        name = examples.get(key, key)
        assert _looks_like_catalog_name(key) and _looks_like_catalog_name(name), key
        assert builtin(name).name == name
    assert not _looks_like_catalog_name("sl2.json")


def test_readme_catalog_table_lists_exactly_the_builtin_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| name | contents |", 1)[1].split("\n\n", 1)[0]
    assert tuple(re.findall(r"^\| `([^`]+)` \|", table, re.MULTILINE)) == BUILTIN_NAMES


def test_check_catalog_name(capsys):
    code, out, _ = run(capsys, ["check", "sl2"])
    assert code == EXIT_OK
    assert "semisimple" in out and "yes" in out
    assert "killing_det" in out and "-128" in out


def test_check_file_and_machine_format(capsys, tmp_path):
    path = write_json(tmp_path, SL2_JSON)
    code, out, _ = run(capsys, ["check", path, "--json"])
    assert code == EXIT_OK
    report = files.parse_report(out)
    assert report.get("semisimple") == "yes"
    assert report.get("reductive") == "yes"
    assert report.get("killing_det") == "-128"


def test_check_heisenberg_flags(capsys):
    code, out, _ = run(capsys, ["check", "heis3", "--json"])
    report = files.parse_report(out)
    assert report.get("semisimple") == "no"
    assert report.get("reductive") == "no"


def test_check_abelian_flags(capsys):
    code, out, _ = run(capsys, ["check", "abelian:2", "--json"])
    report = files.parse_report(out)
    assert report.get("semisimple") == "no"
    assert report.get("reductive") == "yes"


def test_check_abelian_256(capsys):
    # the largest algebra accepted: stored and checked from nonzero structure
    # constants only, so this takes well under a second
    code, out, _ = run(capsys, ["check", "abelian:256", "--json"])
    assert code == EXIT_OK
    report = files.parse_report(out)
    assert report.get("center_dim") == "256"
    assert report.get("derived_dim") == "0"
    assert report.get("killing_rank") == "0"


def test_check_jacobi_violation_exit(capsys, tmp_path):
    bad = json.loads(json.dumps(SL2_JSON))
    bad["brackets"]["[1,2]"] = {"0": "1", "1": "1"}
    code, _, err = run(capsys, ["check", write_json(tmp_path, bad)])
    assert code == EXIT_VALIDATION
    assert "Jacobi" in err


def test_check_parse_error_exit(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["check", str(path)])
    assert code == EXIT_PARSE
    assert "line" in err


# -- cohomology -------------------------------------------------------


def test_cohomology_betti_table(capsys):
    code, out, _ = run(capsys, ["cohomology", "sl2", "--coeffs", "trivial", "--json"])
    assert code == EXIT_OK
    report = files.parse_report(out)
    assert [report.get(f"betti[{k}]") for k in range(4)] == ["1", "0", "0", "1"]


def test_cohomology_adjoint_vanishes(capsys):
    code, out, _ = run(capsys, ["cohomology", "sl2", "--coeffs", "adjoint", "--json"])
    report = files.parse_report(out)
    assert [report.get(f"betti[{k}]") for k in range(4)] == ["0"] * 4


def test_cohomology_relative(capsys):
    code, out, _ = run(
        capsys, ["cohomology", "sl2_so2_pair", "--relative", "--degree", "all", "--json"]
    )
    assert code == EXIT_OK
    report = files.parse_report(out)
    assert [report.get(f"betti[{k}]") for k in range(3)] == ["1", "0", "1"]
    assert "betti[3]" not in out


def test_cohomology_catalog_name_with_rational_slope(capsys):
    code, out, _ = run(
        capsys,
        ["cohomology", "fivedim_ext:1/2", "--coeffs", "coadjoint", "--relative",
         "--degree", "4", "--json"],
    )
    assert code == EXIT_OK
    assert files.parse_report(out).get("betti[4]") == "0"


def test_one_parser_serves_every_call_in_a_process():
    # the parser is built once; each call on it prints what a fresh process
    # prints, a usage error between two calls included
    assert build_parser() is build_parser()
    calls = (["check", "sl2"], ["cohomology", "sl2"],
             ["cohomology", "fivedim_ext:1", "--coeffs", "adjoint", "--relative", "--degree", "1"])
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in calls:
        in_process = _run_uncaptured(argv)
        assert _run_uncaptured(["no-such-command"])[0] == EXIT_PARSE
        fresh = subprocess.run([sys.executable, "-m", "liecoh.cli", *argv], capture_output=True,
                               text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
        assert in_process[:2] == (fresh.returncode, fresh.stdout), argv
        assert in_process[0] == EXIT_OK


def test_cohomology_relative_requires_subalgebra(capsys):
    code, _, err = run(capsys, ["cohomology", "sl2", "--relative"])
    assert code == EXIT_VALIDATION
    assert "h_subalgebra" in err


def test_cohomology_degree_out_of_range(capsys):
    code, _, err = run(capsys, ["cohomology", "sl2", "--degree", "7"])
    assert code == EXIT_VALIDATION
    code, _, err = run(capsys, ["cohomology", "sl2", "--degree", "x"])
    assert code == EXIT_VALIDATION


def test_cohomology_unknown_module_spec(capsys):
    code, _, err = run(capsys, ["cohomology", "sl2", "--coeffs", "spinor"])
    assert code == EXIT_VALIDATION
    assert "spinor" in err


def test_many_nested_dual_prefixes(capsys):
    # an odd count of dual: prefixes is one dual, without a frame per prefix;
    # on heis3 the adjoint and coadjoint Betti numbers differ, so parity shows
    def betti_lines(spec):
        code, out, err = run(capsys, ["cohomology", "heis3", "--coeffs", spec, "--json"])
        assert code == EXIT_OK, err
        return [line for line in out.splitlines() if line.startswith("betti[")]

    once = betti_lines("dual:adjoint")
    assert betti_lines("dual:" * 1201 + "adjoint") == once != betti_lines("adjoint")
    assert betti_lines("dual:" * 1200 + "adjoint") == betti_lines("adjoint")


def test_oversized_module_spec_is_rejected_before_allocation(capsys, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("an oversized module was allocated")

    for name in ("trivial_module", "adjoint_module", "coadjoint_module", "direct_sum"):
        monkeypatch.setattr(gmod, name, must_not_build)
    for name, spec in (("sl2", "trivial:99999999999"), ("sl2", "dual:trivial:20000"),
                       ("sl2", "sum:trivial:20000+trivial"), ("abelian:18", "trivial"),
                       ("abelian:16", "adjoint")):
        code, out, err = run(capsys, ["cohomology", name, "--coeffs", spec])
        assert code == EXIT_VALIDATION
        assert out == "" and "over the limit" in err


def test_memory_error_maps_to_validation_exit(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "cohomology", exhausted)
    code, out, err = run(capsys, ["cohomology", "sl2"])
    assert code == EXIT_VALIDATION
    assert out == "" and "out of memory" in err and "Traceback" not in err


def test_cohomology_with_module_file(capsys, tmp_path):
    # explicit action matrices: the adjoint module of sl2, spelled out
    from liecoh.liealg import unit

    g = builtin("sl2").algebra
    actions = [
        [[files.format_rational(x) for x in row] for row in g.ad_matrix(unit(3, i)).entries]
        for i in range(3)
    ]
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"format": 1, "vdim": 3, "actions": actions}))
    code, out, _ = run(capsys, ["cohomology", "sl2", "--coeffs", str(path), "--json"])
    assert code == EXIT_OK
    report = files.parse_report(out)
    assert [report.get(f"betti[{k}]") for k in range(4)] == ["0"] * 4


def test_oversized_module_file_is_rejected_before_allocation(capsys, tmp_path, monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("an oversized module was allocated")

    monkeypatch.setattr(gmod, "make_module", must_not_build)
    # 40 x C(12, 6) = 36960 cochains per level, over gmod.MAX_LEVEL_DIM
    zero = [["0"] * 40 for _ in range(40)]
    path = tmp_path / "big_module.json"
    path.write_text(json.dumps({"format": 1, "vdim": 40, "actions": [zero] * 12}))
    code, out, err = run(capsys, ["cohomology", "abelian:12", "--coeffs", str(path)])
    assert code == EXIT_VALIDATION
    assert out == "" and "over the limit" in err and "Traceback" not in err


@pytest.mark.parametrize("source", ["catalog", "file"])
def test_oversized_algebra_is_rejected_before_validation(capsys, tmp_path, monkeypatch, source):
    def must_not_build(*args, **kwargs):
        raise AssertionError("an oversized algebra reached an algebra constructor")

    # the catalog builds through validate, an algebra file through _checked_algebra
    for module, name in ((liealg, "validate"), (extensions, "validate"),
                         (liealg, "_checked_algebra"), (files, "_checked_algebra")):
        monkeypatch.setattr(module, name, must_not_build)
    n = liealg.MAX_DIM + 1
    if source == "catalog":
        target = f"abelian:{n}"
    else:
        target = write_json(tmp_path, {"format": 1, "dim": n, "basis": [], "brackets": {}})
    code, out, err = run(capsys, ["check", target])
    assert code == EXIT_VALIDATION
    assert out == "" and f"dimension {n}, over the limit" in err and "Traceback" not in err


def test_module_file_axiom_violation(capsys, tmp_path):
    path = tmp_path / "broken_module.json"
    # actions that are not a module: X acts by a projection, Y and Z by zero
    path.write_text(
        json.dumps(
            {
                "format": 1,
                "vdim": 1,
                "actions": [[["1"]], [["0"]], [["1"]]],
            }
        )
    )
    code, _, err = run(capsys, ["cohomology", "heis3", "--coeffs", str(path)])
    assert code == EXIT_VALIDATION
    assert "bracket relation" in err


def test_cohomology_representatives(capsys):
    code, out, _ = run(
        capsys,
        ["cohomology", "sl2_so2_pair", "--relative", "--representatives", "--json"],
    )
    report = files.parse_report(out)
    assert report.get("representative[2][0]") == "1*H*^E* + 1*H*^F*"


def test_reports_are_deterministic(capsys):
    _, out1, _ = run(capsys, ["cohomology", "heis3", "--coeffs", "coadjoint", "--json"])
    _, out2, _ = run(capsys, ["cohomology", "heis3", "--coeffs", "coadjoint", "--json"])
    assert out1 == out2


def test_machine_report_round_trips(capsys):
    _, out, _ = run(capsys, ["check", "so3", "--json"])
    report = files.parse_report(out)
    assert report.machine_text() == out


# -- volume -----------------------------------------------------------


def test_volume_seifert(capsys):
    code, out, _ = run(capsys, ["volume", "seifert", "--chi", "-5/2", "--e", "3/2"])
    assert code == EXIT_OK
    assert "50/3 · π²" in out


def test_volume_sl2tilde(capsys):
    code, out, _ = run(capsys, ["volume", "sl2tilde", "--n", "1", "--e", "3/2", "--json"])
    assert code == EXIT_OK
    assert files.parse_report(out).get("volume_pi2_coefficient") == "6"


def test_volume_zero_chi(capsys):
    code, out, _ = run(capsys, ["volume", "seifert", "--chi", "0", "--e", "1", "--json"])
    assert code == EXIT_OK
    assert files.parse_report(out).get("volume_pi2_coefficient") == "0"


def test_volume_zero_euler_rejected(capsys):
    code, _, err = run(capsys, ["volume", "seifert", "--chi", "1", "--e", "0"])
    assert code == EXIT_VALIDATION
    assert "Euler" in err


@pytest.mark.parametrize("argv, fragment", [
    (["volume", "seifert", "--chi", "1"], "volume seifert needs --chi and --e"),
    (["volume", "sl2tilde", "--e", "1"], "volume sl2tilde needs --n and --e"),
    (["volume", "seifert", "--chi", "1", "--e", "1", "--n", "3"], "takes no --n"),
    (["volume", "sl2tilde", "--n", "1", "--e", "1", "--chi", "1"], "takes no --chi"),
], ids=["seifert-without-e", "sl2tilde-without-n", "seifert-with-n", "sl2tilde-with-chi"])
def test_volume_usage_errors_exit_2_with_one_line(capsys, argv, fragment):
    code, out, err = run(capsys, argv)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1 and fragment in err


# -- integers over Python's digit limit ------------------------------


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_needs_int_limit = pytest.mark.skipif(
    not _INT_LIMIT, reason="no limit on int string conversion in this Python"
)


@_needs_int_limit
@pytest.mark.parametrize("where", ["bracket-coefficient", "module-entry", "chi", "e", "bracket-key"])
def test_integers_over_the_digit_limit_are_parse_errors(capsys, tmp_path, where):
    big = "1" * (_INT_LIMIT + 1)
    if where == "bracket-coefficient":
        data = json.loads(json.dumps(SL2_JSON))
        data["brackets"]["[0,1]"] = {"1": big}
        argv = ["check", write_json(tmp_path, data)]
    elif where == "module-entry":
        module = {"format": 1, "vdim": 1, "actions": [[[big]], [["0"]]]}
        argv = ["cohomology", "abelian:2", "--coeffs", write_json(tmp_path, module, "mod.json")]
    elif where == "chi":
        argv = ["volume", "seifert", "--chi", big, "--e", "1"]
    elif where == "e":
        argv = ["volume", "seifert", "--chi", "1", "--e", big]
    else:
        data = json.loads(json.dumps(SL2_JSON))
        data["brackets"][f"[{big},1]"] = {"0": "1"}
        argv = ["check", write_json(tmp_path, data)]
    code, _, err = run(capsys, argv)
    assert code == EXIT_PARSE
    assert "too many digits" in err and "Traceback" not in err


@_needs_int_limit
def test_results_over_the_digit_limit_are_validation_errors(capsys, tmp_path):
    # valid inputs whose result or Jacobi residual cannot be printed in full
    half = "1" * (_INT_LIMIT // 2 + 10)
    code, _, err = run(capsys, ["volume", "seifert", "--chi", half, "--e", "1"])
    assert code == EXIT_VALIDATION
    assert "too many digits" in err
    # [E, F] = cH and [H, F] = -cF leave the residual c^2 H on (H, E, F)
    data = json.loads(json.dumps(SL2_JSON))
    data["brackets"] = {"[0,2]": {"2": "-" + half}, "[1,2]": {"0": half}}
    code, _, err = run(capsys, ["check", write_json(tmp_path, data)])
    assert code == EXIT_VALIDATION
    assert "Jacobi identity fails on basis triple (0,1,2)" in err


# -- verify-paper -----------------------------------------------------


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--json"])
    assert code == EXIT_OK
    assert _sha256(out) == "7311007bd3d232e0441e38b8bb1a9fbf3f9239100d62bc3be1c52bf4719ba18f"
    report = files.parse_report(out)
    assert report.get("all_passed") == "yes"
    assert report.get("row[betti-absolute]") == "pass"
    assert report.get("row[extension-vanishing-5dim]") == "pass"
    assert report.get("row[mutation-sensitivity]") == "pass"
    assert report.get("detail[operator-identities]") == (
        "557 identity checks, 200 randomized samples"
    )


def _failed_rows(report):
    return {key for key, value in report.items if key.startswith("row[") and value == "FAIL"}


def test_verify_paper_flipped_sign_fails(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--json", "--mutate", "flip-coadjoint-sign"])
    assert code == EXIT_VERIFY_FAILED
    assert _sha256(out) == "f2e82e18049734315bd1da6271cfaff531a4fc1b5e2c0fe5488d6d1d66a4eb47"
    report = files.parse_report(out)
    assert report.get("row[operator-identities]") == "FAIL"
    assert _failed_rows(report) == {"row[operator-identities]"}
    assert report.get("detail[operator-identities]") == (
        "failed: sl2:coadjoint:k=0:square-zero; sl2:coadjoint:k=1:square-zero; "
        "sl2:k=1:j-differential; sl2:k=1:j-lie-derivative; sl2:k=2:j-differential; "
        "sl2:k=2:j-lie-derivative; sl2:k=3:j-lie-derivative; so3:coadjoint:k=0:square-zero"
    )


def test_verify_paper_omit_diagonal_fails(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--json", "--mutate", "omit-diagonal"])
    assert code == EXIT_VERIFY_FAILED
    assert _sha256(out) == "2d8990c35d9c7776e15b7f26ac6242bbe1b551cf856eaca617b18802ddb6f0a5"
    report = files.parse_report(out)
    assert report.get("row[extension-vanishing-3dim]") == "FAIL"
    assert _failed_rows(report) == {
        "row[extension-vanishing-3dim]",
        "row[extension-vanishing-5dim]",
    }


def _self_check_detail(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--json"])
    report = files.parse_report(out)
    assert code == EXIT_VERIFY_FAILED
    assert _failed_rows(report) == {"row[mutation-sensitivity]"}
    return report.get("detail[mutation-sensitivity]")


def test_self_check_fails_when_the_sign_flip_is_harmless(capsys, monkeypatch):
    monkeypatch.setattr(suite, "flipped_coadjoint_module", gmod.coadjoint_module)
    assert _self_check_detail(capsys) == (
        "flip-coadjoint-sign breaks operator identities: NO; "
        "omit-diagonal breaks vanishing: yes"
    )


def test_self_check_sees_a_sign_flip_in_the_last_builtin_only(capsys, monkeypatch):
    # the self-check stops at its first failure; it must not stop before one
    last = builtin(suite.IDENTITY_SUITE_BUILTINS[-1]).algebra
    flip = suite.flipped_coadjoint_module
    monkeypatch.setattr(
        suite,
        "flipped_coadjoint_module",
        lambda g: flip(g) if g == last else gmod.coadjoint_module(g),
    )
    code, out, _ = run(capsys, ["verify-paper", "--json"])
    report = files.parse_report(out)
    assert code == EXIT_OK
    assert report.get("detail[mutation-sensitivity]") == (
        "flip-coadjoint-sign breaks operator identities: yes; "
        "omit-diagonal breaks vanishing: yes"
    )


def test_self_check_fails_when_omitting_the_diagonal_is_harmless(capsys, monkeypatch):
    monkeypatch.setattr(suite, "_without_diagonal", lambda pair: pair)
    assert _self_check_detail(capsys) == (
        "flip-coadjoint-sign breaks operator identities: yes; "
        "omit-diagonal breaks vanishing: NO"
    )


# -- fuzzing ----------------------------------------------------------

# arguments that int() or Fraction() take, but a count (ASCII digits) or a
# rational of the algebra file format (integer or p/q) does not
_MALFORMED_NAMES = [
    "abelian:1_0", "abelian:+2", "abelian:\u0663", "abelian:" + "1" * 5000,
    "fivedim_ext:0.5", "fivedim_ext:1e1", "fivedim_ext:1_0", "fivedim_ext:" + "1" * 5000,
    "fivedim_ext:\u0663", "fivedim_ext:\u0663/\u0664",
]
_MALFORMED_SPECS = ["trivial:1_0", "trivial:+2", "trivial:\u0663", "trivial:" + "1" * 5000]


@pytest.mark.parametrize(
    "argv",
    [["check", name] for name in _MALFORMED_NAMES]
    + [["cohomology", "sl2", "--coeffs", spec] for spec in _MALFORMED_SPECS],
)
def test_malformed_family_and_spec_arguments_exit_1(argv):
    code, out, err = _run_uncaptured(argv)
    assert code == EXIT_VALIDATION
    assert out == "" and err.startswith("validation error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["cohomology", "sl2", "--degree", "\u0662"], EXIT_VALIDATION),
    (["cohomology", "sl2", "--degree", "0_1"], EXIT_VALIDATION),
    (["volume", "sl2tilde", "--n", "\u0663", "--e", "1"], EXIT_PARSE),
    (["volume", "sl2tilde", "--n", "1_0", "--e", "1"], EXIT_PARSE),
    (["volume", "seifert", "--chi", "\u0663/\u0664", "--e", "1"], EXIT_PARSE),
    (["volume", "seifert", "--chi", "1", "--e", "\u0662"], EXIT_PARSE),
])
def test_numbers_in_arguments_are_ascii(argv, code):
    assert _run_uncaptured(argv)[0] == code


def test_signed_fiber_degree_and_degree_still_parse(capsys):
    for n in ("-2", "+2", "2"):
        code, out, _ = run(capsys, ["volume", "sl2tilde", "--n", n, "--e", "3/2", "--json"])
        assert code == EXIT_OK
        assert files.parse_report(out).get("volume_pi2_coefficient") == "24"
    code, _, err = run(capsys, ["cohomology", "sl2", "--degree", "-1"])
    assert code == EXIT_VALIDATION and "degree -1 out of range 0..3" in err


def test_parse_rational_takes_ascii_digits_only():
    assert files.parse_rational("-3/4") == Q(-3, 4)
    for text in ("\u0663/\u0664", "\u0663", "3/\u0664", "\uff13"):
        with pytest.raises(files.ParseError):
            files.parse_rational(text)


_LONG = "x" * 5000


@pytest.mark.parametrize("argv, code", [
    (["check", "sl2:" + _LONG], EXIT_VALIDATION),
    (["check", "abelian:" + _LONG], EXIT_VALIDATION),
    (["check", "fivedim_ext:" + _LONG], EXIT_VALIDATION),
    (["cohomology", "sl2", "--coeffs", "spinor" + _LONG], EXIT_VALIDATION),
    (["cohomology", "sl2", "--coeffs", "trivial:" + _LONG], EXIT_VALIDATION),
    (["cohomology", "sl2", "--coeffs", "sum:" + _LONG], EXIT_VALIDATION),
    (["cohomology", "abelian:16", "--coeffs", "sum:" + "+".join(["trivial"] * 625)],
     EXIT_VALIDATION),
    (["cohomology", "sl2", "--degree", _LONG], EXIT_VALIDATION),
    (["volume", "seifert", "--chi", _LONG, "--e", "1"], EXIT_PARSE),
    (["volume", "sl2tilde", "--n", _LONG, "--e", "1"], EXIT_PARSE),
    (["check", _LONG + ".json"], EXIT_PARSE),
    (["cohomology", "sl2", "--coeffs", "./" + _LONG], EXIT_PARSE),
    (["check", "abelian:" + "1" * 4000], EXIT_VALIDATION),
    (["check", {**SL2_JSON, "brackets": {_LONG: {"1": "2"}}}], EXIT_PARSE),
    (["check", {**SL2_JSON, "brackets": {"[0,1]": {_LONG: "2"}}}], EXIT_PARSE),
], ids=["catalog-name", "abelian", "fivedim_ext", "module-spec", "trivial-rank", "sum-spec",
        "module-too-large", "degree", "rational", "fiber-degree", "algebra-path", "module-path",
        "abelian-dimension", "bracket-key", "coefficient-index"])
def test_long_arguments_give_short_error_lines(argv, code, tmp_path):
    # an algebra given as a dict is written to a file and passed by its path
    argv = [write_json(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    got, out, err = _run_uncaptured(argv)
    assert got == code and out == ""
    assert "… (" in err and "characters)" in err
    assert max(map(len, err.splitlines())) <= 200


def test_brief_keeps_short_text_and_elides_long_text():
    assert files._brief("so17") == "'so17'"
    assert files._brief("a/b.json", str) == "a/b.json"
    assert files._brief(_LONG) == "'" + "x" * 20 + "… (5000 characters)"
    assert files._brief("y" * 40, str) == "y" * 40
    for parse in (files.parse_count, files.parse_rational):
        with pytest.raises(files.ParseError) as exc:
            parse(_LONG)
        assert len(str(exc.value)) <= 200 and "(5000 characters)" in str(exc.value)


_FUZZ_NAMES = [n for n in BUILTIN_NAMES if ":" not in n] + [
    "abelian:0", "abelian:3", "abelian:x", "abelian:-1", "fivedim_ext:2",
    "fivedim_ext:-3/4", "fivedim_ext:0", "fivedim_ext:1/0", "nosuch", "missing.json",
    *_MALFORMED_NAMES,
]
_FUZZ_POSITIONAL = {
    "check": _FUZZ_NAMES,
    "cohomology": _FUZZ_NAMES,
    "volume": ["seifert", "sl2tilde"],
    "verify-paper": [],
}
_FUZZ_FLAGS = {
    "check": ["--json"],
    "cohomology": ["--coeffs", "--relative", "--degree", "--representatives", "--json"],
    "volume": ["--chi", "--e", "--n", "--json"],
    "verify-paper": ["--json", "--mutate"],
}
# every module and algebra here has cochain levels of at most a few hundred
_FUZZ_VALUES = {
    "--coeffs": ["trivial", "trivial:2", "trivial:-1", "adjoint", "coadjoint", "dual:adjoint",
                 "sum:trivial+adjoint", "sum:trivial", "spinor", "x/y.json", *_MALFORMED_SPECS],
    "--degree": ["all", "0", "1", "2", "7", "-1", "x", "\u0662", "0_1", "+1", " 1"],
    "--chi": ["-5/2", "3/2", "0", "1", "1/0", "x", "\u0663/\u0664", "-\u0663"],
    "--e": ["-5/2", "3/2", "0", "1/0", "x", "\u0663/\u0664", "-\u0663"],
    "--n": ["1", "0", "-2", "x", "\u0663", "1_0", "+2", "-\u0663"],
    "--mutate": [*suite.MUTATIONS, "x"],
}

# tokens no real shell passes but main(argv) accepts, and path edge cases
_FUZZ_ODD = ["", "-", "--", ".", "/", "\x00", "a\x00b", "\ud800", " sl2", "sl2 "]


@st.composite
def _cli_argv(draw):
    def pick(choices):
        # now and then a random token in place of a real one
        if not choices or draw(st.integers(0, 3)) == 0:
            return draw(st.text(st.characters(blacklist_categories=()), max_size=6)
                        | st.sampled_from(_FUZZ_ODD))
        return draw(st.sampled_from(choices))

    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [pick([command])]
    if _FUZZ_POSITIONAL[command] or draw(st.integers(0, 9)) == 0:
        argv.append(pick(_FUZZ_POSITIONAL[command]))
    for flag in draw(st.lists(st.sampled_from(_FUZZ_FLAGS[command]), max_size=4, unique=True)):
        argv.append(pick([flag]))
        if flag in _FUZZ_VALUES:
            argv.append(pick(_FUZZ_VALUES[flag]))
    return argv


def _stub_suite(mutation=None):
    # the real table takes seconds; the rows' own tests run it
    passed = mutation is None
    return suite.SuiteReport((suite.SuiteRow("stub", passed, "stub"),), passed)


@settings(max_examples=400, deadline=None)
@given(_cli_argv())
def test_cli_fuzz_exits_with_a_known_code_and_no_traceback(argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suite, "run_suite", _stub_suite)
        code, _, err = _run_uncaptured(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PARSE, EXIT_VERIFY_FAILED)
    assert "Traceback" not in err
