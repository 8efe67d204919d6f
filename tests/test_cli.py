"""Command-line surface: file format, reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction as Q

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
    assert betti_sequence(g, adjoint_module(g), h, top=1) == (1, 0)


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
    for name in BUILTIN_NAMES:
        assert _looks_like_catalog_name(name), name
        assert _looks_like_catalog_name(name.replace(":n", ":3").replace(":alpha", ":-3/4"))
    assert not _looks_like_catalog_name("sl2.json")


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
    def must_not_validate(*args, **kwargs):
        raise AssertionError("an oversized algebra reached validate")

    for module in (liealg, extensions, files):
        monkeypatch.setattr(module, "validate", must_not_validate)
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
    intact_pairs = suite._extension_pairs
    monkeypatch.setattr(suite, "_extension_pairs", lambda omit_diagonal: intact_pairs(False))
    assert _self_check_detail(capsys) == (
        "flip-coadjoint-sign breaks operator identities: yes; "
        "omit-diagonal breaks vanishing: NO"
    )


# -- fuzzing ----------------------------------------------------------

_FUZZ_NAMES = [n for n in BUILTIN_NAMES if ":" not in n] + [
    "abelian:0", "abelian:3", "abelian:x", "abelian:-1", "fivedim_ext:2",
    "fivedim_ext:-3/4", "fivedim_ext:0", "fivedim_ext:1/0", "nosuch", "missing.json",
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
                 "sum:trivial+adjoint", "sum:trivial", "spinor", "x/y.json"],
    "--degree": ["all", "0", "1", "2", "7", "-1", "x"],
    "--chi": ["-5/2", "3/2", "0", "1", "1/0", "x"],
    "--e": ["-5/2", "3/2", "0", "1/0", "x"],
    "--n": ["1", "0", "-2", "x"],
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
