"""Command-line surface: file format, reports, exit codes, determinism."""

import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecoh import files
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


# -- file format ------------------------------------------------------


def test_load_algebra_from_file(tmp_path):
    g, h, name = files.load_algebra(write_json(tmp_path, SL2_JSON))
    assert name == "sl2-from-file"
    assert g.dim == 3 and h is None
    assert g.bracket_basis(1, 2) == (Q(1), Q(0), Q(0))


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


# -- verify-paper -----------------------------------------------------


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--json"])
    assert code == EXIT_OK
    report = files.parse_report(out)
    assert report.get("all_passed") == "yes"
    assert report.get("row[betti-absolute]") == "pass"
    assert report.get("row[extension-vanishing-5dim]") == "pass"
    assert report.get("row[mutation-sensitivity]") == "pass"


def test_verify_paper_flipped_sign_fails(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--json", "--mutate", "flip-coadjoint-sign"])
    assert code == EXIT_VERIFY_FAILED
    report = files.parse_report(out)
    assert report.get("row[operator-identities]") == "FAIL"


def test_verify_paper_omit_diagonal_fails(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--json", "--mutate", "omit-diagonal"])
    assert code == EXIT_VERIFY_FAILED
    report = files.parse_report(out)
    assert report.get("row[extension-vanishing-3dim]") == "FAIL"
