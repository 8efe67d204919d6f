"""Refusals of the algebra file, module file and report formats.

Every malformed input the CLI can reach exits 2 with one line on stderr and
no traceback; the parts of the report format the CLI never reaches are
checked on the objects themselves.
"""

import json
import tracemalloc

import pytest

from liecoh import files, liealg
from liecoh.cli import EXIT_PARSE, main


def _algebra(**fields):
    return {"format": 1, "name": "x", "dim": 2, "basis": ["a", "b"], "brackets": {}, **fields}


# (case, algebra file data, a fragment of the message)
ALGEBRA_FILE_REFUSALS = [
    ("top-level-not-object", [], "top level must be an object"),
    ("missing-dim", {"format": 1, "basis": []}, "missing field 'dim'"),
    ("brackets-not-object", _algebra(brackets=[]), "brackets must be an object"),
    ("bracket-not-object", _algebra(brackets={"[0,1]": ["1"]}), "must map indices to rationals"),
    ("index-out-of-range", _algebra(brackets={"[0,1]": {"2": "1"}}), "index 2 out of range"),
    ("h-not-list", _algebra(h_subalgebra={}), "h_subalgebra must be a list"),
    ("h-row-length", _algebra(h_subalgebra=[["1"]]), "h_subalgebra[0] must list dim coordinates"),
    ("h-row-entry", _algebra(h_subalgebra=[["1", "x"]]), "h_subalgebra[0]: not an exact rational"),
    ("name-line-break", _algebra(name="a\nb"), "report value of input must be single-line"),
]

# (case, module file data for the 3-dimensional heis3, a fragment of the message)
MODULE_FILE_REFUSALS = [
    ("format", {"format": 2, "vdim": 1, "actions": []}, "missing or unsupported format version"),
    ("vdim", {"format": 1, "vdim": "1", "actions": []}, "vdim must be a nonnegative integer"),
    ("actions-not-list", {"format": 1, "vdim": 1, "actions": {}},
     "actions must list one matrix per algebra basis vector"),
    ("action-shape", {"format": 1, "vdim": 1, "actions": [[["0"]], [["0", "0"]], [["0"]]]},
     "actions[1] must be a 1x1 matrix"),
]

# (case, argv, a fragment of the message): line breaks in arguments the report repeats
ARGUMENT_REFUSALS = [
    ("coeffs-line-break", ["cohomology", "sl2", "--coeffs", "trivial\n"],
     "report value of coeffs must be single-line"),
    ("chi-line-break", ["volume", "seifert", "--chi", "-2\n", "--e", "1"],
     "report value of chi must be single-line"),
]


def _refused(capsys, argv, fragment):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_PARSE
    assert out == "" and "Traceback" not in err
    assert err.startswith("parse error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert fragment in err


@pytest.mark.parametrize("case, data, fragment", ALGEBRA_FILE_REFUSALS,
                         ids=[c[0] for c in ALGEBRA_FILE_REFUSALS])
def test_algebra_file_refusals_exit_2_with_one_line(capsys, tmp_path, case, data, fragment):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    _refused(capsys, ["check", str(path)], fragment)


@pytest.mark.parametrize("case, data, fragment", MODULE_FILE_REFUSALS,
                         ids=[c[0] for c in MODULE_FILE_REFUSALS])
def test_module_file_refusals_exit_2_with_one_line(capsys, tmp_path, case, data, fragment):
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    _refused(capsys, ["cohomology", "heis3", "--coeffs", str(path)], fragment)


@pytest.mark.parametrize("case, argv, fragment", ARGUMENT_REFUSALS,
                         ids=[c[0] for c in ARGUMENT_REFUSALS])
def test_arguments_with_line_breaks_exit_2_with_one_line(capsys, case, argv, fragment):
    _refused(capsys, argv, fragment)


def test_report_refusals():
    report = files.Report()
    with pytest.raises(files.ParseError, match="single-line"):
        report.add("key", "two\nlines")
    with pytest.raises(KeyError):
        report.get("missing")
    assert report != report.items and report == files.Report()
    with pytest.raises(files.ParseError, match="does not start with"):
        files.parse_report("key = value\n")
    with pytest.raises(files.ParseError, match="report line 2 is not 'key = value'"):
        files.parse_report(f"{files.REPORT_HEADER}\nkey=value\n")


def test_an_algebra_file_is_parsed_into_sparse_rows_once(tmp_path):
    # one nonzero coefficient per bracket, [e_i, e_j] = e_{i+j mod dim}, for
    # every pair: Jacobi fails on the first triple.  Dense rows of dim
    # Fractions per bracket peaked at about 53 MiB here; sparse rows at about 9.
    dim = 128
    brackets = {f"[{i},{j}]": {str((i + j) % dim): "1"}
                for i in range(dim) for j in range(i + 1, dim)}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_algebra(dim=dim, basis=[f"e{i}" for i in range(dim)],
                                        brackets=brackets)))
    del brackets
    tracemalloc.start()
    try:
        with pytest.raises(liealg.JacobiViolation) as raised:
            files.load_algebra(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raised.value.triple == (0, 1, 2)
    assert peak < 20 * 2**20
