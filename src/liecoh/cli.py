"""Command-line front end.

Subcommands::

    liecoh check INPUT                      structural report of an algebra
    liecoh cohomology INPUT [options]       betti numbers, representatives
    liecoh volume {seifert,sl2tilde} ...    closed-form volume constants
    liecoh verify-paper [--json]            run the built-in verification suite

INPUT is either a catalog name (``sl2``, ``heis3``, ``abelian:4``,
``sl2_so2_pair``, ``sl2R_ext``, ``fivedim_ext:2``, ...) or the path of an
algebra JSON file; see :mod:`liecoh.files` for the format.

Exit codes: 0 success, 1 validation error, 2 parse/usage error,
3 verification-suite failure.  Every refusal of the library derives from
:class:`~liecoh.liealg.LieAlgebraError` and exits 1; a
:class:`~liecoh.files.ParseError` exits 2, and so does a report value with a
line break in it (an algebra name or an argument), which the report format
cannot hold.  Each prints one line on stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from . import extensions, files, gmod, suite, volumes
from .cecomplex import Cochain
from .cohomology import DegreeOutOfRange, cohomology, relative_complex
from .liealg import (
    DimensionMismatch,
    LieAlgebraError,
    _brief,
    killing_determinant,
    killing_form,
    structure_report,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_VERIFY_FAILED = 3


_CATALOG_HEADS = frozenset(name.split(":", 1)[0] for name in extensions.BUILTIN_NAMES)


def _looks_like_catalog_name(text: str) -> bool:
    # catalog names win over paths; use ./name to force a file of the same name
    return text.split(":", 1)[0] in _CATALOG_HEADS


def _load_input(text: str):
    """Resolve INPUT to (algebra, optional subalgebra, display name, digest)."""
    if _looks_like_catalog_name(text):
        entry = extensions.builtin(text)
        return entry.algebra, entry.h, entry.name, files.algebra_digest(entry.algebra, entry.h)
    g, h, name = files.load_algebra(text)
    return g, h, name, files.algebra_digest(g, h)


def _emit(report: files.Report, machine: bool) -> None:
    sys.stdout.write(report.machine_text() if machine else report.human_text())


def _format_cochain(c: Cochain) -> str:
    """The nonzero terms of c in flat order, each with the cell the level puts at its index."""
    level, names = c.level, c.level.algebra.basis_names
    terms = []
    for j, coeff in sorted(c.row.sparse_rows[0].items()):
        t, m = level.cell(j)
        factors = ["^".join(f"{names[i]}*" for i in t)] if t else []
        if level.vdim > 1:
            factors.append(f"v{m}")
        terms.append("*".join([files.format_rational(coeff)] + factors))
    return " + ".join(terms) if terms else "0"


def cmd_check(args) -> int:
    g, h, name, digest = _load_input(args.input)
    report = files.Report()
    report.add("command", "check")
    report.add("input", name)
    report.add("input_digest", digest)
    report.add("dim", g.dim)
    report.add("basis", ",".join(g.basis_names))
    report.add("jacobi", "ok")
    b = killing_form(g)
    report.add("killing_rank", b.rank())
    report.add("killing_det", killing_determinant(g))
    rep = structure_report(g)
    report.add("semisimple", rep.is_semisimple)
    report.add("reductive", rep.is_reductive)
    report.add("center_dim", rep.center.dim)
    report.add("derived_dim", rep.derived.dim)
    if h is not None:
        report.add("h_subalgebra_dim", h.dim)
    _emit(report, args.json)
    return EXIT_OK


def cmd_cohomology(args) -> int:
    g, h, name, digest = _load_input(args.input)
    if args.relative and (h is None or h.dim == 0):
        raise DimensionMismatch(
            "--relative requires the input to carry an h_subalgebra section"
        )
    if "/" in args.coeffs or "\\" in args.coeffs or args.coeffs.endswith(".json"):
        module = gmod.load_module(args.coeffs, g)
    else:
        module = gmod.module_from_spec(g, args.coeffs)
    h_used, top = relative_complex(g, module, h if args.relative else None)
    if args.degree == "all":
        degrees = list(range(top + 1))
    else:
        try:
            k = _integer(args.degree)
        except argparse.ArgumentTypeError:
            shown = _brief(args.degree)
            raise DegreeOutOfRange(f"degree must be an integer or 'all', got {shown}")
        # cohomology refuses a degree outside 0..top
        degrees = [k]

    report = files.Report()
    report.add("command", "cohomology")
    report.add("input", name)
    report.add("input_digest", digest)
    report.add("coeffs", args.coeffs)
    report.add("relative", bool(args.relative))
    if args.relative:
        # algebra-level model: matches invariant forms for connected isotropy
        report.add("note", "relative cohomology assumes a connected isotropy subgroup")
    results = [cohomology(g, module, k, h_used) for k in degrees]
    for res in results:
        report.add(f"betti[{res.degree}]", res.betti)
    if args.representatives:
        for res in results:
            for i, rep_cochain in enumerate(res.cocycle_representatives):
                report.add(f"representative[{res.degree}][{i}]", _format_cochain(rep_cochain))
    _emit(report, args.json)
    return EXIT_OK


def cmd_volume(args) -> int:
    report = files.Report()
    report.add("command", f"volume {args.kind}")
    if args.kind == "seifert":
        if args.chi is None or args.e is None or args.n is not None:
            raise files.ParseError("volume seifert needs --chi and --e, and takes no --n")
        coeff = volumes.seifert_volume_coefficient(
            files.parse_rational(args.chi), files.parse_rational(args.e)
        )
        report.add("chi", args.chi)
        report.add("e", args.e)
    else:
        if args.n is None or args.e is None or args.chi is not None:
            raise files.ParseError("volume sl2tilde needs --n and --e, and takes no --chi")
        coeff = volumes.sl2tilde_volume_coefficient(args.n, files.parse_rational(args.e))
        report.add("n", args.n)
        report.add("e", args.e)
    report.add("volume_pi2_coefficient", coeff)
    report.add("volume", f"{files.format_rational(coeff)} · π²")
    _emit(report, args.json)
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    result = suite.run_suite(mutation=args.mutate)
    report = files.Report()
    report.add("command", "verify-paper")
    if args.mutate:
        report.add("mutation", args.mutate)
    for row in result.rows:
        report.add(f"row[{row.name}]", "pass" if row.passed else "FAIL")
        report.add(f"detail[{row.name}]", row.detail)
    report.add("all_passed", result.passed)
    _emit(report, args.json)
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


def _integer(text: str) -> int:
    """An integer in ASCII digits with an optional sign: the argparse type of --n."""
    sign = text[:1]
    try:
        count = files.parse_count(text[1:] if sign in ("+", "-") else text)
    except files.ParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_brief(text)}")
    return -count if sign == "-" else count


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="liecoh",
        description="Exact Lie-algebra cohomology engine: structural checks, "
        "betti numbers, extension vanishing, volume constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate an algebra and report its structure")
    p_check.add_argument("input", help="catalog name or algebra JSON path")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.set_defaults(func=cmd_check)

    p_coh = sub.add_parser("cohomology", help="betti numbers of the cochain complex")
    p_coh.add_argument("input", help="catalog name or algebra JSON path")
    p_coh.add_argument("--coeffs", default="trivial",
                       help="coefficient module spec (trivial, trivial:n, adjoint, "
                            "coadjoint, dual:<spec>, sum:<spec>+<spec>)")
    p_coh.add_argument("--relative", action="store_true",
                       help="use the subalgebra-relative complex")
    p_coh.add_argument("--degree", default="all", help="a degree or 'all'")
    p_coh.add_argument("--representatives", action="store_true",
                       help="also print canonical cocycle representatives")
    p_coh.add_argument("--json", action="store_true", help="machine-readable output")
    p_coh.set_defaults(func=cmd_cohomology)

    p_vol = sub.add_parser("volume", help="closed-form volume constants (exact, times pi^2)")
    p_vol.add_argument("kind", choices=("seifert", "sl2tilde"))
    p_vol.add_argument("--chi", help="base orbifold Euler characteristic (rational)")
    p_vol.add_argument("--e", help="fibration Euler number (rational)")
    p_vol.add_argument("--n", type=_integer, help="fiber degree (integer)")
    p_vol.add_argument("--json", action="store_true", help="machine-readable output")
    p_vol.set_defaults(func=cmd_volume)

    p_verify = sub.add_parser("verify-paper",
                              help="run the built-in verification suite of classical facts")
    p_verify.add_argument("--json", action="store_true", help="machine-readable output")
    p_verify.add_argument("--mutate", choices=suite.MUTATIONS, default=None,
                          help="sabotage a convention to prove the suite is not vacuous")
    p_verify.set_defaults(func=cmd_verify_paper)
    return parser


_VALUE_FLAGS = ("--chi", "--e", "--n")
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$", re.ASCII)


def _normalize_argv(argv) -> list:
    """Glue negative rational values onto their flags so argparse accepts them."""
    out = list(argv)
    # from the end, so a merge leaves the indices still to visit unchanged
    for i in range(len(out) - 1, 0, -1):
        if out[i - 1] in _VALUE_FLAGS and _NEGATIVE_RATIONAL.match(out[i]):
            out[i - 1 : i + 1] = [f"{out[i - 1]}={out[i]}"]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except files.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LieAlgebraError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("validation error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
