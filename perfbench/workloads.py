"""The benchmark's workloads: their queries and the closed-form oracles.

Queries reach the program only through ``liecoh.cli.main(argv)`` with
stdout captured, and through the public functions ``liecoh.builtin``,
``liecoh.verify_vanishing`` and ``liecoh.files.load_algebra``.  Every
lookup goes through the module attribute at call time, so the tracer's
wrappers see every call.

A query fails when it raises, exits non-zero, or gives an answer that
disagrees with its oracle:

* ``verify-paper``: exit 0 and every ``row[...]`` reads ``pass``;
* sl_n with trivial coefficients: the Poincare polynomial
  prod over m = 1..n-1 of (1 + t^(2m+1)) (Chevalley-Eilenberg);
* sl_n with adjoint coefficients: zero in every degree (Whitehead);
* each ``fivedim_ext`` slope: b_k(adjoint) = b_(5-k)(coadjoint);
* every ``verify_vanishing`` report passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from typing import Callable

NAMES = ("paper-suite", "absolute-large", "relative-ext")
SL3_DEGREES = range(9)  # every degree of the 8-dimensional sl3
SL4_DEGREES = range(5)  # d_5 on sl4 would be a 5005 x 3003 dense Fraction matrix
FIVEDIM_TOP = 5  # fivedim_ext: 7-dimensional algebra over a 2-dimensional isotropy


@dataclass(frozen=True)
class Query:
    label: str
    run: Callable[[], object]


@dataclass
class Outcome:
    """What one pass produced: why each failed query failed, and the digest lines."""

    attempted: int
    failures: dict[str, str] = field(default_factory=dict)
    digest_lines: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = "\n".join(self.digest_lines).encode()
        return hashlib.sha256(text).hexdigest()[:16]


def poincare_sl(n: int) -> list[int]:
    """Betti numbers of sl_n with trivial coefficients, degrees 0..n^2-1."""
    coeffs = [1]
    for m in range(1, n):
        shift = 2 * m + 1
        out = coeffs + [0] * shift
        for i, c in enumerate(coeffs):
            out[i + shift] += c
        coeffs = out
    return coeffs


def cli_query(label: str, argv: list[str]) -> Query:
    def run():
        import liecoh.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = liecoh.cli.main(argv)
        return code, buf.getvalue()

    return Query(label, run)


def vanishing_query(label: str, load_pair: Callable) -> Query:
    def run():
        import liecoh

        return liecoh.verify_vanishing(load_pair())

    return Query(label, run)


def _builtin_pair(name: str) -> Callable:
    def load():
        import liecoh

        return liecoh.builtin(name).pair

    return load


def _file_pair(path: str) -> Callable:
    def load():
        import liecoh
        import liecoh.files

        g, h, _ = liecoh.files.load_algebra(path)
        # verify_vanishing reads only the algebra, the isotropy and their codimension
        return liecoh.ExtensionPair(g, h, (), 2, g.dim - h.dim)

    return load


def queries(spec: dict) -> list[Query]:
    workload = spec["workload"]
    if workload == "paper-suite":
        return [cli_query("verify-paper", ["verify-paper", "--json"])]
    if workload == "absolute-large":
        common = ["--representatives", "--json"]
        out = [cli_query("sl3:adjoint", ["cohomology", spec["sl3"], "--coeffs", "adjoint",
                                         "--degree", "all"] + common)]
        for k in SL4_DEGREES:
            out.append(cli_query(f"sl4:trivial:{k}", ["cohomology", spec["sl4"], "--coeffs",
                                                      "trivial", "--degree", str(k)] + common))
        return out
    if workload == "relative-ext":
        out = []
        for slope in spec["slopes"]:
            name = f"fivedim_ext:{slope}"
            for coeffs in ("adjoint", "coadjoint"):
                out.append(cli_query(f"{name}:{coeffs}", [
                    "cohomology", name, "--coeffs", coeffs, "--relative", "--degree", "all",
                    "--representatives", "--json"]))
            out.append(vanishing_query(f"{name}:vanishing", _builtin_pair(name)))
        out.append(vanishing_query("rank2:vanishing", _file_pair(spec["rank2"])))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def execute(qs: list[Query]) -> dict:
    """Run each query; an exception is the query's answer, not the pass's end."""
    results = {}
    for q in qs:
        try:
            results[q.label] = q.run()
        except (Exception, SystemExit) as exc:
            results[q.label] = exc
    return results


def parse_machine(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != "liecoh-report 1":
        raise ValueError("output is not a liecoh-report 1 document")
    return dict(line.split(" = ", 1) for line in lines[1:] if " = " in line)


def _keyed_lines(label: str, report: dict, prefixes: tuple[str, ...]) -> list[str]:
    return [f"{label}: {k} = {v}" for k, v in report.items() if k.startswith(prefixes)]


def _betti(report: dict) -> dict[int, int]:
    return {int(k[6:-1]): int(v) for k, v in report.items() if k.startswith("betti[")}


def _representatives_match(report: dict) -> bool:
    reps: dict[int, int] = {}
    for k in report:
        if k.startswith("representative["):
            degree = int(k[len("representative["):].split("]", 1)[0])
            reps[degree] = reps.get(degree, 0) + 1
    return all(reps.get(k, 0) == b for k, b in _betti(report).items())


def check(spec: dict, expected: dict, results: dict) -> Outcome:
    """Compare every result with its oracle; `expected` overrides oracle values."""
    outcome = Outcome(attempted=len(results))
    reports = {}
    for label, result in results.items():
        if isinstance(result, BaseException):
            outcome.failures[label] = f"raised {type(result).__name__}: {result}"
        elif isinstance(result, tuple):
            code, text = result
            try:
                report = parse_machine(text)
            except ValueError as exc:
                outcome.failures[label] = str(exc)
                continue
            if code != 0:
                outcome.failures[label] = f"exit code {code}"
                continue
            reports[label] = report
            outcome.digest_lines += _keyed_lines(
                label, report, ("betti[", "representative[", "row[")
            )
        else:
            outcome.digest_lines.append(
                f"{label}: b1={result.betti1_adjoint} "
                f"btop={result.betti_top_minus_one_coadjoint} vol={result.volume_form_dim}"
            )
            if not result.passed:
                outcome.failures[label] = "vanishing report failed"

    def expect(label: str, ok: bool, what: str) -> None:
        if label in reports and not ok:
            outcome.failures.setdefault(label, what)

    for label, report in reports.items():
        expect(label, _representatives_match(report),
               "representative count differs from the Betti number")
        if label == "verify-paper":
            rows = [v for k, v in report.items() if k.startswith("row[")]
            expect(label, bool(rows) and all(v == "pass" for v in rows),
                   "a verify-paper row failed")
        elif label == "sl3:adjoint":
            want = expected.get(label, {k: 0 for k in SL3_DEGREES})
            expect(label, _betti(report) == want, f"betti {_betti(report)} != {want}")
        elif label.startswith("sl4:trivial:"):
            k = int(label.rsplit(":", 1)[1])
            want = expected.get(label, {k: poincare_sl(4)[k]})
            expect(label, _betti(report) == want, f"betti {_betti(report)} != {want}")
    for slope in spec.get("slopes", ()):
        adj = reports.get(f"fivedim_ext:{slope}:adjoint")
        co_label = f"fivedim_ext:{slope}:coadjoint"
        co = reports.get(co_label)
        if adj is None or co is None:
            continue
        b_adj, b_co = _betti(adj), _betti(co)
        dual = all(b_adj.get(k) == b_co.get(FIVEDIM_TOP - k) for k in range(FIVEDIM_TOP + 1))
        expect(co_label, dual and len(b_adj) == FIVEDIM_TOP + 1,
               f"duality fails: adjoint {b_adj} coadjoint {b_co}")
    return outcome
