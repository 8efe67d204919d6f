"""Algebra file format and the line-oriented report format.

Algebra files are JSON with an explicit format version::

    {
      "format": 1,
      "name": "sl2",
      "dim": 3,
      "basis": ["H", "E", "F"],
      "brackets": {"[0,1]": {"1": "2"}, "[0,2]": {"2": "-2"}, "[1,2]": {"0": "1"}},
      "h_subalgebra": [["0", "1", "-1"]]
    }

Indices are 0-based; rationals are integer strings or "p/q".  The optional
``h_subalgebra`` block lists coordinate vectors spanning a subalgebra.

Reports are emitted either as a human-readable table or as deterministic
machine text: a versioned header line followed by ``key = value`` lines.
Machine text round-trips through :func:`parse_report`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .liealg import LieAlgebra, Subalgebra, subalgebra, validate

FORMAT_VERSION = 1
REPORT_HEADER = "liecoh-report 1"

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_BRACKET_KEY_RE = re.compile(r"^\[(\d+),(\d+)\]$")


class ParseError(Exception):
    pass


def parse_rational(text) -> Fraction:
    """Parse an integer or "p/q" string; decimals and booleans are rejected."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and _RATIONAL_RE.match(text.strip()):
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in rational {text!r}")
    raise ParseError(f"not an exact rational: {text!r} (use p/q or an integer string)")


def _is_count(x) -> bool:
    """A nonnegative JSON integer; true and false are not counts."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def load_algebra_dict(data: dict, where: str = "algebra file"):
    """Validate a parsed JSON object into (algebra, optional subalgebra, name)."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be an object")
    if data.get("format") != FORMAT_VERSION:
        raise ParseError(f"{where}: missing or unsupported format version (expected {FORMAT_VERSION})")
    try:
        dim = data["dim"]
        basis = data["basis"]
        brackets_raw = data.get("brackets", {})
    except KeyError as missing:
        raise ParseError(f"{where}: missing field {missing}")
    if not _is_count(dim):
        raise ParseError(f"{where}: dim must be a nonnegative integer")
    if not isinstance(basis, list) or len(basis) != dim:
        raise ParseError(f"{where}: basis must list exactly dim names")
    names = [str(b) for b in basis]
    if len(set(names)) != dim:
        raise ParseError(f"{where}: basis names must be distinct")
    if not isinstance(brackets_raw, dict):
        raise ParseError(f"{where}: brackets must be an object")
    brackets = {}
    for key, coeffs in brackets_raw.items():
        m = _BRACKET_KEY_RE.match(key)
        if not m:
            raise ParseError(f"{where}: bracket key {key!r} is not of the form [i,j]")
        i, j = int(m.group(1)), int(m.group(2))
        if not (0 <= i < j < dim):
            raise ParseError(f"{where}: bracket key {key!r} needs 0 <= i < j < dim")
        if (i, j) in brackets:
            raise ParseError(f"{where}: bracket key {key!r} repeats the pair ({i},{j})")
        if not isinstance(coeffs, dict):
            raise ParseError(f"{where}: brackets[{key!r}] must map indices to rationals")
        vec = [Fraction(0)] * dim
        seen = set()
        for idx, val in coeffs.items():
            try:
                t = int(idx)
            except ValueError:
                raise ParseError(f"{where}: brackets[{key!r}] index {idx!r} is not an integer")
            if not (0 <= t < dim):
                raise ParseError(f"{where}: brackets[{key!r}] index {idx} out of range")
            if t in seen:
                raise ParseError(f"{where}: brackets[{key!r}] index {idx!r} repeats index {t}")
            seen.add(t)
            try:
                vec[t] = parse_rational(val)
            except ParseError as exc:
                raise ParseError(f"{where}: brackets[{key!r}][{idx!r}]: {exc}")
        brackets[(i, j)] = tuple(vec)
    g = validate(dim, names, brackets)
    h = None
    if "h_subalgebra" in data and data["h_subalgebra"] is not None:
        rows = data["h_subalgebra"]
        if not isinstance(rows, list):
            raise ParseError(f"{where}: h_subalgebra must be a list of coordinate vectors")
        parsed_rows = []
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ParseError(f"{where}: h_subalgebra[{r}] must list dim coordinates")
            try:
                parsed_rows.append([parse_rational(x) for x in row])
            except ParseError as exc:
                raise ParseError(f"{where}: h_subalgebra[{r}]: {exc}")
        h = subalgebra(g, parsed_rows)
    name = str(data.get("name", "unnamed"))
    return g, h, name


def load_algebra(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: line {exc.lineno} column {exc.colno}")
    return load_algebra_dict(data, where=str(path))


def algebra_to_dict(g: LieAlgebra, h: Subalgebra | None = None, name: str = "unnamed") -> dict:
    brackets = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            coeffs = g.bracket_basis(i, j)
            if any(coeffs):
                brackets[f"[{i},{j}]"] = {
                    str(t): format_rational(c) for t, c in enumerate(coeffs) if c
                }
    data = {
        "format": FORMAT_VERSION,
        "name": name,
        "dim": g.dim,
        "basis": list(g.basis_names),
        "brackets": brackets,
    }
    if h is not None and h.dim > 0:
        data["h_subalgebra"] = [[format_rational(x) for x in v] for v in h.vectors]
    return data


def save_algebra(path, g: LieAlgebra, h: Subalgebra | None = None, name: str = "unnamed"):
    with open(path, "w") as fh:
        json.dump(algebra_to_dict(g, h, name), fh, indent=2, sort_keys=True)
        fh.write("\n")


def algebra_digest(g: LieAlgebra, h: Subalgebra | None = None) -> str:
    """Stable short digest of the algebra data, for report provenance."""
    canonical = json.dumps(algebra_to_dict(g, h, name=""), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_module(path, g: LieAlgebra):
    """Load a coefficient module given by explicit action matrices.

    Format: ``{"format": 1, "vdim": n, "actions": [M_1, ..., M_dim]}``
    with one row-major n x n rational matrix per algebra basis vector.
    """
    from . import gmod
    from .ratlin import Matrix

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: line {exc.lineno} column {exc.colno}")
    where = str(path)
    if not isinstance(data, dict) or data.get("format") != FORMAT_VERSION:
        raise ParseError(f"{where}: missing or unsupported format version")
    vdim = data.get("vdim")
    actions_raw = data.get("actions")
    if not _is_count(vdim):
        raise ParseError(f"{where}: vdim must be a nonnegative integer")
    if not isinstance(actions_raw, list) or len(actions_raw) != g.dim:
        raise ParseError(f"{where}: actions must list one matrix per algebra basis vector")
    actions = []
    for i, rows in enumerate(actions_raw):
        if not isinstance(rows, list) or len(rows) != vdim or any(
            not isinstance(r, list) or len(r) != vdim for r in rows
        ):
            raise ParseError(f"{where}: actions[{i}] must be a {vdim}x{vdim} matrix")
        try:
            actions.append(Matrix(vdim, vdim, [[parse_rational(x) for x in r] for r in rows]))
        except ParseError as exc:
            raise ParseError(f"{where}: actions[{i}]: {exc}")
    return gmod.make_module(g, vdim, actions)


@dataclass
class Report:
    """Ordered key/value report with deterministic serialisations."""

    items: list = field(default_factory=list)

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif isinstance(value, Fraction):
            value = format_rational(value)
        else:
            value = str(value)
        if "\n" in value:
            raise ValueError("report values must be single-line")
        self.items.append((str(key), value))

    def machine_text(self) -> str:
        lines = [REPORT_HEADER]
        lines.extend(f"{k} = {v}" for k, v in self.items)
        return "\n".join(lines) + "\n"

    def human_text(self) -> str:
        width = max((len(k) for k, _ in self.items), default=0)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in self.items) + "\n"

    def get(self, key: str) -> str:
        for k, v in self.items:
            if k == key:
                return v
        raise KeyError(key)

    def __eq__(self, other):
        return isinstance(other, Report) and self.items == other.items


def parse_report(text: str) -> Report:
    """Parse machine-format report text back into a Report."""
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ParseError(f"report does not start with {REPORT_HEADER!r}")
    report = Report()
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if " = " not in line:
            raise ParseError(f"report line {n} is not 'key = value': {line!r}")
        key, value = line.split(" = ", 1)
        report.items.append((key, value))
    return report
