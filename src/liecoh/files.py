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

from .liealg import (LieAlgebra, LieAlgebraError, Subalgebra, _brief, _checked_algebra,
                     check_dim, subalgebra)
from .ratlin import Matrix

FORMAT_VERSION = 1
REPORT_HEADER = "liecoh-report 1"

# re.ASCII: \d would also match every Unicode digit, which int() and Fraction() take
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)
_BRACKET_KEY_RE = re.compile(r"\[(\d+),(\d+)\]", re.ASCII)  # fullmatch: no trailing newline


class ParseError(Exception):
    pass


class ValueTooLong(LieAlgebraError):
    """A computed rational has more digits than Python converts to text."""


def parse_rational(text) -> Fraction:
    """Parse an integer or "p/q" string; decimals and booleans are rejected."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and _RATIONAL_RE.match(text.strip()):
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in rational {_brief(text)}")
        except ValueError:  # over Python's limit on int string conversion
            raise ParseError(f"rational of {len(text)} characters has too many digits")
    raise ParseError(f"not an exact rational: {_brief(text)} (use p/q or an integer string)")


def parse_count(text: str) -> int:
    """Parse a count written in ASCII digits; signs, underscores and spaces are rejected."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"not a count: {_brief(text)} (use ASCII digits only)")
    try:
        return int(text)
    except ValueError:  # over Python's limit on int string conversion
        raise ParseError(f"count of {len(text)} characters has too many digits")


def _is_count(x) -> bool:
    """A nonnegative JSON integer; true and false are not counts."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def format_rational(q: Fraction) -> str:
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # over Python's limit on int string conversion
        raise ValueTooLong("a result has too many digits to print")


def load_algebra_dict(data: dict, where: str = "algebra file"):
    """Validate a parsed JSON object into (algebra, optional subalgebra, name)."""
    where = _brief(where, str)
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
    check_dim(dim, where)
    if not isinstance(basis, list) or len(basis) != dim:
        raise ParseError(f"{where}: basis must list exactly dim names")
    names = [str(b) for b in basis]
    if len(set(names)) != dim:
        raise ParseError(f"{where}: basis names must be distinct")
    if not isinstance(brackets_raw, dict):
        raise ParseError(f"{where}: brackets must be an object")
    # one sparse row {index: rational} per bracket (i, j), i < j, in file order
    brackets = {}
    for key, coeffs in brackets_raw.items():
        shown_key = _brief(key)
        entry = f"{where}: brackets[{shown_key}]"
        m = _BRACKET_KEY_RE.fullmatch(key)
        if not m:
            raise ParseError(f"{where}: bracket key {shown_key} is not of the form [i,j]")
        try:
            i, j = int(m.group(1)), int(m.group(2))
        except ValueError:  # over Python's limit on int string conversion
            raise ParseError(f"{where}: bracket key of {len(key)} characters has too many digits")
        if not (0 <= i < j < dim):
            raise ParseError(f"{where}: bracket key {shown_key} needs 0 <= i < j < dim")
        if (i, j) in brackets:
            raise ParseError(f"{where}: bracket key {shown_key} repeats the pair ({i},{j})")
        if not isinstance(coeffs, dict):
            raise ParseError(f"{entry} must map indices to rationals")
        row = brackets[i, j] = {}
        for idx, val in coeffs.items():
            shown_idx = _brief(idx)
            try:
                t = parse_count(idx)
            except ParseError:
                raise ParseError(f"{entry} index {shown_idx} is not a count")
            if not (0 <= t < dim):
                raise ParseError(f"{entry} index {_brief(idx, str)} out of range")
            if t in row:
                raise ParseError(f"{entry} index {shown_idx} repeats index {t}")
            try:
                row[t] = parse_rational(val)
            except ParseError as exc:
                raise ParseError(f"{entry}[{shown_idx}]: {exc}")
    stacked = Matrix._raw(len(brackets), dim, brackets.values())
    g = _checked_algebra(dim, tuple(names), list(brackets), stacked)
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


def _read_json(path):
    shown = _brief(path, str)
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{shown} is not valid JSON: line {exc.lineno} column {exc.colno}")
    # ValueError: a NUL or lone surrogate in the path, or a file that is not
    # UTF-8; RecursionError: JSON nested deeper than the parser's stack
    except (OSError, ValueError, RecursionError) as exc:
        # an OSError names the path again: shorten it there too
        name = getattr(exc, "filename", None)
        raise ParseError(f"cannot read {shown}: {str(exc).replace(repr(name), _brief(name))}")


def load_algebra(path):
    data = _read_json(path)
    return load_algebra_dict(data, where=str(path))


def algebra_to_dict(g: LieAlgebra, h: Subalgebra | None = None, name: str = "unnamed") -> dict:
    brackets = {}
    for i, b in enumerate(g.brackets):
        rows = b.sparse_rows
        for j in range(i + 1, g.dim):
            row = rows[j]
            if row:
                brackets[f"[{i},{j}]"] = {str(t): format_rational(c) for t, c in row.items()}
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
            raise ParseError(f"report value of {key} must be single-line, got {_brief(value)}")
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
