"""Exact linear algebra over the rationals.

Every scalar is a :class:`fractions.Fraction`; there is no floating point
and no tolerance anywhere.  Ranks, kernels and echelon forms are exact,
which is what makes dimension counts trustworthy: a Betti number computed
here is a theorem about the input matrices, not an estimate.

A :class:`Matrix` stores only its nonzero entries, one ``{col: Fraction}``
dict per row, and every operation (sums, products, transposes, stacking)
works on that sparse form; cochain operators are almost entirely zeros.
Vectors stay dense tuples of Fractions.

There is one reduction engine: it clears the denominators of each row and
eliminates on sparse primitive integer rows (gcd-stripped after every
combination).  :meth:`Matrix.rref` and friends run it to full Gauss-Jordan
form and normalise pivots back to fractions; :class:`EchelonSpan` runs it
incrementally.  Reduced row echelon form over a field is unique, so every
result below is canonical no matter which pivots the heuristic picks.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Q = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SubspaceNotContained(Exception):
    """The alleged subspace has vectors outside the ambient span."""


def rational(x) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(rational(x) for x in xs)


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


class Matrix:
    """Immutable sparse matrix of Fractions.

    ``sparse_rows[i]`` is a ``{col: Fraction}`` dict holding exactly the
    nonzero entries of row i; it must not be mutated.  Equality and the
    (cached) hash depend only on the shape and these entries.  ``entries``
    is a dense row-major view built on demand for display and tests.
    """

    __slots__ = ("rows", "cols", "sparse_rows", "_hash")

    def __init__(self, rows: int, cols: int, entries):
        entries = [tuple(rational(x) for x in row) for row in entries]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entries do not form a {rows}x{cols} matrix")
        self._set(rows, cols, tuple({j: x for j, x in enumerate(r) if x} for r in entries))

    def _set(self, rows: int, cols: int, sparse_rows: tuple) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "sparse_rows", sparse_rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, rows: int, cols: int, sparse_rows) -> "Matrix":
        """Internal constructor from {col: Fraction} row dicts; zeros are dropped."""
        m = object.__new__(cls)
        m._set(rows, cols, tuple({j: x for j, x in r.items() if x} for r in sparse_rows))
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise ValueError("cannot infer row count from zero columns")
            rows = len(columns[0])
        return cls(len(columns), rows, columns).transpose()

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw(rows, cols, [{}] * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._raw(n, n, [{i: _ONE} for i in range(n)])

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        if self._hash is None:
            rows = tuple(frozenset(r.items()) for r in self.sparse_rows)
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, rows)))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def row(self, i: int) -> tuple[Fraction, ...]:
        r = self.sparse_rows[i]
        return tuple(r.get(j, _ZERO) for j in range(self.cols))

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r.get(j, _ZERO) for r in self.sparse_rows)

    def columns(self) -> list[tuple[Fraction, ...]]:
        t = self.transpose()
        return [t.row(j) for j in range(t.rows)]

    def transpose(self) -> "Matrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse_rows):
            for j, x in r.items():
                out[j][i] = x
        return Matrix._raw(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def __neg__(self) -> "Matrix":
        return self.scale(-_ONE)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        out = []
        for ra, rb in zip(self.sparse_rows, other.sparse_rows):
            acc = dict(ra)
            for j, x in rb.items():
                acc[j] = acc[j] + x if j in acc else x
            out.append(acc)
        return Matrix._raw(self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        return self.scale(rational(other))

    def __rmul__(self, other):
        return self.scale(rational(other))

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix._raw(
            self.rows, self.cols, [{j: c * x for j, x in r.items()} for r in self.sparse_rows]
        )

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ob = other.sparse_rows
        out = []
        for r in self.sparse_rows:
            # row i of the product: sum over k of a_ik * (row k of other)
            acc: dict[int, Fraction] = {}
            for k, a in r.items():
                for j, b in ob[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(acc)
        return Matrix._raw(self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        vec = vector(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((a * vec[j] for j, a in r.items() if vec[j]), _ZERO) for r in self.sparse_rows
        )

    @classmethod
    def vstack(cls, blocks: Sequence["Matrix"]) -> "Matrix":
        blocks = list(blocks)
        if not blocks:
            raise ValueError("vstack of no blocks")
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("column mismatch in vstack")
        rows = [r for b in blocks for r in b.sparse_rows]
        return cls._raw(len(rows), cols, rows)

    # -- elimination-backed queries ------------------------------------

    def _rref_data(self):
        return _gauss_jordan([_int_row(r) for r in self.sparse_rows], self.cols)

    def rank(self) -> int:
        return len(self._rref_data()[0])

    def rref(self) -> "tuple[Matrix, tuple[int, ...]]":
        """Reduced row echelon form (unique) and its pivot columns."""
        pivots, rows = self._rref_data()
        out = [{j: Fraction(v, r[p]) for j, v in r.items()} for p, r in zip(pivots, rows)]
        out.extend({} for _ in range(self.rows - len(out)))
        return Matrix._raw(self.rows, self.cols, out), tuple(pivots)

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Canonical kernel basis: one vector per free column, set to 1."""
        pivots, rows = self._rref_data()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [_ZERO] * self.cols
            v[f] = _ONE
            for p, r in zip(pivots, rows):
                num = r.get(f)
                if num:
                    v[p] = Fraction(-num, r[p])
            basis.append(tuple(v))
        return basis


def _int_row(row: dict) -> dict:
    """The primitive integer row proportional to a {col: rational} row."""
    den = lcm(*(x.denominator for x in row.values()))
    out = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    _strip_gcd(out)
    return out


def _strip_gcd(row: dict) -> None:
    if not row:
        return
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def _combine(row: dict, prow: dict, a: int, b: int) -> dict:
    """Return primitive a*row - b*prow."""
    out = {c: a * v for c, v in row.items()}
    for c, v in prow.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    _strip_gcd(out)
    return out


def _gauss_jordan(int_rows: list[dict], cols: int):
    """Full Gauss-Jordan elimination on sparse integer rows.

    Returns (pivot columns, reduced integer rows), one row per pivot, with
    every pivot column eliminated from every other row.  Pivot rows are
    primitive; uniqueness of RREF is restored by the callers' final
    division by the pivot entry.
    """
    active = [r for r in int_rows if r]
    pivots: list[int] = []
    prows: list[dict] = []
    for c in range(cols):
        best = -1
        best_key = None
        for idx, r in enumerate(active):
            v = r.get(c)
            if v is not None:
                key = (len(r), abs(v))
                if best_key is None or key < best_key:
                    best_key = key
                    best = idx
        if best < 0:
            continue
        prow = active.pop(best)
        pv = prow[c]
        for rows_list in (active, prows):
            for idx, r in enumerate(rows_list):
                v = r.get(c)
                if v is not None:
                    rows_list[idx] = _combine(r, prow, pv, v)
        active = [r for r in active if r]
        pivots.append(c)
        prows.append(prow)
    return pivots, prows


class EchelonSpan:
    """Incrementally maintained echelon basis of a growing span.

    Rows are primitive integer rows keyed by their leading column; each is
    zero in the leading columns of the rows stored before it, so reducing a
    vector against them in increasing pivot order never reintroduces an
    entry already cleared.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict] = {}
        self._pivots: list[int] = []  # the keys of _rows, increasing

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _residual(self, vec: Sequence) -> dict:
        """Primitive integer residual of vec after reduction against the span."""
        res = _int_row({j: q for j, q in enumerate(vector(vec)) if q})
        for p in self._pivots:
            b = res.get(p)
            if b:
                prow = self._rows[p]
                res = _combine(res, prow, prow[p], b)
                if not res:
                    break
        return res

    def add(self, vec: Sequence) -> bool:
        """Add vec to the span; True if it enlarged the span."""
        res = self._residual(vec)
        if not res:
            return False
        p = min(res)
        self._rows[p] = res
        insort(self._pivots, p)
        return True

    def contains(self, vec: Sequence) -> bool:
        return not self._residual(vec)


def span_rank(vectors: Sequence[Sequence]) -> int:
    vectors = [vector(v) for v in vectors]
    if not vectors:
        return 0
    return Matrix.from_rows(vectors).rank()


def echelon_basis(vectors: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    vectors = [vector(v) for v in vectors]
    if not vectors:
        return []
    m = Matrix.from_rows(vectors)
    red, pivots = m.rref()
    return [red.row(i) for i in range(len(pivots))]


def quotient_dim(big: Sequence[Sequence], small: Sequence[Sequence]) -> int:
    """dim(span(big)/span(small)), verifying span(small) <= span(big)."""
    big = [vector(v) for v in big]
    small = [vector(v) for v in small]
    rank_big = span_rank(big)
    if small:
        rank_all = span_rank(list(big) + list(small))
        if rank_all > rank_big:
            raise SubspaceNotContained(
                f"span of rank {span_rank(small)} is not inside the rank-{rank_big} span"
            )
    return rank_big - span_rank(small)


def solve_columns(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a * X = b columnwise; None if any column is inconsistent.

    Free variables, if any, are set to zero, so the result is the unique
    solution whenever `a` has full column rank.
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    n = a.cols
    aug = Matrix._raw(
        a.rows,
        n + b.cols,
        [{**ra, **{n + j: x for j, x in rb.items()}} for ra, rb in zip(a.sparse_rows, b.sparse_rows)],
    )
    pivots, rows = aug._rref_data()
    if any(p >= n for p in pivots):
        return None
    out: list[dict] = [{} for _ in range(n)]
    for p, r in zip(pivots, rows):
        out[p] = {j - n: Fraction(v, r[p]) for j, v in r.items() if j >= n}
    return Matrix._raw(n, b.cols, out)
