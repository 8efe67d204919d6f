"""Exact linear algebra over the rationals.

Every scalar is a :class:`fractions.Fraction`; there is no floating point
and no tolerance anywhere.  Ranks, kernels and echelon forms are exact,
which is what makes dimension counts trustworthy: a Betti number computed
here is a theorem about the input matrices, not an estimate.

A :class:`Matrix` stores only its nonzero entries, one ``{col: Fraction}``
dict per row, and every operation (sums, products, transposes, stacking)
works on that sparse form; cochain operators are almost entirely zeros.
Vectors come in the same two forms: :meth:`Matrix.kernel_rows` and
:class:`EchelonSpan` work on sparse ``{col: Fraction}`` dicts, so a caller
can stay sparse from operator to span, while :func:`vector` and
:func:`dense_vector` give dense tuples for callers that index coordinates.
:meth:`Matrix.kernel_basis`, :meth:`Matrix.apply`, :func:`span_rank` and
:func:`echelon_basis` are one-line views on this API that the library no
longer calls; they stay while ``perfbench/tracer.py`` traces them by name.

There is one elimination loop, :meth:`EchelonSpan._residual`: it clears
the denominators of a row and reduces it, as a sparse primitive integer row
(gcd-stripped after every combination), against the rows already stored.
A matrix is eliminated by one forward pass over its rows in input order;
:meth:`Matrix.rank` stops there, while :meth:`Matrix.rref`,
:meth:`Matrix.kernel_rows` and :func:`solve_columns` add a
back-substitution from the last pivot upward (:meth:`EchelonSpan.reduced`)
and normalise pivots back to fractions.  Reduced row echelon form over a
field is unique, so every result below is canonical whatever the row order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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


def dense_vector(row: dict, n: int) -> tuple[Fraction, ...]:
    """The length-n dense tuple of a sparse {col: Fraction} vector."""
    return tuple(row.get(j, _ZERO) for j in range(n))


class Matrix:
    """Immutable sparse matrix of Fractions.

    ``sparse_rows[i]`` is a ``{col: Fraction}`` dict holding exactly the
    nonzero entries of row i; it must not be mutated.  Equality and the
    (cached) hash depend only on the shape and these entries.  ``row``,
    ``column`` and ``entries`` are dense views built on demand: display code
    reads rows, while tests and the benchmark harness read ``entries``.
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
        return dense_vector(self.sparse_rows[i], self.cols)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r.get(j, _ZERO) for r in self.sparse_rows)

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

    def _span(self) -> "EchelonSpan":
        """The forward pass: every nonzero row added in input order."""
        span = EchelonSpan(self.cols)
        for r in self.sparse_rows:
            if r:
                span.add(r)
        return span

    def rank(self) -> int:
        return self._span().rank

    def rref(self) -> "tuple[Matrix, tuple[int, ...]]":
        """Reduced row echelon form (unique) and its pivot columns."""
        pivots, out = _rref(self._span())
        out.extend({} for _ in range(self.rows - len(out)))
        return Matrix._raw(self.rows, self.cols, out), tuple(pivots)

    def kernel_rows(self) -> list[dict]:
        """Canonical kernel basis as sparse {col: Fraction} dicts.

        One vector per free column f, in increasing order of f: 1 at f and,
        at each pivot column p, minus the RREF entry of p's row in column f.
        """
        pivots, rows = self._span().reduced()
        pivot_set = set(pivots)
        basis = {f: {f: _ONE} for f in range(self.cols) if f not in pivot_set}
        for p, r in zip(pivots, rows):
            # back-substitution leaves a pivot row nonzero only at p and free columns
            pv = r[p]
            for j, num in r.items():
                if j != p:
                    basis[j][p] = Fraction(-num, pv)
        return list(basis.values())

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Dense view of :meth:`kernel_rows`; kept for the tracer (module docstring)."""
        return [dense_vector(v, self.cols) for v in self.kernel_rows()]

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Dense ``self * vec`` by the sparse product; kept for the tracer."""
        return (self * Matrix.from_columns([vec], self.cols)).column(0)


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

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _residual(self, vec: Sequence | dict) -> dict:
        """Primitive integer residual of vec after reduction against the span.

        vec is a dense sequence or a sparse {col: Fraction} dict that holds
        only nonzero entries, such as a row of ``Matrix.sparse_rows``.
        """
        if not isinstance(vec, dict):
            vec = {j: q for j, q in enumerate(vector(vec)) if q}
        res = _int_row(vec)
        rows = self._rows
        # reduce at the pivot columns res holds, smallest first; clearing p
        # only adds columns after p, and those that are pivots join the heap
        todo = [c for c in res if c in rows]
        heapify(todo)
        while todo:
            p = heappop(todo)
            b = res.get(p)
            if b:
                prow = rows[p]
                res = _combine(res, prow, prow[p], b)
                if not res:
                    break
                for c in prow:
                    if c > p and c in rows:
                        heappush(todo, c)
        return res

    def add(self, vec: Sequence | dict) -> bool:
        """Add vec to the span; True if it enlarged the span."""
        res = self._residual(vec)
        if not res:
            return False
        p = min(res)
        self._rows[p] = res
        return True

    def contains(self, vec: Sequence | dict) -> bool:
        return not self._residual(vec)

    def reduced(self) -> tuple[list[int], list[dict]]:
        """(pivot columns, rows) of the reduced row echelon form of the span.

        Back-substitution from the last pivot upward: once the rows below a
        row are reduced, they are zero at every pivot but their own, so
        clearing one pivot column never brings back another.  The rows stay
        primitive integer rows, one per pivot; dividing each by its pivot
        entry gives the unique RREF.  The span itself is left unchanged.
        """
        pivots = sorted(self._rows)
        red: dict[int, dict] = {}
        for p in reversed(pivots):
            row = self._rows[p]
            for c in [c for c in row if c != p and c in red]:
                prow = red[c]
                row = _combine(row, prow, prow[c], row[c])
            red[p] = row
        return pivots, [red[p] for p in pivots]


def _rref(span: EchelonSpan) -> tuple[list[int], list[dict]]:
    """Pivot columns and RREF rows of a span: each reduced row over its pivot entry."""
    pivots, rows = span.reduced()
    return pivots, [{j: Fraction(v, r[p]) for j, v in r.items()} for p, r in zip(pivots, rows)]


def _rref_rows(span: EchelonSpan) -> tuple[tuple[Fraction, ...], ...]:
    """The canonical (RREF-row) basis of a span, as dense tuples."""
    return tuple(dense_vector(r, span.dim) for r in _rref(span)[1])


def _kernel_echelon(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """The canonical (RREF-row) basis of the kernel of m, as dense tuples."""
    ker = m.kernel_rows()
    return _rref_rows(Matrix._raw(len(ker), m.cols, ker)._span())


def span_rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of the vectors; kept for the tracer (module docstring)."""
    return Matrix.from_rows(vectors).rank()


def echelon_basis(vectors: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF-row) basis of the span of the vectors; kept for the tracer."""
    return list(_rref_rows(Matrix.from_rows(vectors)._span()))


def quotient_dim(big: Sequence[Sequence], small: Sequence[Sequence]) -> int:
    """dim(span(big)/span(small)), verifying span(small) <= span(big)."""
    big, small = Matrix.from_rows(big), Matrix.from_rows(small)
    if big.rows and small.rows and big.cols != small.cols:
        raise ValueError("big and small vectors differ in length")
    span = big._span()
    rank_small = small.rank()
    if not all(span.contains(r) for r in small.sparse_rows):
        raise SubspaceNotContained(
            f"span of rank {rank_small} is not inside the rank-{span.rank} span"
        )
    return span.rank - rank_small


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
    pivots, rows = aug._span().reduced()
    if any(p >= n for p in pivots):
        return None
    out: list[dict] = [{} for _ in range(n)]
    for p, r in zip(pivots, rows):
        out[p] = {j - n: Fraction(v, r[p]) for j, v in r.items() if j >= n}
    return Matrix._raw(n, b.cols, out)
