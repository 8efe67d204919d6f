"""Exact linear algebra over the rationals.

There is no floating point and no tolerance anywhere.  Ranks, kernels and
echelon forms are exact, which is what makes dimension counts trustworthy:
a Betti number computed here is a theorem about the input matrices, not an
estimate.

A :class:`Matrix` is an integer matrix over one common denominator: a
positive int ``den`` and one ``{col: int}`` dict per row holding only the
nonzero entries (``int_rows``), kept in lowest terms, so equal matrices are
stored alike.  Products, sums, scaling, transposes and the linear
combinations sum x_i M_i are integer passes over the nonzeros that build
no Fraction.  The combinations come in batches, one per row x of a Matrix
(:func:`_row_combinations`): ad(X) or the action of X on a module for a
batch of X, or a pullback along the rows of a basis.  Fractions appear only
at the edges: :attr:`Matrix.sparse_rows` (``{col: Fraction}``) and the
dense views ``row``, ``column`` and ``entries``, built on each read for
reports and tests, and :func:`vector`, which parses dense input.
Elimination results are Matrices too (:meth:`Matrix.rref`,
:meth:`Matrix.kernel`, :func:`solve_columns`), and :class:`EchelonSpan`
takes integer rows only, so a caller stays in integer rows from operator to
span.  An identity sum c_i A_i B_i = 0 is checked by one fused kernel,
:func:`_vanishes`, which accumulates one output row at a time over one
common denominator, stops at the first nonzero row and builds no Matrix.
:meth:`Matrix.kernel_basis`, :meth:`Matrix.apply`, :func:`span_rank` and
:func:`echelon_basis` are one-line views on this API that the library no
longer calls; they stay while ``perfbench/tracer.py`` traces them by name.

There is one elimination loop, :meth:`EchelonSpan._residual`: it reduces a
sparse primitive integer row (gcd-stripped after every combination)
against the rows already stored.
A matrix is eliminated by one forward pass over its integer rows,
shortest first (:meth:`Matrix._span`): rows sorted by nonzero count make
short pivot rows and so keep the fill-in down, a static, row-only form of
the Markowitz ordering (Duff, Erisman and Reid, *Direct Methods for Sparse
Matrices*, ch. 7).  :meth:`Matrix.rank` stops there, while
:meth:`Matrix.rref`, :meth:`Matrix.kernel` and :func:`solve_columns` add a
back-substitution from the last pivot upward (:meth:`EchelonSpan.reduced`)
and put the reduced rows over the lcm of their pivot entries
(:func:`_rref`), which :func:`_kernel` also runs on a pass made earlier
and frozen by :meth:`Matrix._echelon`.  Reduced row echelon form over
a field is unique, so every result below is canonical whatever the row
order; the order changes only the cost.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)


class SubspaceNotContained(Exception):
    """The alleged subspace has vectors outside the ambient span."""


def rational(x) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(rational(x) for x in xs)


def _scaled(row: dict, f: int) -> dict:
    """f times an integer row; the row itself when f is 1."""
    return row if f == 1 else {j: f * v for j, v in row.items()}


def _lowest_terms(int_rows: Sequence[dict], den: int) -> tuple[Sequence[dict], int]:
    """(rows, den) divided by gcd(den, every entry); den is 1 when there are no entries."""
    if den == 1:
        return int_rows, 1
    g = den
    for r in int_rows:
        for v in r.values():
            g = gcd(g, v)
            if g == 1:
                return int_rows, den
    return [{j: v // g for j, v in r.items()} for r in int_rows], den // g


class Matrix:
    """Immutable sparse matrix over Q: integer rows over one common denominator.

    ``int_rows[i]`` is a ``{col: int}`` dict holding exactly the nonzero
    entries of row i times ``den``, a positive int; gcd(den, every entry)
    is 1, and den is 1 for the zero matrix.  The rows must not be mutated.
    Equality and the (cached) hash depend only on the shape, ``den`` and
    these rows, so equal values compare and hash equal whatever their
    history.  ``sparse_rows`` (``{col: Fraction}``), ``row``, ``column`` and
    ``entries`` are views built on each read: display code reads rows,
    while tests and the benchmark harness read ``entries``.  Elimination
    results (``rref``, ``kernel``, :func:`solve_columns`) are Matrices too.
    """

    __slots__ = ("rows", "cols", "den", "int_rows", "_hash")

    def __init__(self, rows: int, cols: int, entries):
        entries = [tuple(rational(x) for x in row) for row in entries]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError(f"entries do not form a {rows}x{cols} matrix")
        m = Matrix._raw(rows, cols, [dict(enumerate(r)) for r in entries])
        self._set(rows, cols, m.den, m.int_rows)

    def _set(self, rows: int, cols: int, den: int, int_rows: Sequence[dict]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "int_rows", tuple(int_rows))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _new: the slots cannot be set one by one
        return Matrix._new, (self.rows, self.cols, self.int_rows, self.den)

    @classmethod
    def _new(cls, rows: int, cols: int, int_rows: Sequence[dict], den: int) -> "Matrix":
        """Internal constructor from zero-free integer rows over den, put in lowest terms."""
        m = object.__new__(cls)
        int_rows, den = _lowest_terms(int_rows, den)
        m._set(rows, cols, den, int_rows)
        return m

    @classmethod
    def _from_ints(cls, rows: int, cols: int, int_rows: Sequence[dict], den: int) -> "Matrix":
        """Constructor from {col: int} rows over den, such as an operator core's; drops zeros."""
        return cls._new(rows, cols, [{j: v for j, v in r.items() if v} for r in int_rows], den)

    @classmethod
    def _raw(cls, rows: int, cols: int, sparse_rows) -> "Matrix":
        """Constructor from {col: Fraction or int} row dicts; zeros are dropped.

        den is the lcm of the denominators, which is already lowest terms:
        a prime dividing it divides some denominator to its full power, and
        that entry's scaled numerator is prime to it.
        """
        sparse_rows = [{j: x for j, x in r.items() if x} for r in sparse_rows]
        den = lcm(*(x.denominator for r in sparse_rows for x in r.values()))
        m = object.__new__(cls)
        m._set(rows, cols, den, [
            {j: x.numerator * (den // x.denominator) for j, x in r.items()} for r in sparse_rows
        ])
        return m

    @classmethod
    def _stack(cls, cols: int, picks: Iterable) -> "Matrix":
        """The matrix whose rows are row i of m, for each (m, i) of picks, over one denominator."""
        picks = list(picks)
        den = lcm(*(m.den for m, _ in picks))
        rows = [_scaled(m.int_rows[i], den // m.den) for m, i in picks]
        return cls._new(len(rows), cols, rows, den)

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
        return cls._new(rows, cols, [{} for _ in range(rows)], 1)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._new(n, n, [{i: 1} for i in range(n)], 1)

    @property
    def sparse_rows(self) -> tuple[dict, ...]:
        """``{col: Fraction}`` view of the nonzero entries, one dict per row."""
        den = self.den
        return tuple({j: Fraction(v, den) for j, v in r.items()} for r in self.int_rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.int_rows == other.int_rows
        )

    def __hash__(self):
        if self._hash is None:
            rows = tuple(frozenset(r.items()) for r in self.int_rows)
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, self.den, rows)))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def row(self, i: int) -> tuple[Fraction, ...]:
        r, den = self.int_rows[i], self.den
        return tuple(Fraction(r[j], den) if j in r else _ZERO for j in range(self.cols))

    def column(self, j: int) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(r[j], den) if j in r else _ZERO for r in self.int_rows)

    def transpose(self) -> "Matrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.int_rows):
            for j, x in r.items():
                out[j][i] = x
        return Matrix._new(self.cols, self.rows, out, self.den)

    def is_zero(self) -> bool:
        return not any(self.int_rows)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __add__(self, other: "Matrix") -> "Matrix":
        return _linear_combination(((1, self), (1, other)), self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return _linear_combination(((1, self), (-1, other)), self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        return self.scale(rational(other))

    def __rmul__(self, other):
        return self.scale(rational(other))

    def scale(self, c) -> "Matrix":
        """c times the matrix, for an int or Fraction c."""
        if c == 1:
            return self
        if not c:
            return Matrix.zero(self.rows, self.cols)
        p = c.numerator
        rows = [{j: p * x for j, x in r.items()} for r in self.int_rows]
        return Matrix._new(self.rows, self.cols, rows, self.den * c.denominator)

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ob = other.int_rows
        out = []
        for r in self.int_rows:
            # row i of the product: sum over k of a_ik * (row k of other)
            acc: dict[int, int] = {}
            for k, a in r.items():
                for j, b in ob[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: v for j, v in acc.items() if v})
        return Matrix._new(self.rows, other.cols, out, self.den * other.den)

    # -- elimination-backed queries ------------------------------------

    def _span(self) -> "EchelonSpan":
        """The forward pass: the nonzero integer rows added shortest first.

        The rows go in sorted by nonzero count, a stable sort: short rows
        make short pivot rows, which keeps the fill-in of the later rows
        down.  The span, and so every result read from it, does not depend
        on the order.
        """
        span = EchelonSpan(self.cols)
        for r in sorted(filter(None, self.int_rows), key=len):
            span.add(r)
        return span

    def _echelon(self) -> "Matrix":
        """The forward pass frozen: its rows in pivot order, which ``EchelonSpan`` takes back."""
        rows = self._span()._rows
        return Matrix._new(len(rows), self.cols, [rows[p] for p in sorted(rows)], 1)

    def rank(self) -> int:
        return self._span().rank

    def rref(self) -> "tuple[Matrix, tuple[int, ...]]":
        """Reduced row echelon form (unique) and its pivot columns."""
        pivots, red = _rref(self._span())
        rows = red.int_rows + ({},) * (self.rows - red.rows)
        return Matrix._new(self.rows, self.cols, rows, red.den), tuple(pivots)

    def kernel(self) -> "Matrix":
        """Canonical kernel basis: :func:`_kernel` of the forward pass."""
        return _kernel(self._span())

    def _free_columns(self) -> list[int]:
        """For a :meth:`kernel` basis, the free column of each row, in order: its last entry.

        Row f is 1 at f and nonzero elsewhere only at pivot columns before f.
        """
        return [max(r) for r in self.int_rows]

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Dense view of :meth:`kernel`; kept for the tracer (module docstring)."""
        return list(self.kernel().entries)

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        """Dense ``self * vec`` by the sparse product; kept for the tracer."""
        return (self * Matrix.from_columns([vec], self.cols)).column(0)


def _linear_combination(terms: Iterable, rows: int, cols: int) -> Matrix:
    """sum c*M over rows x cols (c, M) pairs, c an int or Fraction; c = 0 is skipped.

    The coefficients form one row of :func:`_row_combinations`.
    """
    terms = [(c, m) for c, m in terms if c]
    coefficients = Matrix._raw(1, len(terms), [{i: c for i, (c, _) in enumerate(terms)}])
    return _row_combinations(coefficients, [m for _, m in terms], rows, cols)[0]


def _row_combinations(xs: Matrix, mats: Sequence[Matrix], rows: int, cols: int) -> list[Matrix]:
    """sum_i x_i mats[i] over rows x cols, for each row x of the Matrix xs, in order.

    Each sum is one integer pass over the nonzeros, over den * xs.den for
    the common denominator den of the mats: no Fraction is built.
    """
    if xs.cols != len(mats) or any((m.rows, m.cols) != (rows, cols) for m in mats):
        raise ValueError("shape mismatch in linear combination")
    den = lcm(*(m.den for m in mats))
    scales = [den // m.den for m in mats]
    out = []
    for x in xs.int_rows:
        acc_rows: list[dict] = [{} for _ in range(rows)]
        for i, c in x.items():
            f = c * scales[i]
            for acc, r in zip(acc_rows, mats[i].int_rows):
                for j, v in r.items():
                    acc[j] = acc[j] + f * v if j in acc else f * v
        out.append(Matrix._from_ints(rows, cols, acc_rows, den * xs.den))
    return out


def _vanishes(terms: Iterable, rows: int) -> bool:
    """True when sum c*A*B is zero, over (c, A, B) terms with rows-row products; B None is A alone.

    Each term enters over the common denominator den, the lcm of the
    c.denominator * A.den * B.den, with the integer factor
    c.numerator * den / (c.denominator * A.den * B.den).  One output row is
    accumulated at a time, and the first nonzero one ends the check: no
    product, sum or other Matrix is built.
    """
    terms = [(c, a, b) for c, a, b in terms if c]
    if any(a.rows != rows or (b is not None and a.cols != b.rows) for _, a, b in terms):
        raise ValueError("shape mismatch in vanishing check")
    if len({a.cols if b is None else b.cols for _, a, b in terms}) > 1:
        raise ValueError("shape mismatch in vanishing check")
    dens = [c.denominator * a.den * (1 if b is None else b.den) for c, a, b in terms]
    den = lcm(*dens)
    scaled = [
        (c.numerator * (den // d), a.int_rows, None if b is None else b.int_rows)
        for (c, a, b), d in zip(terms, dens)
    ]
    for i in range(rows):
        acc: dict[int, int] = {}
        for f, a, b in scaled:
            if b is None:
                for j, x in a[i].items():
                    acc[j] = acc[j] + f * x if j in acc else f * x
                continue
            for k, x in a[i].items():
                fx = f * x
                for j, y in b[k].items():
                    acc[j] = acc[j] + fx * y if j in acc else fx * y
        if any(acc.values()):
            return False
    return True


def _strip_gcd(row: dict) -> dict:
    """row divided by the gcd of its entries: row itself when that is 1."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def _combine(row: dict, prow: dict, a: int, b: int) -> dict:
    """Return primitive a*row - b*prow."""
    out = {c: a * v for c, v in row.items()}
    for c, v in prow.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return _strip_gcd(out)


class EchelonSpan:
    """Incrementally maintained echelon basis of a growing span.

    Rows are primitive integer rows, never mutated, keyed by their leading
    column; each is zero in the leading columns of the rows stored before
    it, so reducing a vector against them in increasing pivot order never
    reintroduces an entry already cleared.
    """

    def __init__(self, dim: int, rows: Iterable[dict] = ()):
        # rows, if any, are those of a Matrix._echelon(): primitive, distinct leading columns
        self.dim = dim
        self._rows: dict[int, dict] = {min(r): r for r in rows}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _residual(self, row: dict) -> dict:
        """Primitive integer residual of row after reduction against the span.

        row is a {col: int} dict that holds only nonzero entries, such as a
        row of ``Matrix.int_rows``; its scale does not matter, and it is
        never mutated.
        """
        res = _strip_gcd(row)
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

    def add(self, row: dict) -> bool:
        """Add an integer row to the span; True if it enlarged the span."""
        res = self._residual(row)
        if not res:
            return False
        p = min(res)
        self._rows[p] = res
        return True

    def contains(self, row: dict) -> bool:
        return not self._residual(row)

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


def _rref(span: EchelonSpan) -> tuple[list[int], Matrix]:
    """Pivot columns and RREF of a span, one row per pivot, over the lcm of the pivot entries.

    Each reduced row is scaled by den / (its pivot entry), so it has den,
    that is 1, at its pivot.
    """
    pivots, rows = span.reduced()
    den = lcm(*(r[p] for p, r in zip(pivots, rows)))
    red = [_scaled(r, den // r[p]) for p, r in zip(pivots, rows)]
    return pivots, Matrix._new(len(red), span.dim, red, den)


def _kernel(span: EchelonSpan) -> Matrix:
    """Canonical basis of the vectors the span's rows kill, one row per free column f in order.

    Row f is 1 at f and, at each pivot column p, minus the RREF entry of
    p's row in column f; over the RREF's denominator den, that is den at
    f and minus the integer entry at p.
    """
    pivots, red = _rref(span)
    pivot_set = set(pivots)
    basis = {f: {f: red.den} for f in range(span.dim) if f not in pivot_set}
    for p, r in zip(pivots, red.int_rows):
        # back-substitution leaves a pivot row nonzero only at p and free columns
        for j, v in r.items():
            if j != p:
                basis[j][p] = -v
    return Matrix._new(len(basis), span.dim, list(basis.values()), red.den)


def span_rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of the vectors; kept for the tracer (module docstring)."""
    return Matrix.from_rows(vectors).rank()


def echelon_basis(vectors: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF-row) basis of the span of the vectors; kept for the tracer."""
    return list(_rref(Matrix.from_rows(vectors)._span())[1].entries)


def quotient_dim(big: Sequence[Sequence], small: Sequence[Sequence]) -> int:
    """dim(span(big)/span(small)), verifying span(small) <= span(big)."""
    big, small = Matrix.from_rows(big), Matrix.from_rows(small)
    if big.rows and small.rows and big.cols != small.cols:
        raise ValueError("big and small vectors differ in length")
    span = big._span()
    rank_small = small.rank()
    if not all(span.contains(r) for r in small.int_rows):
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
    # [a | b] over the common denominator den: den a X = den b has the same solutions
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    aug = Matrix._new(a.rows, n + b.cols, [
        {**_scaled(ra, fa), **{n + j: fb * x for j, x in rb.items()}}
        for ra, rb in zip(a.int_rows, b.int_rows)
    ], den)
    pivots, red = _rref(aug._span())
    if any(p >= n for p in pivots):
        return None
    out: list[dict] = [{} for _ in range(n)]
    for p, r in zip(pivots, red.int_rows):
        out[p] = {j - n: v for j, v in r.items() if j >= n}
    return Matrix._new(n, b.cols, out, red.den)
