"""Finite-dimensional Lie algebras given by rational structure constants.

An algebra stores its structure constants once, sparsely: one
:class:`~liecoh.ratlin.Matrix` per basis vector, ``brackets[i]`` with row
j equal to ``[e_i, e_j]``.  That matrix is ad(e_i) transposed, so minus
the coadjoint action of e_i.  :func:`validate` fills both ``[e_i, e_j]``
and ``[e_j, e_i] = -[e_i, e_j]`` from data given for ``i < j`` only, so
antisymmetry holds by construction and only the Jacobi identity needs
checking.  Every reader takes the nonzero entries from the sparse integer
rows (``Matrix.int_rows``) and their common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, Sequence

from .ratlin import (
    EchelonSpan,
    Matrix,
    _kernel_echelon,
    _linear_combination,
    _rref_rows,
    solve_columns,
    vector,
)

_ZERO = Fraction(0)


class LieAlgebraError(Exception):
    pass


class DimensionMismatch(LieAlgebraError):
    pass


class JacobiViolation(LieAlgebraError):
    def __init__(self, i: int, j: int, k: int, residual):
        self.triple = (i, j, k)
        self.residual = tuple(residual)
        try:
            pretty = ", ".join(str(x) for x in self.residual)
        except ValueError:  # over Python's limit on int string conversion
            pretty = "entries with too many digits to print"
        super().__init__(
            f"Jacobi identity fails on basis triple ({i},{j},{k}); residual ({pretty})"
        )


class SubalgebraNotClosed(LieAlgebraError):
    pass


class AlgebraTooLarge(LieAlgebraError):
    pass


# Largest algebra dimension accepted, far above every catalog entry (the
# largest fixed one has dim 7); cochain levels exceed gmod.MAX_LEVEL_DIM
# from dim 18 on, and it keeps the O(dim^3) work of `check` bounded.
MAX_DIM = 1 << 8


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra over Q with basis names and one sparse bracket matrix per basis vector.

    Row j of ``brackets[i]`` is ``[e_i, e_j]``; equality and hashing cover
    only the nonzero structure constants, through the matrices' cached hash.
    """

    dim: int
    basis_names: tuple[str, ...]
    brackets: tuple[Matrix, ...]

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """[x, y] = sum_j y_j [x, e_j]; row j of sum_i x_i brackets[i] is [x, e_j]."""
        terms = zip(vector(x), self.brackets, strict=True)
        x_rows = _linear_combination(terms, self.dim, self.dim)
        return (Matrix._raw(1, self.dim, [dict(enumerate(vector(y)))]) * x_rows).row(0)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of Y -> [x, Y] in the defining basis: (sum_i x_i brackets[i])^T."""
        terms = zip(vector(x), self.brackets, strict=True)
        return _linear_combination(terms, self.dim, self.dim).transpose()


def check_dim(dim: int, where: str) -> None:
    """Reject an algebra before its bracket table is built if dim is too big."""
    if dim > MAX_DIM:
        from .files import _brief  # files imports this module

        shown = _brief(dim, str)
        raise AlgebraTooLarge(f"{where} has dimension {shown}, over the limit of {MAX_DIM}")


def validate(dim: int, names: Sequence[str], brackets: Mapping) -> LieAlgebra:
    """Build a LieAlgebra from ``{(i, j): coefficients}`` data, i < j.

    Missing pairs and zero coefficients mean a zero bracket; only nonzero
    structure constants are stored, in both orders.  The Jacobi identity is
    verified on every index triple i < j < k where one of [e_j, e_k],
    [e_k, e_i], [e_i, e_j] is nonzero, in lexicographic order, from the
    stored sparse rows; on every other triple each term of the identity is
    a bracket with zero and vanishes exactly.  The first failure is
    reported with its residual.
    """
    check_dim(dim, "the algebra")
    names = tuple(str(n) for n in names)
    if len(names) != dim:
        raise DimensionMismatch(f"{len(names)} basis names for dimension {dim}")
    # rows[i][j] = {c: den * (coefficient of e_c in [e_i, e_j])} over one common denominator,
    # nonzero brackets only, so the keys of rows[i] are the bracket partners of e_i
    rows: list[dict[int, dict]] = [{} for _ in range(dim)]
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < dim):
            raise DimensionMismatch(f"bracket key ({i},{j}) is not an ordered pair below {dim}")
        coeffs = vector(coeffs)
        if len(coeffs) != dim:
            raise DimensionMismatch(
                f"bracket ({i},{j}) has {len(coeffs)} coefficients, expected {dim}"
            )
        if nz := {c: t for c, t in enumerate(coeffs) if t}:
            rows[i][j] = nz
    den = lcm(*(t.denominator for r in rows for nz in r.values() for t in nz.values()))
    for i, j in [(i, j) for i, r in enumerate(rows) for j in r]:
        rows[i][j] = {c: t.numerator * (den // t.denominator) for c, t in rows[i][j].items()}
        rows[j][i] = {c: -v for c, v in rows[i][j].items()}
    table = [[r.get(j, {}) for j in range(dim)] for r in rows]
    g = LieAlgebra(dim, names, tuple(Matrix._new(dim, dim, t, den) for t in table))
    for i in range(dim):
        for j in range(i + 1, dim):
            if table[i][j]:
                ks = range(j + 1, dim)
            elif rows[i] or rows[j]:
                ks = sorted(k for k in rows[i].keys() | rows[j].keys() if k > j)
            else:
                continue
            for k in ks:
                residual = _jacobi_residual(table, i, j, k)
                if residual:
                    raise JacobiViolation(i, j, k, Matrix._new(1, dim, [residual], den**2).row(0))
    return g


def _jacobi_residual(table: Sequence, i: int, j: int, k: int) -> dict[int, int]:
    """Nonzero entries of [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]], times den^2.

    ``table[a][b]`` is the sparse row of [e_a, e_b] times den, an integer row.
    """
    acc: dict[int, int] = {}
    for x, (y, z) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
        for m, c in table[y][z].items():
            for t, d in table[x][m].items():
                acc[t] = acc[t] + c * d if t in acc else c * d
    return {t: v for t, v in acc.items() if v}


def unit(dim: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if j == i else _ZERO for j in range(dim))


@dataclass(frozen=True)
class Subalgebra:
    """A bracket-closed subspace, stored as a canonical echelon basis."""

    ambient: LieAlgebra
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def subalgebra(ambient: LieAlgebra, vectors: Sequence[Sequence]) -> Subalgebra:
    """Validate a subalgebra candidate: independent and closed under bracket."""
    vecs = [vector(v) for v in vectors]
    if any(len(v) != ambient.dim for v in vecs):
        raise DimensionMismatch("subalgebra vector has wrong length")
    span = EchelonSpan(ambient.dim)
    if not all(span.add(r) for r in Matrix(len(vecs), ambient.dim, vecs).int_rows):
        raise SubalgebraNotClosed("candidate vectors are linearly dependent")
    basis = _rref_rows(span)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            w = ambient.bracket(basis[a], basis[b])
            if not span.contains(Matrix.from_rows([w]).int_rows[0]):
                raise SubalgebraNotClosed(
                    f"bracket of subalgebra vectors {a} and {b} leaves the span"
                )
    return Subalgebra(ambient, basis)


@lru_cache(maxsize=None)
def killing_form(g: LieAlgebra) -> Matrix:
    """Symmetric matrix B(e_i, e_j) = trace(ad(e_i) ad(e_j)).

    ad(e_i) is brackets[i] transposed, and trace(A^T B^T) = trace(B A), so
    each entry is trace(brackets[i] brackets[j]), summed over the integer
    rows and divided by the two denominators.
    """
    nonzero = [[(r, row) for r, row in enumerate(b.int_rows) if row] for b in g.brackets]
    ent: list[dict] = [{} for _ in range(g.dim)]
    for i in range(g.dim):
        for j in range(i, g.dim):
            # sum over r, s of brackets[i][r][s] brackets[j][s][r], from nonzeros only
            brows = g.brackets[j].int_rows
            t = sum(
                x * brows[s][r] for r, row in nonzero[i] for s, x in row.items() if r in brows[s]
            )
            if t:
                ent[i][j] = ent[j][i] = Fraction(t, g.brackets[i].den * g.brackets[j].den)
    return Matrix._raw(g.dim, g.dim, ent)


def killing_determinant(g: LieAlgebra) -> Fraction:
    """Determinant of the Killing matrix (exact, by fraction-free elimination)."""
    m = killing_form(g)
    return _det([list(m.row(i)) for i in range(m.rows)])


def _det(a: list[list[Fraction]]) -> Fraction:
    """det(A) = det(D A) / D^n, with D the lcm of the denominators.

    det(D A) comes from Bareiss elimination on the integer matrix D A:
    every division below is exact, so no Fraction is built until the end.
    """
    n = len(a)
    d = lcm(*(x.denominator for row in a for x in row))
    m = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    sign, prev = 1, 1
    for c in range(n - 1):
        if not m[c][c]:
            p = next((r for r in range(c + 1, n) if m[r][c]), None)
            if p is None:
                return Fraction(0)
            m[c], m[p] = m[p], m[c]
            sign = -sign
        pivot, pivot_row = m[c][c], m[c]
        for row in m[c + 1 :]:
            f = row[c]
            for cc in range(c + 1, n):
                row[cc] = (row[cc] * pivot - f * pivot_row[cc]) // prev
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], d**n) if n else Fraction(1)


@dataclass(frozen=True)
class StructureReport:
    is_semisimple: bool
    center: Subalgebra
    derived: Subalgebra
    is_reductive: bool


def center_of(g: LieAlgebra) -> Subalgebra:
    """Kernel of X -> ad(X), as a canonical echelon basis.

    x is central when [e_j, x] = 0 for every j, that is when x lies in the
    kernel of every ad(e_j) = brackets[j]^T; only their nonzero rows matter.
    """
    ads = [b.transpose() for b in g.brackets]
    rows = Matrix._stack(g.dim, ((a, r) for a in ads for r in range(g.dim) if a.int_rows[r]))
    return Subalgebra(g, _kernel_echelon(rows))


def derived_subalgebra(g: LieAlgebra) -> Subalgebra:
    rows = ((b, j) for i, b in enumerate(g.brackets) for j in range(i + 1, g.dim) if b.int_rows[j])
    return Subalgebra(g, _rref_rows(Matrix._stack(g.dim, rows)._span()))


def induced_algebra(g: LieAlgebra, basis: Sequence[Sequence], names: Sequence[str]) -> LieAlgebra:
    """Re-express the brackets of a closed subspace in its own basis, named ``names``.

    One solve against the basis gives the coordinates of every bracket
    [basis[a], basis[b]], a < b, one column per pair.
    """
    basis = [vector(v) for v in basis]
    n = len(basis)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    coeffs = solve_columns(
        Matrix.from_columns(basis, rows=g.dim),
        Matrix.from_columns([g.bracket(basis[a], basis[b]) for a, b in pairs], rows=g.dim),
    )
    if coeffs is None:
        raise SubalgebraNotClosed("subspace is not closed under the bracket")
    return validate(n, names, {p: coeffs.column(j) for j, p in enumerate(pairs)})


@lru_cache(maxsize=None)
def structure_report(g: LieAlgebra) -> StructureReport:
    """Semisimplicity (Cartan criterion), center, derived subalgebra, reductivity."""
    semisimple = killing_form(g).rank() == g.dim
    center = center_of(g)
    derived = derived_subalgebra(g)
    direct_sum = (
        center.dim + derived.dim == g.dim
        and Matrix.from_rows(center.vectors + derived.vectors).rank() == g.dim
    )
    reductive = False
    if direct_sum:
        derived_alg = induced_algebra(g, derived.vectors, [f"d{i}" for i in range(derived.dim)])
        reductive = killing_form(derived_alg).rank() == derived_alg.dim
    return StructureReport(semisimple, center, derived, reductive)


def change_of_basis(g: LieAlgebra, columns: Sequence[Sequence], names=None) -> LieAlgebra:
    """The same algebra expressed in the basis f_j = sum_i columns[j][i] e_i."""
    cols = [vector(c) for c in columns]
    if len(cols) != g.dim:
        raise DimensionMismatch("change of basis needs dim many vectors")
    if Matrix.from_columns(cols, rows=g.dim).rank() != g.dim:
        raise DimensionMismatch("change of basis matrix is singular")
    if names is None:
        names = tuple(f"f{i}" for i in range(g.dim))
    return induced_algebra(g, cols, names)
