"""Finite-dimensional Lie algebras given by rational structure constants.

An algebra stores its structure constants once, sparsely: one
:class:`~liecoh.ratlin.Matrix` per basis vector, ``brackets[i]`` with row
j equal to ``[e_i, e_j]``, that is ad(e_i) transposed.  :func:`validate`
parses dense data for ``i < j`` once into integer rows, and
:func:`induced_algebra` hands over those of its bracket solve; both fill in
``[e_j, e_i] = -[e_i, e_j]`` and check Jacobi on them (``_checked_algebra``).
Every reader takes the nonzero entries from the integer rows and their
common denominator: the brackets of a batch of elements, the rows of a
Matrix, are one ``ratlin._row_combinations`` call.  A :class:`Subalgebra`
stores its RREF basis as a Matrix (``basis``); ``vectors`` is a dense view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Mapping, Sequence

from .ratlin import (EchelonSpan, Matrix, _linear_combination, _row_combinations, _rref,
                     solve_columns, vector)

_ZERO = Fraction(0)


class LieAlgebraError(Exception):
    """The base of every refusal of input: the CLI reports each as a validation error."""


_BRIEF_LIMIT = 40


def _brief(value, show=repr) -> str:
    """show(value) for messages, at most 40 characters: a long one is cut and given its length."""
    text = show(value)
    if len(text) <= _BRIEF_LIMIT:
        return text
    suffix = f"… ({len(str(value))} characters)"
    return text[: _BRIEF_LIMIT - len(suffix)] + suffix


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


def _cached_hash(cls):
    """Class decorator for a frozen dataclass: its field hash, computed once per instance.

    The hash is kept in the instance's ``__dict__`` on first use, as
    :class:`~liecoh.ratlin.Matrix` keeps its own; equality is untouched.
    ``__getstate__`` leaves it out, so it never travels through pickle or
    copy: the fields may hold str, whose hash differs between processes.
    ``dataclasses.replace`` builds a new instance, which hashes afresh.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# Largest algebra dimension accepted, far above every catalog entry (the
# largest fixed one has dim 7); cochain levels exceed gmod.MAX_LEVEL_DIM
# from dim 18 on, and it keeps the O(dim^3) work of `check` bounded.
MAX_DIM = 1 << 8


@_cached_hash
@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra over Q with basis names and one sparse bracket matrix per basis vector.

    Row j of ``brackets[i]`` is ``[e_i, e_j]``; equality and hashing cover
    the basis names and the nonzero structure constants, through the
    matrices' cached hash, and the hash is cached too (``_cached_hash``).
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
        shown = _brief(dim, str)
        raise AlgebraTooLarge(f"{where} has dimension {shown}, over the limit of {MAX_DIM}")


def validate(dim: int, names: Sequence[str], brackets: Mapping) -> LieAlgebra:
    """Build a LieAlgebra from ``{(i, j): coefficients}`` data, i < j.

    Missing pairs and zero coefficients mean a zero bracket.  The dense
    coefficients are parsed here, once, into integer rows; the Jacobi
    identity is checked on them (``_checked_algebra``), and its first
    failure raises JacobiViolation with the residual.
    """
    check_dim(dim, "the algebra")
    names = _basis_names(dim, names)
    rows = []
    for (i, j), coeffs in brackets.items():
        if not (0 <= i < j < dim):
            raise DimensionMismatch(f"bracket key ({i},{j}) is not an ordered pair below {dim}")
        coeffs = vector(coeffs)
        if len(coeffs) != dim:
            raise DimensionMismatch(
                f"bracket ({i},{j}) has {len(coeffs)} coefficients, expected {dim}"
            )
        rows.append(dict(enumerate(coeffs)))
    return _checked_algebra(dim, names, list(brackets), Matrix._raw(len(rows), dim, rows))


def _basis_names(dim: int, names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(str(n) for n in names)
    if len(names) != dim:
        raise DimensionMismatch(f"{len(names)} basis names for dimension {dim}")
    return names


def _checked_algebra(dim: int, names: tuple, pairs: Sequence, stacked: Matrix) -> LieAlgebra:
    """The LieAlgebra with [e_i, e_j] = row p of stacked for the p-th (i, j) of pairs, i < j.

    Other brackets of basis vectors are zero; only nonzero structure
    constants are stored, in both orders.  The Jacobi identity is verified
    on every triple i < j < k where one of [e_j, e_k], [e_k, e_i], [e_i, e_j]
    is nonzero, in lexicographic order, from the integer rows; on every
    other triple each term is a bracket with zero.  The first failure is
    reported with its residual.
    """
    # rows[i][j]: the integer row of [e_i, e_j] over den, so rows[i] keys e_i's bracket partners
    rows: list[dict[int, dict]] = [{} for _ in range(dim)]
    for (i, j), r in zip(pairs, stacked.int_rows):
        if r:
            rows[i][j], rows[j][i] = r, {c: -v for c, v in r.items()}
    den = stacked.den
    table = [[r.get(j, {}) for j in range(dim)] for r in rows]
    g = LieAlgebra(dim, names, tuple(Matrix._new(dim, dim, t, den) for t in table))
    for i in range(dim):
        ti = table[i]
        for j in range(i + 1, dim):
            tj, ij = table[j], ti[j]
            if ij:
                ks = range(j + 1, dim)
            elif rows[i] or rows[j]:
                ks = sorted(k for k in rows[i].keys() | rows[j].keys() if k > j)
            else:
                continue
            for k in ks:
                # [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]], times den^2
                tk, acc = table[k], {}
                for m, c in tj[k].items():
                    for t, d in ti[m].items():
                        acc[t] = acc[t] + c * d if t in acc else c * d
                for m, c in tk[i].items():
                    for t, d in tj[m].items():
                        acc[t] = acc[t] + c * d if t in acc else c * d
                for m, c in ij.items():
                    for t, d in tk[m].items():
                        acc[t] = acc[t] + c * d if t in acc else c * d
                if any(acc.values()):
                    residual = {t: v for t, v in acc.items() if v}
                    raise JacobiViolation(i, j, k, Matrix._new(1, dim, [residual], den**2).row(0))
    return g


def unit(dim: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1) if j == i else _ZERO for j in range(dim))


@_cached_hash
@dataclass(frozen=True)
class Subalgebra:
    """A bracket-closed subspace, stored as ``basis``, its RREF Matrix, one row per basis vector.

    The RREF is unique, so equal subspaces are equal and hash equal whatever
    spanned them; ``vectors`` is the dense Fraction view of the rows, built on each read.
    """

    ambient: LieAlgebra
    basis: Matrix

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.basis.entries


def subalgebra(ambient: LieAlgebra, vectors: Sequence[Sequence]) -> Subalgebra:
    """Validate a subalgebra candidate: independent and closed under bracket."""
    vecs = [vector(v) for v in vectors]
    if any(len(v) != ambient.dim for v in vecs):
        raise DimensionMismatch("subalgebra vector has wrong length")
    span = EchelonSpan(ambient.dim)
    if not all(span.add(r) for r in Matrix(len(vecs), ambient.dim, vecs).int_rows):
        raise SubalgebraNotClosed("candidate vectors are linearly dependent")
    basis = _rref(span)[1]
    pairs, brackets = _pair_brackets(ambient, basis)
    for (a, b), w in zip(pairs, brackets.int_rows):
        if not span.contains(w):
            raise SubalgebraNotClosed(f"bracket of subalgebra vectors {a} and {b} leaves the span")
    return Subalgebra(ambient, basis)


def _pair_brackets(g: LieAlgebra, basis: Matrix) -> tuple[list, Matrix]:
    """The pairs a < b of basis rows, in order, and their brackets, one Matrix row per pair."""
    pairs = list(combinations(range(basis.rows), 2))
    # row b of basis times sum_i basis[a]_i brackets[i] is [basis[a], basis[b]], in integer rows
    images = [basis * m for m in _row_combinations(basis, g.brackets, g.dim, g.dim)[:-1]]
    return pairs, Matrix._stack(g.dim, ((images[a], b) for a, b in pairs))


@lru_cache(maxsize=None)
def killing_form(g: LieAlgebra) -> Matrix:
    """Symmetric matrix B(e_i, e_j) = trace(ad(e_i) ad(e_j)).

    ad(e_i) is brackets[i] transposed, and trace(A^T B^T) = trace(B A), so
    each entry is trace(brackets[i] brackets[j]), summed over the integer
    rows put over the square of the brackets' common denominator.
    """
    den = lcm(*(b.den for b in g.brackets))
    scales = [den // b.den for b in g.brackets]
    nonzero = [[(r, row) for r, row in enumerate(b.int_rows) if row] for b in g.brackets]
    ent: list[dict] = [{} for _ in range(g.dim)]
    for i in range(g.dim):
        for j in range(i, g.dim):
            # sum over r, s of brackets[i][r][s] brackets[j][s][r], from nonzeros only
            brows = g.brackets[j].int_rows
            t = sum(
                x * brows[s][r] for r, row in nonzero[i] for s, x in row.items() if r in brows[s]
            )
            ent[i][j] = ent[j][i] = t * scales[i] * scales[j]
    return Matrix._from_ints(g.dim, g.dim, ent, den * den)


def killing_determinant(g: LieAlgebra) -> Fraction:
    """Determinant of the Killing matrix (exact, by fraction-free elimination)."""
    m = killing_form(g)
    return _det(m.int_rows, m.den)


def _det(int_rows: Sequence[dict], den: int) -> Fraction:
    """det(A) for the square matrix A whose row i is int_rows[i] / den, {col: int} rows.

    det(A) = det(den A) / den^n, and det(den A) comes from Bareiss
    elimination on the integer matrix den A: every division below is exact,
    so the only Fraction built is the result.
    """
    n = len(int_rows)
    m = [[r.get(j, 0) for j in range(n)] for r in int_rows]
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
    return Fraction(sign * m[n - 1][n - 1], den**n) if n else Fraction(1)


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
    return Subalgebra(g, _rref(rows.kernel()._span())[1])


def derived_subalgebra(g: LieAlgebra) -> Subalgebra:
    rows = ((b, j) for i, b in enumerate(g.brackets) for j in range(i + 1, g.dim) if b.int_rows[j])
    return Subalgebra(g, _rref(Matrix._stack(g.dim, rows)._span())[1])


def induced_algebra(g: LieAlgebra, basis: Matrix, names: Sequence[str]) -> LieAlgebra:
    """Re-express the brackets of a closed subspace in its own basis, named ``names``.

    The rows of the Matrix basis are the basis vectors; one solve against
    them gives the coordinates of every bracket (``_pair_brackets``), one
    column per pair a < b, whose integer rows go to the Jacobi check as
    they are (``_checked_algebra``).
    """
    pairs, brackets = _pair_brackets(g, basis)
    coeffs = solve_columns(basis.transpose(), brackets.transpose())
    if coeffs is None:
        raise SubalgebraNotClosed("subspace is not closed under the bracket")
    names = _basis_names(basis.rows, names)
    return _checked_algebra(basis.rows, names, pairs, coeffs.transpose())


@lru_cache(maxsize=None)
def structure_report(g: LieAlgebra) -> StructureReport:
    """Semisimplicity (Cartan criterion), center, derived subalgebra, reductivity.

    Reductive: rad g = z(g), where rad g = [g, g]^⊥ for the Killing form, so one rank decides.
    """
    semisimple = killing_form(g).rank() == g.dim
    center = center_of(g)
    derived = derived_subalgebra(g)
    reductive = g.dim - (derived.basis * killing_form(g)).rank() == center.dim
    return StructureReport(semisimple, center, derived, reductive)


def change_of_basis(g: LieAlgebra, columns: Sequence[Sequence], names=None) -> LieAlgebra:
    """The same algebra expressed in the basis f_j = sum_i columns[j][i] e_i."""
    if len(columns) != g.dim:
        raise DimensionMismatch("change of basis needs dim many vectors")
    # one row per new basis vector f_j: the singularity check and the brackets read the same Matrix
    basis = Matrix(g.dim, g.dim, columns)
    if basis.rank() != g.dim:
        raise DimensionMismatch("change of basis matrix is singular")
    if names is None:
        names = tuple(f"f{i}" for i in range(g.dim))
    return induced_algebra(g, basis, names)
