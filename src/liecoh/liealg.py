"""Finite-dimensional Lie algebras given by rational structure constants.

An algebra is stored as the coefficient vectors of ``[e_i, e_j]`` for
``i < j`` only; brackets for ``i >= j`` follow by antisymmetry, so that
half of the axioms holds by construction and only the Jacobi identity
needs checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .ratlin import (
    EchelonSpan,
    Matrix,
    echelon_basis,
    span_rank,
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
        pretty = ", ".join(str(x) for x in self.residual)
        super().__init__(
            f"Jacobi identity fails on basis triple ({i},{j},{k}); residual ({pretty})"
        )


class SubalgebraNotClosed(LieAlgebraError):
    pass


def _pair_index(i: int, j: int, dim: int) -> int:
    # position of (i, j), i < j, in lexicographic order of all such pairs
    return i * dim - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra over Q with basis names and an upper-triangular bracket table."""

    dim: int
    basis_names: tuple[str, ...]
    table: tuple[tuple[Fraction, ...], ...]  # [e_i, e_j] for i < j, lexicographic

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        if i == j:
            return (_ZERO,) * self.dim
        if i < j:
            return self.table[_pair_index(i, j, self.dim)]
        return tuple(-x for x in self.table[_pair_index(j, i, self.dim)])

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        x = vector(x)
        y = vector(y)
        out = [_ZERO] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b or i == j:
                    continue
                c = a * b
                for k, t in enumerate(self.bracket_basis(i, j)):
                    if t:
                        out[k] += c * t
        return tuple(out)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of Y -> [x, Y] in the defining basis."""
        x = vector(x)
        cols = []
        for j in range(self.dim):
            col = [_ZERO] * self.dim
            for i, a in enumerate(x):
                if a:
                    for k, t in enumerate(self.bracket_basis(i, j)):
                        if t:
                            col[k] += a * t
            cols.append(col)
        return Matrix.from_columns(cols, rows=self.dim)

    def name_of(self, i: int) -> str:
        return self.basis_names[i]


def validate(dim: int, names: Sequence[str], brackets: Mapping) -> LieAlgebra:
    """Build a LieAlgebra from ``{(i, j): coefficients}`` data, i < j.

    Missing pairs mean a zero bracket.  The Jacobi identity is verified on
    every index triple; the first failure is reported with its residual.
    """
    names = tuple(str(n) for n in names)
    if len(names) != dim:
        raise DimensionMismatch(f"{len(names)} basis names for dimension {dim}")
    npairs = dim * (dim - 1) // 2
    table = [(_ZERO,) * dim] * npairs
    for key, coeffs in brackets.items():
        i, j = key
        if not (0 <= i < j < dim):
            raise DimensionMismatch(f"bracket key ({i},{j}) is not an ordered pair below {dim}")
        coeffs = vector(coeffs)
        if len(coeffs) != dim:
            raise DimensionMismatch(
                f"bracket ({i},{j}) has {len(coeffs)} coefficients, expected {dim}"
            )
        table[_pair_index(i, j, dim)] = coeffs
    g = LieAlgebra(dim, names, tuple(table))
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                s1 = g.bracket(unit(dim, i), g.bracket_basis(j, k))
                s2 = g.bracket(unit(dim, j), g.bracket_basis(k, i))
                s3 = g.bracket(unit(dim, k), g.bracket_basis(i, j))
                residual = tuple(a + b + c for a, b, c in zip(s1, s2, s3))
                if any(residual):
                    raise JacobiViolation(i, j, k, residual)
    return g


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
    for v in vecs:
        if len(v) != ambient.dim:
            raise DimensionMismatch("subalgebra vector has wrong length")
    basis = echelon_basis(vecs)
    if len(basis) != len(vecs):
        raise SubalgebraNotClosed("candidate vectors are linearly dependent")
    span = EchelonSpan(ambient.dim)
    for v in basis:
        span.add(v)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            w = ambient.bracket(basis[a], basis[b])
            if not span.contains(w):
                raise SubalgebraNotClosed(
                    f"bracket of subalgebra vectors {a} and {b} leaves the span"
                )
    return Subalgebra(ambient, tuple(basis))


def trivial_subalgebra(ambient: LieAlgebra) -> Subalgebra:
    return Subalgebra(ambient, ())


@lru_cache(maxsize=None)
def killing_form(g: LieAlgebra) -> Matrix:
    """Symmetric matrix B(e_i, e_j) = trace(ad(e_i) ad(e_j))."""
    ads = [g.ad_matrix(unit(g.dim, i)) for i in range(g.dim)]
    ent = [[_ZERO] * g.dim for _ in range(g.dim)]
    for i in range(g.dim):
        for j in range(i, g.dim):
            prod = ads[i] * ads[j]
            t = sum((prod.row(r)[r] for r in range(g.dim)), _ZERO)
            ent[i][j] = t
            ent[j][i] = t
    return Matrix(g.dim, g.dim, ent)


def killing_determinant(g: LieAlgebra) -> Fraction:
    """Determinant of the Killing matrix (exact, via fraction-free expansion)."""
    m = killing_form(g)
    return _det([list(m.row(i)) for i in range(m.rows)])


def _det(a: list[list[Fraction]]) -> Fraction:
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = None
        for r in range(c, n):
            if a[r][c]:
                p = r
                break
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


@dataclass(frozen=True)
class StructureReport:
    is_semisimple: bool
    center: Subalgebra
    derived: Subalgebra
    is_reductive: bool


def center_of(g: LieAlgebra) -> Subalgebra:
    """Kernel of X -> ad(X), as a canonical echelon basis."""
    rows = []
    for j in range(g.dim):
        for k in range(g.dim):
            # row of the linear map x |-> (ad(x) e_j)_k
            rows.append(tuple(g.bracket_basis(i, j)[k] for i in range(g.dim)))
    ker = Matrix.from_rows(rows).kernel_basis() if rows else []
    return Subalgebra(g, tuple(echelon_basis(ker)))


def derived_subalgebra(g: LieAlgebra) -> Subalgebra:
    vecs = [g.bracket_basis(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
    return Subalgebra(g, tuple(echelon_basis([v for v in vecs if any(v)])))


def induced_algebra(g: LieAlgebra, basis: Sequence[Sequence], prefix: str = "d") -> LieAlgebra:
    """Re-express the brackets of a closed subspace in its own basis."""
    basis = [vector(v) for v in basis]
    n = len(basis)
    if n == 0:
        return LieAlgebra(0, (), ())
    bmat = Matrix.from_columns(basis, rows=g.dim)
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = g.bracket(basis[a], basis[b])
            coeffs = solve_columns(bmat, Matrix.from_columns([w], rows=g.dim))
            if coeffs is None:
                raise SubalgebraNotClosed("subspace is not closed under the bracket")
            brackets[(a, b)] = coeffs.column(0)
    return validate(n, tuple(f"{prefix}{i}" for i in range(n)), brackets)


@lru_cache(maxsize=None)
def structure_report(g: LieAlgebra) -> StructureReport:
    """Semisimplicity (Cartan criterion), center, derived subalgebra, reductivity."""
    semisimple = killing_form(g).rank() == g.dim
    center = center_of(g)
    derived = derived_subalgebra(g)
    direct_sum = (
        center.dim + derived.dim == g.dim
        and span_rank(list(center.vectors) + list(derived.vectors)) == g.dim
    )
    reductive = False
    if direct_sum:
        derived_alg = induced_algebra(g, derived.vectors)
        reductive = killing_form(derived_alg).rank() == derived_alg.dim
    return StructureReport(semisimple, center, derived, reductive)


def change_of_basis(g: LieAlgebra, columns: Sequence[Sequence], names=None) -> LieAlgebra:
    """The same algebra expressed in the basis f_j = sum_i columns[j][i] e_i."""
    cols = [vector(c) for c in columns]
    if len(cols) != g.dim:
        raise DimensionMismatch("change of basis needs dim many vectors")
    p = Matrix.from_columns(cols, rows=g.dim)
    if p.rank() != g.dim:
        raise DimensionMismatch("change of basis matrix is singular")
    if names is None:
        names = tuple(f"f{i}" for i in range(g.dim))
    brackets = {}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            w = g.bracket(cols[a], cols[b])
            coeffs = solve_columns(p, Matrix.from_columns([w], rows=g.dim))
            brackets[(a, b)] = coeffs.column(0)
    return validate(g.dim, names, brackets)
