"""The (relative) cochain complex of a Lie algebra with module coefficients.

Conventions, fixed once and used by every operator here:

* A degree-k cochain space has the ordered basis ``(T, m)`` where ``T``
  runs over the strictly increasing k-tuples of basis indices in
  lexicographic order and ``m`` over the module basis; the flat index is
  ``index(T) * vdim + m``.
* Evaluating a basis form on an arbitrary tuple follows the determinant
  convention without a 1/k! factor: repeated indices give 0, otherwise the
  value is the sign of the permutation that sorts the tuple.
* The differential is
  ``(delta f)(X_1..X_{k+1}) = sum_i (-1)^{i+1} X_i . f(..X^_i..)
  + sum_{i<j} (-1)^{i+j} f([X_i,X_j], ..X^_i..X^_j..)``
  (1-based signs); with trivial coefficients the first sum drops and the
  operator is written ``d``.
* ``(L_X f)(X_1..X_k) = X . f(X_1..X_k) + sum_i f(X_1,..,[X_i, X],..,X_k)``
  and ``(i_X f)(X_1..X_{k-1}) = f(X, X_1..X_{k-1})``, giving the Cartan
  relation ``L_X = delta i_X + i_X delta``.
* The degree -1 map into coadjoint coefficients is
  ``(J w)(X_1..X_{k-1})(X) = w(X, X_1..X_{k-1})``.

Relative subspaces are spanning sets inside the full space: the forms
killed by every ``i_X`` and ``L_X`` with X in the subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import gmod
from .liealg import LieAlgebra, Subalgebra, unit
from .ratlin import Matrix, echelon_basis, span_rank, vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def tuple_basis(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing k-tuples in lexicographic order."""
    if k < 0 or k > dim:
        return ()
    return tuple(combinations(range(dim), k))


@lru_cache(maxsize=None)
def _tuple_index(dim: int, k: int) -> dict:
    return {t: i for i, t in enumerate(tuple_basis(dim, k))}


def sort_with_sign(t: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(sign, sorted tuple); sign 0 when an index repeats."""
    t = list(t)
    sign = 1
    for i in range(1, len(t)):
        j = i
        while j > 0 and t[j - 1] > t[j]:
            t[j - 1], t[j] = t[j], t[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and t[j - 1] == t[j]:
            return 0, ()
    return sign, tuple(t)


def _insert(t: tuple[int, ...], a: int) -> tuple[int, tuple[int, ...]]:
    """Insert a (not in t) into the increasing tuple t; (position, new tuple)."""
    pos = 0
    while pos < len(t) and t[pos] < a:
        pos += 1
    return pos, t[:pos] + (a,) + t[pos:]


@dataclass(frozen=True)
class CochainLevel:
    """The space of degree-k cochains of an algebra with module coefficients."""

    algebra: LieAlgebra
    module: gmod.GModule
    degree: int
    relative_basis: tuple | None = field(default=None, compare=False)

    @property
    def tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple_basis(self.algebra.dim, self.degree)

    @property
    def vdim(self) -> int:
        return self.module.vdim

    @property
    def space_dim(self) -> int:
        return len(self.tuples) * self.vdim

    def index(self, t: tuple[int, ...], m: int) -> int:
        return _tuple_index(self.algebra.dim, self.degree)[t] * self.vdim + m

    def shifted(self, dk: int) -> "CochainLevel":
        return CochainLevel(self.algebra, self.module, self.degree + dk)


@dataclass(frozen=True)
class Cochain:
    level: CochainLevel
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", vector(self.coords))
        if len(self.coords) != self.level.space_dim:
            raise ValueError("cochain coordinates have the wrong length")

    def evaluate(self, args: Sequence[int]) -> tuple[Fraction, ...]:
        """Value on an arbitrary index tuple, by antisymmetric extension."""
        if len(args) != self.level.degree:
            raise ValueError("wrong number of arguments")
        sign, t = sort_with_sign(args)
        if sign == 0:
            return (_ZERO,) * self.level.vdim
        base = _tuple_index(self.level.algebra.dim, self.level.degree)[t] * self.level.vdim
        return tuple(sign * c for c in self.coords[base : base + self.level.vdim])

    def is_zero(self) -> bool:
        return not any(self.coords)


def basis_cochain(level: CochainLevel, t: tuple[int, ...], m: int = 0) -> Cochain:
    coords = [_ZERO] * level.space_dim
    coords[level.index(t, m)] = _ONE
    return Cochain(level, tuple(coords))


@lru_cache(maxsize=None)
def _pairs_by_target(g: LieAlgebra):
    """For each basis index c: the pairs (a,b), a<b, with c-coefficient in [e_a,e_b]."""
    out: list[list] = [[] for _ in range(g.dim)]
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            for c, coef in enumerate(g.bracket_basis(a, b)):
                if coef:
                    out[c].append(((a, b), coef))
    return tuple(tuple(row) for row in out)


@lru_cache(maxsize=None)
def differential_matrix(level: CochainLevel) -> Matrix:
    """Exact matrix of the degree-raising differential on this level."""
    g, mod, k = level.algebra, level.module, level.degree
    dim, vdim = g.dim, mod.vdim
    out_tuples = tuple_basis(dim, k + 1)
    out_index = _tuple_index(dim, k + 1)
    out: list[dict] = [{} for _ in range(len(out_tuples) * vdim)]
    by_target = _pairs_by_target(g)
    # action_cols[a][m] = {mm: coefficient}: the column action_a e_m
    action_cols = [act.transpose().sparse_rows for act in mod.actions]
    trivial = all(m.is_zero() for m in mod.actions)
    for si, s in enumerate(level.tuples):
        s_set = set(s)
        for m in range(vdim):
            col = si * vdim + m
            # module-action sum: T = s with one extra index a, removed at
            # 1-based position i, contributing (-1)^(i+1) action_a e_m
            if not trivial:
                for a in range(dim):
                    if a in s_set:
                        continue
                    pos, t = _insert(s, a)
                    sgn = 1 if pos % 2 == 0 else -1  # (-1)^(i+1), i = pos+1
                    base = out_index[t] * vdim
                    for mm, v in action_cols[a][m].items():
                        _accumulate(out[base + mm], col, sgn * v)
            # bracket sum: the bracket of the pair must reproduce one index of s
            for q, sq in enumerate(s):
                rest = s[:q] + s[q + 1 :]
                eval_sign = 1 if q % 2 == 0 else -1  # sorting (sq, rest) into s
                rest_set = set(rest)
                for (a, b), coef in by_target[sq]:
                    if a in rest_set or b in rest_set:
                        continue
                    _, t1 = _insert(rest, a)
                    _, t = _insert(t1, b)
                    # 1-based positions of a and b inside t
                    i = t.index(a) + 1
                    j = t.index(b) + 1
                    sgn = 1 if (i + j) % 2 == 0 else -1
                    _accumulate(out[out_index[t] * vdim + m], col, sgn * eval_sign * coef)
    return Matrix._raw(len(out), level.space_dim, out)


def _accumulate(row: dict, col: int, v) -> None:
    row[col] = row[col] + v if col in row else v


def _interior_basis_matrix(level: CochainLevel, x: int) -> Matrix:
    # the interior product is pure combinatorics: independent of brackets
    # and of the module action, so cache on (dim, degree, vdim) only
    return _interior_basis_core(level.algebra.dim, level.degree, level.vdim, x)


@lru_cache(maxsize=None)
def _interior_basis_core(dim: int, k: int, vdim: int, x: int) -> Matrix:
    out_index = _tuple_index(dim, k - 1)
    out: list[dict] = [{} for _ in range(len(tuple_basis(dim, k - 1)) * vdim)]
    for si, s in enumerate(tuple_basis(dim, k)):
        if x in s:
            q = s.index(x)
            rest = s[:q] + s[q + 1 :]
            sgn = _ONE if q % 2 == 0 else -_ONE
            for m in range(vdim):
                out[out_index[rest] * vdim + m][si * vdim + m] = sgn
    return Matrix._raw(len(out), len(tuple_basis(dim, k)) * vdim, out)


@lru_cache(maxsize=None)
def _lie_basis_matrix(level: CochainLevel, x: int) -> Matrix:
    """L_{e_x} on this level (degree-preserving)."""
    g, mod, k = level.algebra, level.module, level.degree
    dim, vdim = g.dim, mod.vdim
    out_index = _tuple_index(dim, k)
    out: list[dict] = [{} for _ in range(level.space_dim)]
    # replacements[c] = [(t, coef)] with coef the c-coefficient of [e_t, e_x]
    replacements: list[list] = [[] for _ in range(dim)]
    for t in range(dim):
        for c, coef in enumerate(g.bracket_basis(t, x)):
            if coef:
                replacements[c].append((t, coef))
    # action_cols[m] = {mm: coefficient}: the column action_x e_m
    action_cols = mod.actions[x].transpose().sparse_rows
    for si, s in enumerate(level.tuples):
        base = out_index[s] * vdim
        for m in range(vdim):
            col = si * vdim + m
            for mm, v in action_cols[m].items():
                out[base + mm][col] = v
            for q, sq in enumerate(s):
                rest = s[:q] + s[q + 1 :]
                for t, coef in replacements[sq]:
                    sign, tt = sort_with_sign(rest[:q] + (t,) + rest[q:])
                    if sign == 0:
                        continue
                    _accumulate(out[out_index[tt] * vdim + m], col, sign * coef)
    return Matrix._raw(len(out), level.space_dim, out)


def _combine_basis_matrices(parts: list, nrows: int, ncols: int) -> Matrix:
    """Sparse linear combination sum_i a_i M_i of same-shape matrices."""
    out: list[dict] = [{} for _ in range(nrows)]
    for a, m in parts:
        for acc, row in zip(out, m.sparse_rows):
            for c, v in row.items():
                _accumulate(acc, c, a * v)
    return Matrix._raw(nrows, ncols, out)


def interior_product_matrix(level: CochainLevel, x: Sequence) -> Matrix:
    """Matrix of i_X: degree k -> k-1, linear in X."""
    x = vector(x)
    nrows = len(tuple_basis(level.algebra.dim, level.degree - 1)) * level.vdim
    parts = [(a, _interior_basis_matrix(level, i)) for i, a in enumerate(x) if a]
    if not parts:
        return Matrix.zero(nrows, level.space_dim)
    return _combine_basis_matrices(parts, nrows, level.space_dim)


def lie_derivative_matrix(level: CochainLevel, x: Sequence) -> Matrix:
    """Matrix of L_X: degree k -> k, linear in X."""
    x = vector(x)
    parts = [(a, _lie_basis_matrix(level, i)) for i, a in enumerate(x) if a]
    if not parts:
        return Matrix.zero(level.space_dim, level.space_dim)
    return _combine_basis_matrices(parts, level.space_dim, level.space_dim)


def j_map_matrix(g: LieAlgebra, k: int) -> Matrix:
    """Degree -1 map from scalar k-forms to coadjoint-valued (k-1)-forms.

    Column (S); row ((T, x)) carries w(x, T) for the basis form w = S.
    """
    if not (1 <= k <= g.dim):
        raise ValueError(f"degree {k} out of range for the degree-lowering map")
    return _j_map_core(g.dim, k)


@lru_cache(maxsize=None)
def _j_map_core(dim: int, k: int) -> Matrix:
    out_index = _tuple_index(dim, k - 1)
    out: list[dict] = [{} for _ in range(len(tuple_basis(dim, k - 1)) * dim)]
    for si, s in enumerate(tuple_basis(dim, k)):
        for q, sq in enumerate(s):
            rest = s[:q] + s[q + 1 :]
            out[out_index[rest] * dim + sq][si] = _ONE if q % 2 == 0 else -_ONE
    return Matrix._raw(len(out), len(tuple_basis(dim, k)), out)


def wedge_one_form_matrix(level: CochainLevel, covector: Sequence) -> Matrix:
    """Left wedge with the 1-form sum_i covector[i] e_i^*: degree k -> k+1."""
    g, vdim = level.algebra, level.vdim
    covector = vector(covector)
    out_index = _tuple_index(g.dim, level.degree + 1)
    out: list[dict] = [{} for _ in range(len(tuple_basis(g.dim, level.degree + 1)) * vdim)]
    for si, s in enumerate(level.tuples):
        for a, ca in enumerate(covector):
            if not ca or a in s:
                continue
            pos, t = _insert(s, a)
            sgn = ca if pos % 2 == 0 else -ca  # (-1)^(l+1), l = pos+1
            for m in range(vdim):
                out[out_index[t] * vdim + m][si * vdim + m] = sgn
    return Matrix._raw(len(out), level.space_dim, out)


@lru_cache(maxsize=None)
def relative_subspace(level: CochainLevel, h: Subalgebra) -> tuple:
    """Canonical echelon basis of the forms killed by i_X and L_X, X in h.

    One kernel of all the operators stacked, re-echelonised so the output
    is the unique RREF basis of the joint kernel.
    """
    n = level.space_dim
    if h.dim == 0:
        return tuple(echelon_basis([unit(n, i) for i in range(n)]))
    ops = [
        op(level, w) for w in h.vectors for op in (interior_product_matrix, lie_derivative_matrix)
    ]
    return tuple(echelon_basis(Matrix.vstack(ops).kernel_basis()))


def relative_level(level: CochainLevel, h: Subalgebra) -> CochainLevel:
    return CochainLevel(
        level.algebra, level.module, level.degree, relative_subspace(level, h)
    )


def relative_closure_holds(level: CochainLevel, h: Subalgebra) -> bool:
    """True when the differential maps this relative subspace into the next one."""
    sub_k = relative_subspace(level, h)
    sub_next = relative_subspace(level.shifted(1), h)
    if not sub_k:
        return True
    delta = differential_matrix(level)
    images = [delta.apply(v) for v in sub_k]
    images = [v for v in images if any(v)]
    if not images:
        return True
    base = list(sub_next)  # already an echelon basis, so its rank is its length
    return span_rank(base + images) == len(base)
