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

A relative subspace is given by its canonical RREF basis inside the full
space: the forms killed by every ``i_X`` and ``L_X`` with X in the
subalgebra h.  It is computed on the quotient g/h, never on the full
level: the forms killed by every ``i_X`` are wedges of the annihilator
covectors of h, and ``L_X`` on them is the Lie derivative of g/h, so the
only kernel taken is on C(n - dim h, k) * vdim coordinates.

Caching: ``tuple_basis``/``_tuple_index``, ``_pairs_by_target``, the
differential, the degree -1 map and the relative subspaces are cached per
level.  ``i_X`` and ``L_X`` are built from the coordinates of X on each
call, in one pass over the level; ``suite._Operators`` memoises them for
one identity sweep.  ``relative_subspace`` builds neither: it assembles
only the quotient ``L_X``, through the same loop as ``L_X``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import gmod
from .liealg import DimensionMismatch, LieAlgebra, Subalgebra
from .ratlin import EchelonSpan, Matrix, _rref_rows, vector

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
    for a, bmat in enumerate(g.brackets):
        for b in range(a + 1, g.dim):
            for c, coef in bmat.sparse_rows[b].items():
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


def _coordinates(level: CochainLevel, x: Sequence) -> tuple[Fraction, ...]:
    """X as an exact vector, checked against the dimension of the algebra."""
    x = vector(x)
    if len(x) != level.algebra.dim:
        raise DimensionMismatch(
            f"vector has {len(x)} coordinates, the algebra has dimension {level.algebra.dim}"
        )
    return x


def interior_product_matrix(level: CochainLevel, x: Sequence) -> Matrix:
    """Matrix of i_X: degree k -> k-1, linear in X."""
    x = _coordinates(level, x)
    dim, vdim = level.algebra.dim, level.vdim
    out_index = _tuple_index(dim, level.degree - 1)
    out: list[dict] = [{} for _ in range(len(tuple_basis(dim, level.degree - 1)) * vdim)]
    for si, s in enumerate(level.tuples):
        for q, sq in enumerate(s):
            a = x[sq]
            if not a:
                continue
            # each position q removes a different index, so every entry is set once
            base = out_index[s[:q] + s[q + 1 :]] * vdim
            sgn = a if q % 2 == 0 else -a
            for m in range(vdim):
                out[base + m][si * vdim + m] = sgn
    return Matrix._raw(len(out), level.space_dim, out)


def lie_derivative_matrix(level: CochainLevel, x: Sequence) -> Matrix:
    """Matrix of L_X: degree k -> k, linear in X."""
    x = _coordinates(level, x)
    # row c of -ad(X) is {t: coef}, coef the c-coefficient of [e_t, X]
    replacements = (-level.algebra.ad_matrix(x)).sparse_rows
    return _lie_derivative_core(level.algebra.dim, level.degree, level.module, x, replacements)


def _lie_derivative_core(
    dim: int, k: int, module: gmod.GModule, x: Sequence, replacements: Sequence[dict]
) -> Matrix:
    """L_X on the k-cochains of a dim-dimensional space, with values in module.

    The module part is sum_i x_i action_i; in the bracket part, an argument
    e_c of the form is replaced by each e_t with coefficient replacements[c][t].
    """
    vdim = module.vdim
    tuples = tuple_basis(dim, k)
    out_index = _tuple_index(dim, k)
    out: list[dict] = [{} for _ in range(len(tuples) * vdim)]
    # action_cols[m] = {mm: coefficient}: the column (sum_i x_i action_i) e_m
    action = sum(
        (act.scale(a) for a, act in zip(x, module.actions) if a), Matrix.zero(vdim, vdim)
    )
    action_cols = action.transpose().sparse_rows
    for si, s in enumerate(tuples):
        # bracket part: s[q] replaced by each t, the same for every module index m
        terms = []
        for q, sq in enumerate(s):
            rest = s[:q] + s[q + 1 :]
            for t, coef in replacements[sq].items():
                sign, tt = sort_with_sign(rest[:q] + (t,) + rest[q:])
                if sign:
                    terms.append((out_index[tt] * vdim, sign * coef))
        base = si * vdim
        for m in range(vdim):
            col = base + m
            for mm, v in action_cols[m].items():
                out[base + mm][col] = v
            for row, v in terms:
                _accumulate(out[row + m], col, v)
    return Matrix._raw(len(out), len(out), out)


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
    covector = _coordinates(level, covector)
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

    h must be bracket-closed, as every ``Subalgebra`` built by
    ``subalgebra``, ``center_of`` or ``derived_subalgebra`` is.  The work is
    done on the quotient g/h:

    * The forms killed by every i_X are the horizontal ones, spanned by
      beta_T (x) e_m, where beta_T wedges the annihilator covectors
      alpha_f of h (the kernel rows of the h.vectors matrix, one per free
      column f) over an increasing tuple T of free columns.
    * By [L_X, i_Y] = i_[X,Y], which needs only that h is closed and no
      module axiom, L_X keeps horizontal forms horizontal and acts on their
      beta coordinates as the Lie derivative of g/h: an argument e_c is
      replaced by e_t with coefficient alpha_c([e_t, X]), c and t free.
    * The kernel of these quotient operators, mapped back through the beta
      rows and re-echelonised, is the unique RREF basis of the joint kernel.
    """
    g, k, vdim = level.algebra, level.degree, level.vdim
    # alpha_f for each free column f; kernel_rows puts f after every pivot alpha_f touches
    alphas = Matrix._raw(h.dim, g.dim, [dict(enumerate(v)) for v in h.vectors]).kernel_rows()
    free = {max(a): c for c, a in enumerate(alphas)}
    annihilator = Matrix._raw(len(alphas), g.dim, alphas)
    quotient_tuples = tuple_basis(len(alphas), k)
    quotient = []  # the quotient L_X, one block per basis vector X of h
    for x in h.vectors:
        # row c is {t: alpha_c([e_t, X])}; keep the free t, in quotient indices
        brackets = (annihilator * -g.ad_matrix(x)).sparse_rows
        replacements = [{free[t]: v for t, v in r.items() if t in free} for r in brackets]
        quotient += _lie_derivative_core(len(alphas), k, level.module, x, replacements).sparse_rows
    n_rel = len(quotient_tuples) * vdim
    kernel = Matrix._raw(len(quotient), n_rel, quotient).kernel_rows()
    # the horizontal forms beta_T (x) e_m, in the coordinates of the full level
    index = _tuple_index(g.dim, k)
    beta_rows = []
    for t in quotient_tuples:
        beta = {(): _ONE}
        for c in reversed(t):
            beta = _wedge(alphas[c], beta)
        beta_rows += ({index[s] * vdim + m: v for s, v in beta.items()} for m in range(vdim))
    forms = Matrix._raw(len(kernel), n_rel, kernel) * Matrix._raw(n_rel, level.space_dim, beta_rows)
    return _rref_rows(forms._span())


def _wedge(alpha: dict, form: dict) -> dict:
    """alpha ^ form for a 1-form {index: coef} and a form {increasing tuple: coef}."""
    out: dict = {}
    for s, c in form.items():
        for a, ca in alpha.items():
            if a not in s:
                pos, t = _insert(s, a)
                _accumulate(out, t, ca * c if pos % 2 == 0 else -ca * c)
    return out


def relative_closure_holds(level: CochainLevel, h: Subalgebra) -> bool:
    """True when the differential maps this relative subspace into the next one."""
    sub_k = relative_subspace(level, h)
    if not sub_k:
        return True
    # row i of the product is delta applied to the relative basis vector i
    images = Matrix.from_rows(sub_k) * differential_matrix(level).transpose()
    nxt = level.shifted(1)
    target = EchelonSpan(nxt.space_dim)
    for v in relative_subspace(nxt, h):
        target.add(v)
    return all(target.contains(v) for v in images.sparse_rows if v)
