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
* The left wedge with a 1-form, degree k -> k+1, is the transpose of
  ``i_X`` on degree k+1, X having the coordinates of the 1-form.

The relative basis (``relative_basis``) is the canonical RREF basis, as a
Matrix, of the forms killed by every ``i_X`` and ``L_X`` with X in the
subalgebra h; ``relative_subspace`` is its dense public view, which the
library does not read.  It is computed on the quotient g/h, never on the
full level: the forms killed by every ``i_X`` are wedges beta_T of the
annihilator covectors of h, and ``L_X`` on them is the Lie derivative of
g/h, so the only kernel taken is on C(n - dim h, k) * vdim coordinates.
The differential of relative forms (``quotient_differential``) is the core
of ``differential_matrix`` run on the same coordinates, which a relative
form's entries at the all-free tuples give (``beta_coordinates``).

The absolute complex is graded by weight when the basis has a Cartan
part: basis vectors e_h whose bracket matrix and module action are both
diagonal (``weight_grading``).  A cell (T, m) has the weight
mu_m - sum_{t in T} alpha_t, its eigenvalue under L_{e_h}; by the module
axiom delta keeps weights, so it is block-diagonal.
``graded_differential`` is the core run on the weight-zero cells only,
which a walk over T with a running weight lists in the order of the full
level (``weight_zero_cells``).  The grading is used only when some
alpha_a is nonzero and the module axiom holds, checked once per module;
without the axiom delta need not keep weights.

Every operator is assembled as integer rows over one common denominator
(:class:`~liecoh.ratlin.Matrix`): the structure constants, the module
actions and the coordinates of X are put over it once per call, so the
assembly and the identity checks on its output build no Fraction.

Caching: ``tuple_basis``/``_tuple_index``, ``_pairs_by_target``, the
differential, the graded differential and its cells, the degree -1 map,
the relative bases and their dense views are cached per level, the
weights once per module and the data of g/h (the annihilator as the
``kernel`` Matrix) once per pair; the small quotient differential is
rebuilt on each call, which costs less than the memory to keep it.
``i_X`` and ``L_X`` are built from the coordinates of X on each call, in
one pass over the level; ``suite._Operators`` memoises them for one
identity sweep.  Relative work builds neither, nor the full-level
differential, which only ``relative_closure_holds`` reads as an
independent check; graded absolute work builds no full-level operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from typing import Sequence

from . import gmod
from .liealg import DimensionMismatch, LieAlgebra, Subalgebra
from .ratlin import Matrix, _linear_combination, _rref, _scaled, vector

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


def _rank(dim: int, t: tuple[int, ...]) -> int:
    """Position of t in tuple_basis(dim, len(t)), without listing the tuples."""
    # comb(dim - 1 - a, k - i) tuples after t first differ from it at t[i] = a
    k = len(t)
    rank = comb(dim, k) - 1
    for a in t:
        rank -= comb(dim - 1 - a, k)
        k -= 1
    return rank


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
        return comb(self.algebra.dim, self.degree) * self.vdim if self.degree >= 0 else 0

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
            for c, coef in bmat.int_rows[b].items():
                out[c].append(((a, b), Fraction(coef, bmat.den)))
    return tuple(tuple(row) for row in out)


@lru_cache(maxsize=None)
def differential_matrix(level: CochainLevel) -> Matrix:
    """Exact matrix of the degree-raising differential on this level."""
    g, mod = level.algebra, level.module
    return _differential_core(g.dim, level.degree, mod.vdim, _pairs_by_target(g), mod.actions)


def _differential_core(
    dim: int, k: int, vdim: int, by_target: Sequence, actions: Sequence[Matrix], cells=None
) -> Matrix:
    """delta on the k-cochains of a dim-dimensional space, with vdim-dimensional values.

    by_target[c] lists the pairs ((a, b), coef), a < b, whose bracket has
    e_c-coefficient coef; actions[a] is the action of e_a on the values.
    Both are put over one common denominator once, and the matrix is
    assembled from integers.  cells, when given, is (sources, targets): the
    columns are the cells (s, m) for each (s, ms) of sources and m in ms, in
    that order, and the row of a (k+1)-cell (t, m) is targets[t] * vdim + m.
    By default the cells are every cell of both levels, in the flat order.
    """
    if cells is None:
        cells = ((s, range(vdim)) for s in tuple_basis(dim, k)), _tuple_index(dim, k + 1)
    sources, out_index = cells
    out: list[dict] = [{} for _ in range(len(out_index) * vdim)]
    den = lcm(*(c.denominator for row in by_target for _, c in row), *(a.den for a in actions))
    by_target = [[(p, c.numerator * (den // c.denominator)) for p, c in row] for row in by_target]
    # action_cols[a][m] = {mm: den * coefficient}: the column action_a e_m
    action_cols = [[_scaled(c, den // a.den) for c in a.transpose().int_rows] for a in actions]
    trivial = all(m.is_zero() for m in actions)
    col = 0
    for s, ms in sources:
        # module-action sum: T = s with one extra index a, removed at
        # 1-based position i, contributing (-1)^(i+1) action_a e_m; a t
        # outside targets has no cell that a source cell reaches
        inserts = []
        if not trivial:
            for a in range(dim):
                if a not in s:
                    pos, t = _insert(s, a)
                    if t in out_index:
                        # (-1)^(i+1), i = pos+1
                        inserts.append((action_cols[a], out_index[t] * vdim, pos % 2 == 0))
        # bracket sum: the bracket of the pair must reproduce one index of s;
        # (row of t without m, value), the same for every m
        terms = []
        for q, sq in enumerate(s):
            rest = s[:q] + s[q + 1 :]
            rest_set = set(rest)
            for (a, b), coef in by_target[sq]:
                if a in rest_set or b in rest_set:
                    continue
                _, t1 = _insert(rest, a)
                _, t = _insert(t1, b)
                # 1-based positions of a and b inside t
                i = t.index(a) + 1
                j = t.index(b) + 1
                # (-1)^(i+j), times (-1)^q for sorting (sq, rest) into s
                terms.append((out_index[t] * vdim, coef if (i + j + q) % 2 == 0 else -coef))
        for m in ms:
            for column, base, even in inserts:
                for mm, v in column[m].items():
                    _accumulate(out[base + mm], col, v if even else -v)
            for row, v in terms:
                _accumulate(out[row + m], col, v)
            col += 1
    return Matrix._from_ints(len(out), col, out, den)


@lru_cache(maxsize=None)
def weight_grading(module: gmod.GModule) -> tuple | None:
    """(weights of the basis indices, weights of the module basis), or None.

    The Cartan part H is the basis vectors e_h whose bracket matrix and
    module action are both diagonal: alpha_a(h) is the e_a-coefficient of
    [e_h, e_a], mu_m(h) the e_m-coefficient of e_h . e_m.  The weights are
    packed into integers, one balanced digit per h after clearing its
    denominators, with digits wide enough that every sum and difference met
    below compares equal exactly when the weight vectors do.  None, for the
    full level, when H is empty, every alpha_a is zero, or the module axiom
    fails.
    """
    g = module.algebra
    cartan = [
        h for h in range(g.dim) if _is_diagonal(g.brackets[h]) and _is_diagonal(module.actions[h])
    ]
    alphas = [[_diagonal_entry(g.brackets[h], a) for h in cartan] for a in range(g.dim)]
    if not any(map(any, alphas)):
        return None
    if not module.axiom_holds:
        try:
            gmod.check_module_axiom(module)
        except gmod.ModuleAxiomViolation:
            return None
    mus = [[_diagonal_entry(module.actions[h], m) for h in cartan] for m in range(module.vdim)]
    weights, module_weights = [0] * g.dim, [0] * module.vdim
    radix = 1
    for i in range(len(cartan)):
        den = lcm(*(w[i].denominator for w in alphas + mus))
        alpha = [int(w[i] * den) for w in alphas]
        mu = [int(w[i] * den) for w in mus]
        for a, x in enumerate(alpha):
            weights[a] += x * radix
        for m, x in enumerate(mu):
            module_weights[m] += x * radix
        # |a sum of alphas minus a mu| <= width in this digit
        width = sum(map(abs, alpha)) + max(map(abs, mu), default=0)
        radix *= 2 * width + 1
    return tuple(weights), tuple(module_weights)


def _is_diagonal(m: Matrix) -> bool:
    return all(r.keys() <= {i} for i, r in enumerate(m.int_rows))


def _diagonal_entry(m: Matrix, i: int) -> Fraction:
    return Fraction(m.int_rows[i].get(i, 0), m.den)


@lru_cache(maxsize=None)
def weight_zero_cells(level: CochainLevel) -> tuple:
    """The cells (T, m) of weight zero, sum over t in T of alpha_t = mu_m, grouped by T.

    Each group is (T, the module indices m), in the flat order of the full
    level.  A lexicographic walk over T keeps the running weight of its
    prefix and descends only where the remaining indices can still reach a
    module weight, so the work grows with the cells listed, not with the
    level.  Needs ``weight_grading(level.module)``.
    """
    weights, module_weights = weight_grading(level.module)
    dim, k = len(weights), level.degree
    if not 0 <= k <= dim:
        return ()
    by_weight: dict = {}
    for m, w in enumerate(module_weights):
        by_weight.setdefault(w, []).append(m)
    # need[i][r]: the prefix weights that r indices from i.. can complete to a module weight
    need = [[set(by_weight)] + [set() for _ in range(k)] for _ in range(dim + 1)]
    for i in range(dim - 1, -1, -1):
        for r in range(1, k + 1):
            need[i][r] = need[i + 1][r] | {w - weights[i] for w in need[i + 1][r - 1]}
    out = []

    def walk(start: int, prefix: tuple, weight: int, r: int) -> None:
        if not r:
            out.append((prefix, tuple(by_weight[weight])))
            return
        for a in range(start, dim - r + 1):
            if weight + weights[a] in need[a + 1][r - 1]:
                walk(a + 1, prefix + (a,), weight + weights[a], r - 1)

    if 0 in need[0][k]:
        walk(0, (), 0, k)
    return tuple(out)


@lru_cache(maxsize=None)
def graded_differential(level: CochainLevel) -> Matrix:
    """delta from the weight-zero cells of this level to those of the next.

    Columns and rows are the cells of ``weight_zero_cells``, in order.  The
    core runs on those source cells only; by the module axiom delta keeps
    weights, so every cell it reaches has weight zero.
    """
    g, vdim, actions = level.algebra, level.vdim, level.module.actions
    targets = weight_zero_cells(level.shifted(1))
    cells = weight_zero_cells(level), {t: j for j, (t, _) in enumerate(targets)}
    core = _differential_core(g.dim, level.degree, vdim, _pairs_by_target(g), actions, cells)
    rows = ((core, j * vdim + m) for j, (_, ms) in enumerate(targets) for m in ms)
    return Matrix._stack(core.cols, rows)


def weight_zero_positions(level: CochainLevel) -> list[int]:
    """The flat index in the full level of each weight-zero cell, in order."""
    dim, vdim = level.algebra.dim, level.vdim
    return [_rank(dim, t) * vdim + m for t, ms in weight_zero_cells(level) for m in ms]


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
    den = lcm(*(a.denominator for a in x))
    x = [a.numerator * (den // a.denominator) for a in x]
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
    return Matrix._new(len(out), level.space_dim, out, den)


def lie_derivative_matrix(level: CochainLevel, x: Sequence) -> Matrix:
    """Matrix of L_X: degree k -> k, linear in X."""
    x = _coordinates(level, x)
    # row c of ad(-X) is {t: coef}, coef the c-coefficient of [e_t, X]
    replacements = level.algebra.ad_matrix([-a for a in x])
    return _lie_derivative_core(level.algebra.dim, level.degree, level.module, x, replacements)


def _lie_derivative_core(
    dim: int, k: int, module: gmod.GModule, x: Sequence, replacements: Matrix
) -> Matrix:
    """L_X on the k-cochains of a dim-dimensional space, with values in module.

    The module part is sum_i x_i action_i; in the bracket part, an argument
    e_c of the form is replaced by each e_t with coefficient
    replacements[c, t].  Both are put over one common denominator.
    """
    vdim = module.vdim
    tuples = tuple_basis(dim, k)
    out_index = _tuple_index(dim, k)
    out: list[dict] = [{} for _ in range(len(tuples) * vdim)]
    action = _linear_combination(zip(x, module.actions), vdim, vdim)
    den = lcm(action.den, replacements.den)
    # action_cols[m] = {mm: den * coefficient}: the column (sum_i x_i action_i) e_m
    action_cols = [_scaled(c, den // action.den) for c in action.transpose().int_rows]
    replacement_rows = [_scaled(r, den // replacements.den) for r in replacements.int_rows]
    for si, s in enumerate(tuples):
        # bracket part: s[q] replaced by each t, the same for every module index m
        terms = []
        for q, sq in enumerate(s):
            rest = s[:q] + s[q + 1 :]
            for t, coef in replacement_rows[sq].items():
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
    return Matrix._from_ints(len(out), len(out), out, den)


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
            out[out_index[rest] * dim + sq][si] = 1 if q % 2 == 0 else -1
    return Matrix._new(len(out), len(tuple_basis(dim, k)), out, 1)


def wedge_one_form_matrix(level: CochainLevel, covector: Sequence) -> Matrix:
    """Left wedge with the 1-form sum_i covector[i] e_i^*: degree k -> k+1.

    Both it and i_X one degree up put +-covector[a] at (s with a inserted, s).
    """
    return interior_product_matrix(level.shifted(1), covector).transpose()


@lru_cache(maxsize=None)
def _quotient(g: LieAlgebra, h: Subalgebra) -> tuple:
    """(annihilator, free, by_target, replacements): the data of g/h every relative level shares.

    Row c of ``annihilator`` is alpha_c, the c-th row of the kernel of the
    h.vectors matrix, and ``free`` maps the free column of alpha_c to c.
    The kernel basis is canonical, so alpha_c(e_f) = delta_cd for the free
    column f of alpha_d.  by_target[c] lists ((a, b), alpha_c([e_fa, e_fb]))
    for the free columns fa, fb of alpha_a, alpha_b, a < b; replacements[i]
    is the matrix with entry alpha_c([e_ft, X_i]) at (c, t), for the basis
    vectors X_i of h.
    """
    annihilator = Matrix(h.dim, g.dim, h.vectors).kernel()
    # the kernel puts f after every pivot alpha_f touches
    free = {max(a): c for c, a in enumerate(annihilator.int_rows)}
    columns = list(free)
    pairs = list(combinations(range(annihilator.rows), 2))
    brackets = Matrix._stack(g.dim, ((g.brackets[columns[a]], columns[b]) for a, b in pairs))
    # row c of the product is {pair index: alpha_c of the pair's bracket}
    images = annihilator * brackets.transpose()
    by_target = [
        [(pairs[p], Fraction(coef, images.den)) for p, coef in sorted(r.items())]
        for r in images.int_rows
    ]
    replacements = []
    for x in h.vectors:
        rows = annihilator * g.ad_matrix([-a for a in x])
        quotient_rows = [{free[t]: v for t, v in r.items() if t in free} for r in rows.int_rows]
        replacements.append(Matrix._from_ints(len(free), len(free), quotient_rows, rows.den))
    return annihilator, free, tuple(map(tuple, by_target)), tuple(replacements)


@lru_cache(maxsize=None)
def relative_basis(level: CochainLevel, h: Subalgebra) -> Matrix:
    """The canonical (RREF) basis of the forms killed by i_X and L_X, X in h.

    h must be bracket-closed, as every ``Subalgebra`` built by
    ``subalgebra``, ``center_of`` or ``derived_subalgebra`` is.  The work is
    done on the quotient g/h (``_quotient``):

    * The forms killed by every i_X are the horizontal ones, spanned by
      beta_T (x) e_m, where beta_T wedges the annihilator covectors
      alpha_c of h over an increasing tuple T of their indices c.
    * By [L_X, i_Y] = i_[X,Y], which needs only that h is closed and no
      module axiom, L_X keeps horizontal forms horizontal and acts on their
      beta coordinates as the Lie derivative of g/h: an argument e_c is
      replaced by e_t with coefficient alpha_c([e_t, X]), c and t free.
    * The kernel of these quotient operators, mapped back through the beta
      rows and re-echelonised, is the unique RREF basis of the joint kernel.
    """
    g, k, vdim = level.algebra, level.degree, level.vdim
    annihilator, free, _, lie = _quotient(g, h)
    quotient_tuples = tuple_basis(len(free), k)
    # the quotient L_X, one block per basis vector X of h
    blocks = [
        _lie_derivative_core(len(free), k, level.module, x, r) for x, r in zip(h.vectors, lie)
    ]
    n_rel = len(quotient_tuples) * vdim
    kernel = Matrix._stack(n_rel, ((b, i) for b in blocks for i in range(b.rows))).kernel()
    # the horizontal forms beta_T (x) e_m in the coordinates of the full level,
    # integer rows over den^k for the annihilator's den (no tuples when k < 0)
    beta_rows = []
    for t in quotient_tuples:
        beta = {(): 1}
        for c in reversed(t):
            beta = _wedge(annihilator.int_rows[c], beta)
        beta_rows += ({_rank(g.dim, s) * vdim + m: v for s, v in beta.items()} for m in range(vdim))
    betas = Matrix._from_ints(n_rel, level.space_dim, beta_rows, annihilator.den ** max(k, 0))
    return _rref((kernel * betas)._span())[1]


@lru_cache(maxsize=None)
def relative_subspace(level: CochainLevel, h: Subalgebra) -> tuple:
    """Dense view of :func:`relative_basis`: its rows as tuples of Fractions."""
    return relative_basis(level, h).entries


def beta_coordinates(level: CochainLevel, h: Subalgebra, forms: Matrix) -> Matrix:
    """The beta coordinates of horizontal forms, one row per row of the Matrix forms.

    beta_T is 1 at the all-free tuple of T and 0 at every other all-free
    tuple, so a horizontal form's beta_T coordinate is its entry there.
    """
    columns = list(_quotient(level.algebra, h)[1])
    dim, vdim = level.algebra.dim, level.vdim
    cols = [
        _rank(dim, tuple(columns[c] for c in t)) * vdim + m
        for t in tuple_basis(len(columns), level.degree)
        for m in range(vdim)
    ]
    rows = [{j: r[col] for j, col in enumerate(cols) if col in r} for r in forms.int_rows]
    return Matrix._new(forms.rows, len(cols), rows, forms.den)


def quotient_differential(level: CochainLevel, h: Subalgebra) -> Matrix:
    """delta on the beta coordinates of this level's relative forms, where delta f is relative.

    A relative form does not see h, so it reads [e_fa, e_fb] as
    sum_c alpha_c([e_fa, e_fb]) e_fc: the core runs on the brackets of g/h
    and the actions of the free basis vectors e_f.
    """
    _, free, by_target, _ = _quotient(level.algebra, h)
    actions = [level.module.actions[f] for f in free]
    return _differential_core(len(free), level.degree, level.vdim, by_target, actions)


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
    sub_k = relative_basis(level, h)
    if not sub_k.rows:
        return True
    # row i of the product is delta applied to the relative basis vector i
    images = sub_k * differential_matrix(level).transpose()
    target = relative_basis(level.shifted(1), h)._span()
    return all(target.contains(v) for v in images.int_rows if v)
