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
* A :class:`Cochain` stores its row (a 1 x space_dim Matrix); ``coords``
  is a dense view.  ``CochainLevel.index`` and ``cell`` rank cells without listing a level.

The relative basis (``relative_basis``) is the canonical RREF basis, as a
Matrix, of the forms killed by every ``i_X`` and ``L_X`` with X in the
subalgebra h; ``relative_subspace`` is its dense public view, which the
library does not read.  It is computed on the quotient g/h, never on the
full level: the forms killed by every ``i_X`` are wedges beta_T of the
annihilator covectors of h, and ``L_X`` on them is the Lie derivative of
g/h, so the only kernel taken is on C(n - dim h, k) * vdim coordinates.
``reduction``, the one function that picks the cells a (g, V, h) complex
eliminates, takes the relative complex on the beta coordinates of the
relative basis, a relative form's entries at the all-free tuples, with the
core of ``differential_matrix`` run on g/h (``relative_differential``).

The absolute complex is graded by weight when the basis has a Cartan
part: basis vectors e_h whose bracket matrix and module action are both
diagonal (``weight_grading``).  A cell (T, m) has the weight
mu_m - sum_{t in T} alpha_t, its eigenvalue under L_{e_h}; by the module
axiom delta keeps weights, so it is block-diagonal.
``graded_differential``, the delta of ``reduction`` in that case, is the
core run on the weight-zero cells only, which a walk over T with a running
weight lists in the order of the full level (``weight_zero_cells``).  The
grading is used only when some alpha_a is nonzero and the module axiom
holds, checked once per module; without the axiom delta need not keep
weights.

Every operator is assembled as integer rows over one common denominator
(:class:`~liecoh.ratlin.Matrix`), and so is its input: the structure
constants are a Matrix whose row c holds the c-coefficients of the
brackets of the pairs a < b (``_pairs_by_target``, and the same form for
g/h), and a batch of X is a Matrix with one row per X.  Both are put over
the common denominator once per call, so the assembly and the identity
checks on its output build no Fraction.

Caching: ``tuple_basis``, the incidence tables ``_faces`` and
``_cofaces``, ``_pairs_by_target``, the full and graded differentials,
the forward pass of each reduced delta (``reduced_echelon``), the graded
cells, the relative bases and their dense views are cached per level,
and so are the kernel K of L_h and K delta_q^T, which the relative
basis, the ranks and the relative certificate of ``cohomology`` read.
The weights are cached once per module, the data of g/h once per pair
and the unit batch i_{e_0..e_(n-1)} on scalar forms once per (dim, k)
(``_unit_interior_products``); ``reduction`` and the relative delta
keep nothing.  A seed-1 relative-ext pass asks for 82 passes, 40
distinct (40 KiB), and builds 24 relative deltas (paper-suite: 68, 51
and 30 KiB; 6).  No tuple-to-index dict is kept: a tuple is placed by
``_rank``, and the full-level delta indexes its targets inline.
``_faces(dim, k)`` gives, for each k-tuple s and position q, s[q] and the
index of s without it; ``_cofaces(dim, k)``, derived from
``_faces(dim, k + 1)`` as its inverse, gives, for each k-tuple r, the
insert position and the index of r with a for every a not in r.  Only
the cores of i_X and L_X read these tables (an L_X bracket term is one
coface lookup with sign (-1)^(q+pos)); J stacks the unit batch of i_X.
``i_X`` and ``L_X`` are built on each call, for the rows X of a Matrix in
one pass (``_interior_products``, ``_lie_derivatives``); the public
``interior_product_matrix``, ``lie_derivative_matrix`` and
``wedge_one_form_matrix`` parse their X into a batch of one.
``suite._Operators`` memoises them for one identity sweep.  Relative work
builds neither, nor the full-level differential, which only
``relative_closure_holds`` reads as an independent check; graded absolute
work builds no full-level operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import comb, lcm
from typing import Sequence

from . import gmod
from .liealg import DimensionMismatch, LieAlgebra, Subalgebra, _cached_hash
from .ratlin import Matrix, _row_combinations, _rref, _scaled, vector

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def tuple_basis(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Strictly increasing k-tuples in lexicographic order."""
    if k < 0 or k > dim:
        return ()
    return tuple(combinations(range(dim), k))


def _rank(dim: int, t: tuple[int, ...]) -> int:
    """Position of t in tuple_basis(dim, len(t)), without listing the tuples."""
    # comb(dim - 1 - a, k - i) tuples after t first differ from it at t[i] = a
    k = len(t)
    rank = comb(dim, k) - 1
    for a in t:
        rank -= comb(dim - 1 - a, k)
        k -= 1
    return rank


def _unrank(dim: int, k: int, rank: int) -> tuple[int, ...]:
    """The tuple at position rank of tuple_basis(dim, k): the inverse of ``_rank``."""
    # comb(dim, k) - 1 - rank is the sum of comb(dim - 1 - t[i], k - i); take each t[i] greedily
    rest, u, t = comb(dim, k) - 1 - rank, dim, []
    for j in range(k, 0, -1):
        u = next(v for v in range(u - 1, -1, -1) if comb(v, j) <= rest)
        rest -= comb(u, j)
        t.append(dim - 1 - u)
    return tuple(t)


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


@_cached_hash
@dataclass(frozen=True)
class CochainLevel:
    """The space of degree-k cochains of an algebra with module coefficients.

    The hash is computed once per instance (``liealg._cached_hash``): levels
    key the operator caches.
    """

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
        dim, vdim = self.algebra.dim, self.vdim
        if not (isinstance(t, tuple) and len(t) == self.degree and 0 <= m < vdim
                and all(0 <= a < b for a, b in zip(t, t[1:] + (dim,)))):
            raise ValueError(f"({t!r}, {m!r}) is not a cell of the degree-{self.degree} level")
        return _rank(dim, t) * vdim + m

    def cell(self, j: int) -> tuple[tuple[int, ...], int]:
        if not 0 <= j < self.space_dim:
            raise ValueError(f"cell index {j} out of range 0..{self.space_dim - 1}")
        return _unrank(self.algebra.dim, self.degree, j // self.vdim), j % self.vdim

    def shifted(self, dk: int) -> "CochainLevel":
        return CochainLevel(self.algebra, self.module, self.degree + dk)


@dataclass(frozen=True)
class Cochain:
    """A cochain of a level, stored as ``row``, a 1 x space_dim Matrix over the flat cells.

    ``coords`` is the dense Fraction view of the row, built on each read.
    """

    level: CochainLevel
    row: Matrix

    def __post_init__(self):
        shape = (1, self.level.space_dim)
        if not isinstance(self.row, Matrix) or (self.row.rows, self.row.cols) != shape:
            raise ValueError(f"a cochain of this level is a 1x{shape[1]} Matrix row")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return self.row.row(0)

    def evaluate(self, args: Sequence[int]) -> tuple[Fraction, ...]:
        """Value on an arbitrary index tuple, by antisymmetric extension."""
        dim, vdim = self.level.algebra.dim, self.level.vdim
        if len(args) != self.level.degree:
            raise ValueError("wrong number of arguments")
        if any(not 0 <= a < dim for a in args):
            raise ValueError(f"argument indices must lie in 0..{dim - 1}, got {tuple(args)}")
        sign, t = sort_with_sign(args)
        if sign == 0:
            return (_ZERO,) * vdim
        base, r, den = _rank(dim, t) * vdim, self.row.int_rows[0], self.row.den
        return tuple(Fraction(sign * r.get(j, 0), den) for j in range(base, base + vdim))

    def is_zero(self) -> bool:
        return self.row.is_zero()


def basis_cochain(level: CochainLevel, t: tuple[int, ...], m: int = 0) -> Cochain:
    return Cochain(level, Matrix._new(1, level.space_dim, [{level.index(t, m): 1}], 1))


@lru_cache(maxsize=None)
def _pairs_by_target(g: LieAlgebra) -> Matrix:
    """The brackets of the pairs (a, b) of ``tuple_basis(dim, 2)``, one row each, transposed.

    Row c is {p: the e_c-coefficient of [e_a, e_b]} for the p-th pair (a, b).
    """
    pairs = tuple_basis(g.dim, 2)
    return Matrix._stack(g.dim, ((g.brackets[a], b) for a, b in pairs)).transpose()


@lru_cache(maxsize=None)
def differential_matrix(level: CochainLevel) -> Matrix:
    """Exact matrix of the degree-raising differential on this level."""
    g, mod = level.algebra, level.module
    return _differential_core(g.dim, level.degree, mod.vdim, _pairs_by_target(g), mod.actions)


def _differential_core(
    dim: int, k: int, vdim: int, by_target: Matrix, actions: Sequence[Matrix], cells=None
) -> Matrix:
    """delta on the k-cochains of a dim-dimensional space, with vdim-dimensional values.

    by_target holds the structure constants as ``_pairs_by_target`` does;
    actions[a] is the action of e_a on the values.
    Both are put over one common denominator once, and the matrix is
    assembled from integers.  cells, when given, is (sources, targets): the
    columns are the cells (s, m) for each (s, ms) of sources and m in ms, in
    that order, and the row of a (k+1)-cell (t, m) is targets[t] * vdim + m.
    By default the cells are every cell of both levels, in the flat order.
    """
    if cells is None:
        targets = {t: i for i, t in enumerate(tuple_basis(dim, k + 1))}
        cells = ((s, range(vdim)) for s in tuple_basis(dim, k)), targets
    sources, out_index = cells
    out: list[dict] = [{} for _ in range(len(out_index) * vdim)]
    den = lcm(by_target.den, *(a.den for a in actions))
    pairs, f = tuple_basis(dim, 2), den // by_target.den
    by_target = [[(pairs[p], f * v) for p, v in r.items()] for r in by_target.int_rows]
    trivial = all(m.is_zero() for m in actions)
    # action_cols[a][m] = {mm: den * coefficient}: the column action_a e_m
    action_cols = [] if trivial else [
        [_scaled(c, den // a.den) for c in a.transpose().int_rows] for a in actions
    ]
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
                pa, t1 = _insert(rest, a)
                pb, t = _insert(t1, b)
                # a < b sit at the 0-based positions pa, pb of t: (-1)^(i+j) for
                # their 1-based positions, times (-1)^q for sorting (sq, rest) into s
                terms.append((out_index[t] * vdim, coef if (pa + pb + q) % 2 == 0 else -coef))
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
    packed into integers, one balanced digit per h: the integer diagonals of
    ad(e_h) and of its action over their common denominator, a positive
    multiple of alpha(h) and mu(h) that keeps every equality and sign.  The
    digits are wide enough that every sum and difference met below compares
    equal exactly when the weight vectors do.  None, for the full level,
    when H is empty, every alpha_a is zero, or the module axiom fails.
    """
    g = module.algebra
    cartan = [
        h for h in range(g.dim) if _is_diagonal(g.brackets[h]) and _is_diagonal(module.actions[h])
    ]
    # a diagonal ad(e_h) is zero exactly when every alpha_a(h) is
    if all(g.brackets[h].is_zero() for h in cartan):
        return None
    try:
        gmod.check_module_axiom(module)
    except gmod.ModuleAxiomViolation:
        return None
    weights, module_weights = [0] * g.dim, [0] * module.vdim
    radix = 1
    for h in cartan:
        # the diagonals of ad(e_h) and of its action, over one denominator
        ad, act = g.brackets[h], module.actions[h]
        den = lcm(ad.den, act.den)
        alpha = [ad.int_rows[a].get(a, 0) * (den // ad.den) for a in range(g.dim)]
        mu = [act.int_rows[m].get(m, 0) * (den // act.den) for m in range(module.vdim)]
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


def _accumulate(row: dict, col: int, v) -> None:
    row[col] = row[col] + v if col in row else v


def _coordinates(level: CochainLevel, x: Sequence) -> Matrix:
    """X as a 1-row Matrix, checked against the dimension of the algebra."""
    x = vector(x)
    if len(x) != level.algebra.dim:
        raise DimensionMismatch(
            f"vector has {len(x)} coordinates, the algebra has dimension {level.algebra.dim}"
        )
    return Matrix._raw(1, len(x), [dict(enumerate(x))])


def interior_product_matrix(level: CochainLevel, x: Sequence) -> Matrix:
    """Matrix of i_X: degree k -> k-1, linear in X."""
    xs = _coordinates(level, x)
    return _interior_products(level.algebra.dim, level.degree, level.vdim, xs)[0]


def _interior_products(dim: int, k: int, vdim: int, xs: Matrix) -> list[Matrix]:
    """i_X on the k-cochains of a dim-dimensional space, with vdim-dimensional values.

    One Matrix per row X of xs, from one walk over the faces.  The X share
    the denominator xs.den; row a of xs transposed is {X: integer
    a-coordinate} for the X with a nonzero a-coordinate.
    """
    n_out = comb(dim, k - 1) * vdim if k >= 1 else 0
    outs: list[list[dict]] = [[{} for _ in range(n_out)] for _ in range(xs.rows)]
    by_index = xs.transpose().int_rows
    for si, face in enumerate(_faces(dim, k)):
        col = si * vdim
        for q, (sq, ri) in enumerate(face):
            # each position q removes a different index, so every entry is set once
            base = ri * vdim
            for x, a in by_index[sq].items():
                out, sgn = outs[x], a if q % 2 == 0 else -a
                for m in range(vdim):
                    out[base + m][col + m] = sgn
    return [Matrix._new(n_out, len(_faces(dim, k)) * vdim, out, xs.den) for out in outs]


@lru_cache(maxsize=None)
def _unit_interior_products(dim: int, k: int) -> tuple[Matrix, ...]:
    """i_{e_0}, ..., i_{e_(dim-1)} on scalar k-forms: one batch of the unit vectors."""
    return tuple(_interior_products(dim, k, 1, Matrix.identity(dim)))


def lie_derivative_matrix(level: CochainLevel, x: Sequence) -> Matrix:
    """Matrix of L_X: degree k -> k, linear in X."""
    return _lie_derivatives(level, _coordinates(level, x))[0]


def _lie_derivatives(level: CochainLevel, xs: Matrix) -> list[Matrix]:
    """The matrix of L_X for each row X of the Matrix xs, from one pass over the level."""
    g = level.algebra
    # row c of ad(-X) is {t: coef}, coef the c-coefficient of [e_t, X]; ad(-X) is
    # sum_i -x_i ad(e_i), from the ad(e_i) the adjoint module keeps per algebra
    replacements = _row_combinations(-xs, gmod.adjoint_module(g).actions, g.dim, g.dim)
    return _lie_derivative_core(g.dim, level.degree, level.module, xs, replacements)


def _lie_derivative_core(
    dim: int, k: int, module: gmod.GModule, xs: Matrix, replacements: Sequence[Matrix]
) -> list[Matrix]:
    """L_X on the k-cochains of a dim-dimensional space, with values in module.

    One Matrix per row X of xs.  The module part is sum_i x_i action_i; in
    the bracket part, an argument e_c of the form is replaced by each e_t
    with coefficient replacements[X][c, t].  Both are put over one common
    denominator for the whole batch, and the replacements are merged into
    one table by argument: by_arg[c] lists (the operator's output rows, t,
    coefficient).  Replacing s[q] by t is the coface of s without s[q] that
    inserts t at pos, with sign (-1)^(q+pos).
    """
    vdim = module.vdim
    faces, cofaces = _faces(dim, k), _cofaces(dim, k - 1)
    trivial = all(a.is_zero() for a in module.actions)
    actions = [] if trivial else _row_combinations(xs, module.actions, vdim, vdim)
    den = lcm(*(a.den for a in actions), *(r.den for r in replacements))
    outs: list[list[dict]] = [[{} for _ in range(len(faces) * vdim)] for _ in replacements]
    # (output rows, columns): column m is {mm: den * coefficient} of
    # (sum_i x_i action_i) e_m, for each operator whose module part is nonzero
    acting = [
        (out, [_scaled(c, den // a.den) for c in a.transpose().int_rows])
        for out, a in zip(outs, actions)
        if not a.is_zero()
    ]
    by_arg: list[list] = [[] for _ in range(dim)]
    for out, r in zip(outs, replacements):
        f = den // r.den
        for c, row in enumerate(r.int_rows):
            by_arg[c] += ((out, t, f * v) for t, v in row.items())
    for si, face in enumerate(faces):
        # bracket part: s[q] replaced by each t, the same for every module index m
        terms = []
        for q, (sq, ri) in enumerate(face):
            coface = cofaces[ri]
            for out, t, coef in by_arg[sq]:
                hit = coface.get(t)
                if hit is not None:
                    pos, ti = hit
                    terms.append((out, ti * vdim, coef if (q + pos) % 2 == 0 else -coef))
        base = si * vdim
        # the module part sets the entries of these columns before any bracket term adds to them
        for out, cols in acting:
            for m, column in enumerate(cols):
                for mm, v in column.items():
                    out[base + mm][base + m] = v
        for m in range(vdim):
            col = base + m
            for out, row, v in terms:
                _accumulate(out[row + m], col, v)
    return [Matrix._from_ints(len(out), len(out), out, den) for out in outs]


@lru_cache(maxsize=None)
def _faces(dim: int, k: int) -> tuple:
    """For each k-tuple s, in order: (s[q], index of s without s[q]) for each position q."""
    return tuple(
        tuple((a, _rank(dim, s[:q] + s[q + 1 :])) for q, a in enumerate(s))
        for s in tuple_basis(dim, k)
    )


@lru_cache(maxsize=None)
def _cofaces(dim: int, k: int) -> tuple:
    """For each k-tuple r, in order: {a: (insert position, index of r with a)} for a not in r.

    The inverse of ``_faces(dim, k + 1)``: a (k+1)-tuple t without t[q] is r
    exactly when inserting t[q] into r puts it at position q and gives t.
    """
    out: list[dict] = [{} for _ in tuple_basis(dim, k)]
    for ti, face in enumerate(_faces(dim, k + 1)):
        for q, (a, ri) in enumerate(face):
            out[ri][a] = (q, ti)
    return tuple(out)


def j_map_matrix(g: LieAlgebra, k: int) -> Matrix:
    """Degree -1 map from scalar k-forms to coadjoint-valued (k-1)-forms.

    Column (S); row ((T, x)) carries w(x, T) for the basis form w = S: as
    J w = sum_x e^x (x) i_{e_x} w, it is row T of i_{e_x}.
    """
    if not (1 <= k <= g.dim):
        raise ValueError(f"degree {k} out of range for the degree-lowering map")
    units = _unit_interior_products(g.dim, k)
    rows = ((units[x], t) for t in range(comb(g.dim, k - 1)) for x in range(g.dim))
    return Matrix._stack(comb(g.dim, k), rows)


def wedge_one_form_matrix(level: CochainLevel, covector: Sequence) -> Matrix:
    """Left wedge with the 1-form sum_i covector[i] e_i^*: degree k -> k+1.

    Both it and i_X one degree up put +-covector[a] at (s with a inserted, s).
    """
    return interior_product_matrix(level.shifted(1), covector).transpose()


@lru_cache(maxsize=None)
def _quotient(g: LieAlgebra, h: Subalgebra) -> tuple:
    """(annihilator, free, by_target, replacements): the data of g/h every relative level shares.

    Row c of ``annihilator`` is alpha_c, the c-th row of the kernel of the
    h.basis matrix, and ``free`` maps the free column of alpha_c to c.
    The kernel basis is canonical, so alpha_c(e_f) = delta_cd for the free
    column f of alpha_d.  by_target holds the brackets of g/h as
    ``_pairs_by_target`` does: row c is {p: alpha_c([e_fa, e_fb])} for the
    p-th pair (a, b) and the free columns fa, fb of alpha_a, alpha_b.
    replacements[i] has the entry alpha_c([e_ft, X_i]) at (c, t), for the
    rows X_i of h.basis.
    """
    annihilator = h.basis.kernel()
    free = {f: c for c, f in enumerate(annihilator._free_columns())}
    columns = list(free)
    pairs = tuple_basis(len(free), 2)
    brackets = Matrix._stack(g.dim, ((g.brackets[columns[a]], columns[b]) for a, b in pairs))
    # row c of the product is {pair index: alpha_c of the pair's bracket}
    by_target = annihilator * brackets.transpose()
    # entry (c, t) of annihilator * ad(-X) * select is alpha_c([e_ft, X]), X a row of h.basis
    select = Matrix._new(g.dim, len(free), [{free[t]: 1} if t in free else {}
                                            for t in range(g.dim)], 1)
    ads = _row_combinations(-h.basis, gmod.adjoint_module(g).actions, g.dim, g.dim)
    return annihilator, free, by_target, tuple(annihilator * ad * select for ad in ads)


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
    annihilator, free = _quotient(g, h)[:2]
    quotient_tuples = tuple_basis(len(free), k)
    n_rel = len(quotient_tuples) * vdim
    kernel = _basic_kernel(level, h)
    # the horizontal forms beta_T (x) e_m in the coordinates of the full level,
    # integer rows over den^k for the annihilator's den (no tuples when k < 0)
    beta_rows = []
    for t in quotient_tuples:
        beta = {(): 1}
        for c in reversed(t):
            beta = _wedge(annihilator.int_rows[c], beta)
        cells = [(_rank(g.dim, s) * vdim, v) for s, v in beta.items()]
        beta_rows += ({base + m: v for base, v in cells} for m in range(vdim))
    betas = Matrix._from_ints(n_rel, level.space_dim, beta_rows, annihilator.den ** max(k, 0))
    return _rref((kernel * betas)._span())[1]


@lru_cache(maxsize=None)
def _basic_kernel(level: CochainLevel, h: Subalgebra) -> Matrix:
    """The kernel of L_h, the quotient L_X of ``relative_basis`` stacked, X over the basis of h.

    Its rows span the h-basic forms in beta coordinates; the blocks of L_h
    come from one batch.
    """
    _, free, _, lie = _quotient(level.algebra, h)
    blocks = _lie_derivative_core(len(free), level.degree, level.module, h.basis, lie)
    n_rel = len(tuple_basis(len(free), level.degree)) * level.vdim
    return Matrix._stack(n_rel, ((b, i) for b in blocks for i in range(b.rows))).kernel()


@lru_cache(maxsize=None)
def relative_subspace(level: CochainLevel, h: Subalgebra) -> tuple:
    """Dense view of :func:`relative_basis`: its rows as tuples of Fractions."""
    return relative_basis(level, h).entries


def _beta_coordinates(level: CochainLevel, h: Subalgebra) -> Matrix:
    """Q_k, bt = relative_basis in beta coordinates: bt's entries at the all-free tuples."""
    bt, g, vdim = relative_basis(level, h), level.algebra, level.vdim
    columns = list(_quotient(g, h)[1])
    bases = [_rank(g.dim, tuple(columns[c] for c in t)) * vdim
             for t in tuple_basis(len(columns), level.degree)]
    at = {cell: j for j, cell in enumerate(base + m for base in bases for m in range(vdim))}
    rows = [{at[cell]: v for cell, v in r.items() if cell in at} for r in bt.int_rows]
    return Matrix._new(bt.rows, len(at), rows, bt.den)


@lru_cache(maxsize=None)
def _basic_differential(level: CochainLevel, h: Subalgebra) -> Matrix:
    """K delta_q^T, for the kernel K of L_h (``_basic_kernel``).

    delta_q is the core of ``differential_matrix`` run on g/h (``_quotient``).
    """
    _, free, by_target, _ = _quotient(level.algebra, h)
    actions = [level.module.actions[f] for f in free]
    core = _differential_core(len(free), level.degree, level.vdim, by_target, actions)
    return _basic_kernel(level, h) * core.transpose()


def relative_differential(level: CochainLevel, h: Subalgebra) -> Matrix:
    """delta_q Q_k^T, the transpose of R K delta_q^T (``_basic_differential``).

    The rows of Q_k are basic, so Q_k = R K for R, the entries of Q_k at the
    free columns of K.
    """
    basic = _basic_kernel(level, h)
    r = _at_columns(_beta_coordinates(level, h), basic._free_columns())
    return (r * _basic_differential(level, h)).transpose()


def _at_columns(m: Matrix, columns: Sequence[int]) -> Matrix:
    """The entries of m at the given columns, column i of the result being columns[i]."""
    rows = [{i: r[c] for i, c in enumerate(columns) if c in r} for r in m.int_rows]
    return Matrix._new(m.rows, len(columns), rows, m.den)


def reduction(module: gmod.GModule, h: Subalgebra | None) -> tuple:
    """(delta, to_span, lift) of the complex of (g, module, h) on the cells it eliminates.

    delta(k) is the differential from degree k on those cells, to_span(k, rows)
    puts kernel rows of delta(k) in the coordinates of the rows of
    delta(k - 1)^T, and lift(k, rows) maps them to the full level.  The cells
    are the beta coordinates of the relative basis when h is given, the
    weight-zero cells for a module with a weight grading, else the full level.
    """
    g, vdim, level = module.algebra, module.vdim, partial(CochainLevel, module.algebra, module)
    if h is not None:
        return (lambda k: relative_differential(level(k), h),
                lambda k, rows: rows * _beta_coordinates(level(k), h),
                lambda k, rows: rows * relative_basis(level(k), h))
    if weight_grading(module) is None:
        return lambda k: differential_matrix(level(k)), _unchanged, _unchanged

    def lift(k, rows):
        # the flat index in the full level of each weight-zero cell, in order
        at = [_rank(g.dim, t) * vdim + m for t, ms in weight_zero_cells(level(k)) for m in ms]
        out = [{at[j]: x for j, x in r.items()} for r in rows.int_rows]
        return Matrix._new(rows.rows, level(k).space_dim, out, rows.den)

    return lambda k: graded_differential(level(k)), _unchanged, lift


def _unchanged(k: int, rows: Matrix) -> Matrix:
    return rows


@lru_cache(maxsize=None)
def reduced_echelon(level: CochainLevel, h: Subalgebra | None) -> Matrix:
    """The forward pass of ``reduction(level.module, h)``'s delta(k) (``Matrix._echelon``).

    Relative to h it runs over K delta_q^T, of the same rank as Q_k = R K.
    """
    if h is not None:
        return _basic_differential(level, h)._echelon()
    return reduction(level.module, None)[0](level.degree)._echelon()


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
