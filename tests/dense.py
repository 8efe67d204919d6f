"""Dense Fraction references for the sparse ``liecoh.ratlin`` API, for tests only.

The library stores a matrix as sparse integer rows over one common
denominator, still exact; tests that index coordinates or compare against
hand-written vectors use the dense Fraction tuples below instead.
``apply`` sums each row of the ``sparse_rows`` view on its own and shares
no code with the sparse matrix product.

``product``, ``combination`` and ``transpose`` are a reference for the
matrix arithmetic, and ``rref``, ``kernel`` and ``solve`` one for
elimination (dense Gauss-Jordan), that share no code with ratlin: a reference matrix is
``(rows, cols, entries)``, entries a tuple of row tuples of Fractions, so
that 0 x n and n x 0 shapes keep their sizes.  ``interior_product``,
``lie_derivative`` and ``j_map`` are reference matrices of the cochain
operators, evaluated from their formulas.
"""

from fractions import Fraction

from liecoh.cecomplex import Cochain, CochainLevel
from liecoh.gmod import trivial_module
from liecoh.ratlin import Matrix, vector


def apply(m: Matrix, vec) -> tuple[Fraction, ...]:
    """m times the column vector vec, one row sum over the stored entries at a time."""
    vec = vector(vec)
    assert len(vec) == m.cols
    return tuple(sum((a * vec[j] for j, a in r.items()), Fraction(0)) for r in m.sparse_rows)


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Dense view of the canonical kernel basis ``m.kernel()``."""
    return [tuple(r.get(j, Fraction(0)) for j in range(m.cols)) for r in m.kernel().sparse_rows]


def columns(m: Matrix) -> list[tuple[Fraction, ...]]:
    return [m.column(j) for j in range(m.cols)]


def echelon_basis(vectors) -> list[tuple[Fraction, ...]]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    red, pivots = Matrix.from_rows(vectors).rref()
    return [red.row(i) for i in range(len(pivots))]


def product(a, b):
    """The reference product of a rows x k and a k x cols reference matrix."""
    (rows, k, x), (k_b, cols, y) = a, b
    assert k == k_b
    entries = tuple(
        tuple(sum((x[i][t] * y[t][j] for t in range(k)), Fraction(0)) for j in range(cols))
        for i in range(rows)
    )
    return rows, cols, entries


def combination(terms, rows: int, cols: int):
    """sum c * M over (c, M) pairs of rational coefficients and rows x cols reference matrices."""
    assert all(m[:2] == (rows, cols) for _, m in terms)
    entries = tuple(
        tuple(sum((Fraction(c) * m[2][i][j] for c, m in terms), Fraction(0)) for j in range(cols))
        for i in range(rows)
    )
    return rows, cols, entries


def transpose(a):
    rows, cols, x = a
    return cols, rows, tuple(tuple(x[i][j] for i in range(rows)) for j in range(cols))


def rref(a):
    """(nonzero RREF rows, pivot columns) of a reference matrix, by Gauss-Jordan."""
    _, cols, entries = a
    m = [list(r) for r in entries]
    pivots: list[int] = []
    for c in range(cols):
        i = len(pivots)
        r = next((r for r in range(i, len(m)) if m[r][c]), None)
        if r is None:
            continue
        m[i], m[r] = m[r], m[i]
        m[i] = [x / m[i][c] for x in m[i]]
        for j in range(len(m)):
            if j != i and m[j][c]:
                f = m[j][c]
                m[j] = [x - f * y for x, y in zip(m[j], m[i])]
        pivots.append(c)
    return [tuple(r) for r in m[: len(pivots)]], pivots


def kernel(a) -> list[tuple[Fraction, ...]]:
    """The kernel basis that is the unit vector at each free column f, read off ``rref``."""
    cols = a[1]
    red, pivots = rref(a)
    out = []
    for f in (f for f in range(cols) if f not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for p, r in zip(pivots, red):
            v[p] = -r[f]
        out.append(tuple(v))
    return out


def solve(a, b):
    """X with a X = b, free variables zero, from ``rref`` of [a | b]; None if inconsistent."""
    (rows, n, x), (_, m, y) = a, b
    red, pivots = rref((rows, n + m, tuple(r + s for r, s in zip(x, y))))
    if any(p >= n for p in pivots):
        return None
    out = [(Fraction(0),) * m for _ in range(n)]
    for p, r in zip(pivots, red):
        out[p] = r[n:]
    return tuple(out)


# -- i_X, L_X and J straight from their formulas -------------------------
#
# Each reference below builds the matrix of its operator one output cell
# (T, m) at a time, by the operator's formula, from the values of the
# basis cochains at argument tuples.  Those values come from
# ``Cochain.evaluate`` (the determinant convention: sort the arguments,
# with sign) on one tagged cochain, and the structure constants and module
# actions from the dense ``Matrix.row`` view.  Nothing is shared with the
# incidence tables or the operator cores of ``liecoh.cecomplex``.


def _reader(level):
    """read(args): (sign, flat index of the cell (t, 0)), or None when an index repeats.

    At any argument tuple only the basis cochains e^t e_m of one block t
    are nonzero, all with the same sign.  So the tagged cochain
    sum_j (j + 1) b_j, evaluated there, gives the value of every basis
    cochain b_j at once: its first entry is the sign times 1 + the index
    of (t, 0).
    """
    tagged = Cochain(level, Matrix.from_rows([range(1, level.space_dim + 1)]))

    def read(args):
        v = tagged.evaluate(args)[0]
        return (1 if v > 0 else -1, int(abs(v)) - 1) if v else None

    return read


def interior_product(level, x):
    """i_X from (i_X f)(X_1..X_{k-1}) = f(X, X_1..X_{k-1})."""
    x, read = vector(x), _reader(level)
    rows = []
    for args in level.shifted(-1).tuples:
        for m in range(level.vdim):
            row = [Fraction(0)] * level.space_dim
            for a, xa in enumerate(x):
                if hit := read((a,) + args):
                    sign, base = hit
                    row[base + m] += sign * xa
            rows.append(tuple(row))
    return len(rows), level.space_dim, tuple(rows)


def lie_derivative(level, x):
    """L_X from (L_X f)(X_1..X_k) = X . f(X_1..X_k) + sum_i f(X_1,..,[X_i, X],..,X_k)."""
    g, mod, x, read = level.algebra, level.module, vector(x), _reader(level)
    n, vdim = g.dim, level.vdim
    # the action of X on values, row by row, and [e_t, X] = sum_a x_a [e_t, e_a]
    action = [[sum((x[a] * mod.actions[a].row(r)[c] for a in range(n)), Fraction(0))
               for c in range(vdim)] for r in range(vdim)]
    with_x = [[sum((x[a] * g.brackets[t].row(a)[c] for a in range(n)), Fraction(0))
               for c in range(n)] for t in range(n)]
    rows = []
    for args in level.tuples:
        sign, here = read(args)
        replaced = [
            (read(args[:i] + (c,) + args[i + 1 :]), y)
            for i, t in enumerate(args)
            for c, y in enumerate(with_x[t])
            if y
        ]
        for m in range(vdim):
            row = [Fraction(0)] * level.space_dim
            for c, a in enumerate(action[m]):
                row[here + c] += sign * a
            for hit, y in replaced:
                if hit:
                    row[hit[1] + m] += hit[0] * y
            rows.append(tuple(row))
    return len(rows), level.space_dim, tuple(rows)


def j_map(g, k):
    """J from (J w)(X_1..X_{k-1})(X) = w(X, X_1..X_{k-1}), scalar w, coadjoint values."""
    level = CochainLevel(g, trivial_module(g, 1), k)
    read = _reader(level)
    rows = []
    for args in level.shifted(-1).tuples:
        for a in range(g.dim):
            row = [Fraction(0)] * level.space_dim
            if hit := read((a,) + args):
                row[hit[1]] += hit[0]
            rows.append(tuple(row))
    return len(rows), level.space_dim, tuple(rows)
