"""Dense Fraction references for the sparse ``liecoh.ratlin`` API, for tests only.

The library stores a matrix as sparse integer rows over one common
denominator, still exact; tests that index coordinates or compare against
hand-written vectors use the dense Fraction tuples below instead.
``apply`` sums each row of the ``sparse_rows`` view on its own and shares
no code with the sparse matrix product.

``product``, ``combination`` and ``transpose`` are a reference for the
matrix arithmetic that shares no code with ratlin: a reference matrix is
``(rows, cols, entries)``, entries a tuple of row tuples of Fractions, so
that 0 x n and n x 0 shapes keep their sizes.
"""

from fractions import Fraction

from liecoh.ratlin import Matrix, dense_vector, vector


def apply(m: Matrix, vec) -> tuple[Fraction, ...]:
    """m times the column vector vec, one row sum over the stored entries at a time."""
    vec = vector(vec)
    assert len(vec) == m.cols
    return tuple(sum((a * vec[j] for j, a in r.items()), Fraction(0)) for r in m.sparse_rows)


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Dense view of the canonical kernel basis ``m.kernel_rows()``."""
    return [dense_vector(r, m.cols) for r in m.kernel_rows()]


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
