"""Dense reference views of the sparse ``liecoh.ratlin`` API, for tests only.

The library works on sparse ``{col: Fraction}`` rows; tests that index
coordinates or compare against hand-written vectors use these dense
tuples instead.  ``apply`` sums each row on its own and shares no code
with the sparse matrix product.
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
