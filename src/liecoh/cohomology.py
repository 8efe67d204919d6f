"""Betti numbers and distinguished cocycles of the (relative) complex.

Dimensions are kernel/image ranks of exact matrices, so every number here
is an integer fact, not an approximation.  Every degree takes one path over
the reduced complex of (g, V, h) (``cecomplex.reduction``), in integer rows
(:class:`~liecoh.ratlin.Matrix`), and a Betti number is two ranks:
b_k = (n_k - rank delta(k)) - rank delta(k - 1), for the n_k cells of
degree k.  Each rank is one forward pass with no back-substitution,
cached per level (``cecomplex.reduced_echelon``): over the rows of
delta(k), or relative to h over those of K delta_q^T, which has the rank
of delta(k) (below).  Degree k reads the pass of delta(k) and degree
k + 1 the same pass for rank(B); degree 0 has no coboundaries.  The count
needs B inside Z, which ``_coboundaries_are_cocycles`` certifies with
products that vanish; when it fails, cohomology raises
SubspaceNotContained.  Only a degree with b_k > 0 takes its canonical
kernel Z and picks representatives: the cocycles that enlarge the span of
B in one greedy :class:`~liecoh.ratlin.EchelonSpan` pass.  Absolute, Z is
the back-substitution of the cached pass and B's span holds the columns
of delta(k - 1) at its pivots; relative to h, Z is the kernel of the
relative delta and B's span is a copy of the cached rows of
K_(k-1) delta_q^T.  The pass reads only the span of B: the cocycles, the
kernel rows mapped by to_span, are added in kernel order, and it stops
once b_k are chosen, since the rest lie in the span.  So the
representatives are deterministic and safe to freeze in tests; a degree
with b_k = 0 builds no kernel, no span and no relative basis.  The chosen
kernel rows are lifted to the full level at once; each representative is
a :class:`~liecoh.cecomplex.Cochain` that keeps its row of that Matrix,
and nothing here is made dense.  ``cohomology`` is that path, one call
per degree, and nothing is cached per result: the differentials (full,
graded and the parts of the relative one), their passes, cells and
relative bases it reads are cached per level in :mod:`liecoh.cecomplex`,
so a repeated call redoes only the certificate and, where b_k > 0, the
kernel and the greedy pass.

Every entry point takes g from the module: ``relative_complex`` is the one
check of (g, V, h).  It refuses a module or an h over another algebra than
g with ``gmod.MixedAlgebras``, counts a zero-dimensional h as no h, and
gives the top degree dim g - dim h.

When the module has a weight grading (:mod:`liecoh.cecomplex`), absolute
cocycles and coboundaries are taken on the weight-zero cells only, and the
output is the same as on the full level.  delta is block-diagonal by
weight, and the RREF of a block-diagonal matrix is the union of the RREFs
of its blocks, so the kernel rows of the weight-zero block are the
canonical kernel rows at weight zero, in the same order.  For a weight
lambda != 0, L_H = delta i_H + i_H delta puts every cocycle of weight
lambda in B, and delta^2 = 0 (the module axiom) puts B of weight lambda in
Z: the greedy pass never picks a cocycle of nonzero weight, and
dim H = |Z_0| - rank(B_0).

Relative cocycles and coboundaries are taken in the beta coordinates of
g/h: with Q those of the relative basis bt and delta_q the differential of
g/h, delta is delta_q Q^T, Z is N Q for its kernel rows N, B is
Q_{k-1} delta_q^T, and the representatives, rows of N bt, are full-level
forms.  The map to beta coordinates is injective, so the greedy pass picks
what it would pick on the full level.  The rows of Q are h-basic, so
Q = R K for the kernel K of the stacked quotient L_X (L_h) and R, Q at
the free columns of K, which is invertible: n_k is the number of rows of
K, delta(k) = (R K delta_q^T)^T has the rank of K delta_q^T, and B is the
row space of K_{k-1} delta_q^T, none of which needs bt.  Z is the vectors
that delta_q kills inside the row space of K, so B lies in Z exactly when
delta_q and L_h both kill B: that is the relative certificate, as
delta(k) delta(k - 1) = 0 is the absolute one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import gmod
from .cecomplex import (
    Cochain,
    CochainLevel,
    _at_columns,
    _basic_differential,
    _basic_kernel,
    _pairs_by_target,
    differential_matrix,
    reduced_echelon,
    reduction,
    relative_basis,
)
from .liealg import LieAlgebra, LieAlgebraError, Subalgebra, killing_form, structure_report
from .ratlin import EchelonSpan, Matrix, SubspaceNotContained, _kernel, _vanishes


class NotSemisimple(LieAlgebraError):
    pass


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    betti: int
    cocycle_representatives: tuple[Cochain, ...]
    relative: bool


def cohomology(
    g: LieAlgebra, module: gmod.GModule, k: int, h: Subalgebra | None = None
) -> CohomologyResult:
    """Cohomology in degree k, relative to h when given."""
    h = relative_complex(g, module, h)[0]
    if not (0 <= k <= g.dim):
        raise ValueError(f"degree {k} out of range 0..{g.dim}")
    delta, to_span, lift = reduction(module, h)
    level = CochainLevel(module.algebra, module, k)
    echelon = reduced_echelon(level, h)
    # the rows of delta(k - 1)'s pass; degree 0 has no coboundaries
    previous = reduced_echelon(level.shifted(-1), h) if k else Matrix.zero(0, 0)
    # |Z| = dim ker delta(k): the cells of degree k are delta(k)'s columns,
    # or relative to h the h-basic forms, the rows of K
    cells = echelon.cols if h is None else _basic_kernel(level, h).rows
    n_z, rank_b = cells - echelon.rows, previous.rows
    betti = n_z - rank_b
    if k and not _coboundaries_are_cocycles(delta, level, h):
        raise SubspaceNotContained(f"span of rank {rank_b} is not inside the rank-{n_z} span")
    if not betti:
        return CohomologyResult(k, 0, (), h is not None)
    if h is None:
        # Z is the back-substitution of the cached pass; B's basis is the
        # columns of delta(k - 1) at its pivots
        kernel = _kernel(EchelonSpan(cells, echelon.int_rows))
        pivots = [min(r) for r in previous.int_rows]
        span = EchelonSpan(cells)
        if pivots:
            span = _at_columns(delta(k - 1), pivots).transpose()._span()
    else:
        # B's rows K delta_q^T are in beta coordinates already; the span is a copy to grow
        kernel, span = delta(k).kernel(), EchelonSpan(previous.cols, previous.int_rows)
    # B is inside Z, so the greedy pass is done once betti cocycles are chosen
    cocycles = to_span(k, kernel).int_rows
    chosen = list(islice((i for i, v in enumerate(cocycles) if span.add(v)), betti))
    reps = lift(k, Matrix._stack(kernel.cols, ((kernel, i) for i in chosen)))
    rows = (Matrix._new(1, level.space_dim, [r], reps.den) for r in reps.int_rows)
    return CohomologyResult(k, betti, tuple(Cochain(level, r) for r in rows), h is not None)


def _coboundaries_are_cocycles(delta, level: CochainLevel, h: Subalgebra | None) -> bool:
    """True when B lies in Z at this level, for the delta of ``reduction(level.module, h)``.

    On the full level and the weight-zero cells, B is in Z exactly when
    delta(k) delta(k - 1) = 0.  On the beta coordinates, B is spanned by the
    rows of K_(k-1) delta_q^T (Q_(k-1) = R K_(k-1), R invertible), and they
    are cocycles exactly when L_h kills them (they are h-basic) and so does
    delta_q (they are closed); both conditions are linear, so checking a
    spanning set checks B.  L_h kills a coboundary c exactly when c lies in
    the row space of the kernel K of L_h, that is, when c is the sum of the
    rows of K, each 1 at its free column f, times c_f; then c delta_q^T is
    that sum of the rows of K delta_q^T.  Every operator read is one the
    rank path has cached, so no relative basis is built.
    """
    k = level.degree
    if h is None:
        return _vanishes([(1, delta(k), delta(k - 1))], delta(k).rows)
    basic, rows = _basic_kernel(level, h), _basic_differential(level.shifted(-1), h)
    at_free = _at_columns(rows, basic._free_columns())
    return (_vanishes([(1, at_free, basic), (-1, rows, None)], rows.rows)
            and _vanishes([(1, at_free, _basic_differential(level, h))], rows.rows))


def relative_complex(g: LieAlgebra, module: gmod.GModule, h: Subalgebra | None) -> tuple:
    """(h, dim g - dim h) for the complex of (g, module, h); a zero-dimensional h is None.

    Raises MixedAlgebras when the module or h lives over another algebra than g.
    """
    if module.algebra != g:
        raise gmod.MixedAlgebras("the coefficient module lives over another algebra than g")
    if h is not None and h.ambient != g:
        raise gmod.MixedAlgebras("the subalgebra h lives inside another algebra than g")
    h = h if h is not None and h.dim else None
    return h, g.dim - (h.dim if h is not None else 0)


def betti_sequence(
    g: LieAlgebra, module: gmod.GModule, h: Subalgebra | None = None
) -> tuple[int, ...]:
    """Betti numbers for degrees 0..dim g - dim h, the top degree of the complex."""
    top = relative_complex(g, module, h)[1]
    return tuple(cohomology(g, module, k, h).betti for k in range(top + 1))


@dataclass(frozen=True)
class ThreeFormClass:
    form: Cochain
    class_nonzero: bool


def killing_three_form(g: LieAlgebra) -> ThreeFormClass:
    """The closed 3-form B([. , .], .) and whether its class is nonzero.

    Only defined for semisimple algebras, where the Killing form is
    nondegenerate and the form is automatically closed.
    """
    report = structure_report(g)
    if not report.is_semisimple:
        raise NotSemisimple("the Killing 3-form class needs a semisimple algebra")
    level = CochainLevel(g, gmod.trivial_module(g, 1), 3)
    # entry (k, p) of the product is B(e_k, [e_i, e_j]) for the p-th pair (i, j)
    values, pairs = killing_form(g) * _pairs_by_target(g), level.shifted(-1)
    row = {t: values.int_rows[k].get(pairs.index((i, j), 0), 0)
           for t, (i, j, k) in enumerate(level.tuples)}
    form = Matrix._from_ints(1, level.space_dim, [row], values.den)
    d = differential_matrix(level)
    if not _vanishes([(1, d, form.transpose())], d.rows):
        raise AssertionError("Killing 3-form is not closed; bracket data is corrupt")
    # the class is nonzero when the form is outside the span of the coboundaries
    span = differential_matrix(level.shifted(-1)).transpose()._span()
    return ThreeFormClass(Cochain(level, form), span.add(form.int_rows[0]))


@dataclass(frozen=True)
class VolumeFormResult:
    dim_top_relative: int
    form: Cochain | None


def invariant_volume_form(g: LieAlgebra, h: Subalgebra | None) -> VolumeFormResult:
    """Dimension of the top-degree relative space; its generator when unique.

    Dimension one is the algebraic counterpart of an invariant volume form
    on the corresponding homogeneous space existing uniquely up to scale.
    """
    trivial = gmod.trivial_module(g, 1)
    h, top = relative_complex(g, trivial, h)
    level = CochainLevel(g, trivial, top)
    basis = Matrix.identity(level.space_dim) if h is None else relative_basis(level, h)
    form = Cochain(level, basis) if basis.rows == 1 else None
    return VolumeFormResult(basis.rows, form)


@dataclass(frozen=True)
class DualityReport:
    left: int
    right: int
    equal: bool


def duality_report(
    g: LieAlgebra, h: Subalgebra | None, module: gmod.GModule, k: int
) -> DualityReport:
    """Compare betti in degree k with the dual-coefficient betti in the
    complementary degree.  The equality is reported, never assumed."""
    top = relative_complex(g, module, h)[1]
    if not (0 <= k <= top):
        raise ValueError(f"degree {k} out of range 0..{top}")
    left = cohomology(g, module, k, h).betti
    right = cohomology(g, gmod.dual_module(module), top - k, h).betti
    return DualityReport(left, right, left == right)
