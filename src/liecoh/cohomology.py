"""Betti numbers and distinguished cocycles of the (relative) complex.

Dimensions are kernel/image ranks of exact matrices, so every number here
is an integer fact, not an approximation.  Every degree takes one path over
the reduced complex of (g, V, h) (``cecomplex.reduction``), in integer rows
(:class:`~liecoh.ratlin.Matrix`), and each reduced delta is eliminated
once: ``cecomplex.reduced_kernel`` keeps the canonical kernel of delta(k)
per level.  Degree k reads it for the cocycle basis Z, and degree k + 1
for rank(B) = rank delta(k) = cols - nullity, so dim H = |Z| - rank(B).
That count needs B inside Z, which ``_coboundaries_are_cocycles``
certifies with products that vanish; when it fails, cohomology raises
SubspaceNotContained.  When b_k > 0, the representatives are the cocycles
that enlarge the span of B in one greedy
:class:`~liecoh.ratlin.EchelonSpan` pass: B's span holds the coboundaries
at the pivot columns of delta(k - 1), the cocycles, the kernel rows mapped
by to_span, are added in kernel order, and the pass stops once b_k are
chosen, since the rest lie in the span.  So the representatives are
deterministic and safe to freeze in tests; when b_k = 0 no span is built.
The chosen kernel rows are lifted to the full level at once; each
representative is a :class:`~liecoh.cecomplex.Cochain` that keeps its row
of that Matrix, and nothing here is made dense.  ``cohomology`` is that
path, one call per degree, and nothing is cached per result: the
differentials (full, graded and relative), their kernels, cells and
relative bases it reads are cached per level in :mod:`liecoh.cecomplex`,
so a repeated call redoes only the certificate and the greedy pass.

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
g/h, delta is delta_q Q^T, Z is K Q for its kernel rows K, B is
Q_{k-1} delta_q^T, and the representatives, rows of K bt, are full-level
forms.  The map to beta coordinates is injective, so the greedy pass picks
what it would pick on the full level.  Z is the vectors that delta_q kills
inside the row space of Q, the kernel of the stacked quotient L_X (L_h),
so B lies in Z exactly when delta_q and L_h both kill B: that is the
relative certificate, as delta(k) delta(k - 1) = 0 is the absolute one.
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
    reduced_kernel,
    reduction,
    relative_basis,
)
from .liealg import LieAlgebra, LieAlgebraError, Subalgebra, killing_form, structure_report
from .ratlin import Matrix, SubspaceNotContained, _vanishes


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
    kernel, previous = reduced_kernel(level, h), reduced_kernel(level.shifted(-1), h)
    # the cocycles are independent (a kernel basis, or its image under the
    # injective map to beta coordinates), so |Z| - rank(B) is the quotient dimension
    rank_b = previous.cols - previous.rows
    betti = kernel.rows - rank_b
    if not _coboundaries_are_cocycles(delta, level, h):
        raise SubspaceNotContained(
            f"span of rank {rank_b} is not inside the rank-{kernel.rows} span"
        )
    chosen = []
    if betti:
        # a basis of B: the coboundaries at the pivot columns of delta(k - 1)
        free = set(previous._free_columns())
        coboundaries = delta(k - 1).transpose()
        span = Matrix._stack(coboundaries.cols, (
            (coboundaries, p) for p in range(coboundaries.rows) if p not in free))._span()
        # B is inside Z, so the greedy pass is done once betti cocycles are chosen
        cocycles = to_span(k, kernel).int_rows
        chosen = list(islice((i for i, v in enumerate(cocycles) if span.add(v)), betti))
    reps = lift(k, Matrix._stack(kernel.cols, ((kernel, i) for i in chosen)))
    rows = (Matrix._new(1, level.space_dim, [r], reps.den) for r in reps.int_rows)
    return CohomologyResult(k, betti, tuple(Cochain(level, r) for r in rows), h is not None)


def _coboundaries_are_cocycles(delta, level: CochainLevel, h: Subalgebra | None) -> bool:
    """True when B lies in Z at this level, for the delta of ``reduction(level.module, h)``.

    On the full level and the weight-zero cells, B is in Z exactly when
    delta(k) delta(k - 1) = 0.  On the beta coordinates, delta(k) =
    delta_q Q_k^T does not compose with delta(k - 1), whose columns are the
    coboundaries in beta coordinates: they are cocycles exactly when L_h
    kills them (they are h-basic) and so does delta_q (they are closed).
    L_h kills a coboundary c exactly when c lies in the row space of the
    kernel K of L_h, that is, when c is the sum of the rows of K, each 1 at
    its free column f, times c_f; then c delta_q^T is that sum of the rows
    of K delta_q^T.  Both are the cached operators the relative basis and
    delta are built from, so nothing is built twice.
    """
    k = level.degree
    coboundaries = delta(k - 1)
    if h is None:
        return _vanishes([(1, delta(k), coboundaries)], delta(k).rows)
    basic, rows = _basic_kernel(level, h), coboundaries.transpose()
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
