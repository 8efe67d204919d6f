"""Betti numbers and distinguished cocycles of the (relative) complex.

Dimensions are kernel/image ranks of exact matrices, so every number here
is an integer fact, not an approximation.  Cocycles and coboundaries stay
integer rows (:class:`~liecoh.ratlin.Matrix`) from the operator matrices
to one :class:`~liecoh.ratlin.EchelonSpan` pass per degree (the
coboundaries as the rows of delta transposed, the cocycles as the rows of
``kernel()``): the coboundaries are added first, which gives rank(B), and
the canonical cocycle basis Z is then added greedily.  The cocycles that
enlarge the span are the representatives, so they are deterministic and
safe to freeze in tests, and dim H = |Z| - rank(B) holds exactly when
their number matches; any other count means B is not inside span(Z).
The chosen kernel rows are stacked in one place and mapped to the full
level (through bt when relative, to the weight-zero positions when
graded); only the returned representatives are made dense.

When the module has a weight grading (:mod:`liecoh.cecomplex`), absolute
cocycles and coboundaries are taken on the weight-zero cells only, and the
output is the same as on the full level.  The two absolute branches differ
only in which delta they read.  delta is block-diagonal by weight, and the
RREF of a block-diagonal matrix is the union of the RREFs of its blocks, so
the kernel rows of the weight-zero block are the canonical kernel rows at
weight zero, in the same order.  For a weight lambda != 0,
L_H = delta i_H + i_H delta puts every cocycle of weight lambda in B, and
delta^2 = 0 (the module axiom) puts B of weight lambda in Z: the greedy
pass never picks a cocycle of nonzero weight, and
dim H = |Z_0| - rank(B_0).

Relative cocycles and coboundaries are taken in the beta coordinates of
g/h (:mod:`liecoh.cecomplex`): with Q those of the relative basis bt (the
Matrix of ``relative_basis``), Z is K Q for the kernel rows K of
delta_q Q^T, B is Q_{k-1} delta_q^T, and the representatives, rows of
K bt, are full-level forms.  The map to beta coordinates is injective, so
the greedy pass picks what it would pick on the full level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import gmod
from .cecomplex import (
    Cochain,
    CochainLevel,
    beta_coordinates,
    differential_matrix,
    graded_differential,
    quotient_differential,
    relative_basis,
    weight_grading,
    weight_zero_positions,
)
from .liealg import LieAlgebra, Subalgebra, killing_form, structure_report
from .ratlin import Matrix, SubspaceNotContained


class NotSemisimple(Exception):
    pass


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    betti: int
    cocycle_representatives: tuple[Cochain, ...]
    relative: bool
    module_spec: str = ""


def cohomology(
    g: LieAlgebra,
    module: gmod.GModule,
    k: int,
    h: Subalgebra | None = None,
    module_spec: str = "",
) -> CohomologyResult:
    """Cohomology in degree k, relative to h when given."""
    if not (0 <= k <= g.dim):
        raise ValueError(f"degree {k} out of range 0..{g.dim}")
    result = _cohomology_core(g, module, k, h)
    if module_spec:
        result = replace(result, module_spec=module_spec)
    return result


@lru_cache(maxsize=None)
def _cohomology_core(g, module, k, h) -> CohomologyResult:
    level_k = CochainLevel(g, module, k)
    level_prev = level_k.shifted(-1)
    relative = h is not None and h.dim > 0
    graded = not relative and weight_grading(module) is not None
    if relative:
        # beta coordinates: q has one row per vector of the relative basis bt
        bt = relative_basis(level_k, h)
        q = beta_coordinates(level_k, h, bt)
        kernel = (quotient_differential(level_k, h) * q.transpose()).kernel()
        cocycles = kernel * q
        q_prev = beta_coordinates(level_prev, h, relative_basis(level_prev, h))
        coboundaries = q_prev * quotient_differential(level_prev, h).transpose()
    else:
        # graded: only the weight-zero cells, numbered in the order of the full level
        delta = graded_differential if graded else differential_matrix
        kernel = cocycles = delta(level_k).kernel()
        coboundaries = delta(level_prev).transpose()

    span = coboundaries._span()
    rank_b = span.rank
    # the cocycles are independent (a kernel basis, or its image under the
    # injective map to beta coordinates), so |Z| - rank(B) is the quotient dimension
    betti = cocycles.rows - rank_b
    chosen = [i for i, v in enumerate(cocycles.int_rows) if span.add(v)]
    if len(chosen) != betti:
        # rank(Z + B) > rank(Z): some coboundary is not a cocycle
        raise SubspaceNotContained(
            f"span of rank {rank_b} is not inside the rank-{cocycles.rows} span"
        )
    reps = Matrix._stack(kernel.cols, ((kernel, i) for i in chosen))
    if relative:
        # the rows of K bt are the full-level forms with these beta coordinates
        reps = reps * bt
    elif graded:
        positions = weight_zero_positions(level_k)
        rows = [{positions[j]: x for j, x in r.items()} for r in reps.int_rows]
        reps = Matrix._new(reps.rows, level_k.space_dim, rows, reps.den)
    reps = tuple(Cochain(level_k, v) for v in reps.entries)
    return CohomologyResult(k, betti, reps, relative)


def betti_sequence(
    g: LieAlgebra,
    module: gmod.GModule,
    h: Subalgebra | None = None,
    top: int | None = None,
) -> tuple[int, ...]:
    """Betti numbers for degrees 0..top (default: the relevant top degree)."""
    if top is None:
        top = g.dim if h is None or h.dim == 0 else g.dim - h.dim
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
    b = killing_form(g)
    level = CochainLevel(g, gmod.trivial_module(g, 1), 3)
    coords = {}
    for idx, (i, j, k) in enumerate(level.tuples):
        bk, bracket = b.column(k), g.brackets[i]
        coords[idx] = Fraction(sum(bk[t] * c for t, c in bracket.int_rows[j].items()), bracket.den)
    form = Matrix._raw(1, level.space_dim, [coords])
    if not (differential_matrix(level) * form.transpose()).is_zero():
        raise AssertionError("Killing 3-form is not closed; bracket data is corrupt")
    # the class is nonzero when the form is outside the span of the coboundaries
    span = differential_matrix(level.shifted(-1)).transpose()._span()
    return ThreeFormClass(Cochain(level, form.row(0)), span.add(form.int_rows[0]))


@dataclass(frozen=True)
class VolumeFormResult:
    dim_top_relative: int
    form: Cochain | None


def invariant_volume_form(g: LieAlgebra, h: Subalgebra | None) -> VolumeFormResult:
    """Dimension of the top-degree relative space; its generator when unique.

    Dimension one is the algebraic counterpart of an invariant volume form
    on the corresponding homogeneous space existing uniquely up to scale.
    """
    top = g.dim - (h.dim if h is not None else 0)
    level = CochainLevel(g, gmod.trivial_module(g, 1), top)
    if h is None or h.dim == 0:
        basis = Matrix.identity(level.space_dim)
    else:
        basis = relative_basis(level, h)
    form = Cochain(level, basis.row(0)) if basis.rows == 1 else None
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
    top = g.dim - (h.dim if h is not None else 0)
    if not (0 <= k <= top):
        raise ValueError(f"degree {k} out of range 0..{top}")
    left = cohomology(g, module, k, h).betti
    right = cohomology(g, gmod.dual_module(module), top - k, h).betti
    return DualityReport(left, right, left == right)
