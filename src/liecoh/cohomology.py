"""Betti numbers and distinguished cocycles of the (relative) complex.

Dimensions are kernel/image ranks of exact matrices, so every number here
is an integer fact, not an approximation.  Cocycles and coboundaries stay
sparse rows from the operator matrices to one
:class:`~liecoh.ratlin.EchelonSpan` pass per degree (the coboundaries as
the operators' integer rows, the cocycles as kernel rows): the
coboundaries are added first, which gives rank(B), and the canonical
cocycle basis Z is then added greedily.  The cocycles that enlarge the
span are the representatives, so they are deterministic and safe to
freeze in tests, and dim H = |Z| - rank(B) holds exactly when their
number matches; any other count means B is not inside span(Z).  Only
the returned representatives are made dense.

When the module has a weight grading (:mod:`liecoh.cecomplex`), absolute
cocycles and coboundaries are taken on the weight-zero cells only, and the
output is the same as on the full level.  delta is block-diagonal by
weight, and the RREF of a block-diagonal matrix is the union of the RREFs
of its blocks, so the kernel rows of the weight-zero block are the
canonical kernel rows at weight zero, in the same order.  For a weight
lambda != 0, L_H = delta i_H + i_H delta puts every cocycle of weight
lambda in B, and delta^2 = 0 (the module axiom) puts B of weight lambda
in Z: the greedy pass never picks a cocycle of nonzero weight, and
dim H = |Z_0| - rank(B_0).  The representatives are mapped back to their
positions in the full level.

Relative cocycles and coboundaries are taken in the beta coordinates of
g/h (:mod:`liecoh.cecomplex`): with Q those of the relative basis bt, Z is
K Q for the kernel rows K of delta_q Q^T, B is Q_{k-1} delta_q^T, and the
representatives, rows of K bt, are full-level forms.  The map to beta
coordinates is injective, so the greedy pass picks what it would pick on
the full level.
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
    relative_subspace,
    weight_grading,
    weight_zero_positions,
)
from .liealg import LieAlgebra, Subalgebra, killing_form, structure_report, unit
from .ratlin import Matrix, SubspaceNotContained, dense_vector


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
    if graded:
        # only the weight-zero cells, numbered in the order of the full level
        cocycles = graded_differential(level_k).kernel_rows()
        coboundaries = graded_differential(level_prev).transpose()
    elif not relative:
        cocycles = differential_matrix(level_k).kernel_rows()
        coboundaries = differential_matrix(level_prev).transpose()
    else:
        # beta coordinates: q has one row per vector of the relative basis bt
        bt = relative_subspace(level_k, h)
        q = beta_coordinates(level_k, h, bt)
        kernel = (quotient_differential(level_k, h) * q.transpose()).kernel_rows()
        cocycles = (Matrix._raw(len(kernel), q.rows, kernel) * q).int_rows
        q_prev = beta_coordinates(level_prev, h, relative_subspace(level_prev, h))
        coboundaries = q_prev * quotient_differential(level_prev, h).transpose()

    n = level_k.space_dim
    span = coboundaries._span()
    rank_b = span.rank
    # the cocycles are independent (a kernel basis, or its image under the
    # injective map to beta coordinates), so |Z| - rank(B) is the quotient dimension
    betti = len(cocycles) - rank_b
    chosen = [i for i, v in enumerate(cocycles) if span.add(v)]
    if len(chosen) != betti:
        # rank(Z + B) > rank(Z): some coboundary is not a cocycle
        raise SubspaceNotContained(
            f"span of rank {rank_b} is not inside the rank-{len(cocycles)} span"
        )
    reps = [cocycles[i] for i in chosen]
    if graded:
        positions = weight_zero_positions(level_k)
        reps = [{positions[j]: x for j, x in v.items()} for v in reps]
    elif relative:
        # the rows of K bt are the full-level forms with these beta coordinates
        bt_rows = [{j: x for j, x in enumerate(v) if x} for v in bt]
        picked = Matrix._raw(len(chosen), len(bt), [kernel[i] for i in chosen])
        reps = (picked * Matrix._raw(len(bt), n, bt_rows)).sparse_rows
    reps = tuple(Cochain(level_k, dense_vector(v, n)) for v in reps)
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
        value = Fraction(sum(bk[t] * c for t, c in bracket.int_rows[j].items()), bracket.den)
        if value:
            coords[idx] = value
    form = Cochain(level, dense_vector(coords, level.space_dim))
    if not (differential_matrix(level) * Matrix.from_columns([form.coords])).is_zero():
        raise AssertionError("Killing 3-form is not closed; bracket data is corrupt")
    # the class is nonzero when the form is outside the span of the coboundaries
    span = differential_matrix(level.shifted(-1)).transpose()._span()
    return ThreeFormClass(form, span.add(coords))


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
        basis = [unit(level.space_dim, i) for i in range(level.space_dim)]
    else:
        basis = list(relative_subspace(level, h))
    form = Cochain(level, basis[0]) if len(basis) == 1 else None
    return VolumeFormResult(len(basis), form)


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
