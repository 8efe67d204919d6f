"""Betti numbers and distinguished cocycles of the (relative) complex.

Dimensions are kernel/image ranks of exact matrices, so every number here
is an integer fact, not an approximation.  Representatives are extracted
by a greedy echelon complement over the canonical cocycle basis, which
makes them deterministic and therefore safe to freeze in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from . import gmod
from .cecomplex import (
    Cochain,
    CochainLevel,
    differential_matrix,
    relative_subspace,
)
from .liealg import LieAlgebra, Subalgebra, killing_form, structure_report, unit
from .ratlin import EchelonSpan, Matrix, quotient_dim


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
    level_prev = CochainLevel(g, module, k - 1)
    delta_k = differential_matrix(level_k)
    delta_prev = differential_matrix(level_prev)

    if h is None or h.dim == 0:
        cocycles = delta_k.kernel_basis()
        coboundaries = [c for c in delta_prev.columns() if any(c)]
    else:
        sub_k = relative_subspace(level_k, h)
        sub_prev = relative_subspace(level_prev, h)
        if sub_k:
            bmat = Matrix.from_columns(sub_k, rows=level_k.space_dim)
            small_kernel = (delta_k * bmat).kernel_basis()
            cocycles = [bmat.apply(v) for v in small_kernel]
        else:
            cocycles = []
        coboundaries = [
            w for w in (delta_prev.apply(v) for v in sub_prev) if any(w)
        ]

    betti = quotient_dim(cocycles, coboundaries)
    span = EchelonSpan(level_k.space_dim)
    for v in coboundaries:
        span.add(v)
    reps = []
    for v in cocycles:
        if span.add(v):
            reps.append(Cochain(level_k, v))
    if len(reps) != betti:
        raise AssertionError("representative extraction disagrees with quotient dimension")
    return CohomologyResult(
        degree=k,
        betti=betti,
        cocycle_representatives=tuple(reps),
        relative=h is not None and h.dim > 0,
    )


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
    coords = []
    for (i, j, k) in level.tuples:
        bij = g.bracket_basis(i, j)
        bk = b.column(k)
        coords.append(sum(bk[t] * c for t, c in enumerate(bij) if c))
    form = Cochain(level, tuple(coords))
    image = differential_matrix(level).apply(form.coords)
    if any(image):
        raise AssertionError("Killing 3-form is not closed; bracket data is corrupt")
    boundaries = [c for c in differential_matrix(level.shifted(-1)).columns() if any(c)]
    span = EchelonSpan(level.space_dim)
    for v in boundaries:
        span.add(v)
    nonzero = span.add(form.coords) if not form.is_zero() else False
    return ThreeFormClass(form, nonzero)


@dataclass(frozen=True)
class VolumeFormResult:
    dim_top_relative: int
    form: Cochain | None


def invariant_volume_form(g: LieAlgebra, h: Subalgebra | None) -> VolumeFormResult:
    """Dimension of the top-degree relative space; its generator when unique.

    Dimension one is the algebraic counterpart of an invariant volume form
    on the corresponding homogeneous space existing uniquely up to scale.
    """
    hdim = h.dim if h is not None else 0
    top = g.dim - hdim
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
    hdim = h.dim if h is not None else 0
    top = g.dim - hdim
    if not (0 <= k <= top):
        raise ValueError(f"degree {k} out of range 0..{top}")
    left = cohomology(g, module, k, h).betti
    right = cohomology(g, gmod.dual_module(module), top - k, h).betti
    return DualityReport(left, right, left == right)
