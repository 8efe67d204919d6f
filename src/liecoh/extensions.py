"""Central extensions with diagonal isotropy, and the built-in catalog.

The constructor adjoins ``rank`` central generators to an algebra and
forms the diagonal isotropy subalgebra spanned by the original compact
directions together with each chosen abelian direction shifted by a
mixing combination of the new central generators.  The resulting pair is
exactly what the vanishing checks in :func:`verify_vanishing` consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import files, gmod
from .cohomology import DualityReport, cohomology, invariant_volume_form, relative_complex
from .liealg import (
    DimensionMismatch,
    LieAlgebra,
    LieAlgebraError,
    Subalgebra,
    _brief,
    _checked_algebra,
    _pair_brackets,
    check_dim,
    subalgebra,
    validate,
)
from .ratlin import Matrix, rational, vector

_ZERO = Fraction(0)


class RNotAbelian(LieAlgebraError):
    """The chosen directions do not commute with each other."""


class RNotCommutingWithH(LieAlgebraError):
    """The chosen directions do not commute with the compact subalgebra."""


class MixingRankDeficient(LieAlgebraError):
    """The mixing matrix does not have full row rank."""


class MixingNotRational(LieAlgebraError):
    """A mixing entry is not an exact rational."""


class UnknownName(LieAlgebraError):
    pass


@dataclass(frozen=True)
class ExtensionPair:
    """A centrally extended algebra with its diagonal isotropy subalgebra."""

    algebra: LieAlgebra          # original algebra plus central generators
    isotropy: Subalgebra         # diagonal subalgebra inside `algebra`
    abelian_basis: tuple         # chosen directions, in original coordinates
    rank: int                    # number of adjoined central generators
    homogeneous_dim: int         # dim algebra - dim isotropy


def central_extension(
    g: LieAlgebra,
    h: Subalgebra | None,
    abelian_basis: Sequence[Sequence],
    rank: int,
    mixing: Sequence[Sequence],
) -> ExtensionPair:
    """Adjoin central generators and pair them with abelian directions.

    ``mixing`` is a rank x len(abelian_basis) rational matrix of full row
    rank; direction i contributes the isotropy generator
    ``r_i + sum_a mixing[a][i] c_a``.
    """
    if h is not None and h.ambient != g:
        raise gmod.MixedAlgebras("the subalgebra h lives inside another algebra than g")
    r_vecs = [vector(v) for v in abelian_basis]
    if any(len(v) != g.dim for v in r_vecs):
        raise DimensionMismatch("abelian direction has wrong length")
    # the brackets of every pair a < b of the rows of h followed by the directions, one batch
    vecs = [*(h.vectors if h is not None else ()), *r_vecs]
    n_h = len(vecs) - len(r_vecs)
    pairs, brackets = _pair_brackets(g, Matrix(len(vecs), g.dim, vecs))
    clashes = [(a - n_h, b - n_h) for (a, b), w in zip(pairs, brackets.int_rows)
               if w and b >= n_h]
    for a, b in clashes:
        if a >= 0:
            raise RNotAbelian(f"directions {a} and {b} do not commute")
    if clashes:
        raise RNotCommutingWithH(f"direction {clashes[0][1]} does not commute with the subalgebra")
    for row in mixing:
        if not isinstance(row, (list, tuple)):
            raise DimensionMismatch(
                f"mixing matrix must be {rank}x{len(r_vecs)}, got {_brief(row)} as a row")
    lengths = {len(row) for row in mixing}
    if len(lengths) > 1:
        raise DimensionMismatch(f"mixing matrix must be {rank}x{len(r_vecs)}, "
                                f"got rows of {min(lengths)} to {max(lengths)} entries")
    mix = Matrix.from_rows([[_mixing_entry(x) for x in row] for row in mixing])
    if mix.rows != rank or mix.cols != len(r_vecs):
        raise DimensionMismatch(
            f"mixing matrix must be {rank}x{len(r_vecs)}, got {mix.rows}x{mix.cols}"
        )
    if mix.rank() != rank:
        raise MixingRankDeficient("mixing matrix has linearly dependent rows")

    dim_ext = g.dim + rank
    check_dim(dim_ext, "the algebra")
    names = g.basis_names + tuple(f"c{a + 1}" for a in range(rank))
    pairs = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
    stacked = Matrix._stack(dim_ext, ((g.brackets[i], j) for i, j in pairs))
    extended = _checked_algebra(dim_ext, names, pairs, stacked)

    pad = (_ZERO,) * rank
    iso_vectors = [hb + pad for hb in (h.vectors if h is not None else ())]
    iso_vectors += [r + mix.column(i) for i, r in enumerate(r_vecs)]
    isotropy = subalgebra(extended, iso_vectors)
    return ExtensionPair(
        algebra=extended,
        isotropy=isotropy,
        abelian_basis=tuple(r_vecs),
        rank=rank,
        homogeneous_dim=extended.dim - isotropy.dim,
    )


def _mixing_entry(x) -> Fraction:
    try:
        return rational(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise MixingNotRational(f"mixing entry {_brief(x)} is not an exact rational") from None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    h: Subalgebra | None
    pair: ExtensionPair | None


_SL2_BRACKETS = {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}


def _sl2() -> LieAlgebra:
    return validate(3, ("H", "E", "F"), _SL2_BRACKETS)


def _sl2sl2() -> LieAlgebra:
    brackets = {(i, j): v + (0, 0, 0) for (i, j), v in _SL2_BRACKETS.items()}
    brackets.update({(i + 3, j + 3): (0, 0, 0) + v for (i, j), v in _SL2_BRACKETS.items()})
    return validate(6, ("H1", "E1", "F1", "H2", "E2", "F2"), brackets)


def _abelian(count: str) -> LieAlgebra:
    try:
        n = files.parse_count(count)
    except files.ParseError:
        raise UnknownName(
            f"the dimension of abelian must be a count such as 3, not {_brief(count)}"
        )
    check_dim(n, f"catalog algebra {_brief('abelian:' + count)}")
    return validate(n, tuple(f"a{i + 1}" for i in range(n)), {})


def _fivedim_ext(slope: str) -> ExtensionPair:
    try:
        alpha = files.parse_rational(slope)
    except files.ParseError:
        alpha = None
    if not alpha:
        raise UnknownName(
            "the slope of fivedim_ext must be a nonzero rational such as 2 or 1/2, "
            f"not {_brief(slope)}; "
            "irrational slopes are not supported by this exact engine"
        )
    k1 = (0, 1, -1, 0, 0, 0)
    k2 = (0, 0, 0, 0, 1, -1)
    return central_extension(_sl2sl2(), None, [k1, k2], 1, [[1, alpha]])


# catalog name -> builder of the one LieAlgebra, Subalgebra (of its ambient
# algebra) or ExtensionPair the name stands for, in catalog order.  A family is
# keyed "<head>:<argument>"; its builder parses the text after the colon.
_CATALOG = {
    "sl2": _sl2,
    "so3": lambda: validate(
        3, ("X", "Y", "Z"), {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}
    ),
    "sl2sl2": _sl2sl2,
    "heis3": lambda: validate(3, ("X", "Y", "Z"), {(0, 1): (0, 0, 1)}),
    "abelian:n": _abelian,
    "sl2_so2_pair": lambda: subalgebra(_sl2(), [(0, 1, -1)]),
    "sl2R_ext": lambda: central_extension(_sl2(), None, [(0, 1, -1)], 1, [[1]]),
    "fivedim_ext:alpha": _fivedim_ext,
}
BUILTIN_NAMES = tuple(_CATALOG)
_FAMILIES = {key.split(":", 1)[0]: build for key, build in _CATALOG.items() if ":" in key}


@lru_cache(maxsize=None)
def builtin(name: str) -> CatalogEntry:
    """Look up a built-in algebra or pair by its stable catalog name."""
    head, colon, argument = name.partition(":")
    if colon and head in _FAMILIES:
        built = _FAMILIES[head](argument)
    elif name in _CATALOG:
        built = _CATALOG[name]()
    else:
        raise UnknownName(
            f"unknown catalog name {_brief(name)}; known: {', '.join(BUILTIN_NAMES)}"
        )
    if isinstance(built, ExtensionPair):
        return CatalogEntry(name, built.algebra, built.isotropy, built)
    if isinstance(built, Subalgebra):
        return CatalogEntry(name, built.ambient, built, None)
    return CatalogEntry(name, built, None, None)


@dataclass(frozen=True)
class VanishingReport:
    betti1_adjoint: int
    betti_top_minus_one_coadjoint: int
    duality: DualityReport
    volume_form_dim: int
    passed: bool


def verify_vanishing(pair: ExtensionPair) -> VanishingReport:
    """The vanishing facts the rigidity argument rests on, as computed values.

    Passing means: degree-1 relative cohomology with adjoint coefficients
    vanishes, the complementary-degree coadjoint cohomology vanishes, and
    the top-degree relative space is one-dimensional (a unique invariant
    volume form up to scale).  Failures are reported, never raised.

    Each Betti number is computed once.  The top degree n is dim g - dim h
    of the complex itself (``relative_complex``), not the carried
    ``pair.homogeneous_dim``.  The coadjoint module is the dual of the
    adjoint one, so the duality of degree 1 compares the two numbers
    already computed: b_1(g, h; g) with b_{n-1}(g, h; g*).  When h is all
    of g, n = 0: b_1 and b_{-1} read 0, degrees outside the complex, and the
    pair does not pass, as a point has no rigidity statement.
    """
    g, h = pair.algebra, pair.isotropy
    adj = gmod.adjoint_module(g)
    top = relative_complex(g, adj, h)[1]
    b1 = cohomology(g, adj, 1, h).betti if top else 0
    b_top = cohomology(g, gmod.coadjoint_module(g), top - 1, h).betti if top else 0
    vol = invariant_volume_form(g, h).dim_top_relative
    return VanishingReport(
        betti1_adjoint=b1,
        betti_top_minus_one_coadjoint=b_top,
        duality=DualityReport(b1, b_top, b1 == b_top),
        volume_form_dim=vol,
        passed=(top > 0 and b1 == 0 and b_top == 0 and vol == 1),
    )
