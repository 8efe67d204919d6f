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

from . import gmod
from .cohomology import DualityReport, cohomology, duality_report, invariant_volume_form
from .liealg import (
    DimensionMismatch,
    LieAlgebra,
    Subalgebra,
    check_dim,
    subalgebra,
    validate,
)
from .ratlin import Matrix, dense_vector, rational, vector

_ZERO = Fraction(0)


class RNotAbelian(Exception):
    """The chosen directions do not commute with each other."""


class RNotCommutingWithH(Exception):
    """The chosen directions do not commute with the compact subalgebra."""


class MixingRankDeficient(Exception):
    """The mixing matrix does not have full row rank."""


class UnknownName(Exception):
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
    r_vecs = [vector(v) for v in abelian_basis]
    for v in r_vecs:
        if len(v) != g.dim:
            raise DimensionMismatch("abelian direction has wrong length")
    for a in range(len(r_vecs)):
        for b in range(a + 1, len(r_vecs)):
            if any(g.bracket(r_vecs[a], r_vecs[b])):
                raise RNotAbelian(f"directions {a} and {b} do not commute")
    if h is not None:
        for hb in h.vectors:
            for i, r in enumerate(r_vecs):
                if any(g.bracket(hb, r)):
                    raise RNotCommutingWithH(
                        f"direction {i} does not commute with the subalgebra"
                    )
    mix = Matrix.from_rows([[rational(x) for x in row] for row in mixing])
    if mix.rows != rank or mix.cols != len(r_vecs):
        raise DimensionMismatch(
            f"mixing matrix must be {rank}x{len(r_vecs)}, got {mix.rows}x{mix.cols}"
        )
    if mix.rank() != rank:
        raise MixingRankDeficient("mixing matrix has linearly dependent rows")

    dim_ext = g.dim + rank
    names = g.basis_names + tuple(f"c{a + 1}" for a in range(rank))
    brackets = {}
    for i, b in enumerate(g.brackets):
        for j in range(i + 1, g.dim):
            row = b.sparse_rows[j]
            if row:
                brackets[(i, j)] = dense_vector(row, dim_ext)
    extended = validate(dim_ext, names, brackets)

    iso_vectors = []
    if h is not None:
        for hb in h.vectors:
            iso_vectors.append(hb + (_ZERO,) * rank)
    for i, r in enumerate(r_vecs):
        tail = mix.column(i)
        iso_vectors.append(r + tail)
    isotropy = subalgebra(extended, iso_vectors)
    return ExtensionPair(
        algebra=extended,
        isotropy=isotropy,
        abelian_basis=tuple(r_vecs),
        rank=rank,
        homogeneous_dim=extended.dim - isotropy.dim,
    )


@dataclass(frozen=True)
class Annotations:
    semisimple: bool | None = None
    compact_h: bool | None = None
    irreducible_modules: tuple[str, ...] = ()
    # (module spec, betti by degree); relative when the entry carries h
    expected_betti: tuple = ()


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    h: Subalgebra | None
    annotations: Annotations
    pair: ExtensionPair | None = None


def _sl2() -> LieAlgebra:
    return validate(
        3,
        ("H", "E", "F"),
        {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)},
    )


def _so3() -> LieAlgebra:
    return validate(
        3,
        ("X", "Y", "Z"),
        {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)},
    )


def _sl2sl2() -> LieAlgebra:
    brackets = {}
    for off in (0, 3):
        h, e, f = off, off + 1, off + 2
        z = [_ZERO] * 6
        for (i, j), vals in {
            (h, e): {e: 2},
            (h, f): {f: -2},
            (e, f): {h: 1},
        }.items():
            row = list(z)
            for t, c in vals.items():
                row[t] = Fraction(c)
            brackets[(i, j)] = tuple(row)
    return validate(6, ("H1", "E1", "F1", "H2", "E2", "F2"), brackets)


def _heis3() -> LieAlgebra:
    return validate(3, ("X", "Y", "Z"), {(0, 1): (0, 0, 1)})


def _abelian(n: int) -> LieAlgebra:
    return validate(n, tuple(f"a{i + 1}" for i in range(n)), {})


BUILTIN_NAMES = (
    "sl2",
    "so3",
    "sl2sl2",
    "heis3",
    "abelian:n",
    "sl2_so2_pair",
    "sl2R_ext",
    "fivedim_ext:alpha",
)


@lru_cache(maxsize=None)
def builtin(name: str) -> CatalogEntry:
    """Look up a built-in algebra or pair by its stable catalog name."""
    if name == "sl2":
        return CatalogEntry(
            name,
            _sl2(),
            None,
            Annotations(
                semisimple=True,
                irreducible_modules=("adjoint", "coadjoint"),
                expected_betti=(("trivial", (1, 0, 0, 1)), ("adjoint", (0, 0, 0, 0))),
            ),
        )
    if name == "so3":
        return CatalogEntry(
            name,
            _so3(),
            None,
            Annotations(
                semisimple=True,
                irreducible_modules=("adjoint", "coadjoint"),
                expected_betti=(("trivial", (1, 0, 0, 1)), ("adjoint", (0, 0, 0, 0))),
            ),
        )
    if name == "sl2sl2":
        return CatalogEntry(
            name,
            _sl2sl2(),
            None,
            Annotations(
                semisimple=True,
                expected_betti=(("trivial", (1, 0, 0, 2, 0, 0, 1)),),
            ),
        )
    if name == "heis3":
        return CatalogEntry(
            name,
            _heis3(),
            None,
            Annotations(semisimple=False, expected_betti=(("trivial", (1, 2, 2, 1)),)),
        )
    if name.startswith("abelian:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise UnknownName(f"bad abelian dimension in {name!r}")
        if n < 0:
            raise UnknownName("abelian dimension must be nonnegative")
        check_dim(n, f"catalog algebra {name!r}")
        return CatalogEntry(
            name,
            _abelian(n),
            None,
            Annotations(semisimple=(n == 0)),
        )
    if name == "sl2_so2_pair":
        g = _sl2()
        h = subalgebra(g, [(0, 1, -1)])
        return CatalogEntry(
            name,
            g,
            h,
            Annotations(
                semisimple=True,
                compact_h=True,
                expected_betti=(("trivial", (1, 0, 1)),),
            ),
        )
    if name == "sl2R_ext":
        pair = central_extension(_sl2(), None, [(0, 1, -1)], 1, [[1]])
        return CatalogEntry(
            name,
            pair.algebra,
            pair.isotropy,
            Annotations(compact_h=True),
            pair=pair,
        )
    if name.startswith("fivedim_ext:"):
        alpha_text = name.split(":", 1)[1]
        try:
            alpha = rational(alpha_text)
        except (ValueError, ZeroDivisionError, TypeError):
            raise UnknownName(
                f"the slope in {name!r} must be a nonzero rational such as 2 or 1/2; "
                "irrational slopes are not supported by this exact engine"
            )
        if alpha == 0:
            raise UnknownName("the slope of fivedim_ext must be nonzero")
        g = _sl2sl2()
        k1 = (0, 1, -1, 0, 0, 0)
        k2 = (0, 0, 0, 0, 1, -1)
        pair = central_extension(g, None, [k1, k2], 1, [[1, alpha]])
        return CatalogEntry(
            name,
            pair.algebra,
            pair.isotropy,
            Annotations(compact_h=True),
            pair=pair,
        )
    raise UnknownName(f"unknown catalog name {name!r}; known: {', '.join(BUILTIN_NAMES)}")


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
    """
    g, h = pair.algebra, pair.isotropy
    adj = gmod.adjoint_module(g)
    b1 = cohomology(g, adj, 1, h).betti
    top = pair.homogeneous_dim
    b_top = cohomology(g, gmod.coadjoint_module(g), top - 1, h).betti
    dual = duality_report(g, h, adj, 1)
    vol = invariant_volume_form(g, h).dim_top_relative
    return VanishingReport(
        betti1_adjoint=b1,
        betti_top_minus_one_coadjoint=b_top,
        duality=dual,
        volume_form_dim=vol,
        passed=(b1 == 0 and b_top == 0 and vol == 1),
    )
