"""Central-extension pairs, the catalog, and the vanishing reports."""

import dataclasses
import importlib
from fractions import Fraction as Q

import pytest

from liecoh import extensions, gmod
from liecoh.cohomology import betti_sequence, cohomology, duality_report, invariant_volume_form
from liecoh.extensions import (
    ExtensionPair,
    MixingNotRational,
    MixingRankDeficient,
    RNotAbelian,
    RNotCommutingWithH,
    UnknownName,
    builtin,
    central_extension,
    verify_vanishing,
)
from liecoh.gmod import MixedAlgebras, adjoint_module, coadjoint_module, module_from_spec
from liecoh.liealg import (
    DimensionMismatch,
    LieAlgebra,
    derived_subalgebra,
    killing_determinant,
    structure_report,
    subalgebra,
    unit,
)

# the package's ``cohomology`` attribute is the function, not its module
cohomology_module = importlib.import_module("liecoh.cohomology")

K1 = (0, 1, -1)  # the rotation direction E - F inside sl2


def test_central_extension_of_sl2():
    g = builtin("sl2").algebra
    pair = central_extension(g, None, [K1], 1, [[1]])
    assert pair.algebra.dim == 4
    assert pair.isotropy.dim == 1
    assert pair.homogeneous_dim == 3
    # the isotropy generator is E - F + c, up to echelon rescaling
    (v,) = pair.isotropy.vectors
    assert v == (Q(0), Q(1), Q(-1), Q(1))


def test_central_extension_seven_dim():
    g = builtin("sl2sl2").algebra
    k1 = (0, 1, -1, 0, 0, 0)
    k2 = (0, 0, 0, 0, 1, -1)
    pair = central_extension(g, None, [k1, k2], 1, [[1, 2]])
    assert pair.algebra.dim == 7
    assert pair.isotropy.dim == 2
    assert pair.homogeneous_dim == 5


def test_new_generators_are_central():
    pair = builtin("fivedim_ext:2").pair
    g = pair.algebra
    c = unit(g.dim, g.dim - 1)
    for i in range(g.dim):
        assert not any(g.bracket(c, unit(g.dim, i)))


def test_central_extension_rejects_nonabelian_directions():
    g = builtin("sl2").algebra
    with pytest.raises(RNotAbelian):
        central_extension(g, None, [(0, 1, 0), (0, 0, 1)], 1, [[1, 1]])  # [E,F] = H


def test_central_extension_rejects_noncommuting_with_h():
    g = builtin("sl2").algebra
    h = subalgebra(g, [(1, 0, 0)])  # span(H)
    with pytest.raises(RNotCommutingWithH):
        central_extension(g, h, [(0, 1, 0)], 1, [[1]])  # [H,E] = 2E


def test_central_extension_brackets_every_pair_in_one_batch(monkeypatch):
    # the commutation checks bracket the rows of h and the directions in one
    # batch, not pair by pair; refusals keep their class, message and order
    names = ("sl2R_ext", "fivedim_ext:1", "fivedim_ext:-3/4")
    want = {name: builtin(name).pair for name in names}

    def refuse(*args):
        raise AssertionError("single-pair bracket")

    monkeypatch.setattr(LieAlgebra, "bracket", refuse)
    for name in names:
        assert builtin.__wrapped__(name).pair == want[name], name
    sl2, sl2sl2 = builtin("sl2").algebra, builtin("sl2sl2").algebra
    span_h = subalgebra(sl2, [(1, 0, 0)])
    with pytest.raises(RNotAbelian, match="^directions 0 and 1 do not commute$"):
        central_extension(sl2, None, [(0, 1, 0), (0, 0, 1)], 1, [[1, 1]])
    with pytest.raises(RNotCommutingWithH, match="^direction 0 does not commute with the"):
        central_extension(sl2, span_h, [(0, 1, 0)], 1, [[1]])
    # H2 commutes with H1 and E1, but [H1, E1] = 2 E1: the second direction fails
    span_h1 = subalgebra(sl2sl2, [unit(6, 0)])
    with pytest.raises(RNotCommutingWithH, match="^direction 1 does not commute with the"):
        central_extension(sl2sl2, span_h1, [unit(6, 3), unit(6, 1)], 1, [[1, 1]])
    # E and F fail both checks: the directions among themselves are checked first
    with pytest.raises(RNotAbelian, match="^directions 0 and 1 do not commute$"):
        central_extension(sl2, span_h, [(0, 1, 0), (0, 0, 1)], 1, [[1, 1]])


def test_central_extension_rejects_rank_deficient_mixing():
    g = builtin("sl2sl2").algebra
    k1 = (0, 1, -1, 0, 0, 0)
    k2 = (0, 0, 0, 0, 1, -1)
    with pytest.raises(MixingRankDeficient):
        central_extension(g, None, [k1, k2], 2, [[1, 1], [2, 2]])
    with pytest.raises(DimensionMismatch):
        central_extension(g, None, [k1, k2], 1, [[1]])


def test_central_extension_refuses_ragged_mixing():
    # a ragged mixing matrix once ended in a ValueError from Matrix.from_rows
    g = builtin("sl2sl2").algebra
    k1 = (0, 1, -1, 0, 0, 0)
    k2 = (0, 0, 0, 0, 1, -1)
    with pytest.raises(DimensionMismatch, match="^mixing matrix must be 1x2, got rows of 1 to 2"):
        central_extension(g, None, [k1, k2], 1, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch, match="^mixing matrix must be 1x2, got 1x1$"):
        central_extension(g, None, [k1, k2], 1, [[1]])


def test_central_extension_refuses_a_flat_or_non_numeric_mixing():
    # a flat list once ended in a TypeError from len, a non-numeric entry in a
    # ValueError from Fraction
    g = builtin("sl2").algebra
    with pytest.raises(DimensionMismatch, match="^mixing matrix must be 1x1, got 1 as a row$"):
        central_extension(g, None, [(0, 1, -1)], 1, [1])
    for entry, shown in (("x", "'x'"), (1.5, "1.5"), ("1/0", "'1/0'")):
        with pytest.raises(MixingNotRational) as info:
            central_extension(g, None, [(0, 1, -1)], 1, [[entry]])
        assert str(info.value) == f"mixing entry {shown} is not an exact rational"


def test_central_extension_refuses_an_h_of_another_algebra():
    # sl2sl2's h once ended in a ValueError from zip; abelian:3's was read in sl2's coordinates
    g = builtin("sl2").algebra
    for name, vector in (("sl2sl2", (0, 1, -1, 0, 0, 0)), ("abelian:3", K1)):
        h = subalgebra(builtin(name).algebra, [vector])
        with pytest.raises(MixedAlgebras):
            central_extension(g, h, [K1], 1, [[1]])


def test_builtin_catalog_names():
    assert builtin("sl2").algebra.dim == 3
    assert builtin("abelian:2").algebra.dim == 2
    assert builtin("fivedim_ext:2").pair.algebra.dim == 7
    with pytest.raises(UnknownName):
        builtin("so17")
    with pytest.raises(UnknownName):
        builtin("abelian:x")


def test_unknown_name_message_lists_the_catalog_in_order():
    with pytest.raises(UnknownName) as exc:
        builtin("so17")
    assert str(exc.value) == (
        "unknown catalog name 'so17'; known: sl2, so3, sl2sl2, heis3, abelian:n, "
        "sl2_so2_pair, sl2R_ext, fivedim_ext:alpha"
    )


def test_fivedim_slope_must_be_nonzero_rational():
    with pytest.raises(UnknownName):
        builtin("fivedim_ext:0")
    with pytest.raises(UnknownName):
        builtin("fivedim_ext:sqrt2")
    assert builtin("fivedim_ext:1/2").pair is not None


def _product(p, q):
    """The coefficients of the product of two polynomials given by their coefficients."""
    return tuple(sum(a * q[n - i] for i, a in enumerate(p) if 0 <= n - i < len(q))
                 for n in range(len(p) + len(q) - 1))


def test_catalog_annotations_hold():
    # the Betti numbers and semisimplicity of the catalog, against closed forms
    def betti(name, spec):
        entry = builtin(name)
        return betti_sequence(entry.algebra, module_from_spec(entry.algebra, spec), entry.h)

    for name in ("sl2", "so3"):
        assert betti(name, "trivial") == (1, 0, 0, 1), name  # Chevalley-Eilenberg: 1 + t^3
        assert betti(name, "adjoint") == (0, 0, 0, 0), name  # Whitehead
    sl2 = betti("sl2", "trivial")
    assert betti("sl2sl2", "trivial") == _product(sl2, sl2)  # Kunneth
    heis3 = builtin("heis3").algebra
    b1 = heis3.dim - derived_subalgebra(heis3).dim
    # Poincare duality: a nilpotent algebra is unimodular
    assert betti("heis3", "trivial") == (1, b1, b1, 1)
    assert betti("sl2_so2_pair", "trivial") == (1, 0, 1)  # the compact dual S^2
    for name in ("sl2", "so3", "sl2sl2", "heis3"):
        # Bareiss elimination, independent of the rank path of structure_report
        assert (killing_determinant(builtin(name).algebra) != 0) == (name != "heis3"), name


def test_verify_vanishing_three_dim():
    rep = verify_vanishing(builtin("sl2R_ext").pair)
    assert rep.betti1_adjoint == 0
    assert rep.betti_top_minus_one_coadjoint == 0
    assert rep.volume_form_dim == 1
    assert rep.duality.equal
    assert rep.passed


def test_verify_vanishing_five_dim():
    rep = verify_vanishing(builtin("fivedim_ext:2").pair)
    assert rep.betti1_adjoint == 0
    assert rep.betti_top_minus_one_coadjoint == 0
    assert rep.volume_form_dim == 1
    assert rep.passed


def test_extension_pairs_are_reductive_with_central_rank():
    for name in ("sl2R_ext", "fivedim_ext:1", "fivedim_ext:1/2"):
        pair = builtin(name).pair
        rep = structure_report(pair.algebra)
        assert rep.is_reductive
        assert rep.center.dim == pair.rank


def test_negative_control_dropping_the_central_pairing():
    # isotropy spanned by the rotation direction alone: the diagonal
    # pairing with the center is omitted, and vanishing must break
    pair = builtin("sl2R_ext").pair
    g = pair.algebra
    broken_h = subalgebra(g, [(0, 1, -1, 0)])
    broken = ExtensionPair(g, broken_h, pair.abelian_basis, pair.rank, g.dim - broken_h.dim)
    rep = verify_vanishing(broken)
    assert rep.betti1_adjoint == 1  # computed and frozen: the class c* (x) c
    assert not rep.passed


def test_negative_control_center_only_isotropy():
    # the central-only isotropy turns out NOT to break vanishing: the
    # interior-product condition kills cocycles on the center outright.
    # Frozen engine output, kept as a regression guard.
    pair = builtin("sl2R_ext").pair
    g = pair.algebra
    h_center = subalgebra(g, [(0, 0, 0, 1)])
    b1 = cohomology(g, adjoint_module(g), 1, h_center).betti
    b2 = cohomology(g, coadjoint_module(g), 2, h_center).betti
    vol = invariant_volume_form(g, h_center).dim_top_relative
    assert (b1, b2, vol) == (0, 0, 1)


def _rank2_pair():
    g = builtin("sl2sl2").algebra
    return central_extension(g, None, [(0, 1, -1, 0, 0, 0), (0, 0, 0, 0, 1, -1)], 2,
                             [[1, Q(-1, 2)], [2, 3]])


_VANISHING_PAIRS = ["sl2R_ext", "fivedim_ext:1", "fivedim_ext:2", "fivedim_ext:3",
                    "fivedim_ext:1/2", "fivedim_ext:-3/4", "fivedim_ext:5/2", "rank2"]


@pytest.mark.parametrize("name", _VANISHING_PAIRS)
def test_vanishing_duality_is_the_duality_report_of_degree_one(name):
    # the report derives the duality from its own two Betti numbers; the
    # reference recomputes them through the dual of the adjoint module
    pair = _rank2_pair() if name == "rank2" else builtin(name).pair
    g, h = pair.algebra, pair.isotropy
    rep = verify_vanishing(pair)
    assert rep.duality == duality_report(g, h, adjoint_module(g), 1)
    assert (rep.duality.left, rep.duality.right) == (
        rep.betti1_adjoint, rep.betti_top_minus_one_coadjoint)


def test_vanishing_reads_the_top_degree_of_the_complex_not_the_carried_one():
    pair = builtin("fivedim_ext:1").pair
    assert pair.homogeneous_dim == 5
    wrong = dataclasses.replace(pair, homogeneous_dim=4)
    assert verify_vanishing(wrong) == verify_vanishing(pair)
    assert verify_vanishing(pair).passed


def test_vanishing_computes_each_betti_number_once(monkeypatch):
    calls = []
    real = extensions.cohomology

    def refuse(*args):
        raise AssertionError("the duality was recomputed")

    monkeypatch.setattr(extensions, "cohomology", lambda *a: calls.append(a[2:]) or real(*a))
    monkeypatch.setattr(cohomology_module, "duality_report", refuse)
    monkeypatch.setattr(gmod, "dual_module", refuse)
    pair = builtin("fivedim_ext:2").pair
    assert verify_vanishing(pair).passed
    assert calls == [(1, pair.isotropy), (pair.homogeneous_dim - 1, pair.isotropy)]


def test_vanishing_reports_a_pair_of_top_degree_zero():
    # h = g: the complex is one point, so b_{top-1} is a degree outside it
    # and reads 0, and the pair does not pass
    g = builtin("sl2R_ext").algebra
    h = subalgebra(g, [unit(g.dim, i) for i in range(g.dim)])
    rep = verify_vanishing(ExtensionPair(g, h, (), 1, 0))
    assert (rep.betti1_adjoint, rep.betti_top_minus_one_coadjoint) == (0, 0)
    assert rep.duality.equal
    assert rep.volume_form_dim == 1
    assert not rep.passed
