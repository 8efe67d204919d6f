"""Cochain levels, the differential, i_X/L_X, the degree -1 map, relatives."""

import copy
import dataclasses
import hashlib
import importlib
import pickle
import random
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
from dense import apply, echelon_basis
from liecoh import cecomplex, cli, suite
from liecoh.cecomplex import (
    Cochain,
    CochainLevel,
    basis_cochain,
    differential_matrix,
    interior_product_matrix,
    j_map_matrix,
    lie_derivative_matrix,
    relative_closure_holds,
    relative_subspace,
    tuple_basis,
    wedge_one_form_matrix,
)
from liecoh.cohomology import killing_three_form
from liecoh.extensions import BUILTIN_NAMES, builtin
from liecoh.gmod import (
    adjoint_module,
    coadjoint_module,
    make_module,
    module_from_spec,
    trivial_module,
)
from liecoh.liealg import DimensionMismatch, change_of_basis, subalgebra, unit, validate
from liecoh.cohomology import betti_sequence
from liecoh.ratlin import Matrix, solve_columns
from liecoh.suite import check_operator_identities, random_identity_sample
from test_graded import SL

# the package's ``cohomology`` attribute is the function, not its module
cohomology_module = importlib.import_module("liecoh.cohomology")


def level(name, spec, k):
    g = builtin(name).algebra
    mod = {"trivial": trivial_module(g, 1), "adjoint": adjoint_module(g),
           "coadjoint": coadjoint_module(g)}[spec]
    return CochainLevel(g, mod, k)


def test_tuple_basis_is_lexicographic():
    assert tuple_basis(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert tuple_basis(3, 0) == ((),)
    assert tuple_basis(3, 4) == ()


def test_wedge_convention_on_basis_forms():
    lvl = level("sl2", "trivial", 2)
    w = basis_cochain(lvl, (1, 2))  # E* ^ F*
    assert w.evaluate((1, 2)) == (Q(1),)
    assert w.evaluate((2, 1)) == (Q(-1),)
    assert w.evaluate((1, 1)) == (Q(0),)
    assert w.evaluate((0, 2)) == (Q(0),)


def test_evaluate_rejects_an_index_outside_the_basis():
    w = basis_cochain(level("sl2", "trivial", 2), (1, 2))
    for args in ((0, 7), (-1, 2), (2, -1), (3, 3)):
        with pytest.raises(ValueError, match=r"^argument indices must lie in 0\.\.2, got \("):
            w.evaluate(args)
    assert w.evaluate((2, 1)) == (Q(-1),)


def test_a_cochain_is_one_matrix_row_of_its_level():
    lvl = level("sl2", "adjoint", 2)
    for row in (tuple(range(9)), Matrix.zero(2, 9), Matrix.zero(1, 8)):
        with pytest.raises(ValueError, match="^a cochain of this level is a 1x9 Matrix row$"):
            Cochain(lvl, row)
    # cells 3..5 are (0, 2) (x) v0..v2, cells 6..8 are (1, 2) (x) v0..v2
    w = Cochain(lvl, Matrix.from_rows([[0, 0, 0, "1/2", 0, 0, 0, 0, -3]]))
    assert w.coords == (Q(0),) * 3 + (Q(1, 2),) + (Q(0),) * 4 + (Q(-3),)
    assert w.evaluate((2, 0)) == (Q(-1, 2), Q(0), Q(0))
    assert w.evaluate((1, 2)) == (Q(0), Q(0), Q(-3))
    assert not w.is_zero() and Cochain(lvl, Matrix.zero(1, 9)).is_zero()
    assert cli._format_cochain(w) == "1/2*H*^F**v0 + -3*E*^F**v2"


def test_unrank_inverts_rank_on_every_tuple():
    for dim in range(8):
        for k in range(dim + 1):
            for i, t in enumerate(tuple_basis(dim, k)):
                assert cecomplex._rank(dim, t) == i and cecomplex._unrank(dim, k, i) == t


def test_index_and_cell_invert_each_other_on_every_cell():
    for name, spec in (("heis3", "trivial"), ("sl2", "adjoint"), ("abelian:4", "trivial:2")):
        g = builtin(name).algebra
        for k in range(g.dim + 1):
            lvl = CochainLevel(g, module_from_spec(g, spec), k)
            cells = [(t, m) for t in lvl.tuples for m in range(lvl.vdim)]
            assert [lvl.cell(j) for j in range(lvl.space_dim)] == cells
            assert [lvl.index(t, m) for t, m in cells] == list(range(lvl.space_dim))


@pytest.mark.parametrize("t, m", [((1, 0), 0), ((0, 0), 0), ((0, 3), 0), ((-1, 0), 0),
                                  ((0,), 0), ((0, 1, 2), 0), ([0, 1], 0), ((0, 1), 3),
                                  ((0, 1), -1)])
def test_index_refuses_what_is_not_a_cell(t, m):
    lvl = level("sl2", "adjoint", 2)
    with pytest.raises(ValueError):
        lvl.index(t, m)


def test_cell_refuses_an_index_outside_the_level():
    lvl = level("sl2", "adjoint", 2)
    for j in (-1, lvl.space_dim):
        with pytest.raises(ValueError):
            lvl.cell(j)


def test_a_basis_cochain_is_placed_without_listing_the_level():
    g = builtin("abelian:22").algebra
    lvl = CochainLevel(g, trivial_module(g, 1), 11)
    caches = (cecomplex.tuple_basis,)
    before = [cache.cache_info().currsize for cache in caches]
    start = time.perf_counter()
    c = basis_cochain(lvl, tuple(range(11)))
    assert time.perf_counter() - start < 0.01
    # listing the 705432 tuples of this level takes about a second and 190 MiB
    assert [cache.cache_info().currsize for cache in caches] == before
    assert c.row.int_rows[0] == {0: 1} and lvl.cell(0) == (tuple(range(11)), 0)


def test_differential_of_h_star():
    lvl = level("sl2", "trivial", 1)
    d = differential_matrix(lvl)
    image = apply(d, basis_cochain(lvl, (0,)).coords)  # H*
    out = Cochain(lvl.shifted(1), Matrix.from_rows([image]))
    # d(H*) = -E* ^ F*
    assert out.evaluate((1, 2)) == (Q(-1),)
    assert out.evaluate((0, 1)) == (Q(0),)
    assert out.evaluate((0, 2)) == (Q(0),)


def test_differential_at_top_degree_is_zero_map():
    lvl = level("sl2", "trivial", 3)
    d = differential_matrix(lvl)
    assert d.rows == 0 and d.cols == 1


def test_heisenberg_d1_has_rank_one():
    assert differential_matrix(level("heis3", "trivial", 1)).rank() == 1


def test_interior_product_examples():
    lvl = level("sl2", "trivial", 2)
    w = basis_cochain(lvl, (1, 2)).coords  # E* ^ F*
    i_h = apply(interior_product_matrix(lvl, (1, 0, 0)), w)
    assert not any(i_h)
    i_e = apply(interior_product_matrix(lvl, (0, 1, 0)), w)
    assert Cochain(lvl.shifted(-1), Matrix.from_rows([i_e])).evaluate((2,)) == (Q(1),)  # F*
    assert Cochain(lvl.shifted(-1), Matrix.from_rows([i_e])).evaluate((0,)) == (Q(0),)


def test_lie_derivative_on_scalars_is_zero():
    lvl = level("so3", "trivial", 0)
    for i in range(3):
        assert lie_derivative_matrix(lvl, unit(3, i)).is_zero()


def test_cartan_relation_all_levels():
    rng = random.Random(5)
    for name, spec in (("sl2", "adjoint"), ("heis3", "coadjoint"), ("so3", "trivial")):
        g = builtin(name).algebra
        x = tuple(Q(rng.randint(-2, 2)) for _ in range(g.dim))
        for k in range(g.dim + 1):
            lvl = level(name, spec, k)
            lhs = lie_derivative_matrix(lvl, x)
            rhs = differential_matrix(lvl.shifted(-1)) * interior_product_matrix(lvl, x) + (
                interior_product_matrix(lvl.shifted(1), x) * differential_matrix(lvl)
            )
            assert lhs == rhs, (name, spec, k)


def test_differential_squares_to_zero_on_builtins():
    for name in ("sl2", "so3", "heis3", "sl2sl2", "abelian:3"):
        for spec in ("trivial", "adjoint", "coadjoint"):
            g = builtin(name).algebra
            for k in range(g.dim + 1):
                lvl = level(name, spec, k)
                assert (differential_matrix(lvl.shifted(1)) * differential_matrix(lvl)).is_zero()


def test_relative_dims_sl2_so2():
    entry = builtin("sl2_so2_pair")
    dims = [
        len(relative_subspace(CochainLevel(entry.algebra, trivial_module(entry.algebra, 1), k), entry.h))
        for k in range(4)
    ]
    assert dims == [1, 0, 1, 0]


def test_relative_survivor_is_hyperbolic_area_form():
    entry = builtin("sl2_so2_pair")
    lvl = CochainLevel(entry.algebra, trivial_module(entry.algebra, 1), 2)
    (v,) = relative_subspace(lvl, entry.h)
    w = Cochain(lvl, Matrix.from_rows([v]))
    # the invariant 2-form pairs H with E and F equally and kills E^F
    assert w.evaluate((0, 1)) == w.evaluate((0, 2))
    assert w.evaluate((1, 2)) == (Q(0),)
    assert w.evaluate((0, 1)) != (Q(0),)


def test_relative_basis_vectors_are_annihilated():
    # every basis vector of a relative subspace is killed by i_X and L_X
    # for every X in the subalgebra basis, as exact matrix identities
    for name in ("sl2_so2_pair", "sl2R_ext"):
        entry = builtin(name)
        g = entry.algebra
        for k in range(g.dim - entry.h.dim + 1):
            lvl = CochainLevel(g, adjoint_module(g), k)
            for v in relative_subspace(lvl, entry.h):
                for x in entry.h.vectors:
                    assert not any(apply(interior_product_matrix(lvl, x), v))
                    assert not any(apply(lie_derivative_matrix(lvl, x), v))


def test_relative_with_zero_subalgebra_is_full_space():
    g = builtin("so3").algebra
    h0 = subalgebra(g, [])
    lvl = CochainLevel(g, trivial_module(g, 1), 2)
    assert len(relative_subspace(lvl, h0)) == lvl.space_dim


def test_relative_with_whole_algebra_kills_one_forms():
    g = builtin("sl2").algebra
    h = subalgebra(g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lvl = CochainLevel(g, trivial_module(g, 1), 1)
    assert relative_subspace(lvl, h) == ()


def test_relative_closure_under_differential():
    for name in ("sl2_so2_pair", "sl2R_ext", "fivedim_ext:1"):
        entry = builtin(name)
        g = entry.algebra
        top = g.dim - entry.h.dim
        for spec in ("trivial", "adjoint"):
            mod = trivial_module(g, 1) if spec == "trivial" else adjoint_module(g)
            for k in range(top + 1):
                assert relative_closure_holds(CochainLevel(g, mod, k), entry.h), (name, spec, k)


def test_j_map_on_killing_three_form():
    g = builtin("sl2").algebra
    kappa = killing_three_form(g).form
    j = j_map_matrix(g, 3)
    image = Matrix.from_rows([apply(j, kappa.coords)])
    out = Cochain(CochainLevel(g, coadjoint_module(g), 2), image)
    # the value on (E, F) is the covector sending H to kappa(H,E,F) = 8
    assert out.evaluate((1, 2)) == (Q(8), Q(0), Q(0))


def test_j_map_degree_one_is_tautological():
    for name in ("sl2", "heis3"):
        g = builtin(name).algebra
        assert j_map_matrix(g, 1) == Matrix.identity(g.dim)


def test_j_map_rejects_degree_zero():
    with pytest.raises(ValueError):
        j_map_matrix(builtin("sl2").algebra, 0)


def test_j_relations_on_builtins():
    rng = random.Random(11)
    for name in ("sl2", "so3", "heis3", "sl2sl2"):
        g = builtin(name).algebra
        triv = trivial_module(g, 1)
        coad = coadjoint_module(g)
        x = tuple(Q(rng.randint(-2, 2)) for _ in range(g.dim))
        for k in range(1, g.dim + 1):
            jk = j_map_matrix(g, k)
            lhs = differential_matrix(CochainLevel(g, coad, k - 1)) * jk
            if k < g.dim:
                assert lhs == -(j_map_matrix(g, k + 1) * differential_matrix(CochainLevel(g, triv, k)))
            else:
                assert lhs.is_zero()
            lhs = interior_product_matrix(CochainLevel(g, coad, k - 1), x) * jk
            if k > 1:
                assert lhs == -(j_map_matrix(g, k - 1) * interior_product_matrix(CochainLevel(g, triv, k), x))
            else:
                assert lhs.is_zero()
            assert lie_derivative_matrix(CochainLevel(g, coad, k - 1), x) * jk == (
                jk * lie_derivative_matrix(CochainLevel(g, triv, k), x)
            )


def test_doubled_differential_identity():
    for name in ("sl2", "so3", "heis3"):
        g = builtin(name).algebra
        for k in range(g.dim):
            lvl = CochainLevel(g, trivial_module(g, 1), k)
            total = None
            for i in range(g.dim):
                term = wedge_one_form_matrix(lvl, unit(g.dim, i)) * lie_derivative_matrix(lvl, unit(g.dim, i))
                total = term if total is None else total + term
            assert differential_matrix(lvl).scale(Q(2)) == total


def test_one_form_differential_via_structure_constants():
    for name in ("sl2", "so3", "heis3", "sl2sl2"):
        g = builtin(name).algebra
        d1 = differential_matrix(CochainLevel(g, trivial_module(g, 1), 1))
        rows = []
        for (i, j) in tuple_basis(g.dim, 2):
            rows.append(g.brackets[j].row(i))
        assert d1 == Matrix.from_rows(rows)


def test_randomized_identity_samples():
    # a quick slice of the full 200-sample sweep in the acceptance suite
    rng = random.Random(987)
    for _ in range(25):
        g, module, k, x = random_identity_sample(rng)
        assert g.dim <= 5
        assert check_operator_identities(g, module, k, x) == []


# sha256 of repr((checked, failures)) of the whole sweep: 557 checks with
# 0 failures for the coadjoint action, 71 failures with its sign flipped
_SWEEP_DIGESTS = {
    "coadjoint": "0e2b0384954e6c3404775835ae31ad2bb3be112f417bed83a2f68f55b0481c99",
    "flipped": "773f44d587ef928728a2fcee5ba2bf84552eaa78c22b353dddc1c9a1a155d7cb",
}


@pytest.mark.parametrize("factory", sorted(_SWEEP_DIGESTS))
def test_operator_identity_sweep_is_pinned(factory):
    coadjoint = {"coadjoint": None, "flipped": suite.flipped_coadjoint_module}[factory]
    checked, failures = suite.run_operator_identity_suite(coadjoint)
    assert (checked, len(failures)) == (557, 71 if coadjoint else 0)
    digest = hashlib.sha256(repr((checked, failures)).encode()).hexdigest()
    assert digest == _SWEEP_DIGESTS[factory]


def test_operator_identity_sweep_builds_each_unit_batch_once(monkeypatch):
    # the doubled differential and J read one cached batch i_{e_0..e_(n-1)} on
    # scalar k-forms: one sweep builds it once per (dim, k), never elsewhere
    builds = []
    core = cecomplex._interior_products

    def recording(dim, k, vdim, xs):
        if vdim == 1 and xs == Matrix.identity(dim):
            builds.append((dim, k))
        return core(dim, k, vdim, xs)

    monkeypatch.setattr(cecomplex, "_interior_products", recording)
    cecomplex._unit_interior_products.cache_clear()
    suite.run_operator_identity_suite()
    assert len(builds) == len(set(builds)) == 27


def _refuse_fractions(monkeypatch, module):
    """Make building a Fraction in module, or reading a Fraction view of a Matrix, raise."""

    class Refused(Q):
        def __new__(cls, *args, **kwargs):
            raise AssertionError(f"Fraction built in {module.__name__}")

    def refuse(*args):
        raise AssertionError("Fraction view of a matrix read")

    monkeypatch.setattr(module, "Fraction", Refused)
    for view in ("sparse_rows", "entries"):
        monkeypatch.setattr(Matrix, view, property(refuse))
    for view in ("row", "column"):
        monkeypatch.setattr(Matrix, view, refuse)


@pytest.mark.parametrize("name", ["sl2", "sl2sl2", "fivedim_ext:1"])
def test_identity_sweep_reads_integer_rows_only(name, monkeypatch):
    # square-zero, Cartan and the degree -1 relations run on int_rows, and
    # the operator cores build no Fraction: the Fraction and dense views are
    # for reports and tests, never for the sweep
    g = builtin(name).algebra
    modules = (trivial_module(g, 1), adjoint_module(g), coadjoint_module(g))
    _refuse_fractions(monkeypatch, cecomplex)
    # uncached, so no operator built before the patch can stand in
    monkeypatch.setattr(suite, "differential_matrix", differential_matrix.__wrapped__)
    monkeypatch.setattr(cecomplex, "_pairs_by_target", cecomplex._pairs_by_target.__wrapped__)
    monkeypatch.setattr(cecomplex, "_unit_interior_products",
                        cecomplex._unit_interior_products.__wrapped__)
    # mixed denominators in X, so the operators' common denominators are not 1
    ops = suite._Operators(tuple(Q((-1) ** i * (i + 1), 2 + i % 2) for i in range(g.dim)))
    for k in range(g.dim + 1):
        for mod in modules:
            assert suite._level_failures(CochainLevel(g, mod, k), ops) == [], (mod, k)
        assert suite._j_relation_failures(g, k, ops, coadjoint=modules[2]) == [], k


def test_relative_path_reads_integer_rows_only(monkeypatch):
    # the data of g/h, the relative basis, and the relative delta and span
    # coordinates of ``reduction`` build no Fraction in cecomplex and read
    # no dense view, as in the sweep
    entry = builtin("fivedim_ext:1")
    g, h = entry.algebra, entry.h
    cases = [(mod, k) for mod in (trivial_module(g, 1), adjoint_module(g))
             for k in range(g.dim - h.dim + 1)]

    def relative_data():
        out = []
        for mod, k in cases:
            delta, to_span, _ = cecomplex.reduction(mod, h)
            bt = cecomplex.relative_basis(CochainLevel(g, mod, k), h)
            out.append((bt, delta(k), to_span(k, Matrix.identity(bt.rows))))
        return out

    want = relative_data()
    _refuse_fractions(monkeypatch, cecomplex)
    # uncached, so the data of g/h, the kernel of L_h, the relative bases and
    # the relative deltas are built again under the patch
    for name in ("_quotient", "_basic_kernel", "relative_basis", "_basic_differential"):
        monkeypatch.setattr(cecomplex, name, getattr(cecomplex, name).__wrapped__)
    got = relative_data()
    assert got == want
    assert sum(b.rows for b, _, _ in got) > 0


def test_graded_path_reads_integer_rows_only(monkeypatch):
    # the weights, the weight-zero cells and the graded delta build no
    # Fraction in cecomplex and read no dense view, as on the relative path
    cases = [adjoint_module(SL[3]), trivial_module(SL[4], 1)]

    def graded_data():
        out = []
        for mod in cases:
            levels = [CochainLevel(mod.algebra, mod, k) for k in range(-1, mod.algebra.dim + 1)]
            out.append((cecomplex.weight_grading(mod),
                        [cecomplex.weight_zero_cells(lvl) for lvl in levels],
                        [cecomplex.graded_differential(lvl) for lvl in levels]))
        return out

    want = graded_data()
    _refuse_fractions(monkeypatch, cecomplex)
    # uncached, so the weights, cells and graded deltas are built again under the patch
    for name in ("weight_grading", "weight_zero_cells", "graded_differential", "_pairs_by_target"):
        monkeypatch.setattr(cecomplex, name, getattr(cecomplex, name).__wrapped__)
    got = graded_data()
    assert got == want
    assert all(grading is not None and any(cells) for grading, cells, _ in got)


def _reference_incidence(dim, k):
    """(_faces(dim, k), _cofaces(dim, k)) built with ``_insert`` and tuple-index dicts."""
    down, up = ({t: i for i, t in enumerate(tuple_basis(dim, j))} for j in (k - 1, k + 1))
    faces = tuple(tuple((a, down[s[:q] + s[q + 1:]]) for q, a in enumerate(s))
                  for s in tuple_basis(dim, k))
    cofaces = []
    for r in tuple_basis(dim, k):
        entries = {}
        for a in range(dim):
            if a not in r:
                pos, t = cecomplex._insert(r, a)
                entries[a] = (pos, up[t])
        cofaces.append(entries)
    return faces, tuple(cofaces)


def test_faces_and_cofaces_match_the_tables_built_from_index_dicts():
    for dim in range(8):
        for k in range(-1, dim + 2):
            want = _reference_incidence(dim, k)
            assert (cecomplex._faces(dim, k), cecomplex._cofaces(dim, k)) == want, (dim, k)


def test_coadjoint_only_sweep_finds_every_failure_of_the_sign_flip():
    # the self-check reruns only these steps: under the flip they must
    # fail exactly where the full sweep does, in the same order
    _, full = suite.run_operator_identity_suite(suite.flipped_coadjoint_module)
    restricted = [
        label
        for name in suite.IDENTITY_SUITE_BUILTINS
        for _, labels in suite._builtin_sweep(
            name, suite.flipped_coadjoint_module, coadjoint_only=True
        )
        for label in labels
    ]
    assert restricted == full
    assert all(":coadjoint:" in label or ":j-" in label for label in full)


def test_doubling_a_unit_vector_doubles_its_lie_derivative():
    lvl = level("sl2", "adjoint", 2)
    e1 = unit(3, 1)
    doubled = lie_derivative_matrix(lvl, tuple(2 * c for c in e1))
    assert doubled == lie_derivative_matrix(lvl, e1).scale(Q(2))


_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def _operator_case(draw):
    """A catalog level with a, b, X, Y; on some coordinates a*X + b*Y cancels."""
    name = draw(st.sampled_from(_catalog_names()))
    spec = draw(st.sampled_from(["trivial", "adjoint", "coadjoint"]))
    lvl = level(name, spec, draw(st.integers(0, builtin(name).algebra.dim)))
    n = lvl.algebra.dim
    a, b = draw(_coefficient), draw(_coefficient.filter(bool))
    x = draw(st.lists(_coefficient, min_size=n, max_size=n))
    y = draw(st.lists(_coefficient, min_size=n, max_size=n))
    cancel = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    y = [-a * xi / b if c else yi for xi, yi, c in zip(x, y, cancel)]
    return lvl, a, b, x, y


@given(_operator_case())
@settings(max_examples=60, deadline=None)
def test_interior_and_lie_derivative_are_linear_in_x(case):
    lvl, a, b, x, y = case
    combined = [a * xi + b * yi for xi, yi in zip(x, y)]
    for op in (interior_product_matrix, lie_derivative_matrix):
        assert op(lvl, combined) == op(lvl, x).scale(a) + op(lvl, y).scale(b), op.__name__


@pytest.mark.parametrize("x", [(1,), (0, 0, 0, 1)], ids=["short", "long"])
@pytest.mark.parametrize(
    "op", [interior_product_matrix, lie_derivative_matrix, wedge_one_form_matrix]
)
def test_operators_reject_a_vector_of_the_wrong_length(op, x):
    with pytest.raises(DimensionMismatch):
        op(level("sl2", "adjoint", 2), x)


def _reference_relative_subspace(level, h):
    """Joint kernel of i_X and L_X, X in h, one operator at a time."""
    basis = Matrix.identity(level.space_dim)  # its rows span the forms killed so far
    for w in h.vectors:
        for op in (interior_product_matrix(level, w), lie_derivative_matrix(level, w)):
            basis = (op * basis.transpose()).kernel() * basis
    return tuple(echelon_basis(basis.entries))


# the flipped coadjoint action is not a module: the quotient method must not need the axiom
_RELATIVE_SPECS = ("trivial", "adjoint", "coadjoint", "trivial:2", "dual:adjoint",
                   "sum:trivial+adjoint", "flipped-coadjoint")


def _assert_matches_reference(g, h):
    # degrees -1 and n - dim h + 1 .. n have no relative forms; they must come out empty too
    for spec in _RELATIVE_SPECS:
        if spec == "flipped-coadjoint":
            mod = suite.flipped_coadjoint_module(g)
        else:
            mod = module_from_spec(g, spec)
        for k in range(-1, g.dim + 1):
            lvl = CochainLevel(g, mod, k)
            assert relative_subspace(lvl, h) == _reference_relative_subspace(lvl, h), (spec, k)


@pytest.mark.parametrize("name", ["sl2_so2_pair", "sl2R_ext", "fivedim_ext:1"])
def test_relative_subspace_matches_one_operator_at_a_time(name):
    entry = builtin(name)
    _assert_matches_reference(entry.algebra, entry.h)


def _rebased(name):
    """A catalog pair after a random change of basis; h is carried along, so
    its vectors are no longer unit vectors."""
    entry = builtin(name)
    n = entry.algebra.dim
    cols = suite._random_invertible(random.Random(f"rebased {name}"), n)
    g = change_of_basis(entry.algebra, [tuple(row[j] for row in cols) for j in range(n)])
    # a vector v of h has new coordinates w with cols * w = v
    w = solve_columns(Matrix.from_rows(cols), Matrix.from_columns(entry.h.vectors, rows=n))
    h = subalgebra(g, [w.column(j) for j in range(w.cols)])
    assert any(sum(map(bool, v)) > 1 for v in h.vectors)
    return g, h


@pytest.mark.parametrize("name", ["sl2_so2_pair", "sl2R_ext", "fivedim_ext:1"])
def test_relative_subspace_matches_after_a_change_of_basis(name):
    _assert_matches_reference(*_rebased(name))


def _relative_digest(name, relative):
    """sha256 of every relative basis of a catalog pair, modules as in ``level``."""
    entry = builtin(name)
    lines = []
    for spec in ("trivial", "adjoint", "coadjoint"):
        for k in range(entry.algebra.dim + 1):
            basis = relative(level(name, spec, k), entry.h)
            lines.append(f"{spec} {k}: " + " | ".join(" ".join(map(str, v)) for v in basis))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_relative_subspace_builds_no_full_level_operator(monkeypatch):
    # relative_subspace works on the quotient g/h only: it never assembles
    # i_X or L_X on the full level, yet returns the bases pinned before
    def refuse(*args):
        raise AssertionError("full-level operator assembled")

    monkeypatch.setattr(cecomplex, "interior_product_matrix", refuse)
    monkeypatch.setattr(cecomplex, "lie_derivative_matrix", refuse)
    uncached = cecomplex.relative_basis.__wrapped__

    def uncached_view(lvl, h):
        return uncached(lvl, h).entries

    assert _relative_digest("sl2_so2_pair", uncached_view) == (
        "1dfcb80594bb173d2d8e86bcc5659b7d119132463e955dbf420f4a7b8255687f")
    assert _relative_digest("fivedim_ext:1", uncached_view) == (
        "7b25df8cc948b86fe5f688a396cf85ed123b0b104c5bafc5f3507435d012d120")
    # relative cohomology works on beta coordinates: it never assembles the
    # full-level differential, yet gives the Betti numbers and representatives
    # of the full-level differential on the relative basis, in every degree
    # of the complex, 0..dim g - dim h
    cases = [(name, spec, k) for name in _COHOMOLOGY_PAIRS
             for spec in ("trivial", "adjoint", "coadjoint")
             for k in range(builtin(name).algebra.dim - builtin(name).h.dim + 1)]
    expected = [_full_level_relative_cohomology(level(*case), builtin(case[0]).h) for case in cases]
    monkeypatch.setattr(cecomplex, "differential_matrix", refuse)
    monkeypatch.setattr(cohomology_module, "differential_matrix", refuse)
    # uncached, so no basis, kernel of L_h or delta computed before the patch
    # can stand in
    monkeypatch.setattr(cecomplex, "relative_basis", uncached)
    for name in ("_basic_kernel", "_basic_differential"):
        monkeypatch.setattr(cecomplex, name, getattr(cecomplex, name).__wrapped__)
    monkeypatch.setattr(cohomology_module, "relative_basis", uncached)
    for case, want in zip(cases, expected):
        lvl = level(*case)
        got = cohomology_module.cohomology(lvl.algebra, lvl.module, lvl.degree, builtin(case[0]).h)
        assert (got.betti, [c.coords for c in got.cocycle_representatives]) == want, case


_COHOMOLOGY_PAIRS = ("sl2_so2_pair", "fivedim_ext:1", "fivedim_ext:2", "fivedim_ext:-3/4",
                     "fivedim_ext:5/2")


def _row_matrix(vectors, n):
    return Matrix._raw(len(vectors), n, [dict(enumerate(v)) for v in vectors])


def _full_level_relative_cohomology(lvl, h):
    """(betti, representatives) from the full-level differential on the relative basis bt.

    The cocycles are the kernel of delta_k bt^T mapped back through bt, the
    coboundaries are delta of the degree k - 1 basis, and the cocycles that
    enlarge the span of the coboundaries are the representatives.
    """
    prev = lvl.shifted(-1)
    bt = _row_matrix(relative_subspace(lvl, h), lvl.space_dim)
    cocycles = (differential_matrix(lvl) * bt.transpose()).kernel() * bt
    bt_prev = _row_matrix(relative_subspace(prev, h), prev.space_dim)
    span = (bt_prev * differential_matrix(prev).transpose())._span()
    betti = cocycles.rows - span.rank
    return betti, [cocycles.row(i) for i, v in enumerate(cocycles.int_rows) if span.add(v)]


def _catalog_names():
    return [n.replace(":n", ":3").replace(":alpha", ":1") for n in BUILTIN_NAMES]


def _minor(rows):
    """Determinant by expansion along the first row."""
    if not rows:
        return Q(1)
    return sum((-1) ** j * a * _minor([r[:j] + r[j + 1 :] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _beta_rows(lvl, h):
    """beta_T (x) e_m on the full level, T over the k-tuples of annihilator rows.

    The annihilator rows alpha_c are the canonical kernel basis of the
    h.vectors matrix; beta_T at a tuple s is the minor of the rows T at the
    columns s.
    """
    dim, k = lvl.algebra.dim, lvl.degree
    alphas = Matrix.from_rows(h.vectors).kernel().entries
    rows = []
    for t in tuple_basis(len(alphas), k):
        beta = [_minor([[alphas[c][j] for j in s] for c in t]) for s in tuple_basis(dim, k)]
        rows += [{si * lvl.vdim + m: v for si, v in enumerate(beta)} for m in range(lvl.vdim)]
    return Matrix._raw(len(rows), lvl.space_dim, rows)


@pytest.mark.parametrize("pair", [
    *(n for n in _catalog_names() if builtin(n).h is not None),
    "fivedim_ext:2", "fivedim_ext:-3/4", "fivedim_ext:5/2",
    "rebased sl2R_ext", "rebased fivedim_ext:1",
])
def test_beta_coordinates_are_the_entries_at_the_all_free_tuples(pair):
    # the relative reduction's span coordinates of the relative basis bt, its
    # entries at the all-free tuples, are beta coordinates: times the beta
    # rows they give bt back exactly
    name = pair.removeprefix("rebased ")
    g, h = _rebased(name) if name != pair else (builtin(name).algebra, builtin(name).h)
    for spec in ("trivial", "adjoint", "coadjoint"):
        mod = module_from_spec(g, spec)
        to_span = cecomplex.reduction(mod, h)[1]
        for k in range(-1, g.dim + 1):
            lvl = CochainLevel(g, mod, k)
            bt = cecomplex.relative_basis(lvl, h)
            assert to_span(k, Matrix.identity(bt.rows)) * _beta_rows(lvl, h) == bt, (spec, k)


@pytest.mark.parametrize("name", [n for n in _catalog_names() if builtin(n).h is not None])
def test_cached_relative_differential_is_the_uncached_one(name, monkeypatch):
    # the caches are keyed by hashed levels: after the traffic of every module
    # and degree, each delta built from them is delta_q Q_k^T built afresh,
    # with no cached basis, kernel of L_h or K delta_q^T
    g, h = builtin(name).algebra, builtin(name).h
    mods = [module_from_spec(g, spec) for spec in ("trivial", "adjoint", "coadjoint")]
    for mod in mods:
        betti_sequence(g, mod, h)
    levels = [CochainLevel(g, mod, k) for mod in mods for k in range(-1, g.dim + 1)]
    cached = [cecomplex.relative_differential(lvl, h) for lvl in levels]
    for fn in ("_basic_kernel", "relative_basis"):
        monkeypatch.setattr(cecomplex, fn, getattr(cecomplex, fn).__wrapped__)
    _, free, by_target, _ = cecomplex._quotient(g, h)
    for lvl, got in zip(levels, cached):
        actions = [lvl.module.actions[f] for f in free]
        core = cecomplex._differential_core(len(free), lvl.degree, lvl.vdim, by_target, actions)
        assert got == core * cecomplex._beta_coordinates(lvl, h).transpose(), lvl


def test_relative_degree_all_assembles_each_quotient_delta_once(monkeypatch, capsys):
    # cohomology in degree k ranks K delta_q(k)^T and reads K delta_q(k - 1)^T
    # for rank(B) and the certificate; cached per (level, h), the core of g/h
    # runs once per degree 0..top, not twice, and degree 0 has no coboundaries
    entry = builtin("fivedim_ext:1")
    by_target = cecomplex._quotient(entry.algebra, entry.h)[2]
    real, degrees = cecomplex._differential_core, []

    def core(dim, k, vdim, targets, actions, cells=None):
        if targets is by_target:
            degrees.append(k)
        return real(dim, k, vdim, targets, actions, cells)

    cecomplex._basic_differential.cache_clear()
    cecomplex.reduced_echelon.cache_clear()
    monkeypatch.setattr(cecomplex, "_differential_core", core)
    argv = ["cohomology", "fivedim_ext:1", "--coeffs", "adjoint", "--relative", "--degree", "all"]
    assert cli.main(argv) == 0
    assert sorted(degrees) == list(range(entry.algebra.dim - entry.h.dim + 1))


def _alternating_sum(xs):
    return sum((-1) ** k * x for k, x in enumerate(xs))


@pytest.mark.parametrize("name", _catalog_names())
def test_euler_characteristic_of_absolute_cohomology(name):
    # sum (-1)^k dim C^k = sum (-1)^k b_k, whatever the ranks of the d_k
    g = builtin(name).algebra
    for spec in ("trivial", "adjoint"):
        levels = [level(name, spec, k) for k in range(g.dim + 1)]
        bettis = betti_sequence(g, levels[0].module)
        assert _alternating_sum(lvl.space_dim for lvl in levels) == _alternating_sum(bettis), (
            spec, bettis)


# -- the batch cores against the formulas ---------------------------------


def _batch(g, seed):
    """Three X for one batch, a unit vector, mixed denominators and zero, and their Matrix."""
    rng = random.Random(seed)
    mixed = tuple(Q(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(g.dim))
    xs = [unit(g.dim, g.dim - 1), mixed, (0,) * g.dim]
    return xs, Matrix.from_rows(xs)


def _reference(m):
    return m.rows, m.cols, m.entries


@pytest.mark.parametrize(
    "name", [n for n in _catalog_names() if builtin(n).algebra.dim <= 7])
def test_batch_cores_match_the_formulas_on_every_basis_cochain(name, monkeypatch):
    g = builtin(name).algebra
    xs, batch = _batch(g, name)
    for spec in ("trivial", "adjoint", "coadjoint"):
        for k in range(g.dim + 1):
            lvl = level(name, spec, k)
            interior = cecomplex._interior_products(g.dim, k, lvl.vdim, batch)
            lie = cecomplex._lie_derivatives(lvl, batch)
            for x, i_x, l_x in zip(xs, interior, lie):
                assert _reference(i_x) == dense.interior_product(lvl, x), (spec, k, x)
                assert _reference(l_x) == dense.lie_derivative(lvl, x), (spec, k, x)
    # uncached, so J is stacked from a unit batch built here
    monkeypatch.setattr(cecomplex, "_unit_interior_products",
                        cecomplex._unit_interior_products.__wrapped__)
    for k in range(1, g.dim + 1):
        assert _reference(j_map_matrix(g, k)) == dense.j_map(g, k), k


@pytest.mark.parametrize("name", _catalog_names())
def test_a_batch_of_three_is_three_batches_of_one(name):
    g = builtin(name).algebra
    xs, batch = _batch(g, f"batch {name}")
    for spec in ("trivial", "adjoint", "coadjoint"):
        for k in range(-1, g.dim + 2):
            lvl = level(name, spec, k)
            assert cecomplex._interior_products(g.dim, k, lvl.vdim, batch) == [
                interior_product_matrix(lvl, x) for x in xs], (spec, k)
            assert cecomplex._lie_derivatives(lvl, batch) == [
                lie_derivative_matrix(lvl, x) for x in xs], (spec, k)
            up = cecomplex._interior_products(g.dim, k + 1, lvl.vdim, batch)
            assert [i.transpose() for i in up] == [
                wedge_one_form_matrix(lvl, x) for x in xs], (spec, k)


def test_cached_hashes_follow_equality_and_stay_out_of_copies():
    entry = builtin("sl2_so2_pair")
    g = entry.algebra
    # the same values built a second way
    g2 = validate(g.dim, g.basis_names, {
        (i, j): g.brackets[i].row(j) for i in range(g.dim) for j in range(i + 1, g.dim)})
    mod, mod2 = adjoint_module(g), make_module(g2, g.dim, [b.transpose() for b in g2.brackets])
    pairs = [
        (g, g2),
        (mod, mod2),
        (CochainLevel(g, mod, 2), CochainLevel(g2, mod2, 2)),
        (entry.h, subalgebra(g2, [tuple(2 * c for c in v) for v in entry.h.vectors])),
        # the Borel subalgebra span(H, E) from two spanning sets
        (subalgebra(g, [(1, 0, 0), (0, 1, 0)]), subalgebra(g2, [(1, 1, 0), (2, -1, 0)])),
        # (0, 2) is the second 2-tuple: cell 1 * 3 + 1 of the adjoint level
        (basis_cochain(CochainLevel(g, mod, 2), (0, 2), 1),
         Cochain(CochainLevel(g2, mod2, 2), Matrix.from_rows([unit(9, 4)]))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), type(a).__name__
        for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert "_hash" not in vars(c) and c == a and hash(c) == hash(a), type(a).__name__
    lvl = CochainLevel(g, mod, 2)
    hash(lvl)
    up = dataclasses.replace(lvl, degree=3)
    assert "_hash" not in vars(up)
    assert hash(up) == hash(CochainLevel(g, mod, 3)) and up == lvl.shifted(1)
    assert dataclasses.replace(up, degree=2) == lvl
    assert hash(dataclasses.replace(up, degree=2)) == hash(lvl)
