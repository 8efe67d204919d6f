"""Betti numbers, distinguished classes, volume forms, duality reports."""

import importlib
import tracemalloc
from fractions import Fraction as Q
from itertools import combinations

import pytest

import dense
from dense import apply, columns, kernel_basis
from liecoh import cecomplex, cli, files, suite
from liecoh.cecomplex import CochainLevel, differential_matrix, relative_subspace, tuple_basis
from liecoh.cohomology import (
    DegreeOutOfRange,
    NotSemisimple,
    betti_sequence,
    cohomology,
    duality_report,
    invariant_volume_form,
    killing_three_form,
    relative_complex,
)
from liecoh.extensions import BUILTIN_NAMES, builtin, verify_vanishing
from liecoh.gmod import (
    GModule,
    MixedAlgebras,
    adjoint_module,
    coadjoint_module,
    dual_module,
    make_module,
    module_from_spec,
    trivial_module,
)
from liecoh.liealg import LieAlgebraError, derived_subalgebra, subalgebra, unit, validate
from liecoh.ratlin import EchelonSpan, Matrix, SubspaceNotContained, quotient_dim
from test_graded import SL, _doubled_e

# the package's ``cohomology`` attribute is the function, not its module
cohomology_module = importlib.import_module("liecoh.cohomology")


def test_betti_sl2_trivial():
    g = builtin("sl2").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 0, 0, 1)


def test_betti_sl2_adjoint_all_vanish():
    g = builtin("sl2").algebra
    assert betti_sequence(g, adjoint_module(g)) == (0, 0, 0, 0)


def test_betti_heisenberg():
    g = builtin("heis3").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 2, 2, 1)


def test_betti_sl2sl2_kunneth_pattern():
    g = builtin("sl2sl2").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 0, 0, 2, 0, 0, 1)


def test_betti_abelian_binomials():
    g = builtin("abelian:4").algebra
    assert betti_sequence(g, trivial_module(g, 1)) == (1, 4, 6, 4, 1)


def test_relative_betti_sl2_so2():
    entry = builtin("sl2_so2_pair")
    assert betti_sequence(entry.algebra, trivial_module(entry.algebra, 1), entry.h) == (1, 0, 1)


def test_representatives_are_cocycles_and_independent():
    g = builtin("heis3").algebra
    mod = trivial_module(g, 1)
    for k in range(4):
        res = cohomology(g, mod, k)
        assert len(res.cocycle_representatives) == res.betti
        level = CochainLevel(g, mod, k)
        delta = differential_matrix(level)
        boundary_span = EchelonSpan(level.space_dim)
        for col in differential_matrix(level.shifted(-1)).transpose().int_rows:
            boundary_span.add(col)
        for rep in res.cocycle_representatives:
            assert not any(apply(delta, rep.coords))
            # independent of coboundaries
            assert boundary_span.add(Matrix.from_rows([rep.coords]).int_rows[0])


def test_an_absolute_result_is_not_relative():
    g = builtin("sl2").algebra
    res = cohomology(g, adjoint_module(g), 1)
    assert not res.relative


def test_euler_characteristic_identity():
    # alternating sum of betti equals alternating sum of level dimensions
    for name, spec in (("sl2", "trivial"), ("heis3", "trivial"), ("sl2", "adjoint"),
                       ("so3", "coadjoint"), ("abelian:3", "trivial")):
        g = builtin(name).algebra
        mod = {"trivial": trivial_module(g, 1), "adjoint": adjoint_module(g),
               "coadjoint": coadjoint_module(g)}[spec]
        betti = betti_sequence(g, mod)
        dims = [len(tuple_basis(g.dim, k)) * mod.vdim for k in range(g.dim + 1)]
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == sum(
            (-1) ** k * d for k, d in enumerate(dims)
        )


def test_semisimple_builtins_low_degree_pattern():
    # degrees 1 and 2 vanish; degree 3 carries at least the Killing class
    for name in ("sl2", "so3", "sl2sl2"):
        g = builtin(name).algebra
        seq = betti_sequence(g, trivial_module(g, 1))
        assert seq[1] == 0 and seq[2] == 0
        assert seq[3] >= 1


def test_whitehead_vanishing_for_coadjoint():
    for name in ("sl2", "so3"):
        g = builtin(name).algebra
        assert betti_sequence(g, coadjoint_module(g)) == (0, 0, 0, 0)


def test_killing_three_form_sl2():
    g = builtin("sl2").algebra
    res = killing_three_form(g)
    assert res.form.evaluate((0, 1, 2)) == (Q(8),)
    assert res.class_nonzero
    assert not any(apply(differential_matrix(res.form.level), res.form.coords))


def test_killing_three_form_so3():
    g = builtin("so3").algebra
    res = killing_three_form(g)
    assert res.form.evaluate((0, 1, 2)) == (Q(-2),)
    assert res.class_nonzero


def test_killing_three_form_rejects_heisenberg():
    with pytest.raises(NotSemisimple):
        killing_three_form(builtin("heis3").algebra)


def test_volume_form_sl2_so2():
    entry = builtin("sl2_so2_pair")
    res = invariant_volume_form(entry.algebra, entry.h)
    assert res.dim_top_relative == 1
    assert res.form is not None and res.form.level.degree == 2


def test_volume_form_with_trivial_isotropy():
    for name in ("sl2", "heis3", "abelian:2"):
        g = builtin(name).algebra
        res = invariant_volume_form(g, None)
        assert res.dim_top_relative == 1
        assert res.form.level.degree == g.dim


def test_volume_form_extension_pair():
    entry = builtin("sl2R_ext")
    res = invariant_volume_form(entry.algebra, entry.h)
    assert res.dim_top_relative == 1
    assert res.form.level.degree == 3


def test_duality_extension_pair_adjoint():
    entry = builtin("sl2R_ext")
    rep = duality_report(entry.algebra, entry.h, adjoint_module(entry.algebra), 1)
    assert (rep.left, rep.right, rep.equal) == (0, 0, True)


def test_duality_sl2_so2_trivial():
    entry = builtin("sl2_so2_pair")
    rep = duality_report(entry.algebra, entry.h, trivial_module(entry.algebra, 1), 0)
    assert (rep.left, rep.right, rep.equal) == (1, 1, True)


def test_duality_abelian_line():
    g = builtin("abelian:1").algebra
    rep = duality_report(g, None, trivial_module(g, 1), 0)
    assert (rep.left, rep.right, rep.equal) == (1, 1, True)


def test_dual_module_duality_is_symmetric():
    entry = builtin("sl2_so2_pair")
    g, h = entry.algebra, entry.h
    mod = trivial_module(g, 1)
    for k in range(3):
        fwd = duality_report(g, h, mod, k)
        bwd = duality_report(g, h, dual_module(mod), 2 - k)
        assert fwd.left == bwd.right and fwd.right == bwd.left


def test_degree_bounds_are_enforced():
    # one refusal for a degree outside 0..top of the complex, a refusal of
    # the library that an ``except ValueError`` still catches; relative to h
    # the range ends at dim g - dim h, not dim g
    assert issubclass(DegreeOutOfRange, LieAlgebraError) and issubclass(DegreeOutOfRange, ValueError)
    assert cli.DegreeOutOfRange is DegreeOutOfRange
    g = builtin("sl2").algebra
    with pytest.raises(DegreeOutOfRange, match="degree 4 out of range 0..3"):
        cohomology(g, trivial_module(g, 1), 4)
    with pytest.raises(DegreeOutOfRange, match="degree 5 out of range 0..3"):
        duality_report(g, None, trivial_module(g, 1), 5)
    entry = builtin("sl2_so2_pair")
    mod = adjoint_module(entry.algebra)
    assert len(betti_sequence(entry.algebra, mod, entry.h)) == 3
    for k in (-1, 3):
        for call in (cohomology, lambda g, m, k, h: duality_report(g, h, m, k)):
            with pytest.raises(DegreeOutOfRange, match=f"degree {k} out of range 0..2"):
                call(entry.algebra, mod, k, entry.h)


# -- the one-pass core against the three-rank quotient formula ---------

ORACLE_NAMES = tuple(n for n in BUILTIN_NAMES if ":" not in n) + (
    "abelian:4",
    "fivedim_ext:1",
    "fivedim_ext:-3/4",
)
MODULES = {"trivial": lambda g: trivial_module(g, 1), "adjoint": adjoint_module,
           "coadjoint": coadjoint_module}


def _quotient_formula_betti(g, mod, k, h=None):
    """dim Z/B from dense cocycles and coboundaries by quotient_dim."""
    level = CochainLevel(g, mod, k)
    d_k = differential_matrix(level)
    d_prev = differential_matrix(level.shifted(-1))
    if h is None:
        cocycles = kernel_basis(d_k)
        coboundaries = [c for c in columns(d_prev) if any(c)]
    else:
        sub_k = relative_subspace(level, h)
        cocycles = []
        if sub_k:
            bmat = Matrix.from_columns(sub_k, rows=level.space_dim)
            cocycles = [apply(bmat, v) for v in kernel_basis(d_k * bmat)]
        images = (apply(d_prev, v) for v in relative_subspace(level.shifted(-1), h))
        coboundaries = [w for w in images if any(w)]
    return quotient_dim(cocycles, coboundaries)


@pytest.mark.parametrize("spec", sorted(MODULES))
@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_betti_matches_the_quotient_formula(name, spec):
    entry = builtin(name)
    g = entry.algebra
    mod = MODULES[spec](g)
    for k in range(g.dim + 1):
        assert cohomology(g, mod, k).betti == _quotient_formula_betti(g, mod, k)
    if entry.h is not None:
        for k in range(g.dim - entry.h.dim + 1):
            got = cohomology(g, mod, k, entry.h).betti
            assert got == _quotient_formula_betti(g, mod, k, entry.h)


def test_containment_check_fires_on_a_non_module():
    # +ad^T is an anti-homomorphism, so delta o delta != 0 and some
    # coboundaries of degrees 1 and 2 are not cocycles
    g = builtin("sl2").algebra
    flipped = suite.flipped_coadjoint_module(g)
    for k in (1, 2):
        with pytest.raises(SubspaceNotContained):
            cohomology(g, flipped, k)
    assert [cohomology(g, flipped, k).betti for k in (0, 3)] == [0, 0]


# -- Cartan's theorem on the symmetric pairs (so(n,1), so(n)) --------------


def _so_n1(n):
    """so(n,1) from matrix units, rotations R_ij (i < j < n) first, then boosts B_i.

    R_ij = E_ij - E_ji and B_i = E_in + E_ni preserve the form diag(1, .., 1, -1);
    the pair's subalgebra so(n) is spanned by the rotations.
    """
    rotations = list(combinations(range(n), 2))
    elems = [{(i, j): 1, (j, i): -1} for i, j in rotations]
    elems += [{(i, n): 1, (n, i): 1} for i in range(n)]

    def product(x, y):
        out = {}
        for (i, k), a in x.items():
            for (k2, j), b in y.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + a * b
        return out

    def coordinates(m):
        return [m.get(p, 0) for p in rotations] + [m.get((i, n), 0) for i in range(n)]

    brackets = {}
    for a, b in combinations(range(len(elems)), 2):
        xy, yx = product(elems[a], elems[b]), product(elems[b], elems[a])
        brackets[(a, b)] = coordinates({p: xy.get(p, 0) - yx.get(p, 0) for p in {*xy, *yx}})
    g = validate(len(elems), [f"e{i}" for i in range(len(elems))], brackets)
    return g, subalgebra(g, [unit(g.dim, i) for i in range(len(rotations))])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_relative_betti_of_so_n1_is_that_of_the_sphere(n):
    # H*(so(n,1), so(n)) = H*(S^n), the compact dual (Cartan): 1 + t^n
    g, h = _so_n1(n)
    assert betti_sequence(g, trivial_module(g, 1), h) == (1,) + (0,) * (n - 1) + (1,)


def test_the_top_class_of_so_8_1_is_one_stored_entry():
    # its representative lives on the full level of degree 8, C(36, 8) = 30260340 cells:
    # the wedge of the eight boost covectors, one entry of its sparse row
    g, h = _so_n1(8)
    tracemalloc.start()
    try:
        res = cohomology(g, trivial_module(g, 1), 8, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (rep,) = res.cocycle_representatives
    assert res.betti == 1 and rep.level.space_dim == 30260340
    assert rep.row.int_rows == ({30260339: 1},) and rep.row.den == 1
    assert rep.evaluate(tuple(range(28, 36))) == (Q(1),)
    assert rep.evaluate((29, 28) + tuple(range(30, 36))) == (Q(-1),)
    assert peak < 16 * 2**20


# -- Hochschild-Serre: the absolute constructors against the relative one --


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


@pytest.mark.parametrize("name", ["sl2", "so3", "sl2sl2", "sl2_so2_pair", "sl2R_ext",
                                  "fivedim_ext:1", "fivedim_ext:-3/4", "fivedim_ext:5/2"])
def test_hochschild_serre_along_the_derived_subalgebra(name):
    # [g, g] = s is a Levi factor here, so P_{g,V} = P_s * P_{(g,s),V} with
    # P_s = (1 + t^3)^(dim s / 3) (Hochschild-Serre, 1953): the graded or
    # full-level complex of g against the quotient complex of g/s, with no
    # frozen values
    g = builtin(name).algebra
    s = derived_subalgebra(g)
    poincare_s = {3: (1, 0, 0, 1), 6: (1, 0, 0, 2, 0, 0, 1)}[s.dim]
    for spec, mod in MODULES.items():
        mod = mod(g)
        assert betti_sequence(g, mod) == _times(poincare_s, betti_sequence(g, mod, s)), spec


def test_a_zero_dimensional_isotropy_is_the_absolute_complex():
    for name in ("sl2", "heis3", "fivedim_ext:1"):
        g = builtin(name).algebra
        zero = subalgebra(g, [])
        for mod in (trivial_module(g, 1), adjoint_module(g)):
            for k in range(g.dim + 1):
                assert cohomology(g, mod, k, zero) == cohomology(g, mod, k), (name, k)
            assert not cohomology(g, mod, 1, zero).relative
        assert invariant_volume_form(g, zero) == invariant_volume_form(g, None)
        assert duality_report(g, zero, trivial_module(g, 1), 1) == duality_report(
            g, None, trivial_module(g, 1), 1)


def test_a_module_over_another_algebra_is_refused():
    # abelian:3 has the dimension of sl2, so only the check tells them apart;
    # H^1(sl2; sl2) = 0, where the unchecked abelian action gives 9
    g, other = builtin("sl2").algebra, builtin("abelian:3").algebra
    module = adjoint_module(other)
    calls = (lambda: cohomology(g, module, 1), lambda: betti_sequence(g, module),
             lambda: duality_report(g, None, module, 1))
    for call in calls:
        with pytest.raises(MixedAlgebras, match="module"):
            call()
    assert cohomology(g, adjoint_module(g), 1).betti == 0


def test_an_isotropy_inside_another_algebra_is_refused():
    g, h = builtin("sl2").algebra, builtin("sl2R_ext").h
    module = trivial_module(g, 1)
    calls = (lambda: cohomology(g, module, 1, h), lambda: betti_sequence(g, module, h),
             lambda: duality_report(g, h, module, 1), lambda: invariant_volume_form(g, h))
    for call in calls:
        with pytest.raises(MixedAlgebras, match="subalgebra"):
            call()


# -- one rank per reduced delta, and the square-zero certificate ----------


def _clear_level_caches():
    """Empty every per-level cache of cecomplex, so each operator is built afresh."""
    for f in vars(cecomplex).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def _elimination_traffic(monkeypatch, argv, h):
    """Run the CLI; per degree, the forward passes, back-substitutions and relative bases.

    A cocycle is reduced by an ``EchelonSpan.add`` outside every forward
    pass.  Relative to h, the kernels of L_h and the data of g/h are built
    before the run: they are the cells of the complex, not an elimination
    of delta.
    """
    traffic = {"passes": {}, "reduced": {}, "back": {}, "bases": {}}
    state = {"degree": None, "depth": 0}
    real_span, real_add, real_reduced = Matrix._span, EchelonSpan.add, EchelonSpan.reduced
    real_basis, real_cohomology = cecomplex.relative_basis, cli.cohomology

    def count(kind):
        traffic[kind][state["degree"]] = traffic[kind].get(state["degree"], 0) + 1

    def span(self):
        traffic["passes"].setdefault(state["degree"], []).append(self)
        state["depth"] += 1
        try:
            return real_span(self)
        finally:
            state["depth"] -= 1

    def add(self, row):
        if not state["depth"]:
            count("reduced")
        return real_add(self, row)

    def reduced(self):
        count("back")
        return real_reduced(self)

    def basis(level, sub):
        count("bases")
        return real_basis(level, sub)

    def degree(g, module, k, h=None):
        state["degree"] = k
        return real_cohomology(g, module, k, h)

    _clear_level_caches()
    if h is not None:
        g = h.ambient
        for k in range(g.dim - h.dim + 1):
            cecomplex._basic_kernel(CochainLevel(g, adjoint_module(g), k), h)
    monkeypatch.setattr(Matrix, "_span", span)
    monkeypatch.setattr(EchelonSpan, "add", add)
    monkeypatch.setattr(EchelonSpan, "reduced", reduced)
    monkeypatch.setattr(cecomplex, "relative_basis", basis)
    monkeypatch.setattr(cli, "cohomology", degree)
    assert cli.main(argv) == 0
    monkeypatch.undo()
    return traffic


def _sl3_argv(tmp_path):
    """(algebra, CLI input) of the seeded sl3 of ``test_graded``, saved as a file."""
    path = tmp_path / "sl3.json"
    files.save_algebra(path, SL[3], name="sl3")
    return files.load_algebra(path)[0], [str(path)]


def _betti_lines(capsys):
    return [int(line.split()[1]) for line in capsys.readouterr().out.splitlines()
            if line.startswith("betti[")]


@pytest.mark.parametrize("case", ["sl3 graded sum", "sl3 graded trivial", "fivedim_ext:1 relative"])
def test_each_reduced_delta_is_eliminated_once(case, tmp_path, monkeypatch, capsys):
    # b_k is two ranks: one forward pass per reduced delta (relative to h, per
    # K delta_q^T); only a degree with b_k > 0 back-substitutes, for Z, builds
    # a relative basis, and adds coboundaries to a span: absolute, a pass
    # over the rank(B) columns of delta(k - 1) at its pivots, relative, a
    # copy of the cached rows of K delta_q^T, so no pass at all.  The sum
    # has invariants, so its reduced complex is not emptied (Whitehead), and
    # the pass of delta_0 that the emptiness check reads is the one reused
    coeffs = {"sum": "sum:trivial+adjoint", "trivial": "trivial"}.get(case.split()[-1], "adjoint")
    if case.startswith("sl3"):
        (g, argv), h = _sl3_argv(tmp_path), None
    else:
        entry = builtin("fivedim_ext:1")
        g, h, argv = entry.algebra, entry.h, ["fivedim_ext:1", "--relative"]
    traffic = _elimination_traffic(
        monkeypatch, ["cohomology", *argv, "--coeffs", coeffs, "--degree", "all"], h)
    betti = _betti_lines(capsys)
    module = module_from_spec(g, coeffs)
    delta = cecomplex.reduction(module, h)[0]
    if h is None:
        ranked = delta
    else:
        ranked = lambda k: cecomplex._basic_differential(CochainLevel(g, module, k), h)
    passes, reduced = traffic["passes"], traffic["reduced"]
    every_pass = [m for ms in passes.values() for m in ms]
    for k, b in enumerate(betti):
        previous = delta(k - 1)
        rank_b = previous.cols - previous.kernel().rows
        coboundaries = {frozenset(r.items()) for r in previous.transpose().sparse_rows if r}
        spans = [m for m in passes.get(k, ()) if m.rows and m.cols == previous.rows
                 and all(frozenset(r.items()) in coboundaries for r in m.sparse_rows)]
        assert [m.rows for m in spans] == ([rank_b] if b and rank_b and h is None else []), k
        assert (reduced.get(k, 0) == 0) if b == 0 else (b <= reduced[k]), k
        assert sum(m == ranked(k) for m in every_pass) == 1, k
        # Z relative to h is the kernel of the relative delta, taken where b_k > 0
        if h is not None:
            assert sum(m == delta(k) for m in every_pass) == (1 if b else 0), k
        assert bool(traffic["back"].get(k)) == bool(b), k
        assert bool(traffic["bases"].get(k)) == bool(b and h is not None), k
    assert not any(m == ranked(-1) for m in every_pass)
    if case.startswith("sl3"):
        assert betti == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    else:
        assert betti == [1, 0, 1, 1, 0, 1]


def test_whitehead_vanishing_runs_no_forward_pass_in_positive_degree(tmp_path, monkeypatch,
                                                                      capsys):
    # sl3 is semisimple and its adjoint module has V^g = 0: the reduced
    # complex has no cells, so past the pass of the graded delta_0 that
    # decides it, no degree eliminates, back-substitutes or reduces anything
    g, argv = _sl3_argv(tmp_path)
    traffic = _elimination_traffic(
        monkeypatch, ["cohomology", *argv, "--coeffs", "adjoint", "--degree", "all"], None)
    assert _betti_lines(capsys) == [0] * 9
    module = adjoint_module(g)
    assert cecomplex.whitehead_vanishing(module)
    delta_0 = cecomplex.graded_differential(CochainLevel(g, module, 0))
    passes = traffic["passes"]
    assert sum(m == delta_0 for m in passes[0]) == 1
    assert all(m.rows == m.cols == 0 for k in range(1, 9) for m in passes.get(k, ()))
    assert not traffic["reduced"] and not traffic["back"] and not traffic["bases"]


def test_verify_vanishing_builds_only_the_top_relative_basis(monkeypatch):
    # b_1(g, h; g) = b_(n-1)(g, h; g*) = 0 on fivedim_ext:1, so the rank path
    # builds no relative basis for either; the volume form reads the one of
    # the trivial top level
    entry = builtin("fivedim_ext:1")
    g, h = entry.algebra, entry.h
    built, real = set(), cecomplex.relative_basis

    def basis(level, sub):
        built.add(level)
        return real(level, sub)

    _clear_level_caches()
    monkeypatch.setattr(cecomplex, "relative_basis", basis)
    monkeypatch.setattr(cohomology_module, "relative_basis", basis)
    assert verify_vanishing(entry.pair).passed
    assert built == {CochainLevel(g, trivial_module(g, 1), g.dim - h.dim)}


def _dense_rank(m):
    return len(dense.rref((m.rows, m.cols, m.entries))[1])


@pytest.mark.parametrize(
    "name", [n.replace(":n", ":3").replace(":alpha", ":1") for n in BUILTIN_NAMES] + ["abelian:0"])
def test_rank_path_betti_numbers_match_the_dense_reference(name):
    # b_k = dim ker delta_k - rank delta_(k-1), by dense Gauss-Jordan on the
    # full-level delta, and relative to h on delta from the relative basis
    # bt, bt delta^T; there the rank of K delta_q^T that the rank path reads
    # is that of the relative delta
    entry = builtin(name)
    g = entry.algebra
    for mod in (trivial_module(g, 1), adjoint_module(g), coadjoint_module(g)):
        for h in (None, entry.h) if entry.h is not None else (None,):
            top = relative_complex(g, mod, h)[1]
            levels = [CochainLevel(g, mod, k) for k in range(-1, top + 1)]
            if h is None:
                dims = [lvl.space_dim for lvl in levels]
                ranks = [_dense_rank(differential_matrix(lvl)) for lvl in levels]
            else:
                bases = [cecomplex.relative_basis(lvl, h) for lvl in levels]
                dims = [bt.rows for bt in bases]
                ranks = [_dense_rank(bt * differential_matrix(lvl).transpose())
                         for bt, lvl in zip(bases, levels)]
                for lvl, r in zip(levels[1:], ranks[1:]):
                    assert _dense_rank(cecomplex._basic_differential(lvl, h)) == r
                    assert _dense_rank(cecomplex.relative_differential(lvl, h)) == r
            for k in range(top + 1):
                want = dims[k + 1] - ranks[k + 1] - ranks[k]
                assert cohomology(g, mod, k, h).betti == want, (mod.vdim, h, k)


def test_a_character_of_a_non_unimodular_algebra_keeps_its_cohomology(monkeypatch):
    # g = <x, y>, [x, y] = y, acting on Q by x -> 1, y -> 0: V^g = 0, but g is
    # not semisimple (Killing rank 1), and H* = (0, 1, 1).  Forcing the
    # Whitehead predicate true empties the complex and breaks the match with
    # the dense reference: the Killing-rank premise carries weight
    g = validate(2, ("x", "y"), {(0, 1): (0, 1)})
    mod = make_module(g, 1, (Matrix.identity(1), Matrix.zero(1, 1)))
    levels = [CochainLevel(g, mod, k) for k in range(-1, 3)]
    ranks = [_dense_rank(differential_matrix(lvl)) for lvl in levels]
    dense_betti = tuple(levels[k + 1].space_dim - ranks[k + 1] - ranks[k] for k in range(3))
    assert dense_betti == (0, 1, 1) == betti_sequence(g, mod)
    assert not cecomplex.whitehead_vanishing(mod)
    monkeypatch.setattr(cecomplex, "whitehead_vanishing", lambda module: True)
    cecomplex.reduced_echelon.cache_clear()
    forced = betti_sequence(g, mod)
    monkeypatch.undo()
    cecomplex.reduced_echelon.cache_clear()
    assert forced == (0, 0, 0) != dense_betti


# the refusals of the greedy pass that the certificate replaced: (name, module,
# relative) -> {degree: (rank(B), |Z|)}; every other degree returns
_REFUSALS = {
    ("sl2", "flipped", False): {1: (3, 5), 2: (4, 6)},
    ("sl2", "doubled_e", False): {1: (3, 1), 2: (8, 6)},
    ("so3", "flipped", False): {1: (3, 5), 2: (4, 6)},
    ("so3", "doubled_e", False): {1: (3, 2), 2: (7, 6)},
    ("sl2sl2", "flipped", False): {1: (6, 10), 2: (26, 12), 3: (78, 42), 4: (78, 64),
                                   5: (26, 30)},
    ("sl2sl2", "doubled_e", False): {1: (6, 4), 2: (32, 24), 3: (66, 54), 4: (66, 58),
                                     5: (32, 30)},
    ("sl2_so2_pair", "flipped", False): {1: (3, 5), 2: (4, 6)},
    ("sl2_so2_pair", "flipped", True): {1: (1, 2)},
    ("sl2_so2_pair", "doubled_e", False): {1: (3, 1), 2: (8, 6)},
    ("sl2_so2_pair", "doubled_e", True): {1: (1, 0)},
    ("sl2R_ext", "flipped", False): {1: (3, 6), 2: (10, 14), 3: (10, 13)},
    ("sl2R_ext", "flipped", True): {1: (1, 2), 2: (2, 4)},
    ("sl2R_ext", "doubled_e", False): {1: (3, 2), 2: (14, 10), 3: (14, 13)},
    ("sl2R_ext", "doubled_e", True): {1: (1, 0), 2: (2, 2)},
    ("fivedim_ext:1", "flipped", False): {1: (6, 11), 2: (38, 28), 3: (119, 71),
                                          4: (174, 126), 5: (119, 109), 6: (38, 43)},
    ("fivedim_ext:1", "flipped", True): {1: (2, 4), 2: (3, 4), 3: (6, 5), 4: (5, 7)},
    ("fivedim_ext:1", "doubled_e", False): {1: (6, 5), 2: (44, 34), 3: (113, 95),
                                            4: (150, 132), 5: (113, 103), 6: (44, 43)},
    ("fivedim_ext:1", "doubled_e", True): {1: (2, 1), 2: (4, 5), 3: (3, 3), 4: (5, 4)},
}


def test_the_certificate_refuses_exactly_where_the_greedy_pass_did():
    # delta_k delta_(k-1) = 0 on absolute cells, and delta_q and L_h killing
    # the coboundaries on relative ones, hold exactly where B lies in Z: the
    # non-modules (flipped coadjoint, doubled E) are refused with the counts
    # of the greedy pass, every module is not; each complex is read in its
    # degrees 0..top, top = dim g - dim h
    modules = {"trivial": lambda g: trivial_module(g, 1), "adjoint": adjoint_module,
               "coadjoint": coadjoint_module, "flipped": suite.flipped_coadjoint_module,
               "doubled_e": _doubled_e}
    for name in [n.replace(":n", ":3").replace(":alpha", ":1") for n in BUILTIN_NAMES]:
        entry = builtin(name)
        g = entry.algebra
        for spec, make in modules.items():
            mod = make(g)
            for h in (None, entry.h) if entry.h is not None else (None,):
                refusals = _REFUSALS.get((name, spec, h is not None), {})
                top = relative_complex(g, mod, h)[1]
                assert max(refusals, default=0) <= top
                for k in range(top + 1):
                    if k not in refusals:
                        cohomology(g, mod, k, h)
                        continue
                    with pytest.raises(SubspaceNotContained) as info:
                        cohomology(g, mod, k, h)
                    assert str(info.value) == (
                        "span of rank %d is not inside the rank-%d span" % refusals[k])


def test_the_relative_certificate_refuses_basic_coboundaries_that_are_not_closed():
    # on abelian:3 with h = <e_0> acting by zero every form is h-basic, while
    # rho(e_1) and rho(e_2) do not commute: delta^2 != 0 on the coboundaries
    # of degree 1, which only the delta_q half of the relative check can see
    g = builtin("abelian:3").algebra
    h = subalgebra(g, [unit(3, 0)])
    raising = Matrix.from_rows([[0, 1], [0, 0]])
    mod = GModule(g, 2, (Matrix.zero(2, 2), raising, raising.transpose()))
    for sub, refusals in ((None, {1: (2, 2), 2: (4, 4)}), (h, {1: (2, 2)})):
        for k in range(relative_complex(g, mod, sub)[1] + 1):
            if k not in refusals:
                assert cohomology(g, mod, k, sub).betti == 0
                continue
            with pytest.raises(SubspaceNotContained) as info:
                cohomology(g, mod, k, sub)
            assert str(info.value) == (
                "span of rank %d is not inside the rank-%d span" % refusals[k])
