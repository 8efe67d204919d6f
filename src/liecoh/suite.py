"""The built-in verification suite: every headline fact as a pass/fail row.

Each row recomputes a classical fact from scratch with the exact engine
and compares against the frozen expected value.  The whole table is
deterministic, including the randomized operator-identity samples, which
come from a fixed-seed generator.

Two deliberate sabotage modes exist so the suite can prove it is not
vacuous: ``flip-coadjoint-sign`` replaces the coadjoint action matrices by
their negatives (an anti-homomorphism), which must break the degree-(-1)
map relations; ``omit-diagonal`` drops the central component from the
isotropy generators of the extension pairs, which must break vanishing.
``run_suite(mutation=...)`` runs the full table under one of them and lists
every failure.  The unmutated table ends with a ``mutation-sensitivity``
self-check that requires each sabotage to break something.  With the
flipped coadjoint action it reruns only the identities that read the
coadjoint module (square-zero and Cartan on the coadjoint levels, and the
three relations of the degree-lowering map, on the built-ins in sweep
order) and stops at the first failure; without the diagonal it reruns both
``extension-vanishing`` rows.

Each exact identity of the sweep (square-zero, Cartan, the doubled
differential and the three relations of the degree-lowering map) is one
call of the fused check ``ratlin._vanishes`` on sum c A B = 0, so no
product or difference is built as a Matrix.  The doubled differential reads
the basis batch L_{e_0..e_{n-1}}, from one pass over the level, and the
transposes of the batch i_{e_0..e_{n-1}} one degree up, the wedges with
e^0..e^{n-1}; that batch is ``cecomplex._unit_interior_products``, cached
per (dim, k), which the degree-lowering map is stacked from too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from . import extensions, gmod, volumes
from .cecomplex import (
    CochainLevel,
    _lie_derivatives,
    _unit_interior_products,
    differential_matrix,
    interior_product_matrix,
    j_map_matrix,
    lie_derivative_matrix,
    relative_closure_holds,
    tuple_basis,
)
from .cohomology import (
    betti_sequence,
    invariant_volume_form,
    killing_three_form,
)
from .liealg import (
    LieAlgebra,
    change_of_basis,
    killing_determinant,
    killing_form,
    structure_report,
    subalgebra,
)
from .ratlin import Matrix, _vanishes, vector

MUTATIONS = ("flip-coadjoint-sign", "omit-diagonal")

_SAMPLE_SEED = 20210515
_SAMPLE_COUNT = 200


@dataclass(frozen=True)
class SuiteRow:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple[SuiteRow, ...]
    passed: bool


def flipped_coadjoint_module(g: LieAlgebra) -> gmod.GModule:
    # +ad^T = brackets[i] instead of -ad^T: deliberately NOT a module (anti-homomorphism)
    return gmod.GModule(g, g.dim, g.brackets)


def _row(name: str, fn: Callable[[], tuple[bool, str]]) -> SuiteRow:
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        return SuiteRow(name, False, f"error: {type(exc).__name__}: {exc}")
    return SuiteRow(name, passed, detail)


def _betti_absolute() -> tuple[bool, str]:
    expected = {"sl2": (1, 0, 0, 1), "so3": (1, 0, 0, 1), "heis3": (1, 2, 2, 1)}
    got = {}
    for name in expected:
        g = extensions.builtin(name).algebra
        got[name] = betti_sequence(g, gmod.trivial_module(g, 1))
    ok = got == expected
    detail = "; ".join(f"{n}={got[n]}" for n in expected)
    return ok, detail


def _whitehead() -> tuple[bool, str]:
    results = []
    ok = True
    for name in ("sl2", "so3"):
        g = extensions.builtin(name).algebra
        seq = betti_sequence(g, gmod.adjoint_module(g))
        results.append(f"{name}:adjoint={seq}")
        ok = ok and seq == (0,) * (g.dim + 1)
    return ok, "; ".join(results)


def _relative_pair() -> tuple[bool, str]:
    entry = extensions.builtin("sl2_so2_pair")
    seq = betti_sequence(entry.algebra, gmod.trivial_module(entry.algebra, 1), entry.h)
    vol = invariant_volume_form(entry.algebra, entry.h).dim_top_relative
    ok = seq == (1, 0, 1) and vol == 1
    return ok, f"betti={seq} volume_dim={vol}"


# (row, catalog names, describe(pair, report)); under omit-diagonal a row checks
# the sabotaged pair of its first name only
_VANISHING_ROWS = (
    ("extension-vanishing-3dim", ("sl2R_ext",), lambda pair, rep: (
        f"b1(adjoint)={rep.betti1_adjoint} "
        f"b{pair.homogeneous_dim - 1}(coadjoint)={rep.betti_top_minus_one_coadjoint} "
        f"volume_dim={rep.volume_form_dim}"
    )),
    ("extension-vanishing-5dim", tuple(f"fivedim_ext:{a}" for a in ("1", "2", "3", "1/2")),
     lambda pair, rep: (
        f"b1={rep.betti1_adjoint} "
        f"b{pair.homogeneous_dim - 1}={rep.betti_top_minus_one_coadjoint} "
        f"vol={rep.volume_form_dim} dual_equal={'yes' if rep.duality.equal else 'no'}"
    )),
)


def _vanishing_rows(omit_diagonal: bool) -> list[SuiteRow]:
    def check(names, describe) -> tuple[bool, str]:
        ok, details = True, []
        for name in names[:1] if omit_diagonal else names:
            pair = extensions.builtin(name).pair
            if omit_diagonal:
                name, pair = name + "(no-diagonal)", _without_diagonal(pair)
            rep = extensions.verify_vanishing(pair)
            ok = ok and rep.passed
            details.append(f"{name}: {describe(pair, rep)}")
        return ok, "; ".join(details)

    return [_row(row, lambda: check(names, describe)) for row, names, describe in _VANISHING_ROWS]


def _without_diagonal(pair: extensions.ExtensionPair) -> extensions.ExtensionPair:
    """The pair with isotropy spanned by its abelian directions alone, no central part."""
    pad = (Fraction(0),) * pair.rank
    broken_h = subalgebra(pair.algebra, [v + pad for v in pair.abelian_basis])
    return extensions.ExtensionPair(pair.algebra, broken_h, pair.abelian_basis, pair.rank,
                                    pair.algebra.dim - broken_h.dim)


def _sample_bases() -> tuple[LieAlgebra, ...]:
    return (
        extensions.builtin("sl2").algebra,
        extensions.builtin("so3").algebra,
        extensions.builtin("heis3").algebra,
        extensions.builtin("abelian:2").algebra,
        extensions.builtin("abelian:3").algebra,
        extensions.builtin("sl2R_ext").algebra,  # 4-dim reductive
    )

_MODULE_SPECS = ("trivial", "trivial:2", "adjoint", "coadjoint", "dual:adjoint", "sum:trivial+adjoint")


def _random_invertible(rng: random.Random, n: int) -> list[list[int]]:
    # product of elementary operations, so invertibility is by construction;
    # every operation is integral, so the entries stay ints
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for t in range(n):
                m[t][j] += c * m[t][i]
        elif kind == 1 and i != j:
            for t in range(n):
                m[t][i], m[t][j] = m[t][j], m[t][i]
        elif kind == 2:
            for t in range(n):
                m[t][i] = -m[t][i]
    return m


def random_identity_sample(rng: random.Random):
    """One validated (algebra, module, degree, X) sample of dimension <= 5."""
    base = rng.choice(_sample_bases())
    cols = _random_invertible(rng, base.dim)
    g = change_of_basis(base, [tuple(row[j] for row in cols) for j in range(base.dim)])
    module = gmod.module_from_spec(g, rng.choice(_MODULE_SPECS))
    k = rng.randrange(0, g.dim + 1)
    x = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(g.dim))
    return g, module, k, x


class _Operators:
    """i_X and L_X for one fixed X, each built once per cochain level (``interior``, ``lie``).

    One instance serves one built-in's sweep or one
    ``check_operator_identities`` call and is then dropped with what it holds.
    """

    def __init__(self, x):
        self.interior = cache(lambda level: interior_product_matrix(level, x))
        self.lie = cache(lambda level: lie_derivative_matrix(level, x))


def _level_failures(level: CochainLevel, ops: _Operators) -> list[str]:
    """Square-zero and the Cartan relation L_X = d i_X + i_X d on one level."""
    failures = []
    level_up = level.shifted(1)
    delta_k, delta_up = differential_matrix(level), differential_matrix(level_up)
    if not _vanishes([(1, delta_up, delta_k)], delta_up.rows):
        failures.append("square-zero")
    lie = ops.lie(level)
    cartan = [
        (1, lie, None),
        (-1, differential_matrix(level.shifted(-1)), ops.interior(level)),
        (-1, ops.interior(level_up), delta_k),
    ]
    if not _vanishes(cartan, lie.rows):
        failures.append("cartan-relation")
    return failures


def _doubled_differential_holds(g: LieAlgebra, k: int) -> bool:
    """2 d = sum_i e^i wedge L_{e_i} on trivial k-cochains.

    The wedge with e^i is i_{e_i} one degree up, transposed, so one basis
    batch of each operator gives every term.
    """
    tlevel = CochainLevel(g, gmod.trivial_module(g, 1), k)
    d = differential_matrix(tlevel)
    units = Matrix.identity(g.dim)
    wedges = [i.transpose() for i in _unit_interior_products(g.dim, k + 1)]
    terms = [(1, w, lie) for w, lie in zip(wedges, _lie_derivatives(tlevel, units))]
    return _vanishes([*terms, (-2, d, None)], d.rows)


def check_operator_identities(g: LieAlgebra, module: gmod.GModule, k: int, x) -> list[str]:
    """All exact operator identities at degree k; returns failure labels."""
    ops = _Operators(vector(x))
    failures = _level_failures(CochainLevel(g, module, k), ops)
    if not _doubled_differential_holds(g, k):
        failures.append("doubled-differential")
    if k == 1 and not _one_form_differential_agrees(g):
        failures.append("one-form-differential")
    failures.extend(_j_relation_failures(g, k, ops, coadjoint=gmod.coadjoint_module(g)))
    return failures


def _one_form_differential_agrees(g: LieAlgebra) -> bool:
    """Compare d on 1-forms against its direct structure-constant formula."""
    triv = gmod.trivial_module(g, 1)
    d1 = differential_matrix(CochainLevel(g, triv, 1))
    # row (i, j) is omega -> omega([e_j, e_i]), coefficient by coefficient
    return d1 == Matrix._stack(g.dim, ((g.brackets[j], i) for i, j in tuple_basis(g.dim, 2)))


def _j_relation_failures(
    g: LieAlgebra, k: int, ops: _Operators, coadjoint: gmod.GModule
) -> list[str]:
    if not (1 <= k <= g.dim):
        return []
    failures = []
    triv = gmod.trivial_module(g, 1)
    jk = j_map_matrix(g, k)
    delta_co = differential_matrix(CochainLevel(g, coadjoint, k - 1))
    terms = [(1, delta_co, jk)]
    if k + 1 <= g.dim:
        terms.append((1, j_map_matrix(g, k + 1), differential_matrix(CochainLevel(g, triv, k))))
    if not _vanishes(terms, delta_co.rows):
        failures.append("j-differential")
    i_co = ops.interior(CochainLevel(g, coadjoint, k - 1))
    terms = [(1, i_co, jk)]
    if k - 1 >= 1:
        terms.append((1, j_map_matrix(g, k - 1), ops.interior(CochainLevel(g, triv, k))))
    if not _vanishes(terms, i_co.rows):
        failures.append("j-interior")
    l_co = ops.lie(CochainLevel(g, coadjoint, k - 1))
    if not _vanishes([(1, l_co, jk), (-1, jk, ops.lie(CochainLevel(g, triv, k)))], l_co.rows):
        failures.append("j-lie-derivative")
    return failures


IDENTITY_SUITE_BUILTINS = ("sl2", "so3", "sl2sl2", "heis3", "abelian:2", "abelian:3",
                           "sl2_so2_pair", "sl2R_ext", "fivedim_ext:1")


def _builtin_sweep(name: str, coadjoint_factory, coadjoint_only: bool = False):
    """Each step of one built-in's identity sweep, in order: (checks, failures).

    With ``coadjoint_only`` only the steps that read the coadjoint module
    run: square-zero and Cartan on its levels, then the three relations of
    the degree-lowering map.  Steps run lazily, so a caller may stop early.
    """
    entry = extensions.builtin(name)
    g = entry.algebra
    rng = random.Random(_SAMPLE_SEED + g.dim)
    ops = _Operators(tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim)))
    triv = gmod.trivial_module(g, 1)
    coad = coadjoint_factory(g)
    modules = {"coadjoint": coad}
    if not coadjoint_only:
        modules = {"trivial": triv, "adjoint": gmod.adjoint_module(g), **modules}
    for spec, module in modules.items():
        for k in range(0, g.dim + 1):
            labels = _level_failures(CochainLevel(g, module, k), ops)
            yield 2, [f"{name}:{spec}:k={k}:{label}" for label in labels]
    if not coadjoint_only:
        for k in range(0, g.dim + 1):
            ok = _doubled_differential_holds(g, k)
            yield 1, [] if ok else [f"{name}:k={k}:doubled-differential"]
        yield 1, [] if _one_form_differential_agrees(g) else [f"{name}:one-form-differential"]
    for k in range(1, g.dim + 1):
        yield 1, [f"{name}:k={k}:{label}" for label in _j_relation_failures(g, k, ops, coad)]
    if not coadjoint_only and entry.h is not None:
        for k in range(0, g.dim - entry.h.dim + 1):
            ok = relative_closure_holds(CochainLevel(g, triv, k), entry.h)
            yield 1, [] if ok else [f"{name}:k={k}:relative-closure"]


def run_operator_identity_suite(coadjoint_factory=None) -> tuple[int, list[str]]:
    """Exact operator-identity sweep: built-ins plus the randomized samples.

    Checks, as exact matrix identities: the differential squares to zero,
    the Cartan relation, the doubled-differential wedge identity, the
    structure-constant formula for d on 1-forms, and the three relations
    of the degree-lowering map.  Returns (number of checks, failures).
    """
    if coadjoint_factory is None:
        coadjoint_factory = gmod.coadjoint_module
    failures: list[str] = []
    checked = 0
    for name in IDENTITY_SUITE_BUILTINS:
        for count, step_failures in _builtin_sweep(name, coadjoint_factory):
            checked += count
            failures.extend(step_failures)
    rng = random.Random(_SAMPLE_SEED)
    for n in range(_SAMPLE_COUNT):
        g, module, k, x = random_identity_sample(rng)
        for label in check_operator_identities(g, module, k, x):
            failures.append(f"sample{n}:{label}")
        checked += 1
    return checked, failures


def _flipped_sign_breaks_identities() -> bool:
    """True at the first coadjoint-dependent identity the flipped action breaks.

    The samples and the other steps of the sweep never read the coadjoint
    factory, so rerunning them could only repeat the unmutated verdict.
    """
    return any(
        step_failures
        for name in IDENTITY_SUITE_BUILTINS
        for _, step_failures in _builtin_sweep(
            name, flipped_coadjoint_module, coadjoint_only=True
        )
    )


def _operator_identities(coadjoint_factory) -> Callable[[], tuple[bool, str]]:
    def check() -> tuple[bool, str]:
        checked, failures = run_operator_identity_suite(coadjoint_factory)
        if failures:
            return False, "failed: " + "; ".join(failures[:8])
        return True, f"{checked} identity checks, {_SAMPLE_COUNT} randomized samples"

    return check


def _killing_data() -> tuple[bool, str]:
    g = extensions.builtin("sl2").algebra
    want = Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    b = killing_form(g)
    det = killing_determinant(g)
    three = killing_three_form(g)
    kappa = three.form.evaluate((0, 1, 2))[0]
    ok = b == want and det == Fraction(-128) and kappa == Fraction(8) and three.class_nonzero
    # killing_three_form raises when the form is not closed, which fails the row
    return ok, (
        f"killing={[[str(x) for x in row] for row in map(b.row, range(b.rows))]} det={det} "
        f"kappa(H,E,F)={kappa} closed=yes "
        f"class_nonzero={'yes' if three.class_nonzero else 'no'}"
    )


def _volume_constants() -> tuple[bool, str]:
    seifert = volumes.seifert_volume_coefficient(Fraction(-5, 2), Fraction(3, 2))
    sl2t = volumes.sl2tilde_volume_coefficient(1, Fraction(3, 2))
    ok = seifert == Fraction(50, 3) and sl2t == Fraction(6)
    return ok, f"seifert(-5/2,3/2)={seifert}*pi^2 sl2tilde(1,3/2)={sl2t}*pi^2"


def _structure_classification() -> tuple[bool, str]:
    checks = []
    ok = True

    def expect(label, cond):
        nonlocal ok
        checks.append(f"{label}={'yes' if cond else 'NO'}")
        ok = ok and cond

    expect("sl2-semisimple", structure_report(extensions.builtin("sl2").algebra).is_semisimple)
    ab = structure_report(extensions.builtin("abelian:2").algebra)
    expect("abelian2-reductive-nonss", ab.is_reductive and not ab.is_semisimple)
    he = structure_report(extensions.builtin("heis3").algebra)
    expect("heis3-nonreductive", not he.is_reductive and not he.is_semisimple)
    for name in ("sl2R_ext", "fivedim_ext:1"):
        pair = extensions.builtin(name).pair
        rep = structure_report(pair.algebra)
        expect(f"{name}-reductive", rep.is_reductive)
        expect(f"{name}-center-dim-{pair.rank}", rep.center.dim == pair.rank)
    return ok, " ".join(checks)


def _uniqueness_of_volume_forms() -> tuple[bool, str]:
    details = []
    ok = True
    for name in ("sl2_so2_pair", "sl2R_ext", "fivedim_ext:1"):
        entry = extensions.builtin(name)
        res = invariant_volume_form(entry.algebra, entry.h)
        details.append(f"{name}:dim={res.dim_top_relative}")
        ok = ok and res.dim_top_relative == 1
    return ok, " ".join(details)


def _mutation_sensitivity() -> tuple[bool, str]:
    j_rows_fail = _flipped_sign_breaks_identities()
    vanishing_fail = any(not row.passed for row in _vanishing_rows(omit_diagonal=True))
    ok = j_rows_fail and vanishing_fail
    return ok, (
        f"flip-coadjoint-sign breaks operator identities: {'yes' if j_rows_fail else 'NO'}; "
        f"omit-diagonal breaks vanishing: {'yes' if vanishing_fail else 'NO'}"
    )


def run_suite(mutation: str | None = None) -> SuiteReport:
    """Run every verification row, optionally under a sabotage mutation."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; known: {', '.join(MUTATIONS)}")
    coadjoint_factory = (
        flipped_coadjoint_module if mutation == "flip-coadjoint-sign" else gmod.coadjoint_module
    )
    rows = [
        _row("betti-absolute", _betti_absolute),
        _row("whitehead-vanishing", _whitehead),
        _row("relative-pair", _relative_pair),
        *_vanishing_rows(omit_diagonal=mutation == "omit-diagonal"),
        _row("operator-identities", _operator_identities(coadjoint_factory)),
        _row("killing-data", _killing_data),
        _row("volume-constants", _volume_constants),
        _row("structure-classification", _structure_classification),
        _row("volume-form-uniqueness", _uniqueness_of_volume_forms),
    ]
    if mutation is None:
        rows.append(_row("mutation-sensitivity", _mutation_sensitivity))
    return SuiteReport(tuple(rows), all(r.passed for r in rows))
