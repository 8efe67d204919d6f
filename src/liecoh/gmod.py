"""Finite-dimensional modules over a Lie algebra, as action-matrix families.

A module is one square matrix per algebra basis vector; the defining axiom
``action([x, y]) = action(x) action(y) - action(y) action(x)`` is checked
exactly by :func:`make_module` and every constructor built on it.  The
trivial, adjoint and coadjoint modules are built without it: zero matrices
satisfy it, and for ad it is the Jacobi identity, which
:func:`~liecoh.liealg.validate` has already checked.  Code that relies on
the axiom, such as ``cecomplex.weight_grading``, calls
:func:`check_module_axiom` itself.  The coadjoint
convention used throughout is the one where the action of x on a covector w
is ``w([. , x])``, whose matrix is ``-ad(x)^T``; all sign-sensitive operator
identities in :mod:`liecoh.cecomplex` depend on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Sequence

from . import files
from .liealg import DimensionMismatch, LieAlgebra, LieAlgebraError, _brief, _cached_hash
from .ratlin import Matrix, _linear_combination, _vanishes


class ModuleAxiomViolation(LieAlgebraError):
    def __init__(self, i: int, j: int, residual: Matrix):
        self.pair = (i, j)
        self.residual = residual
        super().__init__(
            f"action matrices violate the bracket relation on basis pair ({i},{j})"
        )


class MixedAlgebras(LieAlgebraError):
    pass


class UnknownModuleSpec(LieAlgebraError):
    pass


class ModuleTooLarge(LieAlgebraError):
    pass


# Largest cochain level, vdim * max_k C(dim, k), that a module spec may
# lead to; sl4 with trivial coefficients (6435) is well inside it.
MAX_LEVEL_DIM = 1 << 15


def _check_level_dim(g: LieAlgebra, vdim: int, spec: str) -> None:
    """Reject a module before it is built if its largest level is too big."""
    level_dim = vdim * comb(g.dim, g.dim // 2)
    if level_dim > MAX_LEVEL_DIM:
        raise ModuleTooLarge(
            f"module {_brief(spec)} gives cochain levels of dimension {level_dim}, "
            f"over the limit of {MAX_LEVEL_DIM}"
        )


@_cached_hash
@dataclass(frozen=True)
class GModule:
    """Plain data container; use the constructors below to get validation.

    The hash is computed once per instance (``liealg._cached_hash``).
    """

    algebra: LieAlgebra
    vdim: int
    actions: tuple[Matrix, ...]


def make_module(g: LieAlgebra, vdim: int, actions: Sequence[Matrix]) -> GModule:
    actions = tuple(actions)
    if len(actions) != g.dim:
        raise DimensionMismatch(f"{len(actions)} action matrices for a {g.dim}-dim algebra")
    if any((m.rows, m.cols) != (vdim, vdim) for m in actions):
        raise DimensionMismatch("action matrix is not vdim x vdim")
    mod = GModule(g, vdim, actions)
    check_module_axiom(mod)
    return mod


def check_module_axiom(mod: GModule) -> None:
    """Raise ModuleAxiomViolation unless the bracket relation holds exactly."""
    g = mod.algebra
    for i, b in enumerate(g.brackets):
        for j in range(i + 1, g.dim):
            # b.den times the action of [e_i, e_j], from its nonzero structure constants
            a_i, a_j = mod.actions[i], mod.actions[j]
            terms = [(t, mod.actions[c]) for c, t in b.int_rows[j].items()]
            if _vanishes(
                [*((t, a, None) for t, a in terms), (-b.den, a_i, a_j), (b.den, a_j, a_i)],
                mod.vdim,
            ):
                continue
            lhs = _linear_combination(terms, mod.vdim, mod.vdim)
            residual = lhs - (a_i * a_j - a_j * a_i).scale(b.den)
            raise ModuleAxiomViolation(i, j, residual.scale(Fraction(1, b.den)))


@lru_cache(maxsize=None)
def trivial_module(g: LieAlgebra, n: int = 1) -> GModule:
    return GModule(g, n, tuple(Matrix.zero(n, n) for _ in range(g.dim)))


@lru_cache(maxsize=None)
def adjoint_module(g: LieAlgebra) -> GModule:
    """Matrices ad(e_i) = brackets[i]^T.

    Built without the module-axiom check: for ad it is the Jacobi identity,
    which every algebra from :func:`~liecoh.liealg.validate` satisfies (the
    zero algebra trivially).  The test suite checks it on the catalog.
    """
    return GModule(g, g.dim, tuple(b.transpose() for b in g.brackets))


@lru_cache(maxsize=None)
def coadjoint_module(g: LieAlgebra) -> GModule:
    """Action of x on covectors by w -> w([. , x]); matrices -ad(x)^T = -brackets[i].

    Built without the module-axiom check: this is the dual of
    :func:`adjoint_module`, and the dual of a module is a module.
    """
    return GModule(g, g.dim, tuple(-b for b in g.brackets))


def dual_module(mod: GModule) -> GModule:
    return make_module(
        mod.algebra, mod.vdim, tuple(-m.transpose() for m in mod.actions)
    )


def direct_sum(mods: Sequence[GModule]) -> GModule:
    mods = list(mods)
    if not mods:
        raise ValueError("direct sum of no modules")
    g = mods[0].algebra
    if any(m.algebra != g for m in mods):
        raise MixedAlgebras("direct summands live over different algebras")
    vdim = sum(m.vdim for m in mods)
    offsets = [sum(m.vdim for m in mods[:i]) for i in range(len(mods))]
    actions = []
    for i in range(g.dim):
        # block-diagonal: row r of summand m becomes row off + r, shifted right by off,
        # over the common denominator of the summands
        den = lcm(*(m.actions[i].den for m in mods))
        rows = [
            {off + c: x * (den // m.actions[i].den) for c, x in row.items()}
            for m, off in zip(mods, offsets)
            for row in m.actions[i].int_rows
        ]
        actions.append(Matrix._from_ints(vdim, vdim, rows, den))
    return make_module(g, vdim, tuple(actions))


def module_from_spec(g: LieAlgebra, spec: str) -> GModule:
    """Parse a coefficient-module spec string.

    Accepted forms: ``trivial``, ``trivial:n``, ``adjoint``, ``coadjoint``,
    ``dual:<spec>`` and ``sum:<spec>+<spec>+...``.  A spec whose largest
    cochain level would exceed ``MAX_LEVEL_DIM`` raises ModuleTooLarge
    before its action matrices are allocated.
    """
    spec = spec.strip()
    if spec == "trivial":
        _check_level_dim(g, 1, spec)
        return trivial_module(g, 1)
    if spec.startswith("trivial:"):
        try:
            n = files.parse_count(spec.split(":", 1)[1])
        except files.ParseError:
            raise UnknownModuleSpec(
                f"bad trivial module rank in {_brief(spec)}; use a count such as 2"
            )
        _check_level_dim(g, n, spec)
        return trivial_module(g, n)
    if spec in ("adjoint", "coadjoint"):
        _check_level_dim(g, g.dim, spec)
        return adjoint_module(g) if spec == "adjoint" else coadjoint_module(g)
    if spec.startswith("dual:"):
        # strip the prefixes in a loop: dualising twice gives back an equal module
        count = 0
        while spec.startswith("dual:"):
            spec = spec[len("dual:") :].strip()
            count += 1
        mod = module_from_spec(g, spec)
        return dual_module(mod) if count % 2 else mod
    if spec.startswith("sum:"):
        parts = spec.split(":", 1)[1].split("+")
        if len(parts) < 2:
            raise UnknownModuleSpec(f"sum spec needs at least two summands: {_brief(spec)}")
        summands = [module_from_spec(g, p) for p in parts]
        _check_level_dim(g, sum(m.vdim for m in summands), spec)
        return direct_sum(summands)
    raise UnknownModuleSpec(f"unknown module spec {_brief(spec)}")


def load_module(path, g: LieAlgebra) -> GModule:
    """Load a coefficient module given by explicit action matrices.

    Format: ``{"format": 1, "vdim": n, "actions": [M_1, ..., M_dim]}``
    with one row-major n x n rational matrix per algebra basis vector.
    A module whose largest cochain level would exceed ``MAX_LEVEL_DIM``
    raises ModuleTooLarge before any matrix is built.
    """
    data = files._read_json(path)
    where = _brief(path, str)
    if not isinstance(data, dict) or data.get("format") != files.FORMAT_VERSION:
        raise files.ParseError(f"{where}: missing or unsupported format version")
    vdim = data.get("vdim")
    actions_raw = data.get("actions")
    if not files._is_count(vdim):
        raise files.ParseError(f"{where}: vdim must be a nonnegative integer")
    _check_level_dim(g, vdim, where)
    if not isinstance(actions_raw, list) or len(actions_raw) != g.dim:
        raise files.ParseError(f"{where}: actions must list one matrix per algebra basis vector")
    actions = []
    for i, rows in enumerate(actions_raw):
        if not isinstance(rows, list) or len(rows) != vdim or any(
            not isinstance(r, list) or len(r) != vdim for r in rows
        ):
            raise files.ParseError(f"{where}: actions[{i}] must be a {vdim}x{vdim} matrix")
        try:
            actions.append(Matrix(vdim, vdim, [[files.parse_rational(x) for x in r] for r in rows]))
        except files.ParseError as exc:
            raise files.ParseError(f"{where}: actions[{i}]: {exc}")
    return make_module(g, vdim, actions)
