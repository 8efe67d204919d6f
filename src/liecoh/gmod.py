"""Finite-dimensional modules over a Lie algebra, as action-matrix families.

A module is one square matrix per algebra basis vector; the defining axiom
``action([x, y]) = action(x) action(y) - action(y) action(x)`` is checked
exactly by :func:`make_module` and every constructor built on it.  The
trivial, adjoint and coadjoint modules are built without it: zero matrices
satisfy it, and for ad it is the Jacobi identity, which
:func:`~liecoh.liealg.validate` has already checked.  The coadjoint
convention used throughout is the one where the action of x on a covector w
is ``w([. , x])``, whose matrix is ``-ad(x)^T``; all sign-sensitive operator
identities in :mod:`liecoh.cecomplex` depend on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from .liealg import DimensionMismatch, LieAlgebra, unit
from .ratlin import Matrix, dense_vector

class ModuleAxiomViolation(Exception):
    def __init__(self, i: int, j: int, residual: Matrix):
        self.pair = (i, j)
        self.residual = residual
        super().__init__(
            f"action matrices violate the bracket relation on basis pair ({i},{j})"
        )


class MixedAlgebras(Exception):
    pass


class UnknownModuleSpec(Exception):
    pass


class ModuleTooLarge(Exception):
    pass


# Largest cochain level, vdim * max_k C(dim, k), that a module spec may
# lead to; sl4 with trivial coefficients (6435) is well inside it.
MAX_LEVEL_DIM = 1 << 15


def _check_level_dim(g: LieAlgebra, vdim: int, spec: str) -> None:
    """Reject a module before it is built if its largest level is too big."""
    level_dim = vdim * comb(g.dim, g.dim // 2)
    if level_dim > MAX_LEVEL_DIM:
        raise ModuleTooLarge(
            f"module {spec!r} gives cochain levels of dimension {level_dim}, "
            f"over the limit of {MAX_LEVEL_DIM}"
        )


@dataclass(frozen=True)
class GModule:
    """Plain data container; use the constructors below to get validation."""

    algebra: LieAlgebra
    vdim: int
    actions: tuple[Matrix, ...]


def make_module(g: LieAlgebra, vdim: int, actions: Sequence[Matrix]) -> GModule:
    actions = tuple(actions)
    if len(actions) != g.dim:
        raise DimensionMismatch(f"{len(actions)} action matrices for a {g.dim}-dim algebra")
    for m in actions:
        if (m.rows, m.cols) != (vdim, vdim):
            raise DimensionMismatch("action matrix is not vdim x vdim")
    mod = GModule(g, vdim, actions)
    check_module_axiom(mod)
    return mod


def check_module_axiom(mod: GModule) -> None:
    """Raise ModuleAxiomViolation unless the bracket relation holds exactly."""
    g = mod.algebra
    zero = Matrix.zero(mod.vdim, mod.vdim)
    for i, b in enumerate(g.brackets):
        for j in range(i + 1, g.dim):
            # the action of [e_i, e_j], from its nonzero structure constants
            lhs = sum((mod.actions[c].scale(t) for c, t in b.sparse_rows[j].items()), zero)
            rhs = mod.actions[i] * mod.actions[j] - mod.actions[j] * mod.actions[i]
            residual = lhs - rhs
            if not residual.is_zero():
                raise ModuleAxiomViolation(i, j, residual)


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
        # block-diagonal: row r of summand m becomes row off + r, shifted right by off
        rows = [
            {off + c: x for c, x in row.items()}
            for m, off in zip(mods, offsets)
            for row in m.actions[i].sparse_rows
        ]
        actions.append(Matrix._raw(vdim, vdim, rows))
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
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise UnknownModuleSpec(f"bad trivial module rank in {spec!r}")
        if n < 0:
            raise UnknownModuleSpec(f"negative trivial module rank in {spec!r}")
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
            raise UnknownModuleSpec(f"sum spec needs at least two summands: {spec!r}")
        summands = [module_from_spec(g, p) for p in parts]
        _check_level_dim(g, sum(m.vdim for m in summands), spec)
        return direct_sum(summands)
    raise UnknownModuleSpec(f"unknown module spec {spec!r}")


def invariant_vectors(mod: GModule) -> list[tuple[Fraction, ...]]:
    """Basis of the joint kernel of all action matrices (the invariants)."""
    if mod.algebra.dim == 0:
        return [unit(mod.vdim, i) for i in range(mod.vdim)]
    stacked = Matrix.vstack(list(mod.actions))
    return [dense_vector(r, mod.vdim) for r in stacked.kernel_rows()]
