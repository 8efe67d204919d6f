"""Finite-dimensional modules over a Lie algebra, as action-matrix families.

A module is one square matrix per algebra basis vector; the defining axiom
``action([x, y]) = action(x) action(y) - action(y) action(x)`` is checked
exactly by every public constructor.  The coadjoint convention used
throughout is the one where the action of x on a covector w is
``w([. , x])``, whose matrix is ``-ad(x)^T``; all sign-sensitive operator
identities in :mod:`liecoh.cecomplex` depend on this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .liealg import DimensionMismatch, LieAlgebra, unit
from .ratlin import Matrix, vector

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


@dataclass(frozen=True)
class GModule:
    """Plain data container; use the constructors below to get validation."""

    algebra: LieAlgebra
    vdim: int
    actions: tuple[Matrix, ...]

    def action_of(self, x: Sequence) -> Matrix:
        x = vector(x)
        out = Matrix.zero(self.vdim, self.vdim)
        for a, m in zip(x, self.actions):
            if a:
                out = out + m.scale(a)
        return out


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
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = mod.action_of(g.bracket_basis(i, j))
            rhs = mod.actions[i] * mod.actions[j] - mod.actions[j] * mod.actions[i]
            residual = lhs - rhs
            if not residual.is_zero():
                raise ModuleAxiomViolation(i, j, residual)


@lru_cache(maxsize=None)
def trivial_module(g: LieAlgebra, n: int = 1) -> GModule:
    return GModule(g, n, tuple(Matrix.zero(n, n) for _ in range(g.dim)))


@lru_cache(maxsize=None)
def adjoint_module(g: LieAlgebra) -> GModule:
    return make_module(g, g.dim, tuple(g.ad_matrix(unit(g.dim, i)) for i in range(g.dim)))


@lru_cache(maxsize=None)
def coadjoint_module(g: LieAlgebra) -> GModule:
    """Action of x on covectors by w -> w([. , x]); matrices -ad(x)^T."""
    return make_module(
        g, g.dim, tuple(-g.ad_matrix(unit(g.dim, i)).transpose() for i in range(g.dim))
    )


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
    ``dual:<spec>`` and ``sum:<spec>+<spec>+...``.
    """
    spec = spec.strip()
    if spec == "trivial":
        return trivial_module(g, 1)
    if spec.startswith("trivial:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise UnknownModuleSpec(f"bad trivial module rank in {spec!r}")
        if n < 0:
            raise UnknownModuleSpec(f"negative trivial module rank in {spec!r}")
        return trivial_module(g, n)
    if spec == "adjoint":
        return adjoint_module(g)
    if spec == "coadjoint":
        return coadjoint_module(g)
    if spec.startswith("dual:"):
        return dual_module(module_from_spec(g, spec.split(":", 1)[1]))
    if spec.startswith("sum:"):
        parts = spec.split(":", 1)[1].split("+")
        if len(parts) < 2:
            raise UnknownModuleSpec(f"sum spec needs at least two summands: {spec!r}")
        return direct_sum([module_from_spec(g, p) for p in parts])
    raise UnknownModuleSpec(f"unknown module spec {spec!r}")


def invariant_vectors(mod: GModule) -> list[tuple[Fraction, ...]]:
    """Basis of the joint kernel of all action matrices (the invariants)."""
    if mod.algebra.dim == 0:
        return [unit(mod.vdim, i) for i in range(mod.vdim)]
    stacked = Matrix.vstack(list(mod.actions))
    return stacked.kernel_basis()
