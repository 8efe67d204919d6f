"""Closed-form volume constants, kept as exact coefficients of pi^2.

The numeric part of each constant is rational, so the constants are stored
and printed as exact fractions times the symbol pi^2; no floating point is
ever introduced.
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import LieAlgebraError
from .ratlin import rational


class ZeroEuler(LieAlgebraError):
    pass


def seifert_volume_coefficient(chi, e) -> Fraction:
    """4 chi^2 / |e| for base Euler characteristic chi and Euler number e."""
    chi = rational(chi)
    e = rational(e)
    if e == 0:
        raise ZeroEuler("the fibration Euler number must be nonzero")
    return 4 * chi * chi / abs(e)


def sl2tilde_volume_coefficient(n, e) -> Fraction:
    """4 n^2 |e| for a fiber-degree integer n and Euler number e."""
    if not isinstance(n, int):
        raise TypeError("the fiber degree must be an integer")
    e = rational(e)
    return 4 * n * n * abs(e)
