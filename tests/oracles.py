"""Exact reference helpers that the tests check the library against.

Each one restates a rule on its own, without calling the code it checks:
one_plus keeps its own 1 + r > 0 check rather than borrowing
numerics.growth_factor.
"""

import math
from fractions import Fraction

from toroid.errors import NonPositiveFactorError
from toroid.ledger import SHARE_SCALE, Ledger
from toroid.numerics import UNIT, Amount, Index, Rate


def index_value(idx: Index) -> Fraction:
    """Exact represented value, for diagnostics and test oracles."""
    return Fraction(idx.num, idx.den)


def one_plus(r: Rate) -> Index:
    """The multiplier (1 + r) as an exact index factor."""
    factor = UNIT + r.ppb
    if factor <= 0:
        raise NonPositiveFactorError(f"1 + r must be positive, got {r.ppb} ppb")
    g = math.gcd(factor, UNIT)
    return Index(factor // g, UNIT // g)


def apply_index(shares: Amount, idx: Index) -> Amount:
    """Convert share units to token units at the given index, flooring."""
    return Amount(shares.raw * idx.num // idx.den)


def supply_by_division(ledger: Ledger) -> Amount:
    """Total supply as one floor division per account, over den * SHARE_SCALE."""
    num, den = ledger.index.num, ledger.index.den * SHARE_SCALE
    return Amount(sum(a.shares * num // den for a in ledger.accounts.values()))
