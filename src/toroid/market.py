"""Exogenous-demand price model with the one-way peg as an arbitrage clamp.

Market cap follows an input return series while each rebasement dilutes
the per-token price by exactly 1/(1 + r) in the same period.  The peg is
a pure ceiling: whenever the implied TRD price would exceed peg_ratio
times the base-coin price, arbitrageurs fund the contract for cheap TRD,
so the price is clamped there and the supply that such funding mints is
recorded.

Prices are floats, deliberately outside the fixed-point core.  Where one
reaches balance arithmetic it goes in as the exact ratio of two floats
(price_ratio): the clamp's mint, which the period kernel rounds down to
an amount with exact collateral and deposits, and an attack's sale price.
"""

from __future__ import annotations

import math

from .controller import RebaseConfig
from .errors import NonFinitePriceError, NonPositiveReturnError
from .numerics import UNIT, Amount, Rate, growth_factor, record


@record
class MarketState:
    trd_price: float
    base_price: float
    arb_minted: Amount = Amount(0)


def peg_ceiling(cfg: RebaseConfig, base_price: float) -> float:
    """The one-way peg: TRD never trades above peg_ratio units of base coin.

    Raises NonFinitePriceError when the ceiling underflows to zero on a
    subnormal base price, since no positive TRD price would fit under it.
    """
    ceiling = (cfg.peg_ratio.ppb / UNIT) * base_price
    if ceiling == 0:
        raise NonFinitePriceError(f"peg ceiling underflowed to 0 at base {base_price}")
    return ceiling


def price_ratio(x: float, y: float) -> tuple[int, int]:
    """x / y as an exact integer pair (num, den), for positive finite floats.

    With x = a/b and y = c/d by float.as_integer_ratio(), x / y = a*d / (b*c).
    The pair is not reduced: callers only multiply by it and floor.
    """
    a, b = x.as_integer_ratio()
    c, d = y.as_integer_ratio()
    return a * d, b * c


def initial_market(base_price: float, cfg: RebaseConfig) -> MarketState:
    """Launch state: TRD starts at its ceiling, one peg ratio of base coin."""
    return MarketState(trd_price=peg_ceiling(cfg, base_price), base_price=base_price)


def step_price(
    state: MarketState,
    market_return: float,
    r: Rate,
    cfg: RebaseConfig,
    supply: Amount,
) -> MarketState:
    """Advance one period: demand moves cap by the return, rebasement dilutes.

    supply is the post-rebase total; it sizes this period's arbitrage mint
    whenever the peg clamp binds.  Raises NonFinitePriceError when the
    return, the base price or the implied TRD price is infinite or NaN,
    and when either underflows to zero: the peg ceiling on a subnormal
    base price, or the implied TRD price when a tiny ceiling is divided
    by 1 + r.
    """
    if market_return <= 0:
        raise NonPositiveReturnError(f"market return must be > 0, got {market_return}")
    growth = growth_factor(r) / UNIT
    base_price = state.base_price * market_return
    implied = state.trd_price * market_return / growth
    # The clamp below cannot size an infinite excess, and a NaN compares
    # false against the ceiling.
    if not (math.isfinite(base_price) and math.isfinite(implied)):
        raise NonFinitePriceError(
            f"price overflowed or is NaN: base {base_price}, TRD {implied}"
        )
    ceiling = peg_ceiling(cfg, base_price)
    if implied == 0:
        raise NonFinitePriceError(f"TRD price underflowed to 0 at base {base_price}")
    if implied > ceiling:
        # Supply that would dilute the implied price back down to the peg:
        # supply * (implied / ceiling - 1), floored.
        num, den = price_ratio(implied, ceiling)
        return MarketState(ceiling, base_price, Amount(supply.raw * (num - den) // den))
    return MarketState(implied, base_price)
