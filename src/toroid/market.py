"""Exogenous-demand price model with the one-way peg as an arbitrage clamp.

The base-coin price follows the input series while each rebasement
dilutes the per-token price by exactly 1/(1 + r) in the same period, so
TRD/base is peg * anchor / index: the ledger's rebase index against the
anchor, its value at the last clamp and the only state one period
carries to the next (the launch index at first, where TRD sits at the
peg).  The peg is a pure ceiling: whenever that ratio would exceed the
peg, arbitrageurs fund the contract for cheap TRD, so the price is
clamped there, the supply that such funding mints is recorded, and the
anchor moves to the current index.

Prices are floats, deliberately outside the fixed-point core.  The clamp
and its mint are integer arithmetic on the two indexes; the period
kernel rounds the mint down to an amount with exact collateral and
deposits it.
"""

from __future__ import annotations

import math

from .controller import RebaseConfig
from .errors import NonFinitePriceError
from .numerics import UNIT, Amount, Index, record


@record
class MarketState:
    trd_price: float
    base_price: float
    arb_minted: Amount = Amount(0)
    anchor: Index = Index(1, 1)


def peg_ceiling(cfg: RebaseConfig, base_price: float) -> float:
    """The one-way peg: TRD never trades above peg_ratio units of base coin.

    Raises NonFinitePriceError unless the base price and the ceiling are
    finite and positive: a subnormal base price can underflow the ceiling
    to zero, under which no positive TRD price would fit.
    """
    if not 0 < base_price < math.inf:
        raise NonFinitePriceError(f"base price must be finite and > 0: {base_price}")
    ceiling = (cfg.peg_ratio.ppb / UNIT) * base_price
    if ceiling == 0:
        raise NonFinitePriceError(f"peg ceiling underflowed to 0 at base {base_price}")
    if ceiling == math.inf:
        raise NonFinitePriceError(f"peg ceiling overflowed at base {base_price}")
    return ceiling


def step_price(
    anchor: Index,
    base_price: float,
    index: Index,
    cfg: RebaseConfig,
    supply: Amount,
) -> MarketState:
    """Price this period from its base price and the post-rebase index.

    TRD/base is peg * anchor / index, anchor being the index at the last
    clamp.  When anchor > index that exceeds the peg: the price is
    clamped to the ceiling, the mint that dilutes supply (the
    post-rebase total) back down to it, supply * (anchor / index - 1)
    floored, is recorded, and the anchor moves to index.  Raises
    NonFinitePriceError on a bad base price, a clamped period's ceiling
    or an unclamped period's TRD price leaving the floats; a TRD price
    that fits is not checked against its ceiling, which can be infinite
    above a peg of 1 (step_period's ceiling check rejects that).
    """
    num, den = anchor.num * index.den, anchor.den * index.num
    if num > den:
        ceiling = peg_ceiling(cfg, base_price)
        mint = Amount(supply.raw * (num - den) // den)
        return MarketState(ceiling, base_price, mint, index)
    trd_price = cfg.peg_ratio.ppb * num / (UNIT * den) * base_price
    if not 0 < trd_price < math.inf:
        # A bad base price or ceiling raises there; under a finite
        # ceiling, the price can only have underflowed.
        peg_ceiling(cfg, base_price)
        raise NonFinitePriceError(f"TRD price underflowed to 0 at base {base_price}")
    return MarketState(trd_price, base_price, anchor=anchor)
