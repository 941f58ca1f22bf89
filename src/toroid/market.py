"""Exogenous-demand price model: TRD/base from the rebase index.

The base-coin price follows the input series while each rebasement
dilutes the per-token price by exactly 1/(1 + r) in the same period, so
TRD/base is peg * anchor / index: the ledger's rebase index against the
anchor, its value at the last clamp and the only state one period
carries to the next (the launch index at first, where TRD sits at the
peg).  The peg is a pure ceiling, and the period kernel
(harness.step_period) owns it: when the ratio would pass the peg,
arbitrageurs fund the contract for cheap TRD, their mint dilutes the
price back down, and the kernel moves the anchor to the index, so this
module prices that period at exactly the ceiling.  The price rule is
written once, on bare terms, as _trd_price: step_period runs it on the
ledger's index terms and step_price boxes it.

Prices are floats, deliberately outside the fixed-point core.
"""

from __future__ import annotations

import math

from .controller import RebaseConfig
from .errors import InvalidArgumentError, NonFinitePriceError
from .numerics import UNIT, Index, record


@record
class MarketState:
    """step_price's result: the TRD price and the base price it came from."""

    trd_price: float
    base_price: float


def peg_ceiling(cfg: RebaseConfig, base_price: float) -> float:
    """The one-way peg: TRD never trades above peg_ratio units of base coin.

    Raises TypeError unless the base price is a float, NonFinitePriceError
    unless it and the ceiling are finite and positive: a subnormal base
    price can underflow the ceiling to zero, under which no TRD price fits.
    """
    if type(base_price) is not float:
        raise TypeError(f"base_price must be float, got {base_price!r}")
    if not 0 < base_price < math.inf:
        raise NonFinitePriceError(f"base price must be finite and > 0: {base_price}")
    ceiling = (cfg.peg_ratio.ppb / UNIT) * base_price
    if ceiling == 0:
        raise NonFinitePriceError(f"peg ceiling underflowed to 0 at base {base_price}")
    if ceiling == math.inf:
        raise NonFinitePriceError(f"peg ceiling overflowed at base {base_price}")
    return ceiling


def step_price(
    anchor: Index, base_price: float, index: Index, cfg: RebaseConfig
) -> MarketState:
    """Price this period from its base price and the post-rebase index.

    TRD/base is peg * anchor / index, anchor being the index at the last
    clamp.  The anchor must not exceed the index (step_period's never
    does), so TRD/base is at most the peg, and at anchor == index the TRD
    price is exactly the ceiling, as the int/int division is correctly
    rounded.  Raises InvalidArgumentError on an anchor above the index,
    and NonFinitePriceError on a bad base price or ceiling, or a TRD price
    that underflows to 0.  A TRD price that fits is not checked
    against its ceiling, which can be infinite above a peg of 1
    (step_period's ceiling check rejects that).
    """
    num, den = anchor.num * index.den, anchor.den * index.num
    if num > den:
        raise InvalidArgumentError("anchor must not exceed the index")
    return MarketState(_trd_price(cfg, num, den, base_price), base_price)


def _trd_price(cfg: RebaseConfig, num: int, den: int, base_price: float) -> float:
    """step_price on bare terms: peg * num / den units of base coin.

    num/den is anchor / index as the cross products anchor.num * index.den
    over anchor.den * index.num, which step_period forms from the ledger's
    own index terms.  Raises as step_price does on a bad base price or
    ceiling, or a price that underflows to 0.
    """
    trd_price = cfg.peg_ratio.ppb * num / (UNIT * den) * base_price
    if not 0 < trd_price < math.inf:
        # A bad base price or ceiling raises there; under a finite
        # ceiling, the price can only have underflowed.
        peg_ceiling(cfg, base_price)
        raise NonFinitePriceError(f"TRD price underflowed to 0 at base {base_price}")
    return trd_price
