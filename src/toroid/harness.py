"""Backtest loop: market data in, period-by-period series out.

Each input row is one period of base-coin price and transaction count.
The loop computes the market return, feeds the transaction count to the
controller, rebases the ledger, steps the price model, mints whatever
arbitrage the peg clamp implied, and pairs the row with the period's
PeriodRecord.  step_period is that one period.  Identical inputs produce
byte-identical output files.
"""

from __future__ import annotations

import datetime as dt
import math
from pathlib import Path

from .controller import PeriodMetrics, RateBreakdown, RebaseConfig, combined_rate
from .errors import (
    InvariantViolationError,
    MarketDataError,
    NonMonotoneDatesError,
    NonPositivePriceError,
)
from .ledger import Ledger
from .market import MarketState, initial_market, peg_ceiling, step_price
from .numerics import UNIT, Amount, record

MARKET_CSV_HEADER = "date,price,tx_count"
SERIES_CSV_HEADER = (
    "date,trd_price,trd_supply,r_initial,r_vol,r_gas_cap,r_combined,tx_count"
)

_GENESIS = "genesis"
_ARBITRAGEUR = "arb"


@record
class MarketRow:
    date: dt.date
    price: float
    tx_count: int


def load_market_csv(path: str | Path) -> list[MarketRow]:
    """Parse a date,price,tx_count file; dates are YYYY-MM-DD, strictly increasing."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != MARKET_CSV_HEADER:
        raise MarketDataError(
            f"expected header {MARKET_CSV_HEADER!r}", line=1
        )
    rows: list[MarketRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise MarketDataError(f"expected 3 fields, got {len(fields)}", line=lineno)
        date_text = fields[0].strip()
        try:
            date = dt.date.fromisoformat(date_text)
            # Newer Pythons also parse "20170101" and "2017-W01-1".
            if date.isoformat() != date_text:
                raise ValueError("not YYYY-MM-DD")
        except ValueError as exc:
            raise MarketDataError(f"bad date {fields[0]!r}", line=lineno) from exc
        try:
            price = float(fields[1])
        except ValueError as exc:
            raise MarketDataError(f"bad price {fields[1]!r}", line=lineno) from exc
        if not 0 < price < math.inf:
            raise NonPositivePriceError(
                f"price must be finite and > 0, got {fields[1]}", line=lineno
            )
        try:
            tx_count = int(fields[2])
        except ValueError as exc:
            raise MarketDataError(f"bad tx count {fields[2]!r}", line=lineno) from exc
        if tx_count < 0:
            raise MarketDataError(f"tx count must be >= 0, got {tx_count}", line=lineno)
        if rows and date <= rows[-1].date:
            raise NonMonotoneDatesError(
                f"date {date} does not follow {rows[-1].date}", line=lineno
            )
        rows.append(MarketRow(date, price, tx_count))
    return rows


@record
class PeriodRecord:
    """What one period produced: its rates, the market and supply after it.

    run_backtest pairs one with each input row after the first;
    market.arb_minted is the clamp's mint before it was rounded down to
    exact collateral and deposited.
    """

    breakdown: RateBreakdown
    market: MarketState
    supply: Amount


def step_period(
    ledger: Ledger,
    market: MarketState,
    cfg: RebaseConfig,
    v: int,
    v_prev: int,
    market_return: float,
    supply: Amount,
) -> PeriodRecord:
    """Run one period: set the rate from the counts, rebase, move the price.

    When the peg clamp binds, its arbitrage mint is deposited into the
    "arb" account.  supply is the ledger's total at period start, as the
    previous period returned it, so no caller rescans every account.
    """
    breakdown = combined_rate(
        PeriodMetrics(ledger.current_period, v, v_prev, supply), cfg
    )
    supply = ledger.rebase(breakdown.r_combined)
    market = step_price(market, market_return, breakdown.r_combined, cfg, supply)
    # Written so that a NaN price fails the check too.
    if not market.trd_price <= peg_ceiling(cfg, market.base_price):
        raise InvariantViolationError("TRD price escaped the peg ceiling")
    if market.arb_minted.raw:
        supply = _inject_arbitrage(ledger, market.arb_minted, supply)
    return PeriodRecord(breakdown, market, supply)


def run_backtest(
    rows: list[MarketRow],
    cfg: RebaseConfig,
    initial_supply: Amount,
) -> list[tuple[MarketRow, PeriodRecord]]:
    """Drive the controller, ledger and market over a historical series.

    The first row seeds the starting price and previous-period volume;
    every later row is returned paired with the PeriodRecord step_period
    produced for it.  A genesis account holding initial_supply against
    equivalent collateral seeds the ledger.  cfg is used as given: a gas
    cost stated in TRD is converted into cfg.gas_cost_base by the caller
    (the CLI does it for --gas-cost-trd).
    """
    if not rows:
        raise MarketDataError("no market rows")
    if initial_supply.raw <= 0:
        raise ValueError("initial supply must be positive")
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(initial_supply), account_id=_GENESIS)

    market = initial_market(rows[0].price, cfg)
    supply = ledger.total_supply()
    out: list[tuple[MarketRow, PeriodRecord]] = []
    for prev, row in zip(rows, rows[1:]):
        record = step_period(
            ledger, market, cfg, row.tx_count, prev.tx_count,
            row.price / prev.price, supply,
        )
        market, supply = record.market, record.supply
        out.append((row, record))
    return out


def _inject_arbitrage(ledger: Ledger, minted: Amount, supply: Amount) -> Amount:
    """Feed the clamp's mint into a dedicated arbitrageur account.

    The mint is rounded down to the nearest amount with exact collateral
    at the peg; a zero result leaves the ledger untouched.
    """
    step = UNIT // math.gcd(ledger.peg_ratio.ppb, UNIT)
    rounded = minted.raw - minted.raw % step
    if rounded == 0:
        return supply
    collateral = ledger.collateral_for(Amount(rounded))
    if _ARBITRAGEUR in ledger.accounts:
        ledger.deposit(_ARBITRAGEUR, collateral)
    else:
        ledger.open_account(collateral, account_id=_ARBITRAGEUR)
    return ledger.total_supply()


def write_series_csv(
    series: list[tuple[MarketRow, PeriodRecord]], path: str | Path
) -> None:
    """Write run_backtest's pairs; rates are nine-decimal fixed strings.

    Output is byte-stable: fixed header, fixed formatting, "\\n" endings.
    """
    lines = [SERIES_CSV_HEADER]
    for row, record in series:
        rates = record.breakdown
        lines.append(
            ",".join(
                (
                    row.date.isoformat(),
                    f"{record.market.trd_price:.9f}",
                    record.supply.tokens(),
                    rates.r_initial.decimal(),
                    rates.r_vol.decimal(),
                    rates.r_gas_cap.decimal(),
                    rates.r_combined.decimal(),
                    str(row.tx_count),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
