"""Backtest loop: market data in, period-by-period series out.

Each input row is one period of base-coin price and transaction count.
The loop feeds the transaction count to the controller, rebases the
ledger, clamps TRD/base at the peg, prices TRD from the row's base price
and the ledger's index, deposits the clamp's arbitrage mint, and pairs
the row with the period's PeriodRecord.  step_period is that one period.
Like an attack arm's period, it runs the controller's private integer
rules, _combined_ppb, and the ledger's integer period close,
Ledger._rebase_raw, then prices TRD with the market's rule on bare
terms, _trd_price, so a PeriodRecord carries their raw ints: rates in
ppb and TRD amounts in nano-units, which write_series_csv renders with
format_raw.  Identical inputs produce byte-identical output files, and
write_output is the one way the package writes a file.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import stat
from pathlib import Path

from .controller import PeriodMetrics, RebaseConfig, _combined_ppb
from .errors import (
    InvalidArgumentError,
    InvariantViolationError,
    MarketDataError,
    NonMonotoneDatesError,
    NonPositivePriceError,
    decode_utf8,
)
from .ledger import Ledger
from .market import _trd_price, peg_ceiling
from .numerics import MAX_RAW, UNIT, Amount, Index, format_raw, record

MARKET_CSV_HEADER = "date,price,tx_count"
SERIES_CSV_HEADER = (
    "date,trd_price,trd_supply,r_initial,r_vol,r_gas_cap,r_combined,tx_count"
)

_GENESIS = "genesis"
_ARBITRAGEUR = "arb"


@record
class MarketRow:
    """One period of market data: a date, the base coin's price, a tx count.

    load_market_csv reads one from each line of a date,price,tx_count
    file and checks each field: the date is YYYY-MM-DD and later than the
    row before, the price is finite and > 0, and the count is >= 0.
    """

    date: dt.date
    price: float
    tx_count: int


def load_market_csv(path: str | Path) -> list[MarketRow]:
    """Parse a date,price,tx_count file; dates are YYYY-MM-DD, strictly increasing."""
    lines = decode_utf8(Path(path).read_bytes(), MarketDataError).splitlines()
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
    """What one period produced: its rates, TRD's price, anchor and supply.

    run_backtest pairs one with each input row after the first.  The four
    rates are the controller's rules in ppb, as combined_rate's
    RateBreakdown holds them; supply is the end-of-period total and
    arb_minted the TRD the peg clamp deposited into the "arb" account,
    both in raw nano-units.  anchor is the index at the last clamp: the
    same Index from period to period, and a new one only at a clamp.
    """

    r_initial: int
    r_vol: int
    r_gas_cap: int
    r_combined: int
    trd_price: float
    anchor: Index
    supply: int
    arb_minted: int


def step_period(
    ledger: Ledger,
    anchor: Index,
    cfg: RebaseConfig,
    v: int,
    v_prev: int,
    base_price: float,
    supply: int,
) -> PeriodRecord:
    """Run one period: set the rate from the counts, rebase, price TRD.

    The rates are the controller's integer rules, _combined_ppb, and the
    rebase is the ledger's integer period close, Ledger._rebase_raw, as in
    an attack arm; the price is market's rule on bare terms, _trd_price,
    read from the ledger's index terms.  So a period boxes nothing but
    its PeriodRecord, and the new anchor at a clamp.  TRD/base is
    peg * anchor / index, anchor being the index at the last clamp.  Past
    the peg the clamp binds: the anchor moves to the index, pricing TRD
    at the ceiling, and once the price has passed its check the mint
    supply * (anchor / index - 1), floored, then rounded down to exact
    collateral, is deposited into the "arb" account.  supply is the
    ledger's raw total at period start, as the previous period returned
    it, so no caller rescans every account.  A bad anchor, counts or
    supply, or a bad base price or ceiling raise before the ledger moves,
    each as peg_ceiling, PeriodMetrics or Amount would raise it; a TRD
    price that underflows depends on the new index, so it raises after
    the rebase.
    """
    ceiling = peg_ceiling(cfg, base_price)
    t = ledger.current_period
    # The input check on bare values; the records it stands for are
    # built only to raise their own refusal.
    if not (
        type(anchor) is Index
        and type(t) is int and type(v) is int and type(v_prev) is int and type(supply) is int
        and t >= 0 and v >= 0 and v_prev >= 0 and 0 <= supply <= MAX_RAW
    ):
        if type(anchor) is not Index:
            raise TypeError(f"anchor must be Index, got {anchor!r}")
        PeriodMetrics(t, v, v_prev, Amount(supply))
    r_initial, r_vol, r_gas_cap, r_combined = _combined_ppb(t, v, v_prev, supply, cfg)
    supply = ledger._rebase_raw(r_combined)
    index_num, index_den = ledger._index_terms()
    # anchor / index as cross products
    num, den = anchor.num * index_den, anchor.den * index_num
    excess = num - den
    if excess > 0:
        anchor, num = Index(index_num, index_den), den
    trd_price = _trd_price(cfg, num, den, base_price)
    # Written so that a NaN price fails the check too.
    if not trd_price <= ceiling:
        raise InvariantViolationError("TRD price escaped the peg ceiling")
    minted = 0
    if excess > 0:
        # Amount checks the floored mint for overflow before it is rounded.
        minted = Amount(supply * excess // den).raw
        minted -= minted % (UNIT // math.gcd(ledger.peg_ratio.ppb, UNIT))
        if minted:
            collateral = ledger.collateral_for(Amount(minted))
            if _ARBITRAGEUR in ledger:
                ledger.deposit(_ARBITRAGEUR, collateral)
            else:
                ledger.open_account(collateral, account_id=_ARBITRAGEUR)
            supply = ledger._supply_raw()
    return PeriodRecord(
        r_initial, r_vol, r_gas_cap, r_combined, trd_price, anchor, supply, minted
    )


def run_backtest(
    rows: list[MarketRow],
    cfg: RebaseConfig,
    initial_supply: Amount,
) -> list[tuple[MarketRow, PeriodRecord]]:
    """Drive the controller, ledger and market over a historical series.

    The first row seeds only the previous-period volume (TRD launches at
    the peg, so its price is not read); every later row is returned
    paired with the PeriodRecord step_period produced for it.  A genesis
    account holding initial_supply against equivalent collateral seeds
    the ledger.  cfg is used as given: a gas cost stated in TRD is
    converted into cfg.gas_cost_base by the caller (--gas-cost-trd).
    """
    if not rows:
        raise MarketDataError("no market rows")
    if initial_supply.raw <= 0:
        raise InvalidArgumentError("initial supply must be positive")
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(initial_supply), account_id=_GENESIS)

    anchor, supply = ledger.index, ledger._supply_raw()
    out: list[tuple[MarketRow, PeriodRecord]] = []
    for prev, row in zip(rows, rows[1:]):
        record = step_period(
            ledger, anchor, cfg, row.tx_count, prev.tx_count, row.price, supply
        )
        anchor, supply = record.anchor, record.supply
        out.append((row, record))
    return out


def write_series_csv(
    series: list[tuple[MarketRow, PeriodRecord]], path: str | Path
) -> None:
    """Write run_backtest's pairs; rates are nine-decimal fixed strings.

    Output is byte-stable: fixed header, fixed formatting, "\\n" endings.
    An existing file is rewritten in place through write_output.
    """
    lines = [SERIES_CSV_HEADER]
    for row, record in series:
        lines.append(
            f"{row.date.isoformat()},{record.trd_price:.9f},{format_raw(record.supply)},"
            f"{format_raw(record.r_initial)},{format_raw(record.r_vol)},"
            f"{format_raw(record.r_gas_cap)},{format_raw(record.r_combined)},"
            f"{row.tx_count}"
        )
    write_output(path, "\n".join(lines) + "\n")


def write_output(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8 bytes, rewriting an existing file in place.

    The path is opened without O_TRUNC: the bytes go over the old ones
    and a regular file is then truncated to their length.  So the file
    keeps its inode, a hard link sees the new bytes, a symlink stays a
    symlink with its target rewritten, and a device such as /dev/null is
    written and never truncated.  Truncating a non-empty file to zero
    first would make some filesystems (ext4's auto_da_alloc) flush it to
    disk on close.  Errors are the OSError open(path, "w") raises, text
    included.  Nothing is synced to disk, and a write that fails partway
    can leave the new bytes followed by old ones.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate(len(data))
