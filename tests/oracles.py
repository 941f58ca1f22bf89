"""Exact reference helpers that the tests check the library against.

Each one restates a rule on its own, without calling the code it checks:
one_plus and grow_index_by_search keep their own 1 + r > 0 check rather
than borrowing numerics.grow_index's.
"""

import copy
import csv
import datetime as dt
import inspect
import io
import math
import pickle
import random
import statistics
from dataclasses import field, fields, make_dataclass, replace
from fractions import Fraction
from pathlib import Path

from toroid.adversary import AttackReport, SybilScenario
from toroid.controller import PeriodMetrics, RateBreakdown, RebaseConfig, combined_rate
from toroid.errors import NonPositiveFactorError
from toroid.harness import MarketRow, PeriodRecord
from toroid.market import MarketState
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


def grow_index_by_search(idx: Index, r: Rate) -> Index:
    """idx * (1 + r) rounded half up onto the grid 10^-(30+3j), trying
    j = 0, 1, 2, ... until the numerator reaches 10^27."""
    factor = UNIT + r.ppb
    if factor <= 0:
        raise NonPositiveFactorError(f"1 + r must be positive, got {r.ppb} ppb")
    num, den = idx.num * factor, idx.den * UNIT
    grid = 10**30
    while (rescaled := (num * grid + den // 2) // den) < 10**27:
        grid *= 1000
    return Index(rescaled, grid)


def sale_price_by_fraction(trd_price: float, base_price: float) -> Fraction:
    """An attack's sale price, base coin per TRD, as one exact Fraction."""
    return Fraction(trd_price) / Fraction(base_price)


# The bundled data clamps the peg 5 times under this config: a volume
# term ten times the default's, and no bootstrap floor to hold r >= 0.
CLAMP_CFG = RebaseConfig(k_v=Rate.from_decimal("1"), t0=10**6, bootstrap_periods=0)


def random_walk(seed: int, periods: int = 250, tx_sigma: float = 0.15) -> list[MarketRow]:
    """A seeded series: log-normal daily moves in price and in count."""
    rng = random.Random(seed)
    price, tx = rng.uniform(1.0, 1000.0), rng.randrange(1_000, 100_000)
    rows = []
    for day in range(periods):
        rows.append(MarketRow(dt.date(2020, 1, 1) + dt.timedelta(days=day), price, tx))
        price *= math.exp(rng.gauss(0.0, 0.05))
        tx = round(tx * math.exp(rng.gauss(0.0, tx_sigma)))
    return rows


# Seeds of 500-row walks whose count moves 0.3 in log a period: the
# index falls near 1e-16 while the supply stays near 10,000 TRD.
COLLAPSED_SEEDS = (1, 2, 8, 12, 14, 26, 50)


def exact_backtest(
    rows: list[MarketRow], cfg: RebaseConfig, initial_supply: Amount
) -> list[tuple[RateBreakdown, int, int, Fraction]]:
    """run_backtest restated on exact fractions, with no index grid.

    Per row after the first: (breakdown, arb_minted raw, supply raw, TRD
    price).  The index is the exact product of every 1 + r, and TRD/base
    is q, divided by 1 + r each period.  When that would leave q above
    the peg, the clamp mints floor(supply * (q / ((1 + r) * peg) - 1)) and
    q returns to the peg; the mint, rounded down to a multiple of
    UNIT / gcd(peg, UNIT) raw, enters the "arb" account at ceiling
    shares, and that deposit is the row's arb_minted.  Rates come from
    combined_rate, which has oracles of its own.
    """
    peg = Fraction(cfg.peg_ratio.ppb, UNIT)
    step = UNIT // math.gcd(cfg.peg_ratio.ppb, UNIT)
    index, q = Fraction(1), peg
    shares = {"genesis": initial_supply.raw * SHARE_SCALE}

    def supply() -> int:
        return sum(math.floor(s * index / SHARE_SCALE) for s in shares.values())

    total, out = supply(), []
    for t, (prev, row) in enumerate(zip(rows, rows[1:])):
        breakdown = combined_rate(
            PeriodMetrics(t, row.tx_count, prev.tx_count, Amount(total)), cfg
        )
        growth = 1 + Fraction(breakdown.r_combined.ppb, UNIT)
        index *= growth
        total, deposited = supply(), 0
        if q / growth > peg:
            minted = math.floor(total * (q / (growth * peg) - 1))
            q = peg
            deposited = minted - minted % step
            if deposited:
                shares["arb"] = shares.get("arb", 0) + math.ceil(
                    deposited * SHARE_SCALE / index
                )
                total = supply()
        else:
            q /= growth
        out.append((breakdown, deposited, total, q * Fraction(row.price)))
    return out


def ppb_of(breakdown: RateBreakdown) -> tuple[int, int, int, int]:
    """A RateBreakdown's four rates as bare ppb, in field order."""
    return (
        breakdown.r_initial.ppb,
        breakdown.r_vol.ppb,
        breakdown.r_gas_cap.ppb,
        breakdown.r_combined.ppb,
    )


def rates_of(record) -> tuple[int, int, int, int]:
    """A PeriodRecord's four rates in ppb, in RateBreakdown's field order."""
    return record.r_initial, record.r_vol, record.r_gas_cap, record.r_combined


def initial_rate_by_fraction(t: int, cfg: RebaseConfig) -> int:
    """The incentive 1/(t + t0) in ppb, floored as an exact Fraction."""
    return math.floor(Fraction(UNIT, t + cfg.t0))


def gas_cap_by_fraction(v: int, s_raw: int, cfg: RebaseConfig) -> int:
    """The gas cap in ppb: v transactions' gas in TRD over the supply.

    One transaction's gas is gas_cost_base at the peg, floored to a whole
    raw TRD unit; the ratio is floored to ppb.  Both floors are Fractions.
    """
    peg = Fraction(cfg.peg_ratio.ppb, UNIT)
    gas_raw = math.floor(Fraction(cfg.gas_cost_base.raw) / peg)
    return math.floor(Fraction(v * gas_raw, s_raw) * UNIT)


def combine_by_min_max(
    t: int, r_initial: Rate, r_vol: Rate, r_gas_cap: Rate, cfg: RebaseConfig
) -> Rate:
    """The combined rate with each bound as a builtin min or max, in the
    order gas cap, bootstrap floor, -99% hard floor."""
    body = r_vol.ppb
    if cfg.gas_cap_enabled:
        body = max(-r_gas_cap.ppb, min(r_gas_cap.ppb, body))
    combined = r_initial.ppb + body
    if t < cfg.bootstrap_periods:
        combined = max(combined, 0)
    return Rate(max(combined, -990_000_000))


def format_raw_by_divmod(value: int) -> str:
    """A signed raw nano-unit count as text, from its whole and fractional parts."""
    whole, frac = divmod(abs(value), UNIT)
    return f"-{whole}.{frac:09d}" if value < 0 else f"{whole}.{frac:09d}"


def apply_index(shares: Amount, idx: Index) -> Amount:
    """Convert share units to token units at the given index, flooring."""
    return Amount(shares.raw * idx.num // idx.den)


def supply_by_division(ledger: Ledger) -> Amount:
    """Total supply as one floor division per account, over den * SHARE_SCALE."""
    num, den = ledger.index.num, ledger.index.den * SHARE_SCALE
    return Amount(sum(shares * num // den for shares in ledger._shares.values()))


def volatility_ratio(
    series_csv: Path, market_csv: Path, horizon: int, start: int = 0
) -> float:
    """TRD/base volatility at a horizon of so many periods.

    The standard deviation of overlapping log returns of trd_price in a
    simulate series, over that of the base price on the same dates, from
    the series row start (period start of a run from period 0) on.
    """
    with open(series_csv, newline="", encoding="utf-8") as f:
        trd = {row["date"]: float(row["trd_price"]) for row in csv.DictReader(f)}
    with open(market_csv, newline="", encoding="utf-8") as f:
        base = {row["date"]: float(row["price"]) for row in csv.DictReader(f)}
    dates = [date for date in base if date in trd][start:]

    def volatility(prices: list[float]) -> float:
        return statistics.pstdev(
            math.log(later / earlier) for earlier, later in zip(prices, prices[horizon:])
        )

    return volatility([trd[d] for d in dates]) / volatility([base[d] for d in dates])


def log_return_split(
    series_csv: Path, market_csv: Path, peg: float
) -> list[tuple[float, float, float]]:
    """Each period's TRD log return as (market, rebase, residual).

    The market part is ln(base_t / base_t-1), the rebase part is
    -ln(1 + r_combined_t), and the residual is what the two leave of
    ln(trd_t / trd_t-1).  TRD launches at peg times the first base price.
    """
    with open(series_csv, newline="", encoding="utf-8") as f:
        series = list(csv.DictReader(f))
    with open(market_csv, newline="", encoding="utf-8") as f:
        base = {row["date"]: float(row["price"]) for row in csv.DictReader(f)}
    first = next(iter(base))
    trd = [peg * base[first]] + [float(row["trd_price"]) for row in series]
    dates = [first] + [row["date"] for row in series]
    out = []
    for t, row in enumerate(series, start=1):
        market = math.log(base[dates[t]] / base[dates[t - 1]])
        rebase = -math.log1p(float(row["r_combined"]))
        out.append((market, rebase, math.log(trd[t] / trd[t - 1]) - market - rebase))
    return out


def split_volatility_ratio(
    series_csv: Path, market_csv: Path, peg: float, horizon: int, detrend: bool = False
) -> float:
    """TRD/base volatility at a horizon, from sums of log_return_split terms.

    TRD's log price starts at launch and adds each period's market, rebase
    and residual parts; the base coin's adds the market part alone.  So,
    unlike volatility_ratio, the launch period's return counts.  detrend
    adds ln(1 + r_initial) back to each period, taking the bootstrap
    incentive's deterministic drift out of the rebase part.
    """
    with open(series_csv, newline="", encoding="utf-8") as f:
        r_initial = [float(row["r_initial"]) for row in csv.DictReader(f)]
    trd, base = [0.0], [0.0]
    for (market, rebase, residual), r in zip(
        log_return_split(series_csv, market_csv, peg), r_initial
    ):
        drift = math.log1p(r) if detrend else 0.0
        trd.append(trd[-1] + market + rebase + residual + drift)
        base.append(base[-1] + market)

    def volatility(path: list[float]) -> float:
        return statistics.pstdev(later - earlier for earlier, later in zip(path, path[horizon:]))

    return volatility(trd) / volatility(base)


def random_walk_csv(seed: int, rows: int) -> str:
    """The benchmark's seeded market series (benchmarks/workloads.market_csv).

    A geometric random walk from 100 with drift 0.15%/day and volatility
    5%/day, and transaction counts growing with time and price.
    """
    rng = random.Random(seed)
    price = 100.0
    day = dt.date(2017, 1, 1)
    lines = ["date,price,tx_count"]
    for t in range(rows):
        if t:
            z = sum(rng.random() for _ in range(12)) - 6.0
            price *= math.exp(0.0015 + 0.05 * z)
        wobble = 1.0 + 0.1 * (rng.random() - 0.5)
        tx_count = max(1, int(4.0 * (t + 10) * price * wobble))
        lines.append(f"{day + dt.timedelta(days=t)},{price:.9f},{tx_count}")
    return "\n".join(lines) + "\n"


def stock_twin(cls: type) -> type:
    """cls's name, fields, defaults and __post_init__ under a stock
    @dataclass(frozen=True, slots=True)."""
    namespace = {k: v for k, v in vars(cls).items() if k == "__post_init__"}
    return make_dataclass(
        cls.__name__,
        [(f.name, f.type, field(default=f.default)) for f in fields(cls)],
        namespace=namespace,
        frozen=True,
        slots=True,
    )


# Two instances of every value type, as positional arguments.
_RATES = (Rate(1), Rate(2), Rate(3), Rate(4))
RECORDS = [
    (Amount, (5,), (7,)),
    (Rate, (-3,), (4,)),
    (Index, (3, 2), (5, 4)),
    (RebaseConfig, (), (11, 0, Rate(5), Amount(6), Rate(7), False)),
    (PeriodMetrics, (1, 2, 3, Amount(4)), (5, 6, 7, Amount(8))),
    (RateBreakdown, _RATES, _RATES[::-1]),
    (MarketState, (1.0, 1.0), (0.5, 2.0)),
    (MarketRow, (dt.date(2017, 1, 1), 100.0, 3929), (dt.date(2017, 1, 2), 87.9, 3995)),
    (
        PeriodRecord,
        (1, 2, 3, 4, 1.0, Index(1, 1), 9, 0),
        (4, 3, 2, 1, 0.5, Index(5, 4), 10, 3),
    ),
    (SybilScenario, (10, 2, 0, Amount(100), Amount(5), 90), (20, 3, 1, Amount(9), Amount(0), 0)),
    (AttackReport, (Amount(1), Amount(2), Amount(3)), (Amount(5), Amount(6), Amount(7))),
]


class _KindPickler(pickle.Pickler):
    """Pickles the class self.kind by a persistent id, so a stock_twin,
    which no module holds, pickles as its record does."""

    def persistent_id(self, obj):
        return "kind" if obj is self.kind else None


class _KindUnpickler(pickle.Unpickler):
    def persistent_load(self, pid):
        return self.kind


def _pickle_round_trip(obj) -> tuple[bytes, object]:
    """obj's pickle, with type(obj) as a persistent id, and what it loads as."""
    buffer = io.BytesIO()
    pickler = _KindPickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.kind = type(obj)
    pickler.dump(obj)
    unpickler = _KindUnpickler(io.BytesIO(buffer.getvalue()))
    unpickler.kind = type(obj)
    return buffer.getvalue(), unpickler.load()


def record_behaviour(kind: type, args: tuple, other: tuple) -> dict:
    """What instances of kind built from args and other show, by aspect.

    A record and its stock_twin must show the same: repr, hash, == and
    !=, copy, deepcopy and pickling, dataclasses.replace (and
    copy.replace where it exists), the FrozenInstanceError on setting or
    deleting each field, the signature and __match_args__.
    """
    a, b = kind(*args), kind(*other)
    changes = {f.name: getattr(b, f.name) for f in fields(kind)}
    pickled, loaded = _pickle_round_trip(b)
    seen = {
        "repr": [repr(a), repr(b)],
        "hash": [hash(a), hash(b)],
        "eq": [a == b, a == kind(*args), a != b, a != kind(*args), a == args],
        "copies": [
            [type(clone) is kind, clone == b, hash(clone) == hash(b), repr(clone)]
            for clone in (copy.copy(b), copy.deepcopy(b), loaded)
        ],
        "pickle": pickled,
        "replace": [repr(replace(a, **changes)), replace(a) == a],
        "signature": inspect.signature(kind),
        "match_args": kind.__match_args__,
        "frozen": [],
    }
    if hasattr(copy, "replace"):
        seen["copy.replace"] = [repr(copy.replace(a, **changes)), copy.replace(a) == a]
    for name in changes:
        for refused in (lambda: setattr(a, name, 0), lambda: delattr(a, name)):
            try:
                refused()
            except AttributeError as exc:
                seen["frozen"].append((type(exc).__name__, str(exc)))
            else:
                seen["frozen"].append(None)
    return seen
