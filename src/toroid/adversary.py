"""Prices manipulation attacks and renders a profitability verdict.

Each attack runs two simulations from bit-identical ledgers: one with the
injected transaction volume, one without.  They share the seeding and
every period before injection starts, and fork there.  Whatever the
attacker gained is the difference between the two runs, so honest
dynamics cancel exactly.  The accounting deliberately favors the
attacker: injected transactions cost exactly the configured gas and
nothing else (no fees, no slippage), and Sybil gains are valued at the
peg ceiling, the best price any sale could fetch.

An arm is the ledger alone, combined_rate then Ledger.rebase each period
of a flat market: k_v >= 0 and counts that never fall make every rate
>= 0, so the peg clamp never binds and TRD trades at exactly peg / index.
"""

from __future__ import annotations

from collections.abc import Callable

from .controller import PeriodMetrics, RebaseConfig, combined_rate
from .errors import ConfigError, InvariantViolationError
from .harness import _GENESIS
from .ledger import Ledger, _valid_id
from .numerics import UNIT, Amount, format_raw, record

_ATTACKER = "attacker"


@record
class SybilScenario:
    """One volume-manipulation scenario.

    delta_v_per_period  spurious transactions injected each period
    periods             attack duration in periods
    baseline_v          honest transactions per period
    start_supply        total TRD at scenario start (> 0, attacker included)
    attacker_holdings   TRD the attacker acquired before the attack
    start_period        period ordinal at scenario start
    """

    delta_v_per_period: int
    periods: int
    baseline_v: int
    start_supply: Amount
    attacker_holdings: Amount
    start_period: int

    def __post_init__(self) -> None:
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        if self.delta_v_per_period < 0 or self.baseline_v < 0:
            raise ValueError("transaction counts must be >= 0")
        if self.start_supply.raw <= 0:
            raise ValueError("start_supply must be positive")
        if self.attacker_holdings.raw > self.start_supply.raw:
            raise ValueError("attacker cannot hold more than the total supply")
        if self.start_period < 0:
            raise ValueError("start_period must be >= 0")


@record
class AttackReport:
    """Outcome of one scenario; net_profit_base is signed raw base units."""

    cost_base: Amount
    extra_supply_trd: Amount
    attacker_gain_base: Amount
    net_profit_base: int
    profitable: bool


def sybil_cost(v: int, cfg: RebaseConfig) -> Amount:
    """Gas cost of v injected transactions, in base coin.  Exactly linear."""
    if v < 0:
        raise ValueError("transaction count must be >= 0")
    return Amount(v * cfg.gas_cost_base.raw)


def _seed_ledger(scenario: SybilScenario, cfg: RebaseConfig) -> Ledger:
    ledger = Ledger(cfg.peg_ratio, start_period=scenario.start_period)
    honest = scenario.start_supply - scenario.attacker_holdings
    if honest.raw > 0:
        ledger.open_account(ledger.collateral_for(honest), account_id=_GENESIS)
    if scenario.attacker_holdings.raw > 0:
        ledger.open_account(
            ledger.collateral_for(scenario.attacker_holdings), account_id=_ATTACKER
        )
    return ledger


def _attacker_balance(ledger: Ledger) -> Amount:
    if _ATTACKER not in ledger.accounts:
        return Amount(0)
    return ledger.balance_of(_ATTACKER)


def _extra(post_attack: Amount, counterfactual: Amount, what: str) -> Amount:
    if post_attack.raw < counterfactual.raw:
        raise InvariantViolationError(
            f"injected volume reduced {what}: "
            f"{post_attack.tokens()} < {counterfactual.tokens()}"
        )
    return post_attack - counterfactual


def _step_flat(
    ledger: Ledger, supply: Amount, cfg: RebaseConfig, periods: int, v: int, v_prev: int
) -> Amount:
    """Rebase that many periods at v transactions each.

    v_prev is the count of the period before the first; returns the supply
    after the last period.
    """
    for _ in range(periods):
        metrics = PeriodMetrics(ledger.current_period, v, v_prev, supply)
        supply = ledger.rebase(combined_rate(metrics, cfg).r_combined)
        v_prev = v
    return supply


def _price_attack(
    scenario: SybilScenario,
    cfg: RebaseConfig,
    buy: int,
    sell: int,
    sale_price: Callable[[Ledger], tuple[int, int]],
) -> AttackReport:
    """Run both arms over periods 1..sell and price the attack.

    The arms are the same simulation up to buy, so periods 1..buy run once
    on one ledger, which then forks: the attacked arm injects in every
    period after buy through sell, the counterfactual does not.  The
    attacker's extra TRD is valued at sale_price of the attacked arm's
    final ledger, an exact ratio (num, den) of base coin per TRD, and
    floored to raw base units; the cost is the gas of every injected
    transaction.  A negative k_v, which would make injected volume
    shrink the supply, raises ConfigError.
    """
    if cfg.k_v.ppb < 0:
        raise ConfigError(
            f"k_v: attack pricing needs k_v >= 0, got {cfg.k_v.decimal()}"
        )
    attacked = _seed_ledger(scenario, cfg)
    b = scenario.baseline_v
    supply = _step_flat(attacked, attacked.total_supply(), cfg, buy, b, b)
    baseline = attacked.copy()
    attacked_supply = _step_flat(
        attacked, supply, cfg, sell - buy, b + scenario.delta_v_per_period, b
    )
    baseline_supply = _step_flat(baseline, supply, cfg, sell - buy, b, b)
    extra_supply = _extra(attacked_supply, baseline_supply, "total supply")
    extra_holdings = _extra(
        _attacker_balance(attacked), _attacker_balance(baseline), "attacker balance"
    )
    num, den = sale_price(attacked)
    gain = Amount(extra_holdings.raw * num // den)
    cost = sybil_cost(scenario.delta_v_per_period * (sell - buy), cfg)
    net = gain.raw - cost.raw
    return AttackReport(
        cost_base=cost,
        extra_supply_trd=extra_supply,
        attacker_gain_base=gain,
        net_profit_base=net,
        profitable=net > 0,
    )


def run_sybil(scenario: SybilScenario, cfg: RebaseConfig) -> AttackReport:
    """Flat-market Sybil attack: inject volume, value the gain at the peg.

    Both arms see an identical flat market (return 1 every period); the
    only difference is the injected transaction count.
    """
    peg = (cfg.peg_ratio.ppb, UNIT)
    return _price_attack(scenario, cfg, 0, scenario.periods, lambda _: peg)


def run_pump_and_dump(
    scenario: SybilScenario,
    buy_period: int,
    sell_period: int,
    cfg: RebaseConfig,
) -> AttackReport:
    """Pump-and-dump: accumulate, inflate the rebasement, liquidate.

    The attacker's position is in place by buy_period, spurious volume is
    injected in every period after buy_period through sell_period, and the
    position unwinds at the post-dilution price of sell_period: peg / index
    base coin per TRD, the index being the attacked arm's Pi(1 + r).  The
    gain is the attack-vs-counterfactual balance difference valued at that
    sale price, so it includes both the rebasement accrued on the holdings
    and the price move the attack itself caused.
    """
    if buy_period < 0:
        raise ValueError("buy_period must be >= 0")
    if not buy_period < sell_period <= scenario.periods:
        raise ValueError("need buy_period < sell_period <= periods")
    peg = cfg.peg_ratio.ppb
    return _price_attack(
        scenario, cfg, buy_period, sell_period,
        lambda ledger: (peg * ledger.index.den, UNIT * ledger.index.num),
    )


ATTACK_CSV_HEADER = (
    "scenario_id,delta_v,periods,cost_base,extra_supply_trd,"
    "gain_base,net_profit_base,profitable"
)


def render_reports_csv(
    entries: list[tuple[str, SybilScenario, AttackReport]],
) -> str:
    """Render attack reports as CSV rows under ATTACK_CSV_HEADER.

    A scenario id must be one non-empty CSV field: an empty id, or one with
    a comma or a line break, raises ValueError.
    """
    lines = [ATTACK_CSV_HEADER]
    for scenario_id, scenario, report in entries:
        if not _valid_id(scenario_id):
            raise ValueError(
                "scenario id may not be empty or contain ',' or a line break: "
                f"{scenario_id!r}"
            )
        lines.append(
            ",".join(
                (
                    scenario_id,
                    str(scenario.delta_v_per_period),
                    str(scenario.periods),
                    report.cost_base.tokens(),
                    report.extra_supply_trd.tokens(),
                    report.attacker_gain_base.tokens(),
                    format_raw(report.net_profit_base),
                    "true" if report.profitable else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"
