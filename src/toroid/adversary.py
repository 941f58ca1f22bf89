"""Prices manipulation attacks and renders a profitability verdict.

Each attack runs two simulations from bit-identical ledgers: one with the
injected transaction volume, one without.  They share the seeding and
every period before injection starts, and fork there.  Whatever the
attacker gained is the difference between the two runs, so honest
dynamics cancel exactly.  The accounting deliberately favors the
attacker: injected transactions cost exactly the configured gas and
nothing else (no fees, no slippage), and Sybil gains are valued at the
peg ceiling, the best price any sale could fetch.

An arm is the ledger alone in a flat market.  Each of its periods is the
controller's integer rate rule, _combined_ppb, and then the ledger's
integer period close, Ledger._rebase_raw: the supply passes between
them as a raw int, and no record, Rate, Index or Amount is built per
period.  The seed opens each account from its raw TRD amount through
Ledger._open_minted, boxing only the collateral the ledger stores.  The
arms start from the scenario's start_supply, which the seeded ledger
holds exactly because its index is still 1, and carry the supply and
the attacker's balances as raw ints to the verdict, which boxes only
the report's three amounts.  k_v >= 0 and counts that never fall make
every rate >= 0, so the peg clamp never binds and TRD trades at
exactly peg / index.

The gap attack's worst case.  With honest volume b > 0 a funded attacker
can profit: under the default cap, with k_v >= 0 and d transactions
injected in every attacked period, the net is at most

    b * gas_cost_base * Pi(1 + r_initial(t)) + periods raw base units,

the product taken over the attacked periods after the first.  Write s
for the supply and h for the attacker's balance when injection starts,
c = gas_cost_base / peg for the gas of one transaction in TRD, and Pi
for that product.
  1. The first attacked period counts b + d against b the period
     before; the counterfactual counts b again and grows at r_initial
     alone.  On top of r_initial the attacked arm's volume response is
     capped at (b + d) * c / s, which adds at most (b + d) * c to its
     supply, pro rata, so at most (h / s) * (b + d) * c <= (b + d) * c to
     the attacker's balance.
  2. Each later attacked period counts b + d against b + d, and the
     counterfactual b against b: both arms grow at r_initial(t) alone,
     so the attacker's extra balance grows by exactly Pi.
  3. The extra TRD sells at the peg or below (peg / index, index >= 1),
     so the gain is at most (b + d) * gas_cost_base * Pi, and the cost is
     periods * d * gas_cost_base, periods the number attacked.  Since
     1 + 1/(t + t0) = (t + t0 + 1) / (t + t0), Pi telescopes to at most
     periods, so the net is at most b * gas_cost_base * Pi.
  4. Floors move each arm's balances by under one raw unit a period,
     which the "+ periods" absorbs.
An attacker holding all the supply, injecting d << b under a binding
cap, comes within 1% of the bound; one holding at most d / (b + d) of
the supply nets at most the rounding slack, by the same steps.  Pi is
largest at launch, where r_initial is 1/t0: the gap is widest during
bootstrap.
"""

from __future__ import annotations

from collections.abc import Callable

from .controller import RebaseConfig, _combined_ppb
from .errors import ConfigError, InvalidArgumentError, InvariantViolationError, check_id
from .ledger import Ledger
from .numerics import UNIT, Amount, format_raw, record

_HONEST = "honest"
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
            raise InvalidArgumentError("periods must be >= 1")
        if self.delta_v_per_period < 0 or self.baseline_v < 0:
            raise InvalidArgumentError("transaction counts must be >= 0")
        if self.start_supply.raw <= 0:
            raise InvalidArgumentError("start_supply must be positive")
        if self.attacker_holdings.raw > self.start_supply.raw:
            raise InvalidArgumentError("attacker cannot hold more than the total supply")
        if self.start_period < 0:
            raise InvalidArgumentError("start_period must be >= 0")


@record
class AttackReport:
    """Outcome of one scenario; the net and the verdict follow from gain and cost."""

    cost_base: Amount
    extra_supply_trd: Amount
    attacker_gain_base: Amount

    @property
    def net_profit_base(self) -> int:
        """Gain less cost, in signed raw base units."""
        return self.attacker_gain_base.raw - self.cost_base.raw

    @property
    def profitable(self) -> bool:
        return self.net_profit_base > 0


def sybil_cost(v: int, cfg: RebaseConfig) -> Amount:
    """Gas cost of v injected transactions, in base coin.  Exactly linear."""
    if type(v) is not int:
        raise TypeError(f"v must be int, got {v!r}")
    if v < 0:
        raise InvalidArgumentError("transaction count must be >= 0")
    return Amount(v * cfg.gas_cost_base.raw)


def _seed_ledger(scenario: SybilScenario, cfg: RebaseConfig) -> Ledger:
    """A fresh ledger holding the scenario: the honest rest, then the attacker.

    Each account is opened from its raw TRD amount by Ledger._open_minted,
    which is open_account(collateral_for(amount)) unboxed: the same
    snapshot, and the same refusal, type and text, for an amount with no
    exact collateral at the peg or a supply past capacity.
    """
    ledger = Ledger(cfg.peg_ratio, start_period=scenario.start_period)
    held = scenario.attacker_holdings.raw
    honest = scenario.start_supply.raw - held
    if honest > 0:
        ledger._open_minted(_HONEST, honest)
    if held > 0:
        ledger._open_minted(_ATTACKER, held)
    return ledger


def _attacker_raw(ledger: Ledger) -> int:
    return ledger._held_raw(_ATTACKER) if _ATTACKER in ledger else 0


def _extra(post_attack: int, counterfactual: int, what: str) -> int:
    """The raw excess of post_attack over counterfactual."""
    if post_attack < counterfactual:
        raise InvariantViolationError(
            f"injected volume reduced {what}: "
            f"{format_raw(post_attack)} < {format_raw(counterfactual)}"
        )
    return post_attack - counterfactual


def _step_flat(
    ledger: Ledger, s_raw: int, cfg: RebaseConfig, periods: int, v: int, v_prev: int
) -> int:
    """Rebase that many periods at v transactions each, from raw supply s_raw.

    v_prev is the count of the period before the first; returns the raw
    supply after the last period.  Each _rebase_raw advances the period
    by one, so the ordinals are counted here and the ledger's is read once.
    """
    start = ledger.current_period
    for t in range(start, start + periods):
        s_raw = ledger._rebase_raw(_combined_ppb(t, v, v_prev, s_raw, cfg)[3])
        v_prev = v
    return s_raw


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

    The arms start from scenario.start_supply: at index 1 each seeded
    balance is exactly its amount, and _insert has checked capacity.  The
    supply stays a raw int through both arms, and the verdict boxes once.
    """
    if cfg.k_v.ppb < 0:
        raise ConfigError(
            f"k_v: attack pricing needs k_v >= 0, got {cfg.k_v.decimal()}"
        )
    attacked = _seed_ledger(scenario, cfg)
    b = scenario.baseline_v
    s_raw = _step_flat(attacked, scenario.start_supply.raw, cfg, buy, b, b)
    baseline = attacked.copy()
    attacked_raw = _step_flat(
        attacked, s_raw, cfg, sell - buy, b + scenario.delta_v_per_period, b
    )
    baseline_raw = _step_flat(baseline, s_raw, cfg, sell - buy, b, b)
    extra_supply = _extra(attacked_raw, baseline_raw, "total supply")
    extra_holdings = _extra(
        _attacker_raw(attacked), _attacker_raw(baseline), "attacker balance"
    )
    num, den = sale_price(attacked)
    gain = Amount(extra_holdings * num // den)
    cost = sybil_cost(scenario.delta_v_per_period * (sell - buy), cfg)
    return AttackReport(cost, Amount(extra_supply), gain)


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
        raise InvalidArgumentError("buy_period must be >= 0")
    if not buy_period < sell_period <= scenario.periods:
        raise InvalidArgumentError("need buy_period < sell_period <= periods")
    peg = cfg.peg_ratio.ppb

    def at_index(ledger: Ledger) -> tuple[int, int]:
        num, den = ledger._index_terms()
        return peg * den, UNIT * num

    return _price_attack(scenario, cfg, buy_period, sell_period, at_index)


ATTACK_CSV_HEADER = (
    "scenario_id,delta_v,periods,cost_base,extra_supply_trd,"
    "gain_base,net_profit_base,profitable"
)


def render_reports_csv(
    entries: list[tuple[str, SybilScenario, AttackReport]],
) -> str:
    """Render attack reports as CSV rows under ATTACK_CSV_HEADER.

    A scenario id must be one non-empty CSV field: an empty id, or one with
    a comma or a line break, raises InvalidArgumentError.
    """
    lines = [ATTACK_CSV_HEADER]
    for scenario_id, scenario, report in entries:
        check_id(scenario_id, "scenario")
        net = report.net_profit_base
        lines.append(
            f"{scenario_id},{scenario.delta_v_per_period},{scenario.periods},"
            f"{format_raw(report.cost_base.raw)},{format_raw(report.extra_supply_trd.raw)},"
            f"{format_raw(report.attacker_gain_base.raw)},{format_raw(net)},"
            f"{'true' if net > 0 else 'false'}"
        )
    return "\n".join(lines) + "\n"
