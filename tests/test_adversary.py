import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid.adversary import (
    ATTACK_CSV_HEADER,
    AttackReport,
    SybilScenario,
    render_reports_csv,
    run_pump_and_dump,
    run_sybil,
    sybil_cost,
)
from toroid.controller import RebaseConfig, _volume_rate_exact
from toroid.errors import ConfigError, InvariantViolationError, ToroidError
from toroid.harness import step_period
from toroid.ledger import Ledger
from toroid.market import initial_market
from toroid.numerics import UNIT, Amount, Rate

from oracles import sale_price_by_fraction


def scenario(
    delta_v: int,
    periods: int = 1,
    baseline_v: int = 0,
    supply: int = 10_000,
    holdings: int = 10_000,
    start_period: int = 90,
) -> SybilScenario:
    return SybilScenario(
        delta_v_per_period=delta_v,
        periods=periods,
        baseline_v=baseline_v,
        start_supply=Amount.from_tokens(supply),
        attacker_holdings=Amount.from_tokens(holdings),
        start_period=start_period,
    )


class TestSybilCost:
    def test_ten_thousand_transactions_cost_four_base(self, cfg):
        assert sybil_cost(10_000, cfg) == Amount.from_tokens(4)

    def test_zero(self, cfg):
        assert sybil_cost(0, cfg) == Amount(0)

    def test_single_transaction(self, cfg):
        assert sybil_cost(1, cfg) == Amount.from_tokens("0.0004")

    def test_exact_linearity(self, cfg):
        rng = random.Random(31337)
        for _ in range(500):
            a = rng.randrange(0, 10**7)
            b = rng.randrange(0, 10**7)
            assert (
                sybil_cost(a + b, cfg).raw
                == sybil_cost(a, cfg).raw + sybil_cost(b, cfg).raw
            )

    def test_negative_rejected(self, cfg):
        with pytest.raises(ValueError):
            sybil_cost(-1, cfg)


class TestRunSybil:
    def test_burst_on_quiet_ledger_breaks_even_at_best(self, cfg):
        # 1e4 spurious transactions into a quiet 10000-TRD system: the cap
        # limits the extra supply to 40 TRD, worth exactly the 4 base of
        # gas even if the attacker owns every token
        report = run_sybil(scenario(10_000), cfg)
        assert report.cost_base == Amount.from_tokens(4)
        assert report.extra_supply_trd == Amount.from_tokens(40)
        assert report.attacker_gain_base == Amount.from_tokens(4)
        assert report.net_profit_base == 0
        assert not report.profitable

    def test_partial_holdings_scale_the_gain(self, cfg):
        report = run_sybil(scenario(10_000, holdings=1_000), cfg)
        assert report.attacker_gain_base.raw <= Amount.from_tokens("0.4").raw
        assert not report.profitable

    def test_no_injection_is_free_and_gainless(self, cfg):
        report = run_sybil(scenario(0, periods=3, holdings=2_000), cfg)
        assert report.cost_base == Amount(0)
        assert report.attacker_gain_base == Amount(0)
        assert report.extra_supply_trd == Amount(0)
        assert not report.profitable

    def test_counterfactual_arms_identical_without_injection(self, cfg):
        # with delta_v = 0 the attack arm and the baseline arm are the
        # same simulation; their final ledgers must match bit for bit
        from toroid.adversary import _seed_ledger, _step_flat

        sc = scenario(0, periods=4, baseline_v=250, holdings=3_000)
        attacked = _seed_ledger(sc, cfg)
        baseline = attacked.copy()
        supply = attacked.total_supply()
        b = sc.baseline_v
        _step_flat(attacked, supply, cfg, sc.periods, b + sc.delta_v_per_period, b)
        _step_flat(baseline, supply, cfg, sc.periods, b, b)
        assert attacked.snapshot() == baseline.snapshot()

    def test_unprotected_controller_is_exploitable(self, cfg):
        # the contrast case: disable the gas cap, keep the log volume
        # response, and a funded attacker profits from injected volume
        uncapped = replace(cfg, gas_cap_enabled=False)
        report = run_sybil(
            scenario(10_000, baseline_v=100, holdings=5_000), uncapped
        )
        assert report.profitable
        assert report.attacker_gain_base.raw > report.cost_base.raw

    def test_multi_period_attack_still_unprofitable(self, cfg):
        report = run_sybil(scenario(50_000, periods=5, holdings=10_000), cfg)
        assert not report.profitable

    def test_holdings_cannot_exceed_supply(self, cfg):
        with pytest.raises(ValueError):
            scenario(1, supply=100, holdings=101)

    def test_start_supply_must_be_positive(self):
        # run_sybil failed inside the rate kernel with ZeroSupplyError
        with pytest.raises(ValueError, match="start_supply must be positive"):
            scenario(1, supply=0, holdings=0)

    def test_periods_must_be_positive(self, cfg):
        with pytest.raises(ValueError):
            scenario(1, periods=0)

    @pytest.mark.parametrize("delta_v, baseline_v", [(-1, 0), (0, -1)])
    def test_transaction_counts_must_be_non_negative(self, delta_v, baseline_v):
        with pytest.raises(ValueError, match="transaction counts"):
            scenario(delta_v, baseline_v=baseline_v)

    def test_start_period_has_no_default(self):
        # the start period is the scenario's own, not a copy of the
        # default bootstrap window
        with pytest.raises(TypeError, match="start_period"):
            SybilScenario(
                delta_v_per_period=1,
                periods=1,
                baseline_v=0,
                start_supply=Amount.from_tokens(1),
                attacker_holdings=Amount(0),
            )

    def test_start_period_must_be_non_negative(self, cfg):
        with pytest.raises(ValueError, match="start_period"):
            scenario(1, start_period=-1)

    def test_negative_k_v_is_config_error(self, cfg):
        # injected volume shrank the supply, and the check on it raised the
        # invariant error reserved for internal faults
        negative = replace(cfg, k_v=Rate.from_decimal("-0.1"))
        sc = scenario(1_000, baseline_v=100, holdings=5_000)
        with pytest.raises(ConfigError, match="k_v >= 0, got -0.100000000"):
            run_sybil(sc, negative)


class TestRunPumpAndDump:
    def test_no_injection_no_profit(self, cfg):
        sc = scenario(0, periods=6, baseline_v=100, holdings=5_000)
        report = run_pump_and_dump(sc, 2, 3, cfg)
        assert report.cost_base == Amount(0)
        assert report.attacker_gain_base == Amount(0)
        assert report.net_profit_base == 0
        assert not report.profitable

    def test_protected_sweep_is_unprofitable(self, cfg):
        # exhaustive decade sweep of injected volume with the cap active
        for delta_v in (10**2, 10**3, 10**4, 10**5, 10**6):
            sc = scenario(delta_v, periods=6, baseline_v=100, holdings=1_000)
            report = run_pump_and_dump(sc, 2, 3, cfg)
            assert not report.profitable, f"delta_v={delta_v}"

    def test_unprotected_sweep_finds_profit(self, cfg):
        uncapped = replace(cfg, gas_cap_enabled=False)
        outcomes = []
        for delta_v in (10**2, 10**3, 10**4, 10**5, 10**6):
            sc = scenario(delta_v, periods=6, baseline_v=100, holdings=5_000)
            outcomes.append(run_pump_and_dump(sc, 2, 3, uncapped).profitable)
        assert any(outcomes)

    def test_gain_includes_rebasement_accrual_and_price_move(self, cfg):
        # uncapped, the attack inflates the attacker's balance while the
        # sale price carries the dilution the attack itself caused
        uncapped = replace(cfg, gas_cap_enabled=False)
        sc = scenario(100_000, periods=6, baseline_v=100, holdings=5_000)
        report = run_pump_and_dump(sc, 2, 3, uncapped)
        assert report.extra_supply_trd.raw > 0
        assert report.attacker_gain_base.raw > 0
        assert report.profitable

    def test_window_validation(self, cfg):
        sc = scenario(100, periods=4, holdings=1_000)
        with pytest.raises(ValueError):
            run_pump_and_dump(sc, 3, 3, cfg)
        with pytest.raises(ValueError):
            run_pump_and_dump(sc, 1, 5, cfg)
        with pytest.raises(ValueError):
            run_pump_and_dump(sc, -1, 2, cfg)

    def test_negative_k_v_is_config_error(self, cfg):
        negative = replace(cfg, k_v=Rate.from_decimal("-0.1"))
        sc = scenario(100_000, periods=6, baseline_v=100, holdings=5_000)
        with pytest.raises(ConfigError, match="k_v >= 0, got -0.100000000"):
            run_pump_and_dump(sc, 2, 3, negative)


class TestReportRendering:
    def test_csv_rows(self, cfg):
        sc = scenario(10_000)
        report = run_sybil(sc, cfg)
        text = render_reports_csv([("sybil-1", sc, report)])
        lines = text.splitlines()
        assert lines[0] == ATTACK_CSV_HEADER
        assert lines[1] == (
            "sybil-1,10000,1,4.000000000,40.000000000,4.000000000,"
            "0.000000000,false"
        )

    def test_negative_net_renders_signed(self, cfg):
        sc = scenario(10_000, holdings=0)
        report = run_sybil(sc, cfg)
        text = render_reports_csv([("s", sc, report)])
        assert ",-4.000000000,false" in text.splitlines()[1]

    @pytest.mark.parametrize("scenario_id", ["", "x,y", "x\nz", "x\r", "a\u2028b"])
    def test_id_that_breaks_the_csv_rejected(self, cfg, scenario_id):
        # "x,y\nz" was written as a row "x,y" and a row "z,10000,..."
        sc = scenario(10_000)
        report = run_sybil(sc, cfg)
        with pytest.raises(ValueError, match="scenario id"):
            render_reports_csv([("ok", sc, report), (scenario_id, sc, report)])


# --- the fork against two independently seeded arms --------------------------


def reference_report(sc, cfg, buy, sell, sale_price):
    """Price an attack the direct way: seed two ledgers, step both arms.

    Each arm runs periods 1..sell from its own ledger through the
    backtest's step_period, float market included; the attacked arm
    injects after buy.  This is the unforked computation the adversary's
    shared pre-injection periods must reproduce on every field, and
    sale_price(market, ledger) prices the attacked arm's final state.
    """

    def arm(inject):
        ledger = Ledger(cfg.peg_ratio, start_period=sc.start_period)
        honest = sc.start_supply - sc.attacker_holdings
        if honest.raw:
            ledger.open_account(ledger.collateral_for(honest), account_id="genesis")
        if sc.attacker_holdings.raw:
            ledger.open_account(
                ledger.collateral_for(sc.attacker_holdings), account_id="attacker"
            )
        market, supply = initial_market(1.0, cfg), ledger.total_supply()
        v_prev = sc.baseline_v
        for p in range(1, sell + 1):
            v = sc.baseline_v + (sc.delta_v_per_period if inject and p > buy else 0)
            record = step_period(ledger, market, cfg, v, v_prev, 1.0, supply)
            market, supply, v_prev = record.market, record.supply, v
        held = ledger.balance_of("attacker").raw if "attacker" in ledger.accounts else 0
        return market, ledger, supply.raw, held

    market, ledger, supply, held = arm(True)
    _, _, base_supply, base_held = arm(False)
    if supply < base_supply or held < base_held:
        raise InvariantViolationError("injected volume reduced supply or balance")
    gain = int((held - base_held) * sale_price(market, ledger))
    cost = sc.delta_v_per_period * (sell - buy) * cfg.gas_cost_base.raw
    return AttackReport(
        cost_base=Amount(cost),
        extra_supply_trd=Amount(supply - base_supply),
        attacker_gain_base=Amount(gain),
        net_profit_base=gain - cost,
        profitable=gain > cost,
    )


def outcome(price, *args):
    try:
        return price(*args)
    except ToroidError as exc:
        return type(exc)


@st.composite
def attack_cases(draw):
    cfg = RebaseConfig(
        k_v=draw(
            st.just(Rate(100_000_000)) | st.builds(Rate, st.integers(0, 3 * UNIT))
        ),
        gas_cost_base=draw(
            st.just(Amount(400_000)) | st.builds(Amount, st.integers(1, 10 * UNIT))
        ),
        peg_ratio=draw(
            st.just(Rate(100_000_000)) | st.builds(Rate, st.integers(1, 2 * UNIT))
        ),
        gas_cap_enabled=draw(st.booleans()),
    )
    supply = draw(st.integers(1, 10**7))
    periods = draw(st.integers(1, 6))
    sc = SybilScenario(
        delta_v_per_period=draw(st.integers(0, 10**6)),
        periods=periods,
        baseline_v=draw(st.integers(0, 2_000)),
        start_supply=Amount.from_tokens(supply),
        attacker_holdings=Amount.from_tokens(draw(st.integers(0, supply))),
        # inside the default 90-period bootstrap window and after it
        start_period=draw(st.integers(0, 400)),
    )
    buy = draw(st.integers(0, periods - 1))
    sell = draw(st.integers(buy + 1, periods))
    return cfg, sc, buy, sell


class TestForkMatchesTwoArms:
    @settings(max_examples=300, deadline=None)
    @given(case=attack_cases())
    def test_sybil(self, case):
        cfg, sc, _, _ = case
        peg = Fraction(cfg.peg_ratio.ppb, UNIT)
        assert outcome(run_sybil, sc, cfg) == outcome(
            reference_report, sc, cfg, 0, sc.periods, lambda *_: peg
        )

    @settings(max_examples=300, deadline=None)
    @given(case=attack_cases())
    def test_pump_and_dump(self, case):
        cfg, sc, buy, sell = case

        def at_index(market, ledger):
            index = ledger.index
            return Fraction(cfg.peg_ratio.ppb * index.den, UNIT * index.num)

        def by_float(market, ledger):
            return sale_price_by_fraction(market.trd_price, market.base_price)

        report = outcome(run_pump_and_dump, sc, buy, sell, cfg)
        assert report == outcome(reference_report, sc, cfg, buy, sell, at_index)
        # The float market the arms no longer step rounds its price
        # 2 * sell + 1 times by at most 2**-53 each: one for the launch
        # price, then the growth factor and the division every period.  So
        # its gain sits within one raw base unit (the floor) of this one,
        # plus that relative error of the gain.
        floated = outcome(reference_report, sc, cfg, buy, sell, by_float)
        if isinstance(report, AttackReport):
            gain = report.attacker_gain_base.raw
            drift = floated.attacker_gain_base.raw - gain
            assert abs(drift) <= 1 + (gain + 1) * (2 * sell + 2) // 2**53
        else:
            assert floated == report


# --- attacks bought at period 0 against exact oracles ----------------------

# Raw base units of gain either side of break-even where an oracle's
# verdict is not asserted, per period attacked.  Each arm floors the
# attacker's balance once, so the extra holdings sit within one raw TRD of
# the exact h * (growth_att - growth_cf); valued at no more than a peg of
# 2 base per TRD and floored to base units, the gain sits in (G - 3, G + 2)
# around the exact value G.  From the fourth period on the ledger may
# round its index onto the grid, which can tip each floor by one more raw
# unit; scaling the slack by the periods covers that, as it does for the
# supply.
VERDICT_SLACK = 3


def oracle_rate(cfg, t, v, v_prev, s):
    """The period's rate in ppb, rebuilt from its terms without combined_rate."""
    low, high = max(v_prev, 1), max(v, 1)
    r_vol = 0 if low == high else _volume_rate_exact(high, low, cfg.k_v.ppb).ppb
    gas_trd = cfg.gas_cost_base.raw * UNIT // cfg.peg_ratio.ppb
    cap = v * gas_trd * UNIT // s
    body = max(-cap, min(cap, r_vol)) if cfg.gas_cap_enabled else r_vol
    r = UNIT // (t + cfg.t0) + body
    if t < cfg.bootstrap_periods:
        r = max(r, 0)
    return max(r, -990_000_000)  # the -99% hard floor


def oracle_growth(sc, cfg, periods):
    """(extra supply, growth_att, growth_cf) of injecting from period 1.

    Only the first period's rates differ between the arms.  After it
    v == v_prev in both, so the volume term is 0 and each arm grows by the
    same 1 + r_initial(t), r_initial(t) = UNIT // (t + t0) ppb, which no
    floor can bind.  growth_att and growth_cf are the arms' exact
    Pi(1 + r) as Fractions.  An arm that grows supply s by the exact
    factor g ends at floor(s * g) when one account holds everything; split
    over two floored balances it can end one raw unit lower, so the
    difference of the arms is exact to one raw unit, plus one for each
    renormalisation of the index.
    """
    s = sc.start_supply.raw
    b, d, t = sc.baseline_v, sc.delta_v_per_period, sc.start_period
    tail = math.prod(
        1 + Fraction(UNIT // (t + k + cfg.t0), UNIT) for k in range(1, periods)
    )
    growth_att = (1 + Fraction(oracle_rate(cfg, t, b + d, b, s), UNIT)) * tail
    growth_cf = (1 + Fraction(oracle_rate(cfg, t, b, b, s), UNIT)) * tail
    extra = math.floor(s * growth_att) - math.floor(s * growth_cf)
    return extra, growth_att, growth_cf


def sybil_oracle(sc, cfg):
    """(extra supply, edge) of a Sybil attack: an integer and a Fraction.

    edge is the exact gain at the peg less the cost, in raw base units:
    the attack pays when it is positive.
    """
    extra, growth_att, growth_cf = oracle_growth(sc, cfg, sc.periods)
    edge = (
        sc.attacker_holdings.raw * (growth_att - growth_cf)
        * Fraction(cfg.peg_ratio.ppb, UNIT)
        - sc.delta_v_per_period * sc.periods * cfg.gas_cost_base.raw
    )
    return extra, edge


def pump_and_dump_oracle(sc, sell, cfg):
    """(extra supply, edge) of a pump-and-dump bought at period 0.

    As sybil_oracle over periods 1..sell, but the extra holdings sell at
    peg / growth_att base coin per TRD, the attacked arm's exact price.
    """
    extra, growth_att, growth_cf = oracle_growth(sc, cfg, sell)
    edge = (
        sc.attacker_holdings.raw * (growth_att - growth_cf)
        * Fraction(cfg.peg_ratio.ppb, UNIT) / growth_att
        - sc.delta_v_per_period * sell * cfg.gas_cost_base.raw
    )
    return extra, edge


@st.composite
def sybils(draw):
    cfg = RebaseConfig(
        t0=draw(st.just(10) | st.integers(1, 1_000)),
        # 0 runs without the bootstrap floor
        bootstrap_periods=draw(st.just(90) | st.just(0) | st.integers(0, 400)),
        k_v=draw(
            st.just(Rate(100_000_000)) | st.builds(Rate, st.integers(0, 3 * UNIT))
        ),
        gas_cost_base=draw(
            st.just(Amount(400_000)) | st.builds(Amount, st.integers(1, 10 * UNIT))
        ),
        # at most 2 base per TRD, the bound VERDICT_SLACK assumes
        peg_ratio=draw(
            st.just(Rate(100_000_000)) | st.builds(Rate, st.integers(1, 2 * UNIT))
        ),
        gas_cap_enabled=draw(st.booleans()),
    )
    supply = draw(st.integers(1, 10**7))
    sc = SybilScenario(
        delta_v_per_period=draw(st.integers(0, 10**6)),
        periods=draw(st.integers(1, 8)),
        # honest volume of the same order as the injection
        baseline_v=draw(st.integers(0, 10**6)),
        start_supply=Amount.from_tokens(supply),
        attacker_holdings=Amount.from_tokens(
            draw(st.just(supply) | st.integers(0, supply))
        ),
        # inside the bootstrap window and after it
        start_period=draw(st.integers(0, 400)),
    )
    return cfg, sc


def quiet_burst():
    # no honest volume: the cap allows d * g, exactly the cost, so an
    # attacker holding everything sits at break-even (edge 0)
    sc = SybilScenario(
        delta_v_per_period=10_000,
        periods=1,
        baseline_v=0,
        start_supply=Amount.from_tokens(10_000),
        attacker_holdings=Amount.from_tokens(10_000),
        start_period=90,
    )
    return RebaseConfig(), sc


def readme_break_even(holdings):
    # b = 10^6 honest, d = 5 * 10^5 injected: the break-even share is 1/3
    sc = SybilScenario(
        delta_v_per_period=500_000,
        periods=1,
        baseline_v=1_000_000,
        start_supply=Amount.from_tokens(10_000_000),
        attacker_holdings=Amount.from_tokens(holdings),
        start_period=90,
    )
    return RebaseConfig(), sc


class TestSybilOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=sybils())
    @example(case=readme_break_even(3_333_333))
    @example(case=readme_break_even(3_400_000))
    @example(case=readme_break_even(10_000_000))
    @example(case=quiet_burst())
    def test_run_sybil_matches_oracle(self, case):
        cfg, sc = case
        report = run_sybil(sc, cfg)
        extra, edge = sybil_oracle(sc, cfg)
        assert abs(report.extra_supply_trd.raw - extra) <= sc.periods
        injected = sc.delta_v_per_period * sc.periods
        assert report.cost_base.raw == injected * cfg.gas_cost_base.raw
        if edge > VERDICT_SLACK * sc.periods:
            assert report.profitable
        elif edge < -VERDICT_SLACK * sc.periods:
            assert not report.profitable


@st.composite
def dumps_bought_at_zero(draw):
    cfg, sc = draw(sybils())
    return cfg, sc, draw(st.integers(1, sc.periods))


class TestPumpAndDumpOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=dumps_bought_at_zero())
    @example(case=(*readme_break_even(3_333_333), 1))
    @example(case=(*readme_break_even(10_000_000), 1))
    @example(case=(*quiet_burst(), 1))
    def test_run_pump_and_dump_matches_oracle(self, case):
        cfg, sc, sell = case
        report = run_pump_and_dump(sc, 0, sell, cfg)
        extra, edge = pump_and_dump_oracle(sc, sell, cfg)
        assert abs(report.extra_supply_trd.raw - extra) <= sell
        injected = sc.delta_v_per_period * sell
        assert report.cost_base.raw == injected * cfg.gas_cost_base.raw
        if edge > VERDICT_SLACK * sell:
            assert report.profitable
        elif edge < -VERDICT_SLACK * sell:
            assert not report.profitable


# --- the arms' shared tail -----------------------------------------------------


@st.composite
def multi_period_attacks(draw):
    cfg, sc = draw(sybils())
    buy = draw(st.integers(0, sc.periods - 1))
    sell = draw(st.integers(buy + 1, sc.periods))
    return cfg, sc, buy, sell


def arms(price, *args):
    """[(ledger, rates)] of the attacked arm, then of the baseline: each
    arm's final ledger and the (current_period, r) of every period it
    rebased, captured from Ledger.rebase.

    The attacked arm's list starts with the periods shared before the fork.
    """
    calls = {}
    rebase = Ledger.rebase

    def capturing(ledger, r):
        calls.setdefault(ledger, []).append((ledger.current_period, r))
        return rebase(ledger, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ledger, "rebase", capturing)
        price(*args)
    return list(calls.items())


class TestSharedTail:
    @settings(max_examples=200, deadline=None)
    @given(case=multi_period_attacks())
    def test_arms_agree_after_the_first_injected_period(self, case):
        cfg, sc, buy, sell = case
        for price, args, start, end in (
            (run_sybil, (sc, cfg), 0, sc.periods),
            (run_pump_and_dump, (sc, buy, sell, cfg), buy, sell),
        ):
            (_, attacked), (_, baseline) = arms(price, *args)
            assert len(attacked) == end
            assert len(baseline) == end - start
            # once v == v_prev in both arms the volume term is zero, so
            # each applies r_initial(t) with the same floors
            for (t_att, att), (t_cf, cf) in zip(attacked[start + 1 :], baseline[1:]):
                assert t_att == t_cf
                assert att == cf
            # every rate is >= 0, so the index never falls, the peg clamp
            # never binds and TRD trades at peg / index: the sale price
            for _, r in attacked + baseline:
                assert r.ppb >= 0


class TestSalePriceAtIndex:
    # Both failed at the float market's price, one raw base unit off the
    # exact floor(extra holdings * peg / Pi(1 + r)).
    @pytest.mark.parametrize(
        "sc, buy, sell, cfg, gain",
        [
            (
                SybilScenario(
                    48443, 5, 163, Amount(10**16), Amount(6_603_280_000_000_000), 0
                ),
                2, 5, replace(RebaseConfig(), gas_cap_enabled=False),
                227_594_566_792_588,
            ),
            (
                SybilScenario(
                    5469, 3, 3, Amount(9_999_999_000_000_000),
                    Amount(252_383_000_000_000), 187,
                ),
                1, 2,
                RebaseConfig(
                    k_v=Rate(2 * UNIT), peg_ratio=Rate(2 * UNIT), gas_cap_enabled=False
                ),
                473_103_564_657_299,
            ),
        ],
        ids=["default-peg", "peg-2"],
    )
    def test_gain_is_extra_holdings_at_peg_over_growth(self, sc, buy, sell, cfg, gain):
        report = run_pump_and_dump(sc, buy, sell, cfg)
        (attacked, rates), (baseline, _) = arms(run_pump_and_dump, sc, buy, sell, cfg)
        growth = math.prod(1 + Fraction(r.ppb, UNIT) for _, r in rates)
        extra = (
            attacked.balance_of("attacker").raw - baseline.balance_of("attacker").raw
        )
        exact = math.floor(extra * Fraction(cfg.peg_ratio.ppb, UNIT) / growth)
        assert report.attacker_gain_base.raw == exact == gain
