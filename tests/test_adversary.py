import datetime as dt
import math
import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid.adversary import (
    ATTACK_CSV_HEADER,
    AttackReport,
    SybilScenario,
    _extra,
    _seed_ledger,
    _step_flat,
    render_reports_csv,
    run_pump_and_dump,
    run_sybil,
    sybil_cost,
)
from toroid.controller import PeriodMetrics, RateBreakdown, RebaseConfig, _volume_rate_exact
from toroid.errors import (
    ConfigError,
    InvalidArgumentError,
    InvariantViolationError,
    NonDivisibleCollateralError,
    ToroidError,
)
from toroid.harness import MarketRow, load_market_csv, run_backtest, step_period
from toroid.ledger import Ledger
from toroid.numerics import MAX_RAW, UNIT, Amount, Index, Rate

from oracles import CLAMP_CFG, sale_price_by_fraction


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
        sc = scenario(0, periods=4, baseline_v=250, holdings=3_000)
        attacked = _seed_ledger(sc, cfg)
        baseline = attacked.copy()
        s_raw = sc.start_supply.raw
        b = sc.baseline_v
        attacked_raw = _step_flat(
            attacked, s_raw, cfg, sc.periods, b + sc.delta_v_per_period, b
        )
        baseline_raw = _step_flat(baseline, s_raw, cfg, sc.periods, b, b)
        assert attacked_raw == baseline_raw == attacked.total_supply().raw
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

    @pytest.mark.parametrize("supply", [10**6, 10**8, 10**10])
    def test_capitalization_does_not_shrink_the_gap_profit(self, cfg, supply):
        # against the paper's "bigger capitalization is harder to
        # manipulate": with b = 10^6 honest and d = 5 * 10^5 injected
        # transactions under a binding cap, a holder of half the supply
        # nets (h / s * (b + d) - d) * gas = 100 base at every s
        sc = scenario(500_000, baseline_v=1_000_000, supply=supply, holdings=supply // 2)
        assert run_sybil(sc, cfg).net_profit_base == Amount.from_tokens(100).raw

    @pytest.mark.parametrize("gain, net", [(3, -2), (5, 0), (6, 1)])
    def test_net_and_verdict_follow_from_gain_and_cost(self, gain, net):
        report = AttackReport(Amount(5), Amount(0), Amount(gain))
        assert report.net_profit_base == net
        assert report.profitable is (net > 0)

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

    def test_extra_refuses_a_shrunk_supply(self):
        # k_v >= 0 keeps every run away from this raise, so it is pinned here
        with pytest.raises(InvariantViolationError) as info:
            _extra(5, 7, "total supply")
        assert str(info.value) == (
            "injected volume reduced total supply: 0.000000005 < 0.000000007"
        )


@contextmanager
def counting_built(*classes):
    """How many instances of each class are built inside, by class name."""
    built = dict.fromkeys((cls.__name__ for cls in classes), 0)
    with pytest.MonkeyPatch.context() as mp:
        for cls in classes:
            original = vars(cls)["__init__"]

            def spy(self, *args, _name=cls.__name__, _original=original, **kwargs):
                built[_name] += 1
                _original(self, *args, **kwargs)

            mp.setattr(cls, "__init__", spy)
        yield built


@pytest.fixture
def records_built():
    """How many PeriodMetrics and RateBreakdown records are built, by class name."""
    with counting_built(PeriodMetrics, RateBreakdown) as built:
        yield built


def values_built(run, sc, *args):
    """The Rate, Index and Amount objects run(sc, *args) builds, by class name."""
    with counting_built(Rate, Index, Amount) as built:
        run(sc, *args)
    return built


def flat_rows(count: int) -> list[MarketRow]:
    """count daily rows at one price and one count: every rate is the
    incentive's, > 0, so the index only rises and the peg never clamps."""
    return [
        MarketRow(dt.date(2020, 1, 1) + dt.timedelta(days=day), 100.0, 1_000)
        for day in range(count)
    ]


class TestArmsBuildNoRecords:
    """An arm or backtest period is the integer rate rule and then
    Ledger._rebase_raw.

    Counting records and values, not timing them, pins that fast path:
    routing it back through combined_rate builds a PeriodMetrics, a
    RateBreakdown and four Rates each period, and back through
    Ledger.rebase a Rate and an Amount each period, and either fails here.
    """

    @pytest.mark.parametrize("enabled", [True, False])
    def test_sybil_builds_none(self, cfg, records_built, enabled):
        sc = scenario(10_000, periods=4, baseline_v=100, holdings=5_000)
        run_sybil(sc, replace(cfg, gas_cap_enabled=enabled))
        assert records_built == {"PeriodMetrics": 0, "RateBreakdown": 0}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_pump_and_dump_builds_none(self, cfg, records_built, enabled):
        sc = scenario(10_000, periods=6, baseline_v=100, holdings=5_000)
        run_pump_and_dump(sc, 2, 5, replace(cfg, gas_cap_enabled=enabled))
        assert records_built == {"PeriodMetrics": 0, "RateBreakdown": 0}

    def test_backtest_builds_no_rates(self, cfg, sample_market_path):
        rows = load_market_csv(sample_market_path)
        with counting_built(RateBreakdown, Rate) as built:
            series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert len(series) == len(rows) - 1
        assert built == {"RateBreakdown": 0, "Rate": 0}

    def test_backtest_values_per_period_do_not_grow_with_rows(self, cfg):
        # A clamp-free period checks its inputs and prices TRD on bare
        # ints: the anchor is boxed only at a clamp.
        supply = Amount.from_tokens(10_000)
        short = values_built(run_backtest, flat_rows(50), cfg, supply)
        long = values_built(run_backtest, flat_rows(500), cfg, supply)
        per_period = {name: (long[name] - short[name]) / 450 for name in long}
        assert per_period == {"Rate": 0, "Index": 0, "Amount": 0}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_sybil_values_do_not_grow_with_periods(self, cfg, enabled):
        cfg = replace(cfg, gas_cap_enabled=enabled)
        one = values_built(
            run_sybil, scenario(10_000, periods=1, baseline_v=100, holdings=5_000), cfg
        )
        six = values_built(
            run_sybil, scenario(10_000, periods=6, baseline_v=100, holdings=5_000), cfg
        )
        assert one == six

    @pytest.mark.parametrize("enabled", [True, False])
    def test_pump_and_dump_values_do_not_grow_with_periods(self, cfg, enabled):
        cfg = replace(cfg, gas_cap_enabled=enabled)
        # one injected period and none shared, against three of each
        one = values_built(
            run_pump_and_dump, scenario(10_000, periods=1, baseline_v=100, holdings=5_000),
            0, 1, cfg,
        )
        six = values_built(
            run_pump_and_dump, scenario(10_000, periods=6, baseline_v=100, holdings=5_000),
            3, 6, cfg,
        )
        assert one == six

    @pytest.mark.parametrize(
        "run, args",
        [(run_sybil, ()), (run_pump_and_dump, (2, 5))],
        ids=["sybil", "pump_and_dump"],
    )
    def test_arms_never_scan_the_supply(self, cfg, monkeypatch, run, args):
        # the arms start from start_supply, which the seeded ledger holds
        scans = []
        scan = Ledger.total_supply

        def spy(ledger):
            scans.append(ledger)
            return scan(ledger)

        monkeypatch.setattr(Ledger, "total_supply", spy)
        run(scenario(10_000, periods=6, baseline_v=100, holdings=5_000), *args, cfg)
        assert scans == []

    def test_sybil_values_built(self, cfg):
        # Seeding opens two accounts from raw TRD, each boxing two: its
        # collateral, which the ledger stores, and the new collateral
        # total.  The verdict boxes only the report's three fields: the
        # cost, the extra supply and the gain.
        sc = scenario(10_000, periods=4, baseline_v=100, holdings=5_000)
        assert values_built(run_sybil, sc, cfg) == {"Rate": 0, "Index": 0, "Amount": 7}

    def test_pump_and_dump_values_built(self, cfg):
        # as for the Sybil, and one Index for the sale price
        sc = scenario(10_000, periods=6, baseline_v=100, holdings=5_000)
        assert values_built(run_pump_and_dump, sc, 2, 5, cfg) == {
            "Rate": 0, "Index": 1, "Amount": 7
        }

    @pytest.mark.parametrize(
        "cfg, clamps", [(RebaseConfig(), 0), (CLAMP_CFG, 5)], ids=["default", "clamp"]
    )
    def test_backtest_builds_one_index_to_start_and_one_per_clamp(
        self, cfg, sample_market_path, clamps
    ):
        rows = load_market_csv(sample_market_path)
        with counting_built(Index) as built:
            series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        # the launch anchor, and the anchor each clamp moves to the index
        assert sum(1 for _, record in series if record.arb_minted) == clamps
        assert built == {"Index": 1 + clamps}


@st.composite
def seedings(draw):
    """A peg and a valid scenario, its amounts mostly with exact collateral."""
    peg = draw(st.sampled_from([100_000_000, UNIT, 2 * UNIT]) | st.integers(1, 2 * UNIT))
    # the smallest raw TRD amount with exact collateral at the peg
    step = UNIT // math.gcd(peg, UNIT)

    def amount(low, top):
        exact = st.integers(-(-low // step), top // step).map(lambda n: n * step)
        return Amount(draw(exact | st.integers(low, top)))

    supply = amount(1, MAX_RAW)
    sc = SybilScenario(
        delta_v_per_period=0,
        periods=1,
        baseline_v=0,
        start_supply=supply,
        attacker_holdings=supply if draw(st.booleans()) else amount(0, supply.raw),
        start_period=draw(st.integers(0, 400)),
    )
    return RebaseConfig(peg_ratio=Rate(peg)), sc


def public_seed(sc: SybilScenario, cfg: RebaseConfig) -> Ledger:
    """_seed_ledger's ledger built through the public calls, boxed."""
    ledger = Ledger(cfg.peg_ratio, start_period=sc.start_period)
    honest = sc.start_supply - sc.attacker_holdings
    if honest.raw > 0:
        ledger.open_account(ledger.collateral_for(honest), account_id="honest")
    if sc.attacker_holdings.raw > 0:
        ledger.open_account(
            ledger.collateral_for(sc.attacker_holdings), account_id="attacker"
        )
    return ledger


def refusal(build, *args):
    """build(*args)'s ToroidError as (type, text), or None if it returns."""
    try:
        build(*args)
    except ToroidError as exc:
        return type(exc), str(exc)
    return None


def overflowing(holdings: int) -> tuple[RebaseConfig, SybilScenario]:
    """A near-capacity supply at a peg of 1.5, whose collateral cannot fit.

    Every even amount has exact collateral at that peg.
    """
    sc = SybilScenario(
        delta_v_per_period=0,
        periods=1,
        baseline_v=0,
        start_supply=Amount(MAX_RAW - 1),
        attacker_holdings=Amount(holdings),
        start_period=0,
    )
    return RebaseConfig(peg_ratio=Rate(3 * UNIT // 2)), sc


class TestSeedLedger:
    """The arms start from start_supply without scanning the seeded ledger."""

    @given(seedings())
    @settings(max_examples=300, deadline=None)
    @example(overflowing(MAX_RAW - 1))  # one account's collateral past capacity
    @example(overflowing(2**126 - 2))  # each fits, their total does not
    def test_holds_the_scenario_exactly(self, case):
        cfg, sc = case
        refused = refusal(_seed_ledger, sc, cfg)
        # the raw seed refuses exactly as the public calls do
        assert refused == refusal(public_seed, sc, cfg)
        if refused is not None:
            # no exact collateral, or collateral past capacity: the
            # verdict refuses the scenario the same way
            assert refusal(run_sybil, sc, cfg) == refused
            return
        ledger = _seed_ledger(sc, cfg)
        assert ledger.snapshot() == public_seed(sc, cfg).snapshot()
        assert ledger.index == Index(1, 1)
        assert ledger.total_supply() == sc.start_supply
        held = ledger.balance_of("attacker") if "attacker" in ledger else Amount(0)
        assert held == sc.attacker_holdings

    def test_refusal_text(self):
        # 9 raw TRD at a peg of 0.3 would lock 2.7 raw base: the honest
        # account, opened first, is refused
        cfg = RebaseConfig(peg_ratio=Rate(300_000_000))
        sc = SybilScenario(
            delta_v_per_period=0,
            periods=1,
            baseline_v=0,
            start_supply=Amount(10),
            attacker_holdings=Amount(1),
            start_period=0,
        )
        with pytest.raises(NonDivisibleCollateralError) as info:
            run_sybil(sc, cfg)
        assert str(info.value) == "0.000000009 TRD has no exact collateral at the peg"


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

    def test_id_refusal_text(self, cfg):
        sc = scenario(10_000)
        report = run_sybil(sc, cfg)
        with pytest.raises(InvalidArgumentError) as info:
            render_reports_csv([("x\ny", sc, report)])
        assert str(info.value) == (
            "scenario id may not be empty or contain ',' or a line break: 'x\\ny'"
        )


# --- the fork against two independently seeded arms --------------------------


def reference_report(sc, cfg, buy, sell, sale_price):
    """Price an attack the direct way: seed two ledgers, step both arms.

    Each arm runs periods 1..sell from its own ledger through the
    backtest's step_period, pricing included, at a base price of 1; the
    attacked arm injects after buy.  This is the unforked computation the adversary's
    shared pre-injection periods must reproduce on every field, and
    sale_price(record, ledger) prices the attacked arm's final state from
    its last PeriodRecord.
    """

    def arm(inject):
        ledger = public_seed(sc, cfg)
        anchor, supply = ledger.index, ledger.total_supply().raw
        v_prev = sc.baseline_v
        for p in range(1, sell + 1):
            v = sc.baseline_v + (sc.delta_v_per_period if inject and p > buy else 0)
            record = step_period(ledger, anchor, cfg, v, v_prev, 1.0, supply)
            anchor, supply, v_prev = record.anchor, record.supply, v
        held = ledger.balance_of("attacker").raw if "attacker" in ledger else 0
        return record, ledger, supply, held

    record, ledger, supply, held = arm(True)
    _, _, base_supply, base_held = arm(False)
    if supply < base_supply or held < base_held:
        raise InvariantViolationError("injected volume reduced supply or balance")
    gain = int((held - base_held) * sale_price(record, ledger))
    cost = sc.delta_v_per_period * (sell - buy) * cfg.gas_cost_base.raw
    return AttackReport(
        cost_base=Amount(cost),
        extra_supply_trd=Amount(supply - base_supply),
        attacker_gain_base=Amount(gain),
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

        def at_index(record, ledger):
            index = ledger.index
            return Fraction(cfg.peg_ratio.ppb * index.den, UNIT * index.num)

        def by_float(record, ledger):
            return sale_price_by_fraction(record.trd_price, 1.0)

        report = outcome(run_pump_and_dump, sc, buy, sell, cfg)
        assert report == outcome(reference_report, sc, cfg, buy, sell, at_index)
        # The market the arms no longer step prices TRD at peg / index,
        # one division rounded once (times a base price of 1), within
        # 2**-53 of the exact sale price.  So its gain sits within one raw
        # base unit (the floor) of this one, plus that relative error of
        # the gain.
        floated = outcome(reference_report, sc, cfg, buy, sell, by_float)
        if isinstance(report, AttackReport):
            gain = report.attacker_gain_base.raw
            drift = floated.attacker_gain_base.raw - gain
            assert abs(drift) <= 1 + (gain + 1) // 2**53
        else:
            assert floated == report


class TestBootstrapFloorChangesNoVerdict:
    # The paper's protection that is progressive during bootstrap: an
    # arm's rates never go negative (k_v >= 0 and counts that never fall),
    # so the floor that holds a negative rate at 0 before
    # bootstrap_periods never binds, and a scenario that starts inside
    # the window gets the report it gets with no floor at all.
    @pytest.mark.parametrize("cap", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(case=attack_cases(), past_start=st.integers(1, 400))
    def test_scenario_starting_inside_the_window(self, cap, case, past_start):
        cfg, sc, buy, sell = case
        floored = replace(
            cfg, gas_cap_enabled=cap, bootstrap_periods=sc.start_period + past_start
        )
        unfloored = replace(floored, bootstrap_periods=0)
        assert outcome(run_sybil, sc, floored) == outcome(run_sybil, sc, unfloored)
        assert outcome(run_pump_and_dump, sc, buy, sell, floored) == outcome(
            run_pump_and_dump, sc, buy, sell, unfloored
        )


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
    r_vol = 0 if low == high else _volume_rate_exact(high, low, cfg.k_v.ppb)
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
    arm's final ledger and the (current_period, Rate(ppb)) of every period
    it rebased, captured from Ledger._rebase_raw.

    The attacked arm's list starts with the periods shared before the fork.
    """
    calls = {}
    rebase_raw = Ledger._rebase_raw

    def capturing(ledger, ppb):
        calls.setdefault(ledger, []).append((ledger.current_period, Rate(ppb)))
        return rebase_raw(ledger, ppb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ledger, "_rebase_raw", capturing)
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


# --- the gap attack's worst case: the honest gas bill -------------------------


def gap_bound(sc: SybilScenario, cfg: RebaseConfig, buy: int, sell: int) -> Fraction:
    """b * gas_cost_base * Pi(1 + r_initial(t)) + periods raw base units.

    The product runs over the attacked periods after the first, at the
    incentive rate the controller applies, 1/(t + t0) floored to ppb.
    """
    first = sc.start_period + buy
    growth = math.prod(
        Fraction(UNIT + UNIT // (t + cfg.t0), UNIT)
        for t in range(first + 1, sc.start_period + sell)
    )
    return sc.baseline_v * cfg.gas_cost_base.raw * growth + sc.periods


@st.composite
def gap_attacks(draw):
    """A scenario in the gap acceptance test 3 never draws from.

    Honest volume b > 0 and an attacker's share h/s > d/(b+d), under the
    default cap and peg, from 1e-8 to 10^10 TRD, starting inside and past
    the bootstrap window.  Amounts step by 10 raw TRD, which has exact
    collateral at the peg of 0.1.
    """
    cfg = RebaseConfig(t0=draw(st.just(10) | st.integers(1, 20)))
    b = draw(st.integers(1, 10**6))
    d = draw(st.integers(1, 10**6))
    tens = draw(st.integers(1, 10**18))
    # the least h, in tens, with h * (b + d) > s * d
    held = draw(st.integers(tens * d // (b + d) + 1, tens))
    periods = draw(st.integers(1, 6))
    sc = SybilScenario(
        delta_v_per_period=d,
        periods=periods,
        baseline_v=b,
        start_supply=Amount(10 * tens),
        attacker_holdings=Amount(10 * held),
        start_period=draw(st.integers(0, 400)),
    )
    buy = draw(st.integers(0, periods - 1))
    sell = draw(st.integers(buy + 1, periods))
    return cfg, sc, buy, sell


# The attacker holds all of a 10^9-TRD supply and adds one transaction to
# 10^4 honest ones for three periods, past the bootstrap window: the cap
# binds, the net is (b + d) * gas * Pi - 3 * d * gas, and the sale at
# peg / index costs the pump-and-dump under 0.5%.
TIGHT = (
    RebaseConfig(),
    scenario(1, periods=3, baseline_v=10_000, supply=10**9, holdings=10**9, start_period=1_000),
    0,
    3,
)


class TestGapAttackBound:
    """Under the default cap, with k_v >= 0 and constant injection, an
    attack nets at most the honest users' gas bill of its first period,
    compounded by the incentive (see the adversary module docstring)."""

    @given(gap_attacks())
    @settings(max_examples=300, deadline=None)
    @example(TIGHT)
    def test_net_is_at_most_the_honest_gas_bill(self, case):
        cfg, sc, buy, sell = case
        assert run_sybil(sc, cfg).net_profit_base <= gap_bound(sc, cfg, 0, sc.periods)
        report = run_pump_and_dump(sc, buy, sell, cfg)
        assert report.net_profit_base <= gap_bound(sc, cfg, buy, sell)

    def test_the_bound_is_tight(self):
        cfg, sc, buy, sell = TIGHT
        sybil = run_sybil(sc, cfg).net_profit_base
        assert sybil >= gap_bound(sc, cfg, 0, sc.periods) * Fraction(99, 100)
        dump = run_pump_and_dump(sc, buy, sell, cfg).net_profit_base
        assert dump >= gap_bound(sc, cfg, buy, sell) * Fraction(99, 100)
