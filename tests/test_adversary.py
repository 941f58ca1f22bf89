import random
from dataclasses import replace

import pytest

from toroid.adversary import (
    ATTACK_CSV_HEADER,
    SybilScenario,
    render_reports_csv,
    run_pump_and_dump,
    run_sybil,
    sybil_cost,
)
from toroid.numerics import Amount


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
        from toroid.adversary import _run_arm

        sc = scenario(0, periods=4, baseline_v=250, holdings=3_000)
        attacked, _ = _run_arm(sc, cfg, 0, sc.periods, inject=True)
        baseline, _ = _run_arm(sc, cfg, 0, sc.periods, inject=False)
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

    def test_periods_must_be_positive(self, cfg):
        with pytest.raises(ValueError):
            scenario(1, periods=0)

    def test_start_period_must_be_non_negative(self, cfg):
        with pytest.raises(ValueError, match="start_period"):
            scenario(1, start_period=-1)


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
