"""End-to-end acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance
and runtime budget and printing a single PASS line (visible with
``pytest tests/test_acceptance.py -v -s``).  A failing criterion raises
before its line prints.
"""

import datetime as dt
import hashlib
import math
import random
import statistics
import time
from dataclasses import replace

from toroid.adversary import (
    AttackReport,
    SybilScenario,
    render_reports_csv,
    run_pump_and_dump,
    run_sybil,
    sybil_cost,
)
from toroid.cli import EXIT_OK, main
from toroid.controller import PeriodMetrics, RebaseConfig, combined_rate
from toroid.datagen import sample_market_csv
from toroid.errors import InsufficientForRefundError
from toroid.harness import MarketRow, load_market_csv, run_backtest
from toroid.ledger import SHARE_SCALE, Ledger
from toroid.numerics import UNIT, Amount, Rate

from oracles import apply_index, one_plus

PEG = Rate(100_000_000)

# SHA-256 of render_reports_csv over acceptance test 3's 1,050 reports.
SWEEP_REPORTS_SHA256 = "dae68a3fe2503d26da5767114bb5b23b2f62c5ef5176cf074c4b0541233932da"


def infeasibility_sweep(
    cfg: RebaseConfig,
) -> list[tuple[str, SybilScenario, AttackReport]]:
    """Acceptance test 3's 1,050 seeded attacks, each with its report.

    600 Sybil attacks inject volume into an otherwise quiet system, the
    worst case for the defense; 450 pump-and-dumps run with honest
    background volume.  Standard library only, so the byte-contract child
    renders the same reports on every interpreter.
    """
    rng = random.Random(0xA77AC)
    entries = []
    for _ in range(600):
        supply = rng.randrange(1_000, 10_000_001)
        scenario = SybilScenario(
            delta_v_per_period=rng.randrange(1, 1_000_001),
            periods=rng.randrange(1, 7),
            baseline_v=0,
            start_supply=Amount.from_tokens(supply),
            attacker_holdings=Amount.from_tokens(rng.randrange(0, supply + 1)),
            start_period=rng.randrange(90, 401),
        )
        entries.append((f"sybil-{len(entries)}", scenario, run_sybil(scenario, cfg)))
    for _ in range(450):
        supply = rng.randrange(1_000, 10_000_001)
        delta_v = rng.randrange(100, 1_000_001)
        buy = rng.randrange(1, 4)
        sell = buy + rng.randrange(1, 5)
        scenario = SybilScenario(
            delta_v_per_period=delta_v,
            periods=sell,
            baseline_v=rng.randrange(0, min(delta_v, 1000) + 1),
            start_supply=Amount.from_tokens(supply),
            attacker_holdings=Amount.from_tokens(rng.randrange(0, supply // 2 + 1)),
            start_period=rng.randrange(90, 201),
        )
        report = run_pump_and_dump(scenario, buy, sell, cfg)
        entries.append((f"pump-{len(entries)}", scenario, report))
    return entries


def _report(criterion: int, description: str, started: float) -> None:
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"\n[acceptance {criterion}] PASS {description} ({elapsed:.1f} ms)")


class TestAcceptance:
    def test_1_bootstrap_incentive_worked_values(self):
        cfg = RebaseConfig()
        supply = Amount.from_tokens(10_000)
        started = time.perf_counter()
        at_launch = combined_rate(PeriodMetrics(0, 0, 0, supply), cfg).r_initial
        after_bootstrap = combined_rate(PeriodMetrics(90, 0, 0, supply), cfg).r_initial
        elapsed = time.perf_counter() - started
        assert at_launch == Rate.from_decimal("0.100000000")
        assert after_bootstrap == Rate.from_decimal("0.010000000")
        assert elapsed < 0.001
        _report(1, "incentive rate is exactly 10% at launch, 1% at day 90", started)

    def test_2_sybil_cost_and_gas_cap_reference_points(self):
        cfg = RebaseConfig()
        started = time.perf_counter()
        cost = sybil_cost(10_000, cfg)
        cap = combined_rate(
            PeriodMetrics(t=0, v=10_000, v_prev=0, s=Amount.from_tokens(10_000)), cfg
        ).r_gas_cap
        elapsed = time.perf_counter() - started
        assert cost == Amount.from_tokens(4)
        assert cap == Rate.from_decimal("0.004")
        assert elapsed < 0.001
        _report(2, "10^4 injected transactions cost 4 base and cap the rate at 0.004", started)

    def test_3_infeasibility_sweep(self):
        cfg = RebaseConfig()
        started = time.perf_counter()
        entries = infeasibility_sweep(cfg)
        for _, scenario, report in entries:
            assert not report.profitable, scenario
            assert report.net_profit_base <= scenario.periods, scenario

        assert len(entries) >= 1000
        # every report, byte for byte, as the attack CSV renders it
        rendered = render_reports_csv(entries).encode()
        assert hashlib.sha256(rendered).hexdigest() == SWEEP_REPORTS_SHA256

        # with the cap disabled the same machinery finds profit
        exploit = SybilScenario(
            delta_v_per_period=10_000,
            periods=1,
            baseline_v=100,
            start_supply=Amount.from_tokens(10_000),
            attacker_holdings=Amount.from_tokens(5_000),
            start_period=90,
        )
        unprotected = run_sybil(exploit, replace(cfg, gas_cap_enabled=False))
        assert unprotected.profitable

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        _report(
            3,
            f"{len(entries)} randomized protected attacks all unprofitable; "
            "cap-off contrast case profits",
            started,
        )

    def test_4_ledger_conservation_suite(self):
        started = time.perf_counter()
        rng = random.Random(0x1ED6E4)
        sequences = 100_000
        for _ in range(sequences):
            self._run_ledger_sequence(rng)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        _report(
            4,
            f"{sequences} randomized operation sequences hold every "
            "conservation rule",
            started,
        )

    @staticmethod
    def _run_ledger_sequence(rng: random.Random) -> None:
        ledger = Ledger(PEG)
        expected_collateral = 0
        expected_minted = 0
        ids: list[str] = []
        for _ in range(rng.randrange(4, 9)):
            op = rng.random()
            if op < 0.3 or len(ids) < 2:
                collateral = Amount(rng.randrange(1, 10**7) * 100)
                account_id, minted = ledger.open_account(collateral)
                ids.append(account_id)
                expected_collateral += collateral.raw
                expected_minted += minted.raw
                # creation-timestamp insulation: all prior rebasements are
                # invisible to a new account, its balance is what it minted
                assert ledger.balance_of(account_id) == minted
            elif op < 0.5:
                collateral = Amount(rng.randrange(1, 10**7) * 100)
                expected_minted += ledger.deposit(rng.choice(ids), collateral).raw
                expected_collateral += collateral.raw
            elif op < 0.68:
                src, dst = rng.sample(ids, 2)
                balance = ledger.balance_of(src)
                if balance.raw == 0:
                    continue
                before = ledger.total_supply().raw
                ledger.transfer(src, dst, Amount(rng.randrange(0, balance.raw + 1)))
                assert abs(ledger.total_supply().raw - before) <= 1
            elif op < 0.88:
                r = Rate(rng.randrange(-500_000_000, 900_000_000))
                balances = [(i, ledger.balance_of(i)) for i in ids]
                ledger.rebase(r)
                # pro-rated growth: each balance scales by (1 + r) within
                # quantization (one raw unit, two under positive growth)
                slack = 1 if r.ppb <= 0 else 2
                for account_id, before in balances:
                    scaled = apply_index(before, one_plus(r)).raw
                    assert 0 <= ledger.balance_of(account_id).raw - scaled <= slack
            else:
                account_id = rng.choice(ids)
                collateral = ledger.collateral_of(account_id)
                if collateral.raw == 0:
                    continue
                if ledger.current_period - ledger._created[account_id] < 1:
                    continue
                out = rng.randrange(1, collateral.raw + 1) // 100 * 100
                if out == 0:
                    continue
                burned = out * UNIT // PEG.ppb
                if ledger.balance_of(account_id).raw < burned:
                    continue
                expected_minted -= ledger.withdraw(account_id, Amount(out)).raw
                expected_collateral -= out

        # exact collateral conservation and the peg obligation
        assert ledger.total_collateral.raw == expected_collateral
        assert ledger.total_collateral.raw == sum(
            ledger.collateral_of(i).raw for i in ledger.account_ids()
        )
        # the obligations the collateral implies are exactly what the
        # operations minted and burned
        assert expected_minted == sum(
            ledger.minted_for(ledger.collateral_of(i)).raw for i in ledger.account_ids()
        )
        assert ledger.total_collateral.raw * UNIT == expected_minted * PEG.ppb
        # conservation: individual balances never exceed what the share
        # pool implies, and trail it by at most one raw unit per account
        implied = (
            apply_index(
                Amount(sum(ledger._shares.values())),
                ledger.index,
            ).raw
            // SHARE_SCALE
        )
        total = ledger.total_supply().raw
        assert 0 <= implied - total <= len(ledger.account_ids())

    def test_5_peg_ceiling_over_random_series(self):
        # the period kernel over random series, the cap and the bootstrap
        # floor off: k_v = 1 and counts drawn afresh each period put the
        # rate within about +-50%, so crashes clamp the peg
        started = time.perf_counter()
        rng = random.Random(0x9E6)
        clamps = 0
        for _ in range(150):
            peg = Rate(rng.choice([50_000_000, 100_000_000, 125_000_000, 500_000_000]))
            cfg = RebaseConfig(
                t0=10**6, bootstrap_periods=0, k_v=Rate(UNIT), peg_ratio=peg,
                gas_cap_enabled=False,
            )
            base, rows = rng.uniform(0.5, 5000.0), []
            for day in range(251):
                tx = round(10**6 * math.exp(rng.uniform(-0.25, 0.25)))
                rows.append(MarketRow(dt.date(2020, 1, 1) + dt.timedelta(day), base, tx))
                base *= math.exp(rng.gauss(0.0, 0.1))
            supply = Amount.from_tokens(rng.randrange(1_000, 1_000_000))
            for row, record in run_backtest(rows, cfg, supply):
                assert record.trd_price <= (peg.ppb / UNIT) * row.price
                clamps += record.arb_minted > 0
        elapsed = time.perf_counter() - started
        assert clamps > 1_000
        assert elapsed < 10.0
        _report(5, "price never exceeds the peg over randomized return series", started)

    def test_6_withdrawal_semantics(self):
        ledger = Ledger(PEG)
        shrunk = Ledger(PEG)
        started = time.perf_counter()

        # mint 10 TRD for 1 base, +10% rebasement, full withdrawal:
        # exactly 1 base refunded, exactly 1 TRD of interest left behind
        account_id, minted = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate.from_decimal("0.1"))
        burned = ledger.withdraw(account_id, Amount.from_tokens(1))

        # the -20% variant: the full refund is blocked, the proportional
        # partial succeeds
        other, _ = shrunk.open_account(Amount.from_tokens(1))
        shrunk.rebase(Rate.from_decimal("-0.2"))
        try:
            shrunk.withdraw(other, Amount.from_tokens(1))
            blocked = False
        except InsufficientForRefundError:
            blocked = True
        partial = shrunk.withdraw(other, Amount.from_tokens("0.8"))
        elapsed = time.perf_counter() - started

        assert minted == Amount.from_tokens(10)
        assert burned == Amount.from_tokens(10)
        assert ledger.balance_of(account_id) == Amount.from_tokens(1)
        assert ledger.collateral_of(account_id) == Amount(0)
        assert ledger.total_collateral == Amount(0)
        assert blocked
        assert partial == Amount.from_tokens(8)
        assert shrunk.balance_of(other) == Amount(0)
        assert elapsed < 0.001
        _report(6, "full withdrawal refunds 1 base and leaves exactly 1 TRD", started)

    def test_7_bundled_backtest_properties(self, sample_market_path):
        started = time.perf_counter()
        # 0.01 base is 0.1 TRD at the 0.1 peg, the README's --gas-cost-trd
        cfg = RebaseConfig(gas_cost_base=Amount.from_tokens("0.01"))
        rows = load_market_csv(sample_market_path)
        supply0 = Amount.from_tokens(10_000)
        uncapped_cfg = replace(cfg, gas_cap_enabled=False)
        capped = [r for _, r in run_backtest(rows, cfg, supply0)]
        uncapped = [r for _, r in run_backtest(rows, uncapped_cfg, supply0)]

        # (a) volatility ordering: the controller damps daily log returns
        input_returns = [
            math.log(rows[i + 1].price / rows[i].price) for i in range(len(rows) - 1)
        ]
        trd_returns = [
            math.log(capped[i + 1].trd_price / capped[i].trd_price)
            for i in range(len(capped) - 1)
        ]
        assert statistics.pstdev(trd_returns) < statistics.pstdev(input_returns)

        # (b) gas-cap contrast: the capped run never strays past the cap,
        # the uncapped run does
        assert all(
            abs(b.r_combined - b.r_initial) <= b.r_gas_cap for b in capped
        )
        assert any(
            abs(b.r_combined - b.r_initial) > b.r_gas_cap for b in uncapped
        )

        # (c) supply grows monotonically through the bootstrap window
        bootstrap = capped[: cfg.bootstrap_periods]
        assert all(
            later.supply >= earlier.supply
            for earlier, later in zip(bootstrap, bootstrap[1:])
        )
        assert bootstrap[-1].supply > supply0.raw

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        _report(
            7,
            "bundled backtest: volatility damped, cap respected vs violated, "
            "bootstrap supply monotone",
            started,
        )

    def test_8_determinism(self, tmp_path, sample_market_path, default_cfg_path):
        # byte-identical output is a design guarantee: the pipeline is
        # integer, Decimal and basic IEEE-754 arithmetic only, none of
        # which varies by host.  Here the full command runs twice from
        # scratch and the artifacts are compared bit for bit, along with
        # a from-scratch regeneration of the bundled data series.
        started = time.perf_counter()
        outputs = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--data", str(sample_market_path),
                    "--config", str(default_cfg_path),
                    "--initial-supply", "10000",
                    "--out", str(out),
                    "--gas-cost-trd", "0.1",
                ]
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        golden = sample_market_path.parents[1] / "benchmarks" / "golden"
        assert outputs[0] == (golden / "simulate.csv").read_bytes()

        regenerated = sample_market_csv()
        committed = sample_market_path.read_text(encoding="utf-8")
        assert regenerated == committed
        _report(8, "repeated simulate runs and data regeneration are byte-identical", started)
