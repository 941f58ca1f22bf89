import datetime as dt
import importlib.util
import math
import random
import re
import statistics
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid.controller import RebaseConfig
from toroid.errors import InvalidArgumentError, NonFinitePriceError
from toroid.harness import MarketRow, load_market_csv, run_backtest, write_series_csv
from toroid.market import MarketState, peg_ceiling, step_price
from toroid.numerics import UNIT, Amount, Index, Rate, grow_index

from oracles import (
    log_return_split,
    random_walk_csv,
    split_volatility_ratio,
    volatility_ratio,
)

# Every positive finite float, subnormals included.
PRICES = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
INDEXES = st.builds(Index, st.integers(1, 10**40), st.integers(1, 10**40))


LAUNCH = Index.identity()


def grown(*ppb: int) -> Index:
    """The launch index grown by each rate in turn."""
    index = Index.identity()
    for r in ppb:
        index = grow_index(index, Rate(r))
    return index


class TestStepPrice:
    def test_identity_step(self, cfg):
        # at the launch index TRD sits at its ceiling, one peg of base coin
        after = step_price(LAUNCH, 100.0, LAUNCH, cfg)
        assert after == MarketState(peg_ceiling(cfg, 100.0), 100.0)

    def test_rebasement_absorbs_matching_growth(self, cfg):
        # base price +10% while supply grows +10%: the TRD price is unchanged
        after = step_price(LAUNCH, 110.0, grown(100_000_000), cfg)
        assert after.trd_price == pytest.approx(10.0, rel=2**-52)
        assert after == MarketState(after.trd_price, 110.0)

    @settings(max_examples=300, deadline=None)
    @given(index=INDEXES, base=PRICES | st.just(100.0), peg=st.integers(1, 20 * UNIT))
    def test_anchor_at_the_index_prices_exactly_the_ceiling(self, index, base, peg):
        # the kernel clamps by moving the anchor to the index; the
        # correctly rounded int/int division then gives the ceiling float
        cfg = RebaseConfig(peg_ratio=Rate(peg))
        try:
            ceiling = peg_ceiling(cfg, base)
        except NonFinitePriceError as exc:
            with pytest.raises(NonFinitePriceError, match=re.escape(str(exc))):
                step_price(index, base, index, cfg)
        else:
            assert step_price(index, base, index, cfg) == MarketState(ceiling, base)

    @pytest.mark.parametrize(
        "base_price", [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan]
    )
    def test_base_price_not_finite_and_positive_rejected(self, cfg, base_price):
        with pytest.raises(NonFinitePriceError, match="base price must be finite"):
            step_price(LAUNCH, base_price, LAUNCH, cfg)

    @pytest.mark.parametrize(
        "anchor, base_price",
        [(Index(10**400, 1), 100.0), (Index(10**20, 1), 1e300), (grown(1), 100.0)],
        ids=["ratio past the floats", "price past the floats", "one ppb above"],
    )
    def test_anchor_above_the_index_rejected(self, cfg, anchor, base_price):
        # the kernel never passes one; unchecked, the first overflows the
        # int/int division and the second's price overflows the floats
        with pytest.raises(InvalidArgumentError, match="anchor must not exceed the index"):
            step_price(anchor, base_price, LAUNCH, cfg)

    def test_trd_price_underflow_rejected(self, cfg):
        # the ceiling is 5e-324, nonzero, but peg / 3.86 of the base price
        # rounds to 0.0
        index = grown(2_860_000_000)
        assert peg_ceiling(cfg, 5e-323) == 5e-324
        with pytest.raises(NonFinitePriceError, match="TRD price underflowed to 0"):
            step_price(LAUNCH, 5e-323, index, cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        anchor=INDEXES,
        index=INDEXES,
        base=PRICES | st.just(100.0),
        peg=st.just(100_000_000) | st.integers(1, UNIT),
    )
    @example(anchor=Index(1, 10**40), index=Index(1, 1), base=1e-300, peg=UNIT)
    @example(anchor=Index(5, 4), index=Index(1, 1), base=100.0, peg=100_000_000)
    @example(anchor=Index(10**40, 1), index=Index(1, 1), base=5e-324, peg=100_000_000)
    def test_matches_fraction_oracle(self, anchor, index, base, peg):
        # TRD/base is peg * anchor / index, at or below the peg: the
        # kernel passes an anchor no larger than the index
        if Fraction(anchor.num, anchor.den) > Fraction(index.num, index.den):
            anchor, index = index, anchor
        cfg = RebaseConfig(peg_ratio=Rate(peg))
        ratio = Fraction(anchor.num, anchor.den) / Fraction(index.num, index.den)
        exact = Fraction(peg, UNIT) * ratio * Fraction(base)
        try:
            ceiling = peg_ceiling(cfg, base)
        except NonFinitePriceError:
            with pytest.raises(NonFinitePriceError):
                step_price(anchor, base, index, cfg)
            return
        if float(exact) == 0:
            with pytest.raises(NonFinitePriceError, match="TRD price underflowed"):
                step_price(anchor, base, index, cfg)
        else:
            after = step_price(anchor, base, index, cfg)
            assert after.base_price == base
            assert after.trd_price <= ceiling
            if after.trd_price >= 2.2250738585072014e-308:
                assert abs(Fraction(after.trd_price) - exact) <= exact / 2**52


class TestPegCeiling:
    def test_ceiling_is_peg_times_base(self, cfg):
        assert peg_ceiling(cfg, 100.0) == (cfg.peg_ratio.ppb / UNIT) * 100.0
        assert peg_ceiling(replace(cfg, peg_ratio=Rate(UNIT)), 5e-324) == 5e-324

    @pytest.mark.parametrize("base_price", [5e-324, 1e-323])
    @pytest.mark.parametrize(
        "anchor, index",
        [(LAUNCH, LAUNCH), (grown(-100), grown(-100))],
        ids=["unclamped", "clamped"],
    )
    def test_underflowing_ceiling_rejected(self, cfg, base_price, anchor, index):
        # 0.1 of the smallest subnormals rounds to 0: no positive price
        # fits, at the launch anchor and at a clamp's, where the kernel
        # has moved the anchor to the index
        with pytest.raises(NonFinitePriceError, match="peg ceiling underflowed to 0"):
            step_price(anchor, base_price, index, cfg)

    def test_overflowing_ceiling_rejected(self):
        # above a peg of 1 the ceiling of a huge base price is infinite
        cfg = RebaseConfig(peg_ratio=Rate(2 * UNIT))
        with pytest.raises(NonFinitePriceError, match="peg ceiling overflowed"):
            step_price(LAUNCH, 1.7e308, LAUNCH, cfg)
        with pytest.raises(NonFinitePriceError, match="peg ceiling overflowed"):
            step_price(LAUNCH, 1.7e308, grown(100), cfg)

    def test_unclamped_price_under_an_infinite_ceiling_returns(self):
        # step_price checks no ceiling while an unclamped price fits:
        # 2 / 1.2 * 1e308 is finite though 2 * 1e308 is not, and only
        # step_period's ceiling check rejects it
        cfg = RebaseConfig(peg_ratio=Rate(2 * UNIT))
        after = step_price(LAUNCH, 1e308, grown(200_000_000), cfg)
        assert after.trd_price == pytest.approx(2 / 1.2 * 1e308, rel=2**-50)
        with pytest.raises(NonFinitePriceError, match="peg ceiling overflowed"):
            peg_ceiling(cfg, 1e308)

    def test_price_never_exceeds_peg_over_random_series(self):
        # the kernel's clamp over random crashes and rallies: with the cap
        # and the bootstrap floor off, k_v = 1 and counts drawn afresh
        # each period, the rate spans about +-50%, and the clamp binds
        cfg = RebaseConfig(
            t0=10**6, bootstrap_periods=0, k_v=Rate(UNIT), gas_cap_enabled=False
        )
        rng = random.Random(9090)
        clamps = 0
        for _ in range(200):
            base, rows = rng.uniform(1.0, 1000.0), []
            for day in range(201):
                tx = round(10**6 * math.exp(rng.uniform(-0.25, 0.25)))
                rows.append(MarketRow(dt.date(2020, 1, 1) + dt.timedelta(day), base, tx))
                base *= math.exp(rng.gauss(0.0, 0.08))
            supply = Amount.from_tokens(rng.randrange(1_000, 100_000))
            for row, record in run_backtest(rows, cfg, supply):
                ceiling = peg_ceiling(cfg, row.price)
                assert record.trd_price <= ceiling
                if record.arb_minted:
                    assert record.trd_price == ceiling
                    clamps += 1
        assert clamps > 1_000


class TestDilutionNeutrality:
    def test_market_cap_tracks_returns_when_unclamped(self, cfg):
        # price x supply moves by exactly the market return while the
        # clamp is inactive, the index at or above the anchor
        rng = random.Random(9191)
        for _ in range(300):
            supply = rng.randrange(10**12, 10**16)
            index = grown(rng.randrange(0, 400_000_000))
            state = step_price(LAUNCH, 1000.0, index, cfg)
            m = math.exp(rng.gauss(0.0, 0.05))
            r = Rate(rng.randrange(-200_000_000, 400_000_000))
            new_supply = supply * (UNIT + r.ppb) // UNIT
            new_index = grow_index(index, r)
            if new_index.num >= new_index.den:
                after = step_price(LAUNCH, 1000.0 * m, new_index, cfg)
                cap_before = state.trd_price * supply
                cap_after = after.trd_price * new_supply
                assert cap_after == pytest.approx(cap_before * m, rel=1e-9)


class TestVolatilityReduction:
    def test_bundled_data_controller_damps_log_returns(
        self, cfg, sample_market_path
    ):
        # with the gas cap active and the documented per-transaction cost,
        # the simulated token's daily log returns are tighter than the
        # input series' own
        rows = load_market_csv(sample_market_path)
        # 0.01 base is 0.1 TRD at the 0.1 peg, the README's --gas-cost-trd
        series = run_backtest(
            rows,
            replace(cfg, gas_cost_base=Amount.from_tokens("0.01")),
            Amount.from_tokens(10_000),
        )
        input_returns = [
            math.log(rows[i + 1].price / rows[i].price) for i in range(len(rows) - 1)
        ]
        trd_prices = [record.trd_price for _, record in series]
        trd_returns = [math.log(b / a) for a, b in zip(trd_prices, trd_prices[1:])]
        assert statistics.pstdev(trd_returns) < statistics.pstdev(input_returns)

    @pytest.mark.parametrize("horizon, ratio", [(1, "0.960"), (7, "1.151"), (30, "1.468")])
    def test_volatility_ratio_on_the_bundled_run(self, sample_market_path, horizon, ratio):
        # the paper's stability claim on the pinned run: the rebase damps
        # 1-period moves and amplifies 7- and 30-period ones
        series = sample_market_path.parents[1] / "benchmarks" / "golden" / "simulate.csv"
        assert f"{volatility_ratio(series, sample_market_path, horizon):.3f}" == ratio

    @pytest.mark.parametrize("horizon, ratio", [(1, "0.922"), (7, "0.934"), (30, "0.965")])
    def test_volatility_ratio_after_bootstrap(
        self, cfg, sample_market_path, horizon, ratio
    ):
        # from period bootstrap_periods on, where the bootstrap incentive's
        # decaying drift has ended, the rebase damps moves at every horizon
        series = sample_market_path.parents[1] / "benchmarks" / "golden" / "simulate.csv"
        start = cfg.bootstrap_periods
        assert start == 90
        ratio_after = volatility_ratio(series, sample_market_path, horizon, start=start)
        assert f"{ratio_after:.3f}" == ratio

    @pytest.mark.parametrize(
        "horizon, plain, detrended",
        [(1, "0.973", "0.918"), (7, "1.173", "0.927"), (30, "1.495", "0.945")],
    )
    def test_detrended_volatility_ratio_on_the_bundled_run(
        self, sample_market_path, horizon, plain, detrended
    ):
        # summed log_return_split terms count the launch period too, so the
        # plain ratios sit a little above the whole-run pins; with each
        # period's r_initial part taken out of the rebase, the whole run
        # damps moves at every horizon: the amplification is the bootstrap
        # incentive's decaying drift, not the volume response
        series = sample_market_path.parents[1] / "benchmarks" / "golden" / "simulate.csv"
        ratios = [
            split_volatility_ratio(series, sample_market_path, 0.1, horizon, detrend=detrend)
            for detrend in (False, True)
        ]
        assert [f"{ratio:.3f}" for ratio in ratios] == [plain, detrended]

    def test_volatility_ratio_after_bootstrap_over_seeded_series(self, cfg, tmp_path):
        # the benchmark's walk under seeds 0-19, fixed before any ratio was
        # seen and none dropped, at the README's 0.1 TRD of gas: after
        # bootstrap every seed damps 1- and 7-period moves, and 30-period
        # ones in the median, though seed 5 alone reads 1.013 there
        cfg = replace(cfg, gas_cost_base=Amount.from_tokens("0.01"))
        ratios = {1: [], 7: [], 30: []}
        for seed in range(20):
            market, series = tmp_path / f"market-{seed}.csv", tmp_path / f"series-{seed}.csv"
            market.write_text(random_walk_csv(seed, 500), encoding="utf-8")
            rows = load_market_csv(market)
            write_series_csv(run_backtest(rows, cfg, Amount.from_tokens(10_000)), series)
            for horizon, found in ratios.items():
                found.append(volatility_ratio(series, market, horizon, start=cfg.bootstrap_periods))
        assert max(ratios[1]) < 1 and max(ratios[7]) < 1
        medians = [f"{statistics.median(found):.3f}" for found in ratios.values()]
        assert medians == ["0.905", "0.905", "0.916"]
        assert [seed for seed, ratio in enumerate(ratios[30]) if ratio > 1] == [5]

    def test_random_walk_is_the_benchmarks_own(self, sample_market_path):
        path = sample_market_path.parents[1] / "benchmarks" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for seed in (0, 5, 19):
            assert random_walk_csv(seed, 500) == workloads.market_csv(seed, 500)

    def test_the_rebase_leans_against_the_market(self, sample_market_path):
        # each period's TRD log return is the base return plus -ln(1 + r);
        # only the nine-decimal trd_price is left over.  Over the pinned
        # run the two parts move against each other.
        series = sample_market_path.parents[1] / "benchmarks" / "golden" / "simulate.csv"
        split = log_return_split(series, sample_market_path, peg=0.1)
        market, rebase, residual = zip(*split)
        assert len(split) == 499
        assert max(map(abs, residual)) <= 1e-7
        assert f"{statistics.correlation(market, rebase):.3f}" == "-0.233"
        assert f"{statistics.covariance(market, rebase):.2e}" == "-1.58e-04"
