import math
import random
import statistics
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toroid.controller import RebaseConfig
from toroid.errors import (
    AmountOverflowError,
    NonFinitePriceError,
    NonPositiveFactorError,
    NonPositiveReturnError,
)
from toroid.harness import load_market_csv, run_backtest
from toroid.market import (
    MarketState,
    initial_market,
    peg_ceiling,
    price_ratio,
    step_price,
)
from toroid.numerics import MAX_RAW, UNIT, Amount, Rate

from oracles import (
    clamp_mint_by_fraction,
    log_return_split,
    sale_price_by_fraction,
    volatility_ratio,
)

# Every positive finite float, subnormals included; the extremes, the
# smallest normal and two subnormals are drawn often.
PRICES = st.floats(min_value=5e-324, max_value=1.7976931348623157e308) | (
    st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308, 1e-310, 0.1, 1.7e308])
)


class TestStepPrice:
    def test_identity_step(self, cfg):
        state = initial_market(100.0, cfg)
        after = step_price(state, 1.0, Rate(0), cfg, Amount.from_tokens(10_000))
        assert after.trd_price == state.trd_price
        assert after.base_price == state.base_price
        assert after.arb_minted == Amount(0)

    def test_rebasement_absorbs_matching_growth(self, cfg):
        # market +10% while supply grows +10%: the price is unchanged
        state = MarketState(trd_price=5.0, base_price=100.0)
        after = step_price(
            state, 1.1, Rate.from_decimal("0.1"), cfg, Amount.from_tokens(10_000)
        )
        assert after.trd_price == pytest.approx(5.0, rel=1e-12)
        assert after.base_price == pytest.approx(110.0, rel=1e-12)

    def test_clamp_at_peg_records_arbitrage(self, cfg):
        # start at the ceiling; a negative rebasement pushes the implied
        # price above it, so the clamp binds and the arbitrage mint that
        # would dilute the price back down is recorded
        supply = Amount.from_tokens(10_000)
        state = initial_market(100.0, cfg)
        after = step_price(state, 1.0, Rate.from_decimal("-0.2"), cfg, supply)
        assert after.trd_price == pytest.approx(10.0, rel=1e-12)
        # implied / ceiling = 1 / 0.8: the mint is ~2500 TRD
        assert after.arb_minted.raw == pytest.approx(
            Amount.from_tokens(2_500).raw, rel=1e-9
        )

    def test_non_positive_return_rejected(self, cfg):
        state = initial_market(100.0, cfg)
        with pytest.raises(NonPositiveReturnError):
            step_price(state, 0.0, Rate(0), cfg, Amount.from_tokens(1))
        with pytest.raises(NonPositiveReturnError):
            step_price(state, -0.5, Rate(0), cfg, Amount.from_tokens(1))

    def test_non_positive_factor_rejected(self, cfg):
        state = initial_market(100.0, cfg)
        with pytest.raises(NonPositiveFactorError):
            step_price(state, 1.0, Rate(-UNIT), cfg, Amount.from_tokens(1))

    @pytest.mark.parametrize(
        "base_price, market_return, rate",
        [
            (100.0, math.inf, Rate(0)),  # infinite return
            (math.inf, 1.0, Rate(0)),  # infinite base price
            (1e300, 1e10, Rate(0)),  # base price overflows
            (1.7e308, 1.0, Rate(-990_000_000)),  # only the TRD price overflows
            (100.0, math.nan, Rate(0)),  # NaN return
        ],
    )
    def test_overflowing_price_rejected(self, cfg, base_price, market_return, rate):
        state = initial_market(base_price, cfg)
        with pytest.raises(NonFinitePriceError):
            step_price(state, market_return, rate, cfg, Amount.from_tokens(1))

    def test_implied_price_underflow_rejected(self, cfg):
        # the ceiling is 5e-324, nonzero, but dividing the price by
        # 1 + r = 3.86 rounds it to 0.0
        state = MarketState(trd_price=5e-324, base_price=5e-323)
        assert peg_ceiling(cfg, state.base_price) == 5e-324
        with pytest.raises(NonFinitePriceError, match="TRD price underflowed to 0"):
            step_price(state, 1.0, Rate(2_860_000_000), cfg, Amount.from_tokens(1))


class TestPriceRatio:
    @settings(max_examples=500, deadline=None)
    @given(x=PRICES, y=PRICES, raw=st.integers(0, MAX_RAW) | st.just(MAX_RAW))
    @example(x=5e-324, y=1.7e308, raw=MAX_RAW)
    @example(x=1.7e308, y=5e-324, raw=MAX_RAW)
    @example(x=1e-310, y=3e-320, raw=0)
    def test_matches_fraction_oracle(self, x, y, raw):
        # the pair is x / y exactly, so an amount valued at it floors alike
        num, den = price_ratio(x, y)
        exact = sale_price_by_fraction(x, y)
        assert Fraction(num, den) == exact
        assert raw * num // den == int(raw * exact)

    @settings(max_examples=500, deadline=None)
    @given(
        implied=PRICES,
        base=PRICES,
        peg=st.just(100_000_000) | st.integers(1, 2 * UNIT),
        raw=st.integers(0, MAX_RAW) | st.just(MAX_RAW),
    )
    @example(implied=1.7e308, base=5e-324, peg=UNIT, raw=0)
    @example(implied=1.7e308, base=5e-324, peg=UNIT, raw=1)
    @example(implied=1e-310, base=3e-320, peg=UNIT, raw=MAX_RAW)
    @example(implied=10.000000000000002, base=100.0, peg=100_000_000, raw=MAX_RAW)
    def test_clamp_mint_matches_fraction_oracle(self, implied, base, peg, raw):
        # At a return of 1 and a rate of 0 the implied price is the state's
        # TRD price and the ceiling is peg_ceiling of its base price.
        cfg = RebaseConfig(peg_ratio=Rate(peg))
        ceiling = (peg / UNIT) * base
        assume(0 < ceiling < implied)
        state, supply = MarketState(implied, base), Amount(raw)
        try:
            expected = clamp_mint_by_fraction(supply, implied, ceiling)
        except AmountOverflowError:
            with pytest.raises(AmountOverflowError):
                step_price(state, 1.0, Rate(0), cfg, supply)
        else:
            after = step_price(state, 1.0, Rate(0), cfg, supply)
            assert after == MarketState(ceiling, base, expected)


class TestPegCeiling:
    def test_ceiling_is_peg_times_base(self, cfg):
        assert peg_ceiling(cfg, 100.0) == (cfg.peg_ratio.ppb / UNIT) * 100.0
        assert peg_ceiling(replace(cfg, peg_ratio=Rate(UNIT)), 5e-324) == 5e-324

    @pytest.mark.parametrize("base_price", [5e-324, 1e-323])
    def test_underflowing_ceiling_rejected_at_launch(self, cfg, base_price):
        # 0.1 of the smallest subnormals rounds to 0: no positive price fits
        with pytest.raises(NonFinitePriceError, match="peg ceiling underflowed to 0"):
            initial_market(base_price, cfg)

    def test_price_never_exceeds_peg_over_random_series(self, cfg):
        rng = random.Random(9090)
        for _ in range(200):
            state = initial_market(rng.uniform(1.0, 1000.0), cfg)
            supply = Amount.from_tokens(rng.randrange(1_000, 100_000))
            for _ in range(200):
                m = math.exp(rng.gauss(0.0, 0.08))
                r = Rate(rng.randrange(-400_000_000, 400_000_000))
                state = step_price(state, m, r, cfg, supply)
                ceiling = (cfg.peg_ratio.ppb / UNIT) * state.base_price
                assert state.trd_price <= ceiling


class TestDilutionNeutrality:
    def test_market_cap_tracks_returns_when_unclamped(self, cfg):
        # price x supply moves by exactly the market return while the
        # clamp is inactive
        rng = random.Random(9191)
        for _ in range(300):
            supply = rng.randrange(10**12, 10**16)
            state = MarketState(trd_price=1.0, base_price=1000.0)
            m = math.exp(rng.gauss(0.0, 0.05))
            r = Rate(rng.randrange(-200_000_000, 400_000_000))
            new_supply = supply * (UNIT + r.ppb) // UNIT
            after = step_price(state, m, r, cfg, Amount(supply))
            if after.trd_price < (cfg.peg_ratio.ppb / UNIT) * after.base_price:
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
        trd_prices = [record.market.trd_price for _, record in series]
        trd_returns = [math.log(b / a) for a, b in zip(trd_prices, trd_prices[1:])]
        assert statistics.pstdev(trd_returns) < statistics.pstdev(input_returns)

    @pytest.mark.parametrize("horizon, ratio", [(1, "0.960"), (7, "1.151"), (30, "1.468")])
    def test_volatility_ratio_on_the_bundled_run(self, sample_market_path, horizon, ratio):
        # the paper's stability claim on the pinned run: the rebase damps
        # 1-period moves and amplifies 7- and 30-period ones
        series = sample_market_path.parents[1] / "benchmarks" / "golden" / "simulate.csv"
        assert f"{volatility_ratio(series, sample_market_path, horizon):.3f}" == ratio

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
