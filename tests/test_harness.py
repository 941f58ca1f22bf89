import argparse
import datetime as dt
import math
import os
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid import cli, harness
from toroid.controller import (
    PeriodMetrics,
    RebaseConfig,
    combined_rate,
    load_config,
)
from toroid.errors import (
    AmountOverflowError,
    InvariantViolationError,
    MarketDataError,
    NonFinitePriceError,
    NonMonotoneDatesError,
    NonPositivePriceError,
    ToroidError,
)
from toroid.harness import (
    MARKET_CSV_HEADER,
    SERIES_CSV_HEADER,
    MarketRow,
    PeriodRecord,
    load_market_csv,
    run_backtest,
    step_period,
    write_output,
    write_series_csv,
)
from toroid.ledger import SHARE_SCALE, Ledger
from toroid.market import peg_ceiling, step_price
from toroid.numerics import MAX_RAW, UNIT, Amount, Index, Rate, grow_index

from oracles import (
    CLAMP_CFG,
    COLLAPSED_SEEDS,
    exact_backtest,
    ppb_of,
    random_walk,
    rates_of,
)


def flat_rows(periods: int, price: float = 100.0, tx: int = 0) -> list[MarketRow]:
    start = dt.date(2020, 1, 1)
    return [
        MarketRow(date=start + dt.timedelta(days=i), price=price, tx_count=tx)
        for i in range(periods)
    ]


def edited_market_text(rows, edits) -> str:
    """A market file of rows in date order, then with each (row, field,
    value) edit written over one field."""
    fields = [[str(date), repr(price), str(n)] for date, price, n in sorted(rows)]
    for row, field, value in edits:
        fields[row % len(fields)][field] = value
    return "\n".join([MARKET_CSV_HEADER, *map(",".join, fields)])


# Market files one or two field edits away from a valid one.
MARKET_TEXT = st.builds(
    edited_market_text,
    st.lists(
        st.tuples(st.dates(), st.floats(0.01, 1e6), st.integers(0, 10**20)),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 2),
            st.sampled_from(
                ["2017-01-01", "20170103", "2017-02-30", "", "0", "-1", "1.5", "x",
                 "nan", "inf", "1e400", "1e-400", "1,2"]
            ),
        ),
        max_size=2,
    ),
)


class TestLoadMarketCsv:
    @settings(max_examples=80, deadline=None)
    @given(text=st.one_of(st.text(), MARKET_TEXT))
    def test_any_text_loads_or_raises_market_data_error(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz-market.csv"
        path.write_text(text, encoding="utf-8")
        try:
            rows = load_market_csv(path)
        except MarketDataError:
            return
        assert all(0 < r.price < math.inf and r.tx_count >= 0 for r in rows)
        assert all(b.date > a.date for a, b in zip(rows, rows[1:]))

    def test_single_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,1000.0,250000\n")
        rows = load_market_csv(p)
        assert rows == [
            MarketRow(date=dt.date(2017, 1, 1), price=1000.0, tx_count=250000)
        ]

    @pytest.mark.parametrize("date", ["20170101", "2017-W01-1"])
    def test_only_canonical_dates(self, tmp_path, date):
        # newer Pythons' fromisoformat parses these; the file must mean
        # the same on every supported one
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n{date},10,1\n")
        with pytest.raises(MarketDataError, match=f"line 2: bad date '{date}'"):
            load_market_csv(p)
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,1\n")
        assert load_market_csv(p)[0].date == dt.date(2017, 1, 1)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("day,px,n\n")
        with pytest.raises(MarketDataError):
            load_market_csv(p)

    def test_out_of_order_dates(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            f"{MARKET_CSV_HEADER}\n2017-01-02,10,1\n2017-01-01,10,1\n"
        )
        with pytest.raises(NonMonotoneDatesError) as err:
            load_market_csv(p)
        assert err.value.line == 3

    def test_non_positive_price(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,-1,1\n")
        with pytest.raises(NonPositivePriceError):
            load_market_csv(p)

    @pytest.mark.parametrize("price", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_price(self, tmp_path, price):
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,1\n2017-01-02,{price},1\n")
        with pytest.raises(NonPositivePriceError) as err:
            load_market_csv(p)
        assert err.value.line == 3

    def test_bad_field_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,1\n2017-01-02,10\n")
        with pytest.raises(MarketDataError) as err:
            load_market_csv(p)
        assert err.value.line == 3

    def test_bad_price_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,1\n2017-01-02,abc,1\n")
        with pytest.raises(MarketDataError, match="line 3: bad price 'abc'"):
            load_market_csv(p)

    def test_blank_line_skipped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,1\n \n2017-01-02,20,2\n")
        rows = load_market_csv(p)
        assert [(r.price, r.tx_count) for r in rows] == [(10.0, 1), (20.0, 2)]

    def test_negative_tx_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,-5\n")
        with pytest.raises(MarketDataError):
            load_market_csv(p)

    def test_bundled_data_loads(self, sample_market_path):
        rows = load_market_csv(sample_market_path)
        assert len(rows) == 500
        assert all(r.price > 0 for r in rows)
        assert all(b.date > a.date for a, b in zip(rows, rows[1:]))


class TestRunBacktest:
    def test_quiet_market_follows_incentive_chain(self, cfg):
        # constant price, zero volume: the supply is the initial amount
        # compounded through the decaying incentive rates; the oracle
        # below rebuilds that chain in exact rational arithmetic
        rows = flat_rows(5)
        series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert len(series) == 4
        exact = Fraction(10_000 * UNIT)
        for t, (_, record) in enumerate(series):
            r_ppb = UNIT // (t + cfg.t0)
            exact *= Fraction(UNIT + r_ppb, UNIT)
            assert record.r_initial == r_ppb
            assert record.r_vol == 0
            assert record.r_combined == r_ppb
            assert record.supply == exact.__floor__()

    def test_price_diluted_by_same_chain(self, cfg):
        rows = flat_rows(5)
        series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        expected = 10.0  # peg ceiling at launch: 0.1 * 100
        for t, (_, record) in enumerate(series):
            expected = expected / ((UNIT + UNIT // (t + cfg.t0)) / UNIT)
            assert record.trd_price == pytest.approx(expected, rel=1e-12)

    def test_single_row_yields_no_periods(self, cfg):
        assert run_backtest(flat_rows(1), cfg, Amount.from_tokens(10_000)) == []

    def test_rows_carry_input_counts(self, cfg, sample_market_path, monkeypatch):
        # each pair is an input row and the record the kernel returned for
        # that row's count, not a copy of either
        rows = load_market_csv(sample_market_path)[:50]
        calls = []

        def capturing(ledger, anchor, cfg, v, v_prev, base_price, supply):
            record = step_period(ledger, anchor, cfg, v, v_prev, base_price, supply)
            calls.append((v, record))
            return record

        monkeypatch.setattr(harness, "step_period", capturing)
        series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert len(series) == len(calls) == len(rows) - 1
        for (row, record), input_row, (v, returned) in zip(series, rows[1:], calls):
            assert row is input_row
            assert v == row.tx_count
            assert record is returned

    def test_series_rates_rederivable_in_isolation(self, cfg, sample_market_path):
        # every emitted row must agree with a fresh controller evaluation
        # of (t, tx_count, supply at period start)
        rows = load_market_csv(sample_market_path)[:120]
        series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        supply = Amount.from_tokens(10_000).raw
        v_prev = rows[0].tx_count
        for t, (row, record) in enumerate(series):
            bd = combined_rate(
                PeriodMetrics(t=t, v=row.tx_count, v_prev=v_prev, s=Amount(supply)), cfg
            )
            assert ppb_of(bd) == rates_of(record)
            supply = record.supply
            v_prev = row.tx_count

    def test_gas_override_changes_cap(self, cfg):
        rows = flat_rows(3, tx=1000)
        plain = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        boosted = run_backtest(
            rows,
            replace(cfg, gas_cost_base=Amount.from_tokens("0.01")),
            Amount.from_tokens(10_000),
        )
        boosted_cap = boosted[0][1].r_gas_cap
        plain_cap = plain[0][1].r_gas_cap
        assert boosted_cap == 25 * plain_cap

    def test_gas_cap_contrast_on_volume_ramp(self, cfg):
        # volume doubling daily: the uncapped controller chases the ramp
        # beyond the cap; the capped run never leaves it and mints less
        start = dt.date(2021, 1, 1)
        rows = [
            MarketRow(start + dt.timedelta(days=i), 100.0, 1000 * 2**i)
            for i in range(10)
        ]
        capped = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        uncapped = run_backtest(
            rows, replace(cfg, gas_cap_enabled=False), Amount.from_tokens(10_000)
        )
        assert all(
            abs(b.r_combined - b.r_initial) <= b.r_gas_cap
            for _, b in capped
        )
        assert any(
            abs(b.r_combined - b.r_initial) > b.r_gas_cap
            for _, b in uncapped
        )
        assert capped[-1][1].supply < uncapped[-1][1].supply

    def test_step_period_mints_clamp_arbitrage(self):
        # crash the volume with the cap off and no bootstrap floor: the
        # negative rebasement pushes TRD/base over the peg, the clamp
        # binds, and its mint lands in an arbitrage account
        cfg = RebaseConfig(
            gas_cap_enabled=False, bootstrap_periods=0, t0=10**6
        )
        ledger = Ledger(cfg.peg_ratio)
        ledger.open_account(Amount.from_tokens(1_000), account_id="genesis")
        supply = ledger.total_supply().raw
        record = step_period(ledger, ledger.index, cfg, 1, 100_000, 100.0, supply)
        assert record.trd_price == (cfg.peg_ratio.ppb / UNIT) * 100.0
        assert record.arb_minted > 0
        assert "arb" in ledger
        assert record.supply == ledger.total_supply().raw
        # the arbitrageur opened after the rebase, so its balance is
        # exactly the obligation its collateral carries at the peg, and
        # that is the mint the record reports: a multiple of 10 raw, the
        # least with exact collateral at the 0.1 peg
        arb_minted = ledger.minted_for(ledger.collateral_of("arb"))
        assert ledger.balance_of("arb") == arb_minted == Amount(record.arb_minted)
        assert arb_minted.raw % 10 == 0

    def test_step_period_skips_arbitrage_that_rounds_to_zero(self):
        # the clamp's mint, 5 TRD * (1 / 0.999999999 - 1) = 5.000000005
        # raw floored to 5, has no exact collateral at the 0.1 peg, so it
        # rounds down to nothing: the clamp binds, no account opens and
        # the record reports the zero deposited
        cfg = RebaseConfig(
            gas_cap_enabled=False, bootstrap_periods=0, t0=10**12
        )
        ledger = Ledger(cfg.peg_ratio)
        ledger.open_account(ledger.collateral_for(Amount.from_tokens(5)),
                            account_id="genesis")
        record = step_period(
            ledger, ledger.index, cfg, 999_999_999, 10**9, 100.0, ledger.total_supply().raw
        )
        assert record.trd_price == (cfg.peg_ratio.ppb / UNIT) * 100.0
        assert record.anchor == ledger.index
        assert record.arb_minted == 0
        assert "arb" not in ledger
        assert record.supply == ledger.total_supply().raw

    def test_nan_price_fails_peg_check(self, cfg):
        # rows built in code skip the parser's finiteness check
        rows = flat_rows(3)
        rows[1] = replace(rows[1], price=float("nan"))
        with pytest.raises(NonFinitePriceError):
            run_backtest(rows, cfg, Amount.from_tokens(10_000))

    @pytest.mark.parametrize("excess", [2.0, float("nan")])
    def test_step_period_checks_peg_ceiling(self, cfg, monkeypatch, excess):
        # a price model that lets the TRD price escape the ceiling, or go
        # NaN, is an internal fault the kernel must still catch
        def escaping(cfg, num, den, base_price):
            return (cfg.peg_ratio.ppb / UNIT) * base_price * excess

        monkeypatch.setattr(harness, "_trd_price", escaping)
        ledger = Ledger(cfg.peg_ratio)
        ledger.open_account(Amount.from_tokens(1_000))
        with pytest.raises(InvariantViolationError):
            step_period(ledger, ledger.index, cfg, 0, 0, 100.0, ledger.total_supply().raw)

    @pytest.mark.parametrize(
        "first", [5e-324, 1.7e308, 0.0, -1.0, math.inf, math.nan]
    )
    def test_first_row_price_is_not_read(self, sample_market_path, tmp_path, first):
        # TRD launches at the peg on the launch index: the series is the
        # same bytes whatever the first row's price, even one the parser
        # would reject, clamps included
        rows = load_market_csv(sample_market_path)
        paths = []
        for price in (rows[0].price, first):
            rows[0] = replace(rows[0], price=price)
            series = run_backtest(rows, CLAMP_CFG, Amount.from_tokens(10_000))
            assert any(record.arb_minted for _, record in series)
            paths.append(tmp_path / f"{len(paths)}.csv")
            write_series_csv(series, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_ceiling_overflow_on_an_unclamped_period_rejected(self):
        # above a peg of 1, step_price's TRD price 2 / 1.1 * 1e308 is
        # finite under an infinite ceiling; the kernel's ceiling check
        # rejects it
        cfg = RebaseConfig(peg_ratio=Rate(2 * UNIT))
        rows = [MarketRow(dt.date(2020, 1, 1), 1.0, 0),
                MarketRow(dt.date(2020, 1, 2), 1e308, 0)]
        with pytest.raises(NonFinitePriceError) as raised:
            run_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert str(raised.value) == "peg ceiling overflowed at base 1e+308"

    def test_extreme_prices_run(self):
        # a base price that rises 1e600-fold: TRD/base needs only the
        # index, so it is 0.1 / 1.1 of the new base price
        cfg = RebaseConfig(gas_cap_enabled=False, bootstrap_periods=0)
        rows = [MarketRow(dt.date(2020, 1, 1), 1e-300, 100),
                MarketRow(dt.date(2020, 1, 2), 1e300, 100)]
        [(_, record)] = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert record.supply == Amount.from_tokens(11_000).raw
        assert record.trd_price == pytest.approx(1e299 / 1.1, rel=2**-52)

    def test_crash_at_the_largest_prices_clamps(self):
        # the volume crash drives the rate to -99%: the clamp holds TRD at
        # the ceiling of 1.7e307, and its mint restores the supply exactly
        cfg = RebaseConfig(gas_cap_enabled=False, bootstrap_periods=0)
        rows = [MarketRow(dt.date(2020, 1, 1), 1.7e308, 1_000_000),
                MarketRow(dt.date(2020, 1, 2), 1.7e308, 1)]
        [(_, record)] = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert record.r_combined == -990_000_000
        assert record.trd_price == peg_ceiling(cfg, 1.7e308)
        assert record.supply == Amount.from_tokens(10_000).raw

    def test_carried_supply_matches_ledger_scan(self, sample_market_path, monkeypatch):
        # periods take the supply the previous one reported instead of
        # rescanning the ledger; with the kernel's arbitrage mints landing
        # in some periods, every carried and reported supply must equal a
        # full scan
        cfg = CLAMP_CFG
        carried, scanned, ledgers = [], [], []

        def scanning(ledger, anchor, cfg, v, v_prev, base_price, supply):
            carried.append(supply)
            scanned.append(ledger.total_supply().raw)
            ledgers.append(ledger)
            return step_period(ledger, anchor, cfg, v, v_prev, base_price, supply)

        monkeypatch.setattr(harness, "step_period", scanning)
        series = run_backtest(
            load_market_csv(sample_market_path),
            cfg,
            Amount.from_tokens(10_000),
        )
        ledger = ledgers[-1]
        assert "arb" in ledger
        assert carried == scanned
        reported = [record.supply for _, record in series]
        assert reported == scanned[1:] + [ledger.total_supply().raw]

    def test_empty_rows_rejected(self, cfg):
        with pytest.raises(MarketDataError):
            run_backtest([], cfg, Amount.from_tokens(10_000))


def forced_rates(monkeypatch, *ppb: int) -> None:
    """Make the kernel's controller return these combined rates in turn."""
    rates = iter(ppb)

    def controller(t, v, v_prev, s_raw, cfg):
        r = next(rates)
        return r, 0, 0, r

    monkeypatch.setattr(harness, "_combined_ppb", controller)


# Indexes from 1e-30 to 1e30: anchors well above and below the index.
ANCHORS = st.builds(Index, st.integers(1, 10**30), st.integers(1, 10**30))


class TestPegClamp:
    """The one-sided peg, which the period kernel alone applies."""

    def test_clamp_at_peg_deposits_arbitrage(self, cfg, monkeypatch):
        # from the ceiling, a -20% rebasement would lift TRD/base to
        # peg / 0.8: the clamp holds it at the peg, re-anchors at the
        # index and deposits the mint that dilutes the 8,000 TRD left
        # back up to 10,000, 8,000 * (1 / 0.8 - 1) TRD exactly
        forced_rates(monkeypatch, -200_000_000)
        ledger = Ledger(cfg.peg_ratio)
        ledger.open_account(Amount.from_tokens(1_000), account_id="genesis")
        record = step_period(
            ledger, ledger.index, cfg, 0, 0, 100.0, ledger.total_supply().raw
        )
        assert (record.trd_price, record.anchor) == (10.0, ledger.index)
        assert record.arb_minted == Amount.from_tokens(2_000).raw
        assert ledger.balance_of("arb") == Amount.from_tokens(2_000)
        assert record.supply == Amount.from_tokens(10_000).raw

    def test_anchor_holds_until_the_next_clamp(self, cfg, monkeypatch):
        # after a clamp, TRD/base is measured from the clamped index: a
        # rise of 25% and a fall back leave it at the peg with no mint,
        # and a fall below the anchor clamps again, restoring the supply
        forced_rates(monkeypatch, -200_000_000, 250_000_000, -200_000_000, -500_000_000)
        ledger = Ledger(cfg.peg_ratio)
        ledger.open_account(Amount.from_tokens(1_000), account_id="genesis")
        anchor, supply, records = ledger.index, ledger.total_supply().raw, []
        for _ in range(4):
            record = step_period(ledger, anchor, cfg, 0, 0, 100.0, supply)
            anchor, supply = record.anchor, record.supply
            records.append(record)
        clamped, risen, back, again = records
        assert risen.trd_price == pytest.approx(8.0, rel=2**-52)
        assert risen.anchor == clamped.anchor
        assert (back.trd_price, back.anchor, back.arb_minted) == (
            clamped.trd_price, clamped.anchor, 0
        )
        assert again.trd_price == 10.0
        assert again.arb_minted == Amount.from_tokens(5_000).raw
        assert again.supply == Amount.from_tokens(10_000).raw

    @settings(max_examples=300, deadline=None)
    @given(
        anchor=ANCHORS,
        r=st.integers(-990_000_000, UNIT),
        peg=st.just(100_000_000) | st.integers(1, 20 * UNIT),
        tokens=st.integers(1, 10**6),
    )
    @example(anchor=Index(1, 1), r=-10_988_122, peg=100_000_000, tokens=10_000)
    @example(anchor=Index(10**30, 1), r=0, peg=100_000_000, tokens=10**6)
    # the arb account's share count passes MAX_RAW while its worth fits
    @example(anchor=Index(10**15, 1), r=0, peg=100_000_000, tokens=10**6)
    # the mint fits, the share total's worth with genesis does not
    @example(anchor=Index(MAX_RAW // 10**15 + 1, 1), r=0, peg=100_000_000, tokens=10**6)
    def test_clamp_matches_fraction_oracle(self, anchor, r, peg, tokens):
        # past the peg the kernel deposits supply * (anchor / index - 1),
        # floored (an Amount, so a larger one overflows), then rounded
        # down to a multiple of UNIT / gcd(peg, UNIT) raw, the least with
        # exact collateral; at or below it the anchor holds, mint 0
        cfg = RebaseConfig(peg_ratio=Rate(peg))
        ledger = Ledger(cfg.peg_ratio)
        ledger.open_account(Amount(tokens * peg), account_id="genesis")
        twin = ledger.copy()
        supply = twin.rebase(Rate(r)).raw
        index = Fraction(twin.index.num, twin.index.den)
        ratio = Fraction(anchor.num, anchor.den) / index
        mint = math.floor(supply * (ratio - 1))
        deposited = mint - mint % (UNIT // math.gcd(peg, UNIT))
        collateral = deposited * peg // UNIT
        shares = ledger._shares["genesis"] + math.ceil(deposited * SHARE_SCALE / index)
        # the mint overflows before it is rounded, or the arb account's
        # collateral, the share total's worth, or the collateral total does
        overflow = next(
            (
                x
                for x in (
                    mint,
                    collateral,
                    math.floor(shares * index / SHARE_SCALE),
                    ledger.total_collateral.raw + collateral,
                )
                if x > MAX_RAW
            ),
            None,
        )
        with pytest.MonkeyPatch.context() as mp:
            forced_rates(mp, r)
            if ratio > 1 and overflow:
                with pytest.raises(AmountOverflowError, match=f"capacity: {overflow}$"):
                    step_period(ledger, anchor, cfg, 0, 0, 100.0, ledger.total_supply().raw)
                assert "arb" not in ledger
                return
            record = step_period(ledger, anchor, cfg, 0, 0, 100.0, ledger.total_supply().raw)
        if ratio <= 1:
            assert record.anchor == anchor
            assert (record.arb_minted, record.supply) == (0, supply)
            assert "arb" not in ledger
            return
        assert (record.trd_price, record.anchor) == (peg_ceiling(cfg, 100.0), twin.index)
        assert record.arb_minted == deposited
        if deposited:
            assert ledger.minted_for(ledger.collateral_of("arb")) == Amount(deposited)
        else:
            assert "arb" not in ledger
        assert record.supply == ledger.total_supply().raw

    def test_bad_price_raises_before_the_mint(self, cfg, monkeypatch):
        # a clamped period whose ceiling underflows raises before any
        # arbitrage is deposited
        forced_rates(monkeypatch, -500_000_000)
        ledger = Ledger(cfg.peg_ratio)
        ledger.open_account(Amount.from_tokens(1_000), account_id="genesis")
        with pytest.raises(NonFinitePriceError, match="peg ceiling underflowed"):
            step_period(ledger, ledger.index, cfg, 0, 0, 5e-324, ledger.total_supply().raw)
        assert ledger.account_ids() == ["genesis"]
        assert ledger.total_collateral == Amount.from_tokens(1_000)


class TestExactReference:
    """run_backtest against exact_backtest, its gridless Fraction twin."""

    @staticmethod
    def clamps_matching_exact(rows, cfg) -> int:
        """Check every period against the exact run; count the clamps."""
        series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        exact = exact_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert len(series) == len(exact) == len(rows) - 1
        for (row, record), (breakdown, minted, supply, price) in zip(series, exact):
            got = (rates_of(record), record.arb_minted, record.supply)
            assert got == (ppb_of(breakdown), minted, supply), row.date
            assert abs(Fraction(record.trd_price) - price) <= price / 2**52
        return sum(1 for _, minted, _, _ in exact if minted)

    def test_bundled_run(self, sample_market_path, default_cfg_path):
        # the README's simulate command: 0.1 TRD of gas is 0.01 base
        cfg = replace(load_config(default_cfg_path), gas_cost_base=Amount.from_tokens("0.01"))
        rows = load_market_csv(sample_market_path)
        assert self.clamps_matching_exact(rows, cfg) == 0

    def test_bundled_data_under_clamp_config(self, sample_market_path):
        rows = load_market_csv(sample_market_path)
        assert self.clamps_matching_exact(rows, CLAMP_CFG) == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walk(self, seed):
        cfg = replace(CLAMP_CFG, gas_cap_enabled=False)
        assert self.clamps_matching_exact(random_walk(seed), cfg) > 0

    def test_clamp_mint_is_exact_on_one_crash(self):
        # the rate -10,988,122 ppb shrinks 10,000 TRD to 9,890.11878; the
        # exact mint 10,000 * 0.010988122 TRD restores it to the raw unit
        cfg = replace(CLAMP_CFG, gas_cap_enabled=False)
        rows = [MarketRow(dt.date(2017, 1, 1), 100.0, 3843),
                MarketRow(dt.date(2017, 1, 2), 100.0, 3801)]
        [(_, record)] = run_backtest(rows, cfg, Amount.from_tokens(10_000))
        assert record.r_combined == -10_988_122
        assert record.arb_minted == 109_881_220_000
        assert Amount(record.supply).tokens() == "10000.000000000"

    def test_clamp_mint_is_exact_on_the_bundled_data(self, sample_market_path):
        series = run_backtest(
            load_market_csv(sample_market_path), CLAMP_CFG, Amount.from_tokens(10_000)
        )
        # the clamp's floored mint is 18,500,837,331 raw; the record holds
        # the multiple of 10 raw deposited into the arb account
        minted = {row.date: record.arb_minted for row, record in series}
        assert minted[dt.date(2017, 11, 16)] == 18_500_837_330

    @pytest.mark.parametrize("seed", [None, *range(8)])
    def test_records_sum_to_what_arb_received(self, sample_market_path, monkeypatch, seed):
        # every record's arb_minted is what the arb account received: they
        # sum to its obligation, each a multiple of the collateral step
        if seed is None:
            rows, cfg = load_market_csv(sample_market_path), CLAMP_CFG
        else:
            rows, cfg = random_walk(seed), replace(CLAMP_CFG, gas_cap_enabled=False)
        records_sum_to_what_arb_received(monkeypatch, rows, cfg)


def resumed_backtest(rows, cfg, initial_supply) -> list[tuple[MarketRow, PeriodRecord]]:
    """run_backtest with the ledger rebuilt from its snapshot before each
    period, carrying only the anchor and the supply across the restore."""
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(initial_supply), account_id="genesis")
    anchor, supply = ledger.index, ledger.total_supply().raw
    out = []
    for prev, row in zip(rows, rows[1:]):
        ledger = Ledger.restore(ledger.snapshot())
        record = step_period(
            ledger, anchor, cfg, row.tx_count, prev.tx_count, row.price, supply
        )
        anchor, supply = record.anchor, record.supply
        out.append((row, record))
    return out


@pytest.mark.parametrize("config, clamps", [("simulate", 0), ("clamp", 5)])
def test_resume_through_snapshot_changes_no_record(sample_market_path, default_cfg_path,
                                                   config, clamps):
    # the README's simulate command (--gas-cost-trd 0.1), and a config
    # whose peg clamp binds, so the restored ledger carries an arb account
    if config == "simulate":
        args = argparse.Namespace(config=default_cfg_path, no_gas_cap=False, gas_cost_trd="0.1")
        cfg = cli._load_cfg(args)
    else:
        cfg = CLAMP_CFG
    rows = load_market_csv(sample_market_path)
    series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
    assert resumed_backtest(rows, cfg, Amount.from_tokens(10_000)) == series
    assert sum(1 for _, record in series if record.arb_minted) == clamps


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    periods=st.integers(2, 250),
    tx_sigma=st.sampled_from([0.15, 0.3]),
)
@example(seed=0, periods=250, tx_sigma=0.15)  # clamps: see test_random_walk
def test_resume_and_public_price_on_walks(seed, periods, tx_sigma):
    # a restore between periods changes no record, clamps included; and
    # each record's price is step_price's, bit for bit, at the index the
    # records' own rates grow from the launch index
    cfg = replace(CLAMP_CFG, gas_cap_enabled=False)
    rows = random_walk(seed, periods, tx_sigma)
    series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
    assert resumed_backtest(rows, cfg, Amount.from_tokens(10_000)) == series
    index = Index.identity()
    for row, record in series:
        index = grow_index(index, Rate(record.r_combined))
        assert record.trd_price == step_price(record.anchor, row.price, index, cfg).trd_price


def refusal(call) -> tuple[type, str] | None:
    """What call() refuses with, as (type, text), or None if it returns."""
    try:
        call()
    except (TypeError, ToroidError) as exc:
        return type(exc), str(exc)
    return None


# A count or a supply: negative, either side of each bound, or no int.
PERIOD_INPUTS = st.one_of(
    st.integers(max_value=-1),
    st.sampled_from([0, 1, 1_000, MAX_RAW, MAX_RAW + 1, True, 1.0, "1", None]),
)


@settings(max_examples=200, deadline=None)
@given(v=PERIOD_INPUTS, v_prev=PERIOD_INPUTS, supply=PERIOD_INPUTS)
@example(v=5, v_prev=4, supply=0)
def test_step_period_refuses_as_the_records_do(v, v_prev, supply):
    # the kernel checks bare values; it refuses exactly what the boxed
    # path refuses, PeriodMetrics(t, v, v_prev, Amount(supply)) and then
    # combined_rate (a zero supply has no gas cap), text included, and
    # before the ledger moves
    cfg = RebaseConfig()
    expected = refusal(lambda: combined_rate(PeriodMetrics(0, v, v_prev, Amount(supply)), cfg))
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(Amount.from_tokens(1_000)), account_id="g")
    before = ledger.snapshot()
    got = refusal(lambda: step_period(ledger, ledger.index, cfg, v, v_prev, 100.0, supply))
    assert got == expected
    if expected is not None:
        assert ledger.snapshot() == before


def records_sum_to_what_arb_received(monkeypatch, rows, cfg) -> Ledger:
    """Run rows from 10,000 TRD, check that the records' arb_minted sum to
    the arb account's obligation, and return the ledger at the end."""
    ledgers = []

    def capturing(ledger, *args):
        ledgers.append(ledger)
        return step_period(ledger, *args)

    monkeypatch.setattr(harness, "step_period", capturing)
    series = run_backtest(rows, cfg, Amount.from_tokens(10_000))
    assert len(series) == len(rows) - 1
    minted = [record.arb_minted for _, record in series if record.arb_minted]
    # 10 raw is the least amount with exact collateral at the 0.1 peg
    assert minted and all(raw % 10 == 0 for raw in minted)
    arb = ledgers[-1].collateral_of("arb")
    assert sum(minted) == ledgers[-1].minted_for(arb).raw
    return ledgers[-1]


# On a collapsed index, a clamp's deposit gives the arb account more
# than MAX_RAW shares, worth a few thousand TRD.
@pytest.mark.parametrize("seed", COLLAPSED_SEEDS)
def test_arb_shares_pass_max_raw_on_a_collapsed_index(monkeypatch, seed):
    cfg = replace(CLAMP_CFG, gas_cap_enabled=False)
    rows = random_walk(seed, 500, tx_sigma=0.3)
    ledger = records_sum_to_what_arb_received(monkeypatch, rows, cfg)
    assert ledger._shares["arb"] > MAX_RAW


class TestSeriesCsv:
    def test_empty_series_header_only(self, tmp_path):
        out = tmp_path / "s.csv"
        write_series_csv([], out)
        assert out.read_text() == SERIES_CSV_HEADER + "\n"

    def test_single_row_two_lines(self, cfg, tmp_path):
        series = run_backtest(flat_rows(2), cfg, Amount.from_tokens(10_000))
        out = tmp_path / "s.csv"
        write_series_csv(series, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == SERIES_CSV_HEADER

    def test_repeated_runs_byte_identical(self, cfg, tmp_path, sample_market_path):
        rows = load_market_csv(sample_market_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_series_csv(run_backtest(rows, cfg, Amount.from_tokens(10_000)), a)
        write_series_csv(run_backtest(rows, cfg, Amount.from_tokens(10_000)), b)
        assert a.read_bytes() == b.read_bytes()


def write_outcome(write, path) -> tuple[type, str] | None:
    """What write(path) raises, as (type, text), or None if it returns."""
    try:
        write(path)
    except OSError as exc:
        return type(exc), str(exc)
    return None


class TestWriteOutput:
    def test_shorter_text_rewrites_the_same_inode(self, tmp_path):
        out = tmp_path / "o.csv"
        out.write_bytes(b"x" * 1_000)
        inode = out.stat().st_ino
        write_output(out, "a,b\n1,2\n")
        assert out.read_bytes() == b"a,b\n1,2\n"
        assert out.stat().st_ino == inode

    def test_bytes_are_utf8_without_newline_translation(self, tmp_path):
        out = tmp_path / "o.csv"
        write_output(out, "\u00e9\r\n\n")
        assert out.read_bytes() == "\u00e9\r\n\n".encode("utf-8")

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        out = tmp_path / "o.csv"
        out.write_bytes(b"old\n" * 250)
        link = tmp_path / "link.csv"
        os.link(out, link)
        write_output(out, "new\n")
        assert link.read_bytes() == b"new\n"

    def test_symlink_stays_and_its_target_is_rewritten(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"old\n" * 250)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_output(link, "new\n")
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"

    @pytest.mark.parametrize("case", ["directory", "missing parent", "read-only"])
    def test_errors_are_those_of_open_for_writing(self, tmp_path, case):
        # the CLI prints str(exc) after "error: ", so the text is the contract;
        # a read-only file opens anyway for a user that ignores permissions
        if case == "directory":
            path = tmp_path
        elif case == "missing parent":
            path = tmp_path / "no" / "o.csv"
        else:
            path = tmp_path / "o.csv"
            path.write_bytes(b"old\n")
            path.chmod(0o444)
        expected = write_outcome(lambda p: open(p, "w").close(), path)
        outcome = write_outcome(lambda p: write_output(p, "new\n"), path)
        assert outcome == expected
        if case == "directory":
            assert outcome == (IsADirectoryError, f"[Errno 21] Is a directory: '{path}'")
