import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid import cli, harness
from toroid.cli import EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, main
from toroid.controller import dump_config, load_config
from toroid.harness import (
    MARKET_CSV_HEADER,
    SERIES_CSV_HEADER,
    load_market_csv,
    run_backtest,
)
from toroid.numerics import UNIT, Amount

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks" / "golden"
DEFAULT_CFG = ROOT / "data" / "default.cfg"


def sybil_argv(delta_v, periods, baseline_v, supply, holdings, start, no_cap):
    argv = ["attack", "sybil", "--delta-v", delta_v, "--periods", str(periods),
            "--baseline-v", baseline_v, "--supply", supply]
    if holdings is not None:
        argv += ["--holdings", holdings]
    if start is not None:
        argv += ["--start-period", str(start)]
    return argv + ["--no-gas-cap"] * no_cap


def simulate_argv(data, out, config=DEFAULT_CFG) -> list[str]:
    return ["simulate", "--data", str(data), "--config", str(config),
            "--initial-supply", "10000", "--out", str(out)]


def floor_off_cfg(directory: Path) -> Path:
    """The default config with bootstrap_periods = 0, so no bootstrap floor."""
    path = directory / "floor-off.cfg"
    path.write_text(dump_config(replace(load_config(DEFAULT_CFG), bootstrap_periods=0)))
    return path


COUNT_ARG = st.integers(-3, 10**13).map(str)
TOKENS_ARG = st.integers(0, 10**31).map(str) | st.sampled_from(
    ["0.000000001", "0.5", "-1", "1e3", "x", ""]
)
SYBIL_ARGV = st.builds(
    sybil_argv,
    COUNT_ARG,
    st.integers(-1, 8),
    COUNT_ARG,
    TOKENS_ARG,
    st.none() | TOKENS_ARG,
    st.none() | st.integers(-15, 10**6),
    st.booleans(),
)
PUMP_DUMP = ["pump-dump", "--delta-v", "100000", "--periods", "6", "--baseline-v", "100",
             "--supply", "10000", "--holdings", "5000", "--buy", "2", "--sell", "3"]


class TestSimulate:
    def test_simulate_bundled_data(
        self, tmp_path, sample_market_path, default_cfg_path, capsys
    ):
        out = tmp_path / "series.csv"
        code = main(
            [
                "simulate",
                "--data", str(sample_market_path),
                "--config", str(default_cfg_path),
                "--initial-supply", "10000",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith(SERIES_CSV_HEADER + "\n")
        assert len(text.splitlines()) == 500
        assert "499 periods" in capsys.readouterr().out

    def test_repeat_runs_byte_identical(
        self, tmp_path, sample_market_path, default_cfg_path
    ):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            args = [
                "simulate",
                "--data", str(sample_market_path),
                "--config", str(default_cfg_path),
                "--initial-supply", "10000",
                "--out", str(out),
                "--gas-cost-trd", "0.1",
            ]
            assert main(args) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_change_output(
        self, tmp_path, sample_market_path, default_cfg_path
    ):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = [
            "simulate",
            "--data", str(sample_market_path),
            "--config", str(default_cfg_path),
            "--initial-supply", "10000",
        ]
        assert main(base + ["--out", str(a)]) == EXIT_OK
        assert main(base + ["--out", str(b), "--no-gas-cap"]) == EXIT_OK
        assert a.read_bytes() != b.read_bytes()

    @staticmethod
    def simulate_with_gas(out, gas: str) -> int:
        return main(
            [
                "simulate",
                "--data", str(ROOT / "data" / "sample_market.csv"),
                "--config", str(DEFAULT_CFG),
                "--initial-supply", "10000",
                "--out", str(out),
                "--gas-cost-trd", gas,
            ]
        )

    def test_gas_cost_trd_is_a_config_edit(self, tmp_path, sample_market_path):
        # 0.1 TRD at the 0.1 peg is 0.01 base: the flag and the config key
        # it sets give the same bytes
        config = tmp_path / "gas.cfg"
        config.write_text(
            DEFAULT_CFG.read_text().replace(
                "gas_cost_base = 0.0004", "gas_cost_base = 0.01"
            )
        )
        by_key = tmp_path / "key.csv"
        code = main(
            [
                "simulate",
                "--data", str(sample_market_path),
                "--config", str(config),
                "--initial-supply", "10000",
                "--out", str(by_key),
            ]
        )
        assert code == EXIT_OK
        by_flag = tmp_path / "flag.csv"
        assert self.simulate_with_gas(by_flag, "0.1") == EXIT_OK
        assert by_flag.read_bytes() == by_key.read_bytes()

    @pytest.mark.parametrize(
        "gas, message",
        [
            ("", "empty decimal string"),
            ("0", "must be positive"),
            ("-1", "negative value not allowed"),
            ("1e3", "malformed decimal string"),
            ("1" + "0" * 30, "amount exceeds capacity"),
        ],
        ids=["empty", "zero", "negative", "exponent", "overflow"],
    )
    def test_bad_gas_cost_trd_is_input_error(self, tmp_path, gas, message, capsys):
        # "" ran as if the flag were absent, and "0" blamed gas_cost_base,
        # a config key the user never set
        out = tmp_path / "o.csv"
        assert self.simulate_with_gas(out, gas) == EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"error: --gas-cost-trd: {message}" in err
        assert "gas_cost_base" not in err

    def test_gas_cost_trd_without_exact_collateral_is_input_error(
        self, tmp_path, capsys
    ):
        # one raw TRD at the 0.1 peg is a tenth of a raw base unit
        out = tmp_path / "o.csv"
        assert self.simulate_with_gas(out, "0.000000001") == EXIT_INPUT
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: --gas-cost-trd: 0.000000001 TRD has no exact collateral "
            "at the peg\n"
        )

    def test_missing_data_file_is_input_error(self, tmp_path, default_cfg_path):
        code = main(
            [
                "simulate",
                "--data", str(tmp_path / "nope.csv"),
                "--config", str(default_cfg_path),
                "--initial-supply", "10000",
                "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_non_finite_price_is_input_error(
        self, tmp_path, default_cfg_path, price, capsys
    ):
        data = tmp_path / "m.csv"
        data.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,1\n2017-01-02,{price},5\n")
        out = tmp_path / "o.csv"
        code = main(
            [
                "simulate",
                "--data", str(data),
                "--config", str(default_cfg_path),
                "--initial-supply", "10000",
                "--out", str(out),
            ]
        )
        assert code == EXIT_INPUT
        assert not out.exists()
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows",
        [
            "2017-01-01,1e-300,100\n2017-01-02,1e300,100\n",
            "2017-01-01,1.7e308,1000000\n2017-01-02,1.7e308,1\n",
        ],
    )
    def test_overflowing_price_is_input_error(self, tmp_path, rows, capsys):
        data = tmp_path / "m.csv"
        data.write_text(f"{MARKET_CSV_HEADER}\n{rows}")
        argv = simulate_argv(data, tmp_path / "o.csv", floor_off_cfg(tmp_path))
        code = main(argv + ["--no-gas-cap"])
        assert code == EXIT_INPUT
        assert "price overflowed" in capsys.readouterr().err

    def test_subnormal_price_is_input_error(self, tmp_path, capsys):
        # a subnormal base price underflows the peg ceiling to 0, which the
        # clamp's mint would divide by
        data = tmp_path / "m.csv"
        data.write_text(
            f"{MARKET_CSV_HEADER}\n2020-01-01,1.5e-320,0\n"
            "2020-01-02,2.5e-323,1\n2020-01-03,1.5e-323,0\n"
        )
        code = main(simulate_argv(data, tmp_path / "o.csv"))
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: peg ceiling underflowed to 0")
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(
        prices=st.lists(
            st.floats(0, exclude_min=True, allow_infinity=False), min_size=1, max_size=6
        ),
        counts=st.lists(st.integers(0, 10**12), min_size=6, max_size=6),
        cap=st.booleans(),
        floor=st.booleans(),
    )
    @example(prices=[1.5e-320, 2.5e-323, 1.5e-323], counts=[0, 1, 0, 0, 0, 0],
             cap=True, floor=True)
    # the first peg ceiling underflows to 0
    @example(prices=[5e-324, 1e-16, 100.0], counts=[0, 1, 0, 0, 0, 0],
             cap=True, floor=True)
    # the ceiling is 5e-324, but the price divided by 1 + r rounds to 0
    @example(prices=[5e-323, 5e-323], counts=[1, 10**12, 0, 0, 0, 0],
             cap=True, floor=True)
    def test_any_positive_prices_exit_0_or_1(
        self, prices, counts, cap, floor, tmp_path_factory
    ):
        work = tmp_path_factory.getbasetemp()
        data = work / "fuzz-market.csv"
        data.write_text(
            "\n".join(
                [MARKET_CSV_HEADER]
                + [f"2020-01-{i + 1:02d},{p!r},{n}"
                   for i, (p, n) in enumerate(zip(prices, counts))]
            )
        )
        config = DEFAULT_CFG if floor else floor_off_cfg(work)
        argv = simulate_argv(data, work / "fuzz.csv", config)
        code = main(argv + ["--no-gas-cap"] * (not cap))
        assert code in (EXIT_OK, EXIT_INPUT)
        if code == EXIT_OK:
            # The CSV prints a tiny price as 0.000000000, so read the floats.
            cfg = replace(load_config(config), gas_cap_enabled=cap)
            series = run_backtest(load_market_csv(data), cfg, Amount.from_tokens(10_000))
            assert all(record.market.trd_price > 0 for _, record in series)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["2020-01-01,5e-324,0", "2020-01-02,1e-16,1", "2020-01-03,100,0"],
             "peg ceiling underflowed to 0"),
            (["2020-01-01,5e-323,1", "2020-01-02,5e-323,1000000000000"],
             "TRD price underflowed to 0"),
        ],
    )
    def test_zero_price_is_input_error(self, tmp_path, capsys, rows, message):
        data = tmp_path / "m.csv"
        data.write_text("\n".join([MARKET_CSV_HEADER, *rows]) + "\n")
        out = tmp_path / "o.csv"
        assert main(simulate_argv(data, out)) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_one_row_writes_header_only(self, tmp_path, default_cfg_path, capsys):
        data = tmp_path / "m.csv"
        data.write_text(f"{MARKET_CSV_HEADER}\n2017-01-01,10,1\n")
        out = tmp_path / "o.csv"
        code = main(
            [
                "simulate",
                "--data", str(data),
                "--config", str(default_cfg_path),
                "--initial-supply", "10000",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.read_text() == SERIES_CSV_HEADER + "\n"
        assert capsys.readouterr().out == (
            f"0 periods -> {out} (need at least two input rows)\n"
        )

    def test_zero_initial_supply_is_input_error(
        self, tmp_path, sample_market_path, default_cfg_path, capsys
    ):
        code = main(
            [
                "simulate",
                "--data", str(sample_market_path),
                "--config", str(default_cfg_path),
                "--initial-supply", "0",
                "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert code == EXIT_INPUT
        assert "initial supply must be positive" in capsys.readouterr().err

    def test_escaped_peg_is_invariant_exit(
        self, tmp_path, sample_market_path, default_cfg_path, monkeypatch, capsys
    ):
        # a price model that lets the TRD price escape the ceiling is an
        # internal fault, the one class of error that exits 2
        def escaping(state, market_return, r, cfg, supply):
            ceiling = (cfg.peg_ratio.ppb / UNIT) * state.base_price
            return replace(state, trd_price=ceiling * 2)

        monkeypatch.setattr(harness, "step_price", escaping)
        code = main(
            [
                "simulate",
                "--data", str(sample_market_path),
                "--config", str(default_cfg_path),
                "--initial-supply", "10000",
                "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert code == EXIT_INVARIANT
        assert capsys.readouterr().err.startswith("invariant violation:")

    def test_bad_flag_is_input_error(self, tmp_path, capsys):
        # argparse exits 2 on a usage error, the code of an invariant violation
        assert main(["simulate", "--bogus"]) == EXIT_INPUT
        out = tmp_path / "r.csv"
        argv = sybil_argv("x", 1, "0", "10000", None, None, False)
        code = main(argv + ["--config", str(DEFAULT_CFG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert "toroid attack sybil: error: argument --delta-v" in capsys.readouterr().err
        assert not out.exists()
        # --help leaves through the same SystemExit, and is a success
        assert main(["--help"]) == EXIT_OK

    def test_missing_subcommand_is_input_error(self):
        assert main([]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv, prog, choices",
        [
            ([], "toroid", "{simulate,attack,ledger}"),
            (["attack"], "toroid attack", "{sybil,pump-dump}"),
            (["ledger"], "toroid ledger", "{demo}"),
        ],
        ids=["toroid", "attack", "ledger"],
    )
    def test_missing_subcommand_names_the_choices(self, capsys, argv, prog, choices):
        # the error named the parser's dest, e.g. "required: attack_kind"
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"usage: {prog} [-h] {choices} ...\n"
            f"{prog}: error: the following arguments are required: {choices}\n"
        )


class TestAttack:
    @pytest.mark.parametrize(
        "golden, args",
        [
            (
                "attack-sybil.csv",
                ["sybil", "--delta-v", "10000", "--periods", "1",
                 "--baseline-v", "0", "--supply", "10000", "--holdings", "10000"],
            ),
            ("attack-pump-dump.csv", PUMP_DUMP),
            ("attack-pump-dump-no-gas-cap.csv", PUMP_DUMP + ["--no-gas-cap"]),
        ],
    )
    def test_readme_commands_match_golden(
        self, tmp_path, default_cfg_path, golden, args
    ):
        # the README's attack commands, byte for byte against the goldens
        out = tmp_path / golden
        code = main(
            ["attack", *args, "--config", str(default_cfg_path), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_sybil_writes_report(self, tmp_path, default_cfg_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "attack", "sybil",
                "--delta-v", "10000",
                "--periods", "1",
                "--baseline-v", "0",
                "--supply", "10000",
                "--holdings", "10000",
                "--config", str(default_cfg_path),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",false")
        assert "not profitable" in capsys.readouterr().out

    def test_pump_dump_uncapped_profitable(self, tmp_path, default_cfg_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "attack", "pump-dump",
                "--delta-v", "100000",
                "--periods", "6",
                "--baseline-v", "100",
                "--supply", "10000",
                "--holdings", "5000",
                "--buy", "2",
                "--sell", "3",
                "--config", str(default_cfg_path),
                "--no-gas-cap",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.read_text().splitlines()[1].endswith(",true")
        assert "PROFITABLE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "holdings, net, verdict",
        [
            ("3333333", "-0.000020000", "not profitable"),
            ("3400000", "4.000000000", "PROFITABLE"),
            ("5000000", "100.000000000", "PROFITABLE"),
        ],
    )
    def test_honest_volume_sybil_pays_above_share_d_over_b_plus_d(
        self, tmp_path, default_cfg_path, holdings, net, verdict, capsys
    ):
        # b = 10^6 honest and d = 5 * 10^5 injected transactions: the gas cap
        # allows (b + d) * g / s while the attacker pays d * g, so the attack
        # breaks even at a share h / s = d / (b + d) = 1/3 of the supply
        out = tmp_path / "r.csv"
        argv = sybil_argv("500000", 1, "1000000", "10000000", holdings, None, False)
        code = main(argv + ["--config", str(default_cfg_path), "--out", str(out)])
        assert code == EXIT_OK
        assert f"net {net} base -> {verdict}\n" in capsys.readouterr().out
        assert out.read_text().splitlines()[1].split(",")[6] == net

    @pytest.mark.parametrize("start", ["-10", "-3"])
    def test_negative_start_period_is_input_error(
        self, tmp_path, default_cfg_path, start, capsys
    ):
        # -10 divided by zero in initial_rate (t + t0 == 0); -3 ran silently
        # with a bootstrap rate the paper never defines
        out = tmp_path / "r.csv"
        argv = sybil_argv("100", 2, "0", "10000", None, start, False)
        code = main(argv + ["--config", str(default_cfg_path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert "start_period must be >= 0" in capsys.readouterr().err

    def test_zero_supply_is_input_error(self, tmp_path, default_cfg_path, capsys):
        # exited 1 with the rate kernel's "gas cap undefined at zero supply"
        out = tmp_path / "r.csv"
        argv = sybil_argv("100", 1, "0", "0", "0", None, False)
        code = main(argv + ["--config", str(default_cfg_path), "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert capsys.readouterr().err == "error: start_supply must be positive\n"

    @pytest.mark.parametrize(
        "argv",
        [
            sybil_argv("1000", 1, "100", "10000", "5000", None, False),
            ["attack", *PUMP_DUMP],
        ],
        ids=["sybil", "pump-dump"],
    )
    def test_negative_k_v_is_input_error(self, tmp_path, argv, capsys):
        # both attacks exited 2 with "injected volume reduced total supply"
        config = tmp_path / "neg.cfg"
        config.write_text(DEFAULT_CFG.read_text().replace("k_v = 0.1", "k_v = -0.1"))
        out = tmp_path / "r.csv"
        code = main(argv + ["--config", str(config), "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert "k_v: attack pricing needs k_v >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario_id", ["x,y\nz", "", "a\rb"])
    def test_id_that_breaks_the_csv_is_input_error(
        self, tmp_path, default_cfg_path, scenario_id, capsys
    ):
        # "x,y\nz" wrote a row "x,y" and a row "z,100,2,..." and exited 0
        out = tmp_path / "r.csv"
        argv = sybil_argv("100", 2, "0", "10000", None, None, False)
        code = main(
            argv + ["--config", str(default_cfg_path), "--id", scenario_id,
                    "--out", str(out)]
        )
        assert code == EXIT_INPUT
        assert not out.exists()
        assert "scenario id" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(argv=SYBIL_ARGV)
    @example(argv=sybil_argv("100", 2, "0", "10000", None, -10, False))
    def test_any_sybil_arguments_exit_0_or_1(self, argv, tmp_path_factory):
        work = tmp_path_factory.getbasetemp()
        options = ["--config", str(DEFAULT_CFG), "--out", str(work / "fuzz.csv")]
        assert main(argv + options) in (EXIT_OK, EXIT_INPUT)

    @pytest.mark.parametrize("flag", ["--delta-v", "--baseline-v"])
    def test_negative_transaction_count_is_input_error(self, tmp_path, flag, capsys):
        out = tmp_path / "r.csv"
        argv = sybil_argv("100", 1, "0", "10000", None, None, False)
        argv[argv.index(flag) + 1] = "-1"
        code = main(argv + ["--config", str(DEFAULT_CFG), "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()
        assert "transaction counts must be >= 0" in capsys.readouterr().err

    def test_bad_window_is_input_error(self, tmp_path, default_cfg_path):
        code = main(
            [
                "attack", "pump-dump",
                "--delta-v", "100",
                "--periods", "4",
                "--baseline-v", "0",
                "--supply", "10000",
                "--buy", "3",
                "--sell", "3",
                "--config", str(default_cfg_path),
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == EXIT_INPUT


# Every byte `toroid ledger demo` prints; the minted column is derived
# from each account's collateral at the peg.
DEMO_STDOUT = """\
One-way peg walk-through (peg ratio 0.1 base per TRD)
== rule 1: alice deposits 1 base, mints 10.000000000 TRD
   alice: balance 10.000000000 TRD, collateral 1.000000000 base, minted 10.000000000 TRD
   supply 10.000000000 TRD, collateral pool 1.000000000 base
== rule 2: alice deposits 0.5 base more, mints 5.000000000 TRD
   alice: balance 15.000000000 TRD, collateral 1.500000000 base, minted 15.000000000 TRD
   supply 15.000000000 TRD, collateral pool 1.500000000 base
== rule 1 again: bob deposits 2 base, mints 20.000000000 TRD
   alice: balance 15.000000000 TRD, collateral 1.500000000 base, minted 15.000000000 TRD
   bob: balance 20.000000000 TRD, collateral 2.000000000 base, minted 20.000000000 TRD
   supply 35.000000000 TRD, collateral pool 3.500000000 base
== period closes with +10% rebasement, supply now 38.500000000 TRD
   alice: balance 16.500000000 TRD, collateral 1.500000000 base, minted 15.000000000 TRD
   bob: balance 22.000000000 TRD, collateral 2.000000000 base, minted 20.000000000 TRD
   supply 38.500000000 TRD, collateral pool 3.500000000 base
== alice sends bob 1 TRD: balances move, supply and collateral do not
   alice: balance 15.500000000 TRD, collateral 1.500000000 base, minted 15.000000000 TRD
   bob: balance 22.999999999 TRD, collateral 2.000000000 base, minted 20.000000000 TRD
   supply 38.499999999 TRD, collateral pool 3.500000000 base
== rules 3-4: alice reclaims her full 1.5 base collateral, burning 15.000000000 TRD; the interest stays in her wallet
   alice: balance 0.500000000 TRD, collateral 0.000000000 base, minted 0.000000000 TRD
   bob: balance 22.999999999 TRD, collateral 2.000000000 base, minted 20.000000000 TRD
   supply 23.499999999 TRD, collateral pool 2.000000000 base
"""


class TestLedgerDemo:
    def test_demo_walks_the_peg_rules(self, capsys):
        assert main(["ledger", "demo"]) == EXIT_OK
        assert capsys.readouterr().out == DEMO_STDOUT


class TestOneParserPerProcess:
    def test_calls_in_sequence_leave_nothing_behind(self, tmp_path, capsys):
        # main() may share one parser across calls: a flag, a default or an
        # error of one call must not reach the next
        build = getattr(cli._build_parser, "__wrapped__", cli._build_parser)

        def fresh_parser_prints(argv):
            with pytest.raises(SystemExit) as done:
                build().parse_args(argv)
            return done.value.code, capsys.readouterr()

        pump = ["attack", *PUMP_DUMP, "--config", str(DEFAULT_CFG)]
        for golden, flags in (
            ("attack-pump-dump-no-gas-cap.csv", ["--no-gas-cap"]),
            ("attack-pump-dump.csv", []),
        ):
            out = tmp_path / golden
            assert main([*pump, "--out", str(out), *flags]) == EXIT_OK
            assert out.read_bytes() == (GOLDEN / golden).read_bytes()
        capsys.readouterr()

        usage_error = ["attack", "pump-dump", "--delta-v", "x"]
        assert main(usage_error) == EXIT_INPUT
        printed = capsys.readouterr()
        assert fresh_parser_prints(usage_error) == (2, printed)
        assert "error: argument --delta-v" in printed.err

        out = tmp_path / "simulate.csv"
        argv = [*simulate_argv(ROOT / "data" / "sample_market.csv", out),
                "--gas-cost-trd", "0.1"]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "simulate.csv").read_bytes()
        capsys.readouterr()

        assert main(["-h"]) == EXIT_OK
        printed = capsys.readouterr()
        assert fresh_parser_prints(["-h"]) == (0, printed)
        assert printed.out.startswith("usage: toroid [-h]")


class TestEntryPoints:
    @staticmethod
    def run_module(*args: str) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        return subprocess.run(
            [sys.executable, "-m", *args],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_datagen_regenerates_bundled_market(self, tmp_path, sample_market_path):
        out = tmp_path / "m.csv"
        done = self.run_module("toroid.datagen", str(out))
        assert done.returncode == 0
        assert "wrote 500 rows" in done.stdout
        assert out.read_bytes() == sample_market_path.read_bytes()

    @pytest.mark.parametrize(
        "args", [["--help"], ["-"], ["a.csv", "b.csv"]], ids=["help", "dash", "two"]
    )
    def test_datagen_usage_error_writes_nothing(self, tmp_path, args):
        # "--help" wrote the series to a file named --help, and a second
        # path was silently ignored
        done = subprocess.run(
            [sys.executable, "-m", "toroid.datagen", *args],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
        )
        assert done.returncode == EXIT_INPUT
        assert done.stderr == "usage: python -m toroid.datagen [PATH]\n"
        assert done.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_datagen_unwritable_path_is_input_error(self, tmp_path):
        done = self.run_module("toroid.datagen", str(tmp_path / "no" / "m.csv"))
        assert done.returncode == EXIT_INPUT
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_package_runs_as_module(self):
        done = self.run_module("toroid", "ledger", "demo")
        assert done.returncode == 0
        assert "rule 1" in done.stdout
