"""Command-line interface.

Subcommands:
  simulate          backtest a market CSV into a series CSV
  attack sybil      price a Sybil volume-injection scenario
  attack pump-dump  price a pump-and-dump scenario
  ledger demo       scripted walk-through of the peg mechanics

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .adversary import (
    SybilScenario,
    render_reports_csv,
    run_pump_and_dump,
    run_sybil,
)
from .controller import RebaseConfig, load_config
from .errors import (
    AmountOverflowError,
    ConfigError,
    InvariantViolationError,
    NonDivisibleCollateralError,
    ToroidError,
)
from .harness import load_market_csv, run_backtest, write_output, write_series_csv
from .ledger import Ledger
from .numerics import Amount, Rate, format_raw

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every main() call.

    parse_args reads the parser and never changes it, so one tree serves
    any number of calls in a process.
    """
    parser = argparse.ArgumentParser(
        prog="toroid", description="Toroid stablecoin simulator"
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{simulate,attack,ledger}", required=True
    )

    sim = sub.add_parser("simulate", help="run a historical backtest")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--data", required=True, help="input market CSV")
    sim.add_argument("--config", required=True, help="controller config file")
    sim.add_argument("--initial-supply", required=True, metavar="TRD")
    sim.add_argument("--out", required=True, help="output series CSV")
    sim.add_argument("--gas-cost-trd", metavar="TRD", default=None,
                     help="set the config's gas cost, stated in TRD at the peg")
    sim.add_argument("--no-gas-cap", action="store_true")

    attack = sub.add_parser("attack", help="price a manipulation scenario")
    attack.set_defaults(run=_cmd_attack)
    attack_sub = attack.add_subparsers(
        dest="attack_kind", metavar="{sybil,pump-dump}", required=True
    )

    def add_attack_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta-v", required=True, type=int,
                       help="injected transactions per period")
        p.add_argument("--periods", required=True, type=int)
        p.add_argument("--baseline-v", required=True, type=int,
                       help="honest transactions per period")
        p.add_argument("--supply", required=True, metavar="TRD",
                       help="total TRD at scenario start")
        p.add_argument("--holdings", metavar="TRD", default=None,
                       help="attacker's pre-attack TRD (default: supply/10)")
        p.add_argument("--start-period", type=int, default=None,
                       help="scenario start period (default: after bootstrap)")
        p.add_argument("--config", required=True)
        p.add_argument("--no-gas-cap", action="store_true")
        p.add_argument("--id", default=None, help="scenario id for the CSV row")
        p.add_argument("--out", required=True, help="output report CSV")

    sybil = attack_sub.add_parser("sybil", help="volume injection, flat market")
    add_attack_common(sybil)

    pump = attack_sub.add_parser("pump-dump", help="buy, inflate, liquidate")
    add_attack_common(pump)
    pump.add_argument("--buy", required=True, type=int, metavar="T",
                      help="period the position is in place")
    pump.add_argument("--sell", required=True, type=int, metavar="T",
                      help="period the position unwinds")

    ledger = sub.add_parser("ledger", help="ledger utilities")
    ledger.set_defaults(run=_cmd_ledger_demo)
    ledger_sub = ledger.add_subparsers(dest="ledger_kind", metavar="{demo}", required=True)
    ledger_sub.add_parser("demo", help="walk through the peg rules")

    return parser


def _load_cfg(args: argparse.Namespace) -> RebaseConfig:
    cfg = load_config(args.config)
    if args.no_gas_cap:
        cfg = replace(cfg, gas_cap_enabled=False)
    if getattr(args, "gas_cost_trd", None) is not None:
        try:
            gas_trd = Amount.from_tokens(args.gas_cost_trd)
            if gas_trd.raw == 0:
                raise ValueError("must be positive")
            gas_base = Ledger(cfg.peg_ratio).collateral_for(gas_trd)
        except (ValueError, AmountOverflowError, NonDivisibleCollateralError) as exc:
            raise ConfigError(f"--gas-cost-trd: {exc}") from exc
        cfg = replace(cfg, gas_cost_base=gas_base)
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    rows = load_market_csv(args.data)
    series = run_backtest(rows, cfg, Amount.from_tokens(args.initial_supply))
    write_series_csv(series, args.out)
    if series:
        _, last = series[-1]
        print(
            f"{len(series)} periods -> {args.out}; final supply "
            f"{format_raw(last.supply)} TRD, final price {last.trd_price:.9f}"
        )
    else:
        print(f"0 periods -> {args.out} (need at least two input rows)")
    return EXIT_OK


def _build_scenario(args: argparse.Namespace, cfg: RebaseConfig) -> SybilScenario:
    supply = Amount.from_tokens(args.supply)
    if args.holdings is not None:
        holdings = Amount.from_tokens(args.holdings)
    else:
        holdings = Amount(supply.raw // 10)
    start = args.start_period if args.start_period is not None else cfg.bootstrap_periods
    return SybilScenario(
        delta_v_per_period=args.delta_v,
        periods=args.periods,
        baseline_v=args.baseline_v,
        start_supply=supply,
        attacker_holdings=holdings,
        start_period=start,
    )


def _cmd_attack(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args)
    scenario = _build_scenario(args, cfg)
    if args.attack_kind == "sybil":
        report = run_sybil(scenario, cfg)
    else:
        report = run_pump_and_dump(scenario, args.buy, args.sell, cfg)
    scenario_id = args.id if args.id is not None else args.attack_kind
    # Rendered before --out is opened, so a refused id leaves no file.
    text = render_reports_csv([(scenario_id, scenario, report)])
    write_output(args.out, text)
    verdict = "PROFITABLE" if report.profitable else "not profitable"
    print(
        f"{scenario_id}: cost {report.cost_base.tokens()} base, "
        f"gain {report.attacker_gain_base.tokens()} base, "
        f"net {format_raw(report.net_profit_base)} base -> {verdict}"
    )
    return EXIT_OK


def _cmd_ledger_demo(args: argparse.Namespace) -> int:
    cfg = RebaseConfig()
    ledger = Ledger(cfg.peg_ratio)

    def show(step: str) -> None:
        print(f"== {step}")
        for account_id in ledger.account_ids():
            print(
                f"   {account_id}: balance {ledger.balance_of(account_id).tokens()} TRD, "
                f"collateral {ledger.collateral_of(account_id).tokens()} base, "
                f"minted {ledger.minted_for(ledger.collateral_of(account_id)).tokens()} TRD"
            )
        print(
            f"   supply {ledger.total_supply().tokens()} TRD, "
            f"collateral pool {ledger.total_collateral.tokens()} base"
        )

    print("One-way peg walk-through (peg ratio 0.1 base per TRD)")
    alice, minted = ledger.open_account(Amount.from_tokens(1), account_id="alice")
    show(f"rule 1: alice deposits 1 base, mints {minted.tokens()} TRD")

    minted = ledger.deposit(alice, Amount.from_tokens("0.5"))
    show(f"rule 2: alice deposits 0.5 base more, mints {minted.tokens()} TRD")

    bob, minted = ledger.open_account(Amount.from_tokens(2), account_id="bob")
    show(f"rule 1 again: bob deposits 2 base, mints {minted.tokens()} TRD")

    supply = ledger.rebase(Rate.from_decimal("0.1"))
    show(f"period closes with +10% rebasement, supply now {supply.tokens()} TRD")

    ledger.transfer(alice, bob, Amount.from_tokens(1))
    show("alice sends bob 1 TRD: balances move, supply and collateral do not")

    burned = ledger.withdraw(alice, Amount.from_tokens("1.5"))
    show(
        f"rules 3-4: alice reclaims her full 1.5 base collateral, burning "
        f"{burned.tokens()} TRD; the interest stays in her wallet"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.run(args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ToroidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
