"""Bad library input raises a ToroidError.

Public input checks raise InvalidArgumentError, a ToroidError that is
also a ValueError.  A bare ValueError is left only where the caller
catches it and raises its own ToroidError in its place.  The source scan
sees only `raise ValueError` statements, so a sweep of malformed digits
and bytes also drives every parser, catching a ValueError that escapes
from inside int(), float() or bytes.decode.
"""

import ast
import datetime as dt
import importlib
import inspect
import math
import pkgutil
import textwrap
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

import toroid
from toroid import (
    Amount,
    Index,
    Ledger,
    Rate,
    SybilScenario,
    load_config,
    load_market_csv,
    parse_config,
    sybil_cost,
)
from toroid.cli import EXIT_INPUT, main
from toroid.controller import PeriodMetrics, RebaseConfig, combined_rate
from toroid.errors import (
    ConfigError,
    InvalidArgumentError,
    MarketDataError,
    NonFinitePriceError,
    SnapshotError,
    ToroidError,
)
from toroid.harness import MARKET_CSV_HEADER, MarketRow, run_backtest, step_period
from toroid.market import MarketState

from oracles import RECORDS

SRC = Path(__file__).resolve().parents[1] / "src" / "toroid"

# module.function -> how many bare `raise ValueError` it holds; each is
# caught in the same module and raised again as a ToroidError.
ALLOWED = Counter(
    {
        "ledger._canonical_int": 1,  # Ledger.restore: SnapshotError
        "controller._parse_bool": 1,  # parse_config: ConfigError
        "harness.load_market_csv": 1,  # the date check: MarketDataError
        "cli._load_cfg": 1,  # --gas-cost-trd: ConfigError
    }
)


def bare_value_errors(module: str, source: str) -> Counter:
    """module.function for each `raise ValueError` in source."""
    found = Counter()

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if name == module else f"{name}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found[f"{module}.{name}"] += 1
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def test_no_bare_value_error_outside_the_allow_list():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += bare_value_errors(path.stem, path.read_text(encoding="utf-8"))
    assert found == ALLOWED


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f():\n    raise ValueError('x')", {"m.f": 1}),
        ("class C:\n    def f(self):\n        raise ValueError", {"m.C.f": 1}),
        ("def f():\n    raise InvalidArgumentError('x')", {}),
        ("def f():\n    try:\n        pass\n    except ValueError:\n        raise", {}),
    ],
    ids=["call", "method", "typed", "re-raise"],
)
def test_bare_value_errors_finds_each_raise(source, found):
    assert bare_value_errors("m", source) == Counter(found)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Amount.from_tokens("x"),
        lambda: Rate.from_decimal("1.0000000001"),
        lambda: Ledger(Rate(0)),
        lambda: Ledger(Rate(1), start_period=-1),
        lambda: Ledger(Rate(1)).open_account(Amount(10), account_id="a,b"),
        lambda: SybilScenario(0, 0, 0, Amount(1), Amount(0), 0),
    ],
    ids=["amount", "rate", "peg", "start period", "account id", "scenario"],
)
def test_bad_input_is_a_toroid_error_and_a_value_error(call):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert isinstance(info.value, ToroidError) and isinstance(info.value, ValueError)


# Digit strings int() rejects though str.isdigit() admits them, and a
# whole part past int()'s default limit of 4,300 digits.
MALFORMED = {
    "superscript": "\u00b2",
    "superscripts after a digit": "1\u00b2\u00b3",
    "5000 digits": "9" * 5000,
}

# Arabic-Indic digits: str.isdecimal() admits them and int() and float()
# read them, as 12.
NON_ASCII = "\u0661\u0662"


def in_file(loader, template: str):
    """Run loader on a file holding template with the digits filled in."""

    def call(digits: str, path):
        path.write_text(template.format(digits), encoding="utf-8")
        return loader(path)

    return call


# Each parser the public surface offers, fed a digit string.
PARSERS = {
    "Amount.from_tokens": lambda d, _: Amount.from_tokens(d),
    "Amount.from_tokens fraction": lambda d, _: Amount.from_tokens(f"1.{d}"),
    "Rate.from_decimal": lambda d, _: Rate.from_decimal(f"-{d}"),
    "Rate.from_decimal fraction": lambda d, _: Rate.from_decimal(f"1.{d}"),
    "parse_config int": lambda d, _: parse_config(f"t0 = {d}\n"),
    "parse_config amount": lambda d, _: parse_config(f"gas_cost_base = {d}\n"),
    "parse_config rate": lambda d, _: parse_config(f"k_v = {d}\n"),
    "load_config": in_file(load_config, "k_v = {}\n"),
    "load_market_csv price": in_file(
        load_market_csv, MARKET_CSV_HEADER + "\n2017-01-01,{},1\n"
    ),
    "load_market_csv tx count": in_file(
        load_market_csv, MARKET_CSV_HEADER + "\n2017-01-01,1.5,{}\n"
    ),
}

# Ledger.restore reads only integers spelled as str() spells them.
RESTORES = {
    "Ledger.restore header": lambda d, _: Ledger.restore(f"v3,{d},1,1,0\n"),
    "Ledger.restore account": lambda d, _: Ledger.restore(
        f"v3,100000000,1,1,0\na,{d},1000000000,0\n"
    ),
}


@pytest.mark.parametrize("digits", MALFORMED.values(), ids=MALFORMED)
@pytest.mark.parametrize("parse", {**PARSERS, **RESTORES}.values(), ids=[*PARSERS, *RESTORES])
def test_malformed_digits_raise_a_toroid_error(tmp_path, parse, digits):
    # pytest.raises lets any other exception through, failing the test
    with pytest.raises(ToroidError):
        parse(digits, tmp_path / "input")


def outcome(parse, digits: str, path):
    """parse's result, or the type of the ToroidError it raised."""
    try:
        return parse(digits, path)
    except ToroidError as exc:
        return type(exc)


@pytest.mark.parametrize("parse", PARSERS.values(), ids=PARSERS)
def test_non_ascii_decimal_digits_read_as_their_ascii_twins(tmp_path, parse):
    assert outcome(parse, NON_ASCII, tmp_path / "a") == outcome(parse, "12", tmp_path / "b")


@pytest.mark.parametrize("restore", RESTORES.values(), ids=RESTORES)
def test_restore_refuses_non_ascii_digits(restore):
    with pytest.raises(SnapshotError, match="bad"):
        restore(NON_ASCII, None)


@pytest.mark.parametrize(
    "load, error, data, message",
    [
        (load_market_csv, MarketDataError, b"date,price,tx_count\xff\n",
         "line 1: invalid UTF-8 byte 0xff"),
        (load_market_csv, MarketDataError,
         b"date,price,tx_count\r\n2017-01-01,1,1\r\n2017-01-02,1,\xc3\r\n",
         "line 3: invalid UTF-8 byte 0xc3"),
        (load_market_csv, MarketDataError,
         b"date,price,tx_count\n2017-01-01,1,1\r2017-01-02,\xed\xa0\x80,1\n",
         "line 3: invalid UTF-8 byte 0xed"),
        (load_config, ConfigError, b"t0 = 10\n# caf\xe9\n", "line 2: invalid UTF-8 byte 0xe9"),
        (load_config, ConfigError, b"\n\n\x80", "line 3: invalid UTF-8 byte 0x80"),
    ],
    ids=["market header", "market crlf", "market bare cr", "config comment", "config last"],
)
def test_invalid_utf8_names_its_line(tmp_path, load, error, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == message
    assert info.value.line == int(message.split()[1].rstrip(":"))


def _snapshot() -> str:
    ledger = Ledger(Rate(10**9))
    for account_id in "ab":
        ledger.open_account(Amount(10**9), account_id=account_id)
    return ledger.snapshot()


# Each text parser's refusals: the error's .line is the number its message names.
LINE_ERRORS = {
    "config no equals": (
        lambda: parse_config("t0 = 5\nnoeq\n"), ConfigError,
        "line 2: expected key = value, got 'noeq'",
    ),
    "config unknown key": (
        lambda: parse_config("t0 = 1\nbogus = 2\n"), ConfigError, "line 2: unknown key 'bogus'"
    ),
    "config duplicate key": (
        lambda: parse_config("t0 = 5\n\nt0 = 6\n"), ConfigError, "line 3: duplicate key 't0'"
    ),
    "config bad value": (
        lambda: parse_config("k_v = x\n"), ConfigError,
        "line 1: k_v: malformed decimal string: 'x'",
    ),
    "config out of range": (
        lambda: parse_config("# c\nt0 = 0\n"), ConfigError, "line 2: t0: must be >= 1, got 0"
    ),
    "snapshot bad header": (
        lambda: Ledger.restore("v2,1,1,1,0\n"), SnapshotError,
        "line 1: not a v3 header: 'v2,1,1,1,0'",
    ),
    "snapshot bad header integer": (
        lambda: Ledger.restore("v3,1,1,01,0\n"), SnapshotError,
        "line 1: bad header: 'v3,1,1,01,0'",
    ),
    "snapshot bad row": (
        lambda: Ledger.restore(_snapshot() + "c,1\n"), SnapshotError,
        "line 4: expected 4 fields: 'c,1'",
    ),
    "snapshot bad integer": (
        lambda: Ledger.restore(_snapshot().replace("\nb,", "\nb,x", 1)), SnapshotError,
        "line 3: bad integer: 'b,x1000000000000000000,1000000000,0'",
    ),
    "snapshot negative shares": (
        lambda: Ledger.restore(_snapshot().replace("\nb,", "\nb,-", 1)), SnapshotError,
        "line 3: amount cannot be negative: -1000000000000000000",
    ),
    "snapshot bad id": (
        lambda: Ledger.restore(_snapshot().replace("\nb,", "\n,", 1)), SnapshotError,
        "line 3: account id may not be empty or contain ',' or a line break: ''",
    ),
}


@pytest.mark.parametrize("call, error, message", LINE_ERRORS.values(), ids=LINE_ERRORS)
def test_every_parse_error_names_its_line(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
    assert info.value.line == int(message.split()[1].rstrip(":"))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Ledger.restore(""), SnapshotError, "empty snapshot"),
        (lambda: run_backtest([], RebaseConfig(), Amount.from_tokens(1)), MarketDataError,
         "no market rows"),
        (lambda: RebaseConfig(t0=0), ConfigError, "t0: must be >= 1, got 0"),
    ],
    ids=["empty snapshot", "no market rows", "config value"],
)
def test_an_error_without_a_line_is_unprefixed(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
    assert info.value.line is None


def test_cli_reports_a_superscript_supply(tmp_path, default_cfg_path, capsys):
    argv = ["attack", "sybil", "--delta-v", "1", "--periods", "1", "--baseline-v", "0",
            "--supply", "\u00b2", "--config", str(default_cfg_path),
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: malformed decimal string: '\u00b2'\n"


# A negative period once divided by zero at t = -t0 and gave a negative
# "incentive" below it; a negative count gave a negative gas cap, which
# the clamp then turned into a rate above the incentive.
NEGATIVE = {
    "PeriodMetrics t=-10": (
        lambda: PeriodMetrics(-10, 0, 0, Amount.from_tokens(1)), "period must be >= 0, got -10"
    ),
    "PeriodMetrics t=-20": (
        lambda: PeriodMetrics(-20, 0, 0, Amount.from_tokens(1)), "period must be >= 0, got -20"
    ),
    "combined_rate t=-1": (
        lambda: combined_rate(PeriodMetrics(-1, 0, 0, Amount(1)), RebaseConfig()),
        "period must be >= 0, got -1",
    ),
    "combined_rate t=-10": (
        lambda: combined_rate(PeriodMetrics(-10, 5, 3, Amount.from_tokens(1)), RebaseConfig()),
        "period must be >= 0, got -10",
    ),
    "PeriodMetrics v=-5": (
        lambda: PeriodMetrics(100, -5, 3, Amount.from_tokens(1)),
        "transaction counts must be >= 0, got v=-5, v_prev=3",
    ),
    "PeriodMetrics v_prev=-1": (
        lambda: PeriodMetrics(100, 3, -1, Amount.from_tokens(1)),
        "transaction counts must be >= 0, got v=3, v_prev=-1",
    ),
}


@pytest.mark.parametrize("call, message", NEGATIVE.values(), ids=NEGATIVE)
def test_negative_period_or_count_is_refused(call, message):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message


def test_negative_tx_count_row_is_refused_before_the_rebase(cfg):
    # load_market_csv refuses such a row; one built in code reaches the
    # kernel, which must refuse it before the ledger moves
    rows = [MarketRow(dt.date(2017, 1, 1), 1.0, 3), MarketRow(dt.date(2017, 1, 2), 1.0, -5)]
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(Amount.from_tokens(1000)), account_id="g")
    before = ledger.snapshot()
    row, prev = rows[1], rows[0]
    with pytest.raises(InvalidArgumentError, match="transaction counts must be >= 0"):
        step_period(
            ledger, ledger.index, cfg, row.tx_count, prev.tx_count, row.price,
            ledger.total_supply().raw,
        )
    assert ledger.snapshot() == before
    with pytest.raises(InvalidArgumentError):
        run_backtest(rows, cfg, Amount.from_tokens(1000))


@pytest.mark.parametrize(
    "price, message",
    [
        (math.nan, "base price must be finite and > 0"),
        (-1.0, "base price must be finite and > 0"),
        (0.0, "base price must be finite and > 0"),
        (math.inf, "base price must be finite and > 0"),
        (5e-324, "peg ceiling underflowed to 0"),
    ],
    ids=["nan", "negative", "zero", "inf", "subnormal"],
)
def test_bad_base_price_is_refused_before_the_rebase(cfg, price, message):
    # the price is checked before the rebase, so the ledger does not move
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(Amount.from_tokens(1000)), account_id="g")
    before = ledger.snapshot()
    with pytest.raises(NonFinitePriceError, match=message):
        step_period(ledger, ledger.index, cfg, 5, 3, price, ledger.total_supply().raw)
    assert (ledger.current_period, ledger.index) == (0, Ledger(cfg.peg_ratio).index)
    assert ledger.snapshot() == before


@pytest.mark.parametrize("price", [100, "100.0", None], ids=["int", "str", "None"])
def test_wrongly_typed_base_price_is_refused_before_the_rebase(cfg, price):
    # MarketState refuses it too, but only after the rebase
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(Amount.from_tokens(1000)), account_id="g")
    before = ledger.snapshot()
    with pytest.raises(TypeError) as info:
        step_period(ledger, ledger.index, cfg, 5, 3, price, ledger.total_supply().raw)
    assert str(info.value) == f"base_price must be float, got {price!r}"
    assert ledger.snapshot() == before


@pytest.mark.parametrize("anchor", ["x", None, (1, 1)], ids=["str", "None", "tuple"])
def test_wrongly_typed_anchor_is_refused_before_the_rebase(cfg, anchor):
    # it used to advance the ledger a period and then fail reading its terms
    ledger = Ledger(cfg.peg_ratio)
    ledger.open_account(ledger.collateral_for(Amount.from_tokens(1000)), account_id="g")
    before = ledger.snapshot()
    with pytest.raises(TypeError) as info:
        step_period(ledger, anchor, cfg, 5, 4, 100.0, ledger.total_supply().raw)
    assert str(info.value) == f"anchor must be Index, got {anchor!r}"
    assert ledger.snapshot() == before


# Refused at construction, before it reaches an integer rule and fails
# there as another record's "ppb must be int, got ...".
NOT_INT = {
    "PeriodMetrics t": lambda: PeriodMetrics(1.0, 2, 1, Amount(1)),
    "PeriodMetrics v": lambda: PeriodMetrics(0, 2.5, 1, Amount(1)),
    "PeriodMetrics v_prev": lambda: PeriodMetrics(0, 2, "1", Amount(1)),
    "SybilScenario delta_v": lambda: SybilScenario(1.5, 1, 0, Amount(1), Amount(0), 0),
    "SybilScenario periods": lambda: SybilScenario(1, 2.0, 0, Amount(1), Amount(0), 0),
    "SybilScenario baseline_v": lambda: SybilScenario(1, 1, None, Amount(1), Amount(0), 0),
    "SybilScenario start_period": lambda: SybilScenario(1, 1, 0, Amount(1), Amount(0), 9.0),
    # bool is a subclass of int, and True was written out as "True"
    "PeriodMetrics t bool": lambda: PeriodMetrics(True, 2, 1, Amount(1)),
    "PeriodMetrics v bool": lambda: PeriodMetrics(0, True, 1, Amount(1)),
    "SybilScenario delta_v bool": lambda: SybilScenario(True, 1, 0, Amount(1), Amount(0), 0),
    "SybilScenario periods bool": lambda: SybilScenario(1, True, 0, Amount(1), Amount(0), 0),
    "Amount raw bool": lambda: Amount(True),
    "Rate ppb bool": lambda: Rate(False),
    "Index num bool": lambda: Index(True, 1),
}


@pytest.mark.parametrize("call", NOT_INT.values(), ids=NOT_INT)
def test_non_int_period_or_count_is_a_type_error(call):
    with pytest.raises(TypeError, match="must be int, got "):
        call()


# Refused by the field's name, before a wrong type fails deeper in as an
# AttributeError or as another record's "raw must be int".
WRONG_TYPE = {
    "PeriodMetrics s": (lambda: PeriodMetrics(0, 1, 1, 10), "s must be Amount, got 10"),
    "SybilScenario start_supply": (
        lambda: SybilScenario(1, 1, 0, 10, Amount(0), 0), "start_supply must be Amount, got 10"
    ),
    "SybilScenario attacker_holdings": (
        lambda: SybilScenario(1, 1, 0, Amount(10), 0, 0),
        "attacker_holdings must be Amount, got 0",
    ),
    "sybil_cost v": (lambda: sybil_cost(1.5, RebaseConfig()), "v must be int, got 1.5"),
    "sybil_cost v bool": (lambda: sybil_cost(True, RebaseConfig()), "v must be int, got True"),
    "RebaseConfig gas_cap_enabled": (
        lambda: RebaseConfig(gas_cap_enabled="no"), "gas_cap_enabled must be bool, got 'no'"
    ),
    "RebaseConfig k_v": (lambda: RebaseConfig(k_v=0.1), "k_v must be Rate, got 0.1"),
    "RebaseConfig t0": (lambda: RebaseConfig(t0=True), "t0 must be int, got True"),
    "Ledger peg_ratio": (lambda: Ledger(0.1), "peg_ratio must be Rate, got 0.1"),
    "Ledger start_period": (
        lambda: Ledger(Rate(1), start_period=1.5), "start_period must be int, got 1.5"
    ),
    "Ledger start_period bool": (
        lambda: Ledger(Rate(1), start_period=True), "start_period must be int, got True"
    ),
    "Ledger peg_ratio bool": (lambda: Ledger(True), "peg_ratio must be Rate, got True"),
    # True once parsed as one whole token; the rest reached str.strip
    "Amount.from_tokens bool": (
        lambda: Amount.from_tokens(True), "tokens must be int or str, got True"
    ),
    "Amount.from_tokens float": (
        lambda: Amount.from_tokens(1.5), "tokens must be int or str, got 1.5"
    ),
    "Amount.from_tokens None": (
        lambda: Amount.from_tokens(None), "tokens must be int or str, got None"
    ),
    "Rate.from_decimal float": (lambda: Rate.from_decimal(0.5), "text must be str, got 0.5"),
    "Rate.from_decimal int": (lambda: Rate.from_decimal(5), "text must be str, got 5"),
    # A datetime is a date subclass, and an int price is not a float.
    "MarketRow date datetime": (
        lambda: MarketRow(dt.datetime(2017, 1, 2), 2.0, 3),
        "date must be date, got datetime.datetime(2017, 1, 2, 0, 0)",
    ),
    "MarketRow price int": (
        lambda: MarketRow(dt.date(2017, 1, 2), 100, 3), "price must be float, got 100"
    ),
    "MarketRow price str": (
        lambda: MarketRow(dt.date(2017, 1, 2), "2.0", 3), "price must be float, got '2.0'"
    ),
    "MarketState base_price int": (
        lambda: MarketState(1.0, 100), "base_price must be float, got 100"
    ),
}


@pytest.mark.parametrize("call, message", WRONG_TYPE.values(), ids=WRONG_TYPE)
def test_a_wrongly_typed_input_is_a_type_error_naming_it(call, message):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "wrong", [1.5, "1", None, True], ids=["float", "str", "None", "bool"]
)
def test_ledger_refuses_a_wrong_type(wrong):
    with pytest.raises((TypeError, ToroidError)):
        Ledger(wrong)
    with pytest.raises((TypeError, ToroidError)):
        Ledger(Rate(1), start_period=wrong)


def test_a_string_date_row_is_refused_before_the_backtest():
    # run_backtest once took it, and write_series_csv then failed with
    # "'str' object has no attribute 'isoformat'"
    with pytest.raises(TypeError) as info:
        MarketRow("2017-01-02", 2.0, 3)
    assert str(info.value) == "date must be date, got '2017-01-02'"


def package_records() -> dict[str, type]:
    """Every dataclass defined in a toroid module, by name."""
    found = {}
    for info in pkgutil.iter_modules(toroid.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"toroid.{info.name}")
        for obj in vars(module).values():
            if is_dataclass(obj) and isinstance(obj, type) and obj.__module__ == module.__name__:
                found[obj.__name__] = obj
    return found


PACKAGE_RECORDS = package_records()

# One valid value per declared field type; a record is built from these
# alone, so a new record over these types needs no new example.
EXAMPLE_OF_TYPE = {
    int: 1,
    float: 1.0,
    bool: True,
    dt.date: dt.date(2017, 1, 1),
    Amount: Amount(1),
    Rate: Rate(1),
    Index: Index(1, 1),
}


def test_package_records_finds_every_record():
    assert {
        "Amount", "Rate", "Index", "RebaseConfig", "PeriodMetrics", "RateBreakdown",
        "MarketState", "MarketRow", "PeriodRecord", "SybilScenario", "AttackReport",
    } <= set(PACKAGE_RECORDS)


def test_every_record_has_stock_twin_examples():
    assert {kind for kind, _, _ in RECORDS} == set(PACKAGE_RECORDS.values())


@pytest.mark.parametrize("cls", PACKAGE_RECORDS.values(), ids=PACKAGE_RECORDS)
def test_each_record_has_its_own_docstring(cls):
    # without one, dataclass writes "Name(<signature>)" at import time
    source = textwrap.dedent(inspect.getsource(cls))
    assert ast.get_docstring(ast.parse(source).body[0])


@pytest.mark.parametrize("cls", PACKAGE_RECORDS.values(), ids=PACKAGE_RECORDS)
def test_each_field_holds_exactly_its_declared_type(cls):
    hints = get_type_hints(cls)
    values = [EXAMPLE_OF_TYPE[hints[f.name]] for f in fields(cls)]
    cls(*values)
    for i, f in enumerate(fields(cls)):
        kind = hints[f.name]
        for wrong in (object(), True, 1.0, "1", None):
            if type(wrong) is kind:
                continue
            args = values[:i] + [wrong] + values[i + 1:]
            with pytest.raises(TypeError, match=f"^{f.name} must be {kind.__name__}, got "):
                cls(*args)
