"""Bad library input raises a ToroidError.

Public input checks raise InvalidArgumentError, a ToroidError that is
also a ValueError.  A bare ValueError is left only where the caller
catches it and raises its own ToroidError in its place.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from toroid import Amount, Ledger, Rate, SybilScenario
from toroid.errors import InvalidArgumentError, ToroidError

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
