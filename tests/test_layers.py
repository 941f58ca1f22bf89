"""The package's import layers: each module imports only those below it.

The attack layer (adversary) prices attacks on the ledger alone, so it
sits beside the backtest (market, harness) and imports nothing from it.
Only the ledger knows how an account is stored: other modules read it
through balance_of, collateral_of, account_ids() and `in`.  Only
numerics.record checks a record field's type: a __post_init__ checks
ranges.  Only errors writes a refusal's "line <n>: " prefix or the id
refusal's text.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "toroid"

CORE = {"errors", "numerics", "controller", "ledger"}

# The toroid modules each module may import.
ALLOWED = {
    "errors": set(),
    "numerics": {"errors"},
    "controller": {"errors", "numerics"},
    "ledger": {"errors", "numerics"},
    "market": {"errors", "numerics", "controller"},
    "harness": CORE | {"market"},
    "adversary": CORE,
    "cli": CORE | {"adversary", "harness"},
    "datagen": {"harness"},
    "__init__": CORE | {"harness", "adversary"},
    "__main__": {"cli"},
}

# A Ledger's private account state and index terms.
LEDGER_PRIVATE = {
    "_shares", "_collateral", "_created", "_total_shares", "_index_num", "_index_den",
    "_peg_ratio", "_current_period",
}


def relative_imports(source: str) -> set[str]:
    """The package modules a source text imports relatively, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_stay_in_layer(module):
    imported = relative_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert imported - ALLOWED[module] == set()


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from .harness import _GENESIS", {"harness"}),
        ("from . import ledger, market", {"ledger", "market"}),
        ("def f():\n    from .market import step_price", {"market"}),
        ("import math\nfrom fractions import Fraction", set()),
    ],
)
def test_relative_imports_finds_every_form(source, modules):
    assert relative_imports(source) == modules


def ledger_private_reads(source: str) -> set[str]:
    """The Ledger private attributes a source text names, on any object."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in LEDGER_PRIVATE
    }


@pytest.mark.parametrize("module", sorted(set(ALLOWED) - {"ledger"}))
def test_only_the_ledger_reads_its_account_state(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert ledger_private_reads(source) == set()


@pytest.mark.parametrize(
    "source, names",
    [
        ("ledger._shares['a']", {"_shares"}),
        ("total = ledger._total_shares + 1", {"_total_shares"}),
        ("num, den = ledger._index_num, ledger._index_den", {"_index_num", "_index_den"}),
        ("def f(led):\n    return led._collateral, led._created", {"_collateral", "_created"}),
        ("ledger.balance_of('a')\n_shares = {}\nx._share = 0", set()),
    ],
)
def test_ledger_private_reads_finds_every_form(source, names):
    assert ledger_private_reads(source) == names


def post_init_type_tests(source: str) -> list[str]:
    """Each isinstance() call or type() comparison inside a __post_init__."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name == "__post_init__"):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _calls(node, "isinstance"):
                found.append(ast.unparse(node))
            elif isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Call) and _calls(side, "type")
                for side in (node.left, *node.comparators)
            ):
                found.append(ast.unparse(node))
    return found


def _calls(node: ast.Call, name: str) -> bool:
    return isinstance(node.func, ast.Name) and node.func.id == name


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_post_init_tests_a_type(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert post_init_type_tests(source) == []


_POST_INIT = "class R:\n    def __post_init__(self):\n        "


@pytest.mark.parametrize(
    "source, found",
    [
        (_POST_INIT + "if type(self.raw) is not int: raise TypeError",
         ["type(self.raw) is not int"]),
        (_POST_INIT + "if not isinstance(self.s, Amount): raise TypeError",
         ["isinstance(self.s, Amount)"]),
        (_POST_INIT + "ok = int is type(self.t)", ["int is type(self.t)"]),
        (_POST_INIT + "for f in fields(self):\n"
         "            assert type(getattr(self, f.name)) is type(f.default)",
         ["type(getattr(self, f.name)) is type(f.default)"]),
        (_POST_INIT + "def check():\n            return isinstance(self.v, int)",
         ["isinstance(self.v, int)"]),
        (_POST_INIT + "if self.raw < 0: raise ValueError", []),
        ("def from_tokens(t):\n    if type(t) is int: return t", []),
        ("def __init__(self, p):\n    assert isinstance(p, Rate)", []),
    ],
)
def test_post_init_type_tests_finds_every_form(source, found):
    assert post_init_type_tests(source) == found


# A refusal's line prefix, its number a field or a literal; ToroidError writes it.
LINE_PREFIX = re.compile(r"line (\{\}|\d)")
# The id refusal's fixed text; errors.check_id writes it.
ID_REFUSAL = "may not be empty or contain"


def _template(node: ast.AST) -> str | None:
    """A string literal's text, each f-string field read as {}; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def refusal_formats(source: str) -> list[str]:
    """Each string literal that writes a line prefix or the id refusal."""
    tree = ast.parse(source)
    parts = {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) for v in n.values}
    found = []
    for node in ast.walk(tree):
        text = _template(node) if id(node) not in parts else None
        if text is not None and (LINE_PREFIX.match(text) or ID_REFUSAL in text):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("module", sorted(set(ALLOWED) - {"errors"}))
def test_only_errors_writes_a_refusal_format(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert refusal_formats(source) == []


def test_errors_writes_each_refusal_format_once():
    source = (SRC / "errors.py").read_text(encoding="utf-8")
    assert len(refusal_formats(source)) == 2


@pytest.mark.parametrize(
    "source, found",
    [
        ('raise ConfigError(f"line {lineno}: unknown key {key!r}")',
         ["f'line {lineno}: unknown key {key!r}'"]),
        ('msg = f"line {n}"', ["f'line {n}'"]),
        ('raise SnapshotError(f"line 1: bad header: {h!r}")', ["f'line 1: bad header: {h!r}'"]),
        ('text = "line {}: {}".format(n, msg)', ["'line {}: {}'"]),
        ('raise E("account id may not be empty or contain \',\' or a line break: "\n'
         '        f"{value!r}")',
         ['f"account id may not be empty or contain \',\' or a line break: {value!r}"']),
        ('m = "may not be empty " "or contain a comma"', ["'may not be empty or contain a comma'"]),
        ('raise ConfigError(f"unknown key {key!r}", line=lineno)', []),
        ('f"{n} line {m}"\nf"deadline {t}"\n"a line break"\n"line x"', []),
    ],
)
def test_refusal_formats_finds_every_form(source, found):
    assert refusal_formats(source) == found
