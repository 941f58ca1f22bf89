"""The README's table of the paper's claims names tests that exist."""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def claims_table() -> list[str]:
    """The body rows of the table under the README's "The paper's claims"."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## The paper's claims\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return rows[2:]


def named_tests(row: str) -> list[str]:
    return re.findall(r"`(tests/[\w/]+\.py::[\w:]+)`", row)


def defined_tests(path: Path) -> set[str]:
    """Every test_* function of a test file, as Class::name or name."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            found.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("test_")
            )
    return found


def test_eight_claims_each_pinned_to_a_test():
    rows = claims_table()
    assert len(rows) == 8
    assert all(named_tests(row) for row in rows)


@pytest.mark.parametrize(
    "test_id", [t for row in claims_table() for t in named_tests(row)]
)
def test_named_test_exists(test_id):
    path, name = test_id.split("::", 1)
    assert name in defined_tests(REPO_ROOT / path)


def test_a_missing_name_is_not_found():
    harness_tests = defined_tests(REPO_ROOT / "tests" / "test_harness.py")
    assert "TestPegClamp::test_clamp_matches_fraction_oracle" in harness_tests
    assert "TestPegClamp::test_no_such_test" not in harness_tests
