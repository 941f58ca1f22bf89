"""The README's table of the paper's claims names tests that exist, and
its Python examples run."""

import ast
import os
import re
import subprocess
import sys
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


def python_blocks() -> dict[str, str]:
    """The body of each of the README's ```python blocks, by its line."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = {}
    for block in re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL):
        line = text.count("\n", 0, block.start()) + 1
        blocks[f"README.md:{line}"] = block[1]
    return blocks


BLOCKS = python_blocks()


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS.values(), ids=BLOCKS)
def test_readme_python_block_runs(tmp_path, source):
    # a name the example imports and the package no longer has fails here
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", source], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
