"""The mutation catalogue: seeded faults that the tests must catch.

Each mutant names a file under src/toroid/, an exact old text, the text
that replaces it and the tests expected to kill it, as pytest node ids.
Run

    python tests/mutants.py [name ...]

to copy src/ and tests/ to a temporary directory per mutant, apply it
there and run its tests with -x.  The command prints each mutant's
verdict and exits 1 naming every survivor.  A survivor is a gap in the
oracles: report it, and do not drop it from the catalogue.

tests/test_mutants.py requires each old text to occur exactly once in
its file, so a change that moves mutated code updates the entry with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# Read by the tests but never written: linked into each copy, not copied.
SHARED = ("data", "benchmarks", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "gas conversion one raw unit high",
        "controller.py",
        "(cfg.gas_cost_base.raw * UNIT // cfg.peg_ratio.ppb)",
        "(cfg.gas_cost_base.raw * UNIT // cfg.peg_ratio.ppb + 1)",
        ("tests/test_controller.py", "tests/test_adversary.py"),
    ),
    Mutant(
        "gas-cap clamp one ppb loose",
        "controller.py",
        "if body > r_gas_cap:\n            body = r_gas_cap\n",
        "if body > r_gas_cap + 1:\n            body = r_gas_cap + 1\n",
        ("tests/test_controller.py",),
    ),
    Mutant(
        "halved sybil_cost",
        "adversary.py",
        "return Amount(v * cfg.gas_cost_base.raw)",
        "return Amount(v * cfg.gas_cost_base.raw // 2)",
        ("tests/test_adversary.py",),
    ),
    Mutant(
        "supply reciprocal without + 1",
        "ledger.py",
        "m = (num << k) // d + 1",
        "m = (num << k) // d",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "grid-0 index rounding half down",
        "numerics.py",
        "(num + UNIT // 2) // UNIT",
        "(num + UNIT // 2 - 1) // UNIT",
        ("tests/test_numerics.py", "tests/test_ledger.py"),
    ),
    Mutant(
        "_open_minted floors its shares",
        "ledger.py",
        "shares = self._to_shares_ceil(minted)\n",
        "shares = self._to_shares_floor(minted)\n",
        # A seeded ledger sits at index 1, where both roundings agree, so
        # only the ledger's own property at other indices tells them apart.
        (
            "tests/test_ledger.py::TestIntegerForms::"
            "test_open_minted_is_open_account_of_collateral_for",
        ),
    ),
)


def mutate(text: str, mutant: Mutant) -> str:
    """text with the mutant's old text replaced; it must occur exactly once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times, not once")
    return text.replace(mutant.old, mutant.new)


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail on a mutated copy of src/ and tests/."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory(prefix="toroid-mutant-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=ignore)
        for name in SHARED:
            (copy / name).symlink_to(ROOT / name)
        target = copy / "src" / "toroid" / mutant.path
        target.write_text(mutate(target.read_text(encoding="utf-8"), mutant), encoding="utf-8")
        path = os.pathsep.join([str(copy / "src"), str(copy / "tests")])
        env = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    # 1 is failed tests; anything else (an error in collection or usage)
    # is no kill, lest a broken copy count as a caught mutant.
    return result.returncode == 1


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        dead = killed(mutant)
        verdict = "killed" if dead else "SURVIVED"
        print(f"{verdict:8}  {time.perf_counter() - start:5.1f} s  {mutant.name}")
        if not dead:
            survivors.append(mutant.name)
    if survivors:
        print(f"survivors: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
