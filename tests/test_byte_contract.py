"""The byte contract on every supported interpreter.

Each Python 3.10-3.13 that starts on this host runs the README's
simulate command, its three attack commands, `toroid ledger demo` and the
sample series generator in one stdlib-only subprocess, and every file it
writes, and the demo's stdout, must match the committed bytes.  The child
also renders acceptance test 3's 1,050 attack reports, whose SHA-256
must match the one that test pins.  The four
README commands run twice, the second round in reverse order, so each
runs after the others on the parser main() keeps for the process; the
child also holds format_raw to the divmod rendering on 10,000 seeded
values.  An interpreter that is missing, or that is found but does not
start (a version shim with no version behind it), is skipped by name.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import SWEEP_REPORTS_SHA256
from test_cli import DEMO_STDOUT

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks" / "golden"
CFG = ["--config", "data/default.cfg"]
PUMP_DUMP = ["attack", "pump-dump", "--delta-v", "100000", "--periods", "6",
             "--baseline-v", "100", "--supply", "10000", "--holdings", "5000",
             "--buy", "2", "--sell", "3", *CFG]

# Output file name -> the README command that writes it, without --out.
README_RUNS = {
    "simulate.csv": ["simulate", "--data", "data/sample_market.csv", *CFG,
                     "--initial-supply", "10000", "--gas-cost-trd", "0.1"],
    "attack-sybil.csv": ["attack", "sybil", "--delta-v", "10000", "--periods", "1",
                         "--baseline-v", "0", "--supply", "10000",
                         "--holdings", "10000", *CFG],
    "attack-pump-dump.csv": PUMP_DUMP,
    "attack-pump-dump-no-gas-cap.csv": [*PUMP_DUMP, "--no-gas-cap"],
}
EXPECTED = {name: (GOLDEN / name).read_bytes() for name in README_RUNS} | {
    "sample_market.csv": (ROOT / "data" / "sample_market.csv").read_bytes(),
    "ledger-demo.txt": DEMO_STDOUT.encode(),
}

# The second round's files go here, under the same names.
AGAIN = "again"
# Acceptance test 3's rendered reports.
SWEEP = "sweep-reports.csv"

# Run with -S, so nothing but the standard library, src/ and tests/ is
# importable.
CHILD = """
import contextlib, io, json, random, sys
from pathlib import Path
from oracles import format_raw_by_divmod
from test_acceptance import infeasibility_sweep
from toroid import cli, datagen
from toroid.adversary import render_reports_csv
from toroid.controller import RebaseConfig
from toroid.numerics import MAX_RAW, UNIT, format_raw
out, runs, again, sweep = Path(sys.argv[1]), json.loads(sys.argv[2]), *sys.argv[3:]
(out / again).mkdir()
for where, names in ((out, list(runs)), (out / again, list(runs)[::-1])):
    for name in names:
        if cli.main([*runs[name], "--out", str(where / name)]) != 0:
            sys.exit(f"{name}: nonzero exit")
rng = random.Random(17)
edges = [0, 1, UNIT - 1, UNIT, MAX_RAW]
values = [*edges, *(-v for v in edges)] + [
    rng.randint(-2**128, 2**128) >> rng.randrange(129) for _ in range(10_000)
]
differ = [v for v in values if format_raw(v) != format_raw_by_divmod(v)]
if differ:
    sys.exit(f"format_raw differs from divmod at {differ[:3]}")
if datagen.main([str(out / "sample_market.csv")]) != 0:
    sys.exit("sample_market.csv: nonzero exit")
demo = io.StringIO()
with contextlib.redirect_stdout(demo):
    if cli.main(["ledger", "demo"]) != 0:
        sys.exit("ledger demo: nonzero exit")
(out / "ledger-demo.txt").write_bytes(demo.getvalue().encode())
(out / sweep).write_text(render_reports_csv(infeasibility_sweep(RebaseConfig())))
"""


def _candidates(minor: int) -> list[str]:
    found = [sys.executable, shutil.which(f"python3.{minor}")]
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found += sorted(str(p) for p in pyenv.glob(f"versions/3.{minor}.*/bin/python"))
    return [exe for exe in found if exe]


def _interpreter(minor: int) -> str | None:
    """The first candidate that starts and reports version 3.minor."""
    for exe in _candidates(minor):
        try:
            probe = subprocess.run(
                [exe, "-c", "import sys; print(*sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.split() == ["3", str(minor)]:
            return exe
    return None


@pytest.mark.parametrize("minor", [10, 11, 12, 13], ids=lambda m: f"python3.{m}")
def test_outputs_byte_identical(minor, tmp_path):
    exe = _interpreter(minor)
    if exe is None:
        pytest.skip(f"no Python 3.{minor} interpreter starts here")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(
        [exe, "-S", "-c", CHILD, str(tmp_path), json.dumps(README_RUNS), AGAIN, SWEEP],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    written = {name: tmp_path / name for name in EXPECTED} | {
        f"{AGAIN}/{name}": tmp_path / AGAIN / name for name in README_RUNS
    }
    differ = [
        name for name, path in written.items()
        if path.read_bytes() != EXPECTED[path.name]
    ]
    rendered = (tmp_path / SWEEP).read_bytes()
    if hashlib.sha256(rendered).hexdigest() != SWEEP_REPORTS_SHA256:
        differ.append(SWEEP)
    assert differ == [], f"Python 3.{minor} ({exe}) changed {differ}"
