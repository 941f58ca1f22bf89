"""The byte contract on every supported interpreter.

Each Python 3.10-3.13 that starts on this host runs the README's
simulate command, its three attack commands, `toroid ledger demo` and the
sample series generator in one stdlib-only subprocess, and every file it
writes, and the demo's stdout, must match the committed bytes.  The child
also renders acceptance test 3's 1,050 attack reports, writes the
bundled data's series under oracles.CLAMP_CFG, where the peg clamp
binds 5 times, and writes the series of 15 clamp-heavy random walks, 961
clamps in all; each SHA-256 must match the pinned one.  The four
README commands run twice, the second round in reverse order, so each
runs after the others on the parser main() keeps for the process; the
child also holds format_raw to the divmod rendering on 10,000 seeded
values, and each record in oracles.RECORDS to a stock
dataclass(frozen=True, slots=True) twin: repr, hash, ==, copies,
pickling, replace, the frozen refusals and the signature (see
oracles.record_behaviour).  An interpreter that is missing, or that is found but does not
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
# The bundled data's series under the clamp config, and its SHA-256.
CLAMPED = "clamped-series.csv"
CLAMPED_SERIES_SHA256 = "dee0d81f6764d12c098795dc3401b228de6212a5de4d68c3a8e46b057e34a11e"
# The series of oracles.random_walk seeds 0-7, then of the collapsed-index
# seeds' 500-row walks, one after another under CLAMP_CFG with no gas cap.
WALKS = "walk-series.csv"
WALK_SERIES_SHA256 = "af6cd785e5ac91a84c45cb12e38b99e2ca41d8e119589c36a5c2de01c5d27de9"

# Run with -S, so nothing but the standard library, src/ and tests/ is
# importable.
CHILD = """
import contextlib, io, json, random, sys
from pathlib import Path
from dataclasses import replace
from oracles import (CLAMP_CFG, COLLAPSED_SEEDS, RECORDS, format_raw_by_divmod, random_walk,
                     record_behaviour, stock_twin)
from test_acceptance import infeasibility_sweep
from toroid import cli, datagen
from toroid.adversary import render_reports_csv
from toroid.controller import RebaseConfig
from toroid.harness import load_market_csv, run_backtest, write_series_csv
from toroid.numerics import MAX_RAW, UNIT, Amount, format_raw
out, runs, again, sweep, clamped, walked = Path(sys.argv[1]), json.loads(sys.argv[2]), *sys.argv[3:]
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
for kind, args, other in RECORDS:
    ours = record_behaviour(kind, args, other)
    stock = record_behaviour(stock_twin(kind), args, other)
    differ = [aspect for aspect in ours if ours[aspect] != stock[aspect]]
    if differ:
        sys.exit(f"{kind.__name__} differs from its stock dataclass twin in {differ}")
if datagen.main([str(out / "sample_market.csv")]) != 0:
    sys.exit("sample_market.csv: nonzero exit")
demo = io.StringIO()
with contextlib.redirect_stdout(demo):
    if cli.main(["ledger", "demo"]) != 0:
        sys.exit("ledger demo: nonzero exit")
(out / "ledger-demo.txt").write_bytes(demo.getvalue().encode())
(out / sweep).write_text(render_reports_csv(infeasibility_sweep(RebaseConfig())))
rows = load_market_csv("data/sample_market.csv")
write_series_csv(run_backtest(rows, CLAMP_CFG, Amount.from_tokens(10_000)), out / clamped)
walks = [random_walk(seed) for seed in range(8)]
walks += [random_walk(seed, 500, tx_sigma=0.3) for seed in COLLAPSED_SEEDS]
walk_cfg = replace(CLAMP_CFG, gas_cap_enabled=False)
with open(out / walked, "wb") as series:
    for rows in walks:
        write_series_csv(run_backtest(rows, walk_cfg, Amount.from_tokens(10_000)), out / "walk.csv")
        series.write((out / "walk.csv").read_bytes())
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
        [exe, "-S", "-c", CHILD, str(tmp_path), json.dumps(README_RUNS), AGAIN, SWEEP,
         CLAMPED, WALKS],
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
    pins = ((SWEEP, SWEEP_REPORTS_SHA256), (CLAMPED, CLAMPED_SERIES_SHA256),
            (WALKS, WALK_SERIES_SHA256))
    for name, sha256 in pins:
        if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != sha256:
            differ.append(name)
    assert differ == [], f"Python 3.{minor} ({exe}) changed {differ}"
