"""Benchmark runner: one workload, one seed, one JSON line of results.

    python3 benchmarks/run.py --workload backtest --seed 1 --seconds 35 --trace 0

Run from anywhere; the toroid sources are imported from ``src/`` of the
checkout this file sits in.  With ``--trace 0`` the run measures the
end-to-end metrics with the program unmodified.  With ``--trace 1`` it
runs a fixed number of units per pass, alternating untraced and traced
passes for ``--seconds``, and reports per-layer calls, self time and
counts.  Either way every unit's outputs are checked outside the timed
region, and the bundled README commands are diffed byte for byte against
``benchmarks/golden``.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = HERE / "golden"

# Set-ups before and again after the measurement; setup_s is their median.
SETUP_REPEATS = 5
# At least 100 units, so the 90th percentile has ten samples beyond it.
MIN_UNITS = 100
MODULES = ("numerics", "controller", "ledger", "market", "harness", "adversary", "cli")

# The shared host runs in two speed states about 1.8x apart and switches
# between them every few seconds to minutes, so raw wall-clock figures of
# identical runs differ by that much.  A fixed pure-Python reference loop,
# timed before every unit and set-up, slows down with the host, and every
# reported time is rescaled to a host on which that loop takes
# REFERENCE_S.  The raw wall-clock figures are printed alongside.
REFERENCE_S = 0.001


@dataclass(frozen=True, slots=True)
class _Cell:
    key: str
    value: int


def reference_time() -> float:
    """Seconds the reference loop takes on the host right now."""
    t0 = time.perf_counter()
    book, total = {}, 1
    for i in range(300):
        total = (total * 6364136223846793005 + i) % (1 << 127)
        cell = _Cell(f"k{i % 64}", total)
        book[cell.key] = cell
    with localcontext() as ctx:
        ctx.prec = 50
        for k in range(8, 14):
            (Decimal(k) / 7).ln()
    return time.perf_counter() - t0


def host_scaled(times: list[float], refs: list[float], window: int = 4) -> list[float]:
    """Each time rescaled by the median reference time around it."""
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - window):i + window + 1])
            for i, t in enumerate(times)]


def import_toroid() -> SimpleNamespace:
    """Import toroid afresh from ``src/``; the import is part of set-up."""
    src = str(ROOT / "src")
    for name in [n for n in sys.modules if n == "toroid" or n.startswith("toroid.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    api = SimpleNamespace(root=ROOT)
    for name in MODULES:
        setattr(api, name, importlib.import_module(f"toroid.{name}"))
    location = Path(api.cli.__file__).resolve()
    if not location.is_relative_to(ROOT / "src"):
        raise ImportError(f"toroid was imported from {location}, not {src}")
    return api


def golden_commands(out: Path) -> dict[str, list[str]]:
    """The README's simulate and attack commands, by golden file name."""
    cfg = str(ROOT / "data" / "default.cfg")
    pump = ["attack", "pump-dump", "--delta-v", "100000", "--periods", "6",
            "--baseline-v", "100", "--supply", "10000", "--holdings", "5000",
            "--buy", "2", "--sell", "3", "--config", cfg]
    return {
        "simulate.csv": [
            "simulate", "--data", str(ROOT / "data" / "sample_market.csv"),
            "--config", cfg, "--initial-supply", "10000",
            "--out", str(out / "simulate.csv"), "--gas-cost-trd", "0.1"],
        "attack-sybil.csv": [
            "attack", "sybil", "--delta-v", "10000", "--periods", "1",
            "--baseline-v", "0", "--supply", "10000", "--holdings", "10000",
            "--config", cfg, "--out", str(out / "attack-sybil.csv")],
        "attack-pump-dump.csv": pump + ["--out", str(out / "attack-pump-dump.csv")],
        "attack-pump-dump-no-gas-cap.csv": pump + [
            "--out", str(out / "attack-pump-dump-no-gas-cap.csv"), "--no-gas-cap"],
    }


def golden_checks(api, out: Path) -> dict[str, bool]:
    results = {}
    for name, argv in golden_commands(out).items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = api.cli.main(argv)
        produced = out / name
        results[f"golden {name}"] = (
            code == 0 and produced.exists()
            and produced.read_bytes() == (GOLDEN / name).read_bytes()
        )
    return results


def measure(workload, *, seconds: float = 0.0, min_units: int = 0,
            units: int | None = None, tracer: Tracer | None = None):
    """Run units in a closed loop; returns per-unit times (s), per-unit
    items completed (0 for a failed unit), failure messages, and the
    reference time taken before each unit.

    Without ``units`` the loop runs until ``seconds`` have passed and at
    least ``min_units`` units completed.  Only ``workload.run`` is timed.
    """
    times: list[float] = []
    items: list[int] = []
    refs: list[float] = []
    failures: list[str] = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < units if units is not None else (
            i < min_units or clock() - start < seconds):
        unit = workload.prepare(i)
        refs.append(reference_time())
        out, error = None, None
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        try:
            if tracer is None:
                out = workload.run(unit)
            else:
                with tracer.root("unit"):
                    out = workload.run(unit)
        except Exception:
            error = traceback.format_exc()
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        done = 0
        if error is None:
            try:
                done = workload.check(unit, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failures.append(f"unit {i}: {error}")
            done = 0
        times.append(t1 - t0)
        items.append(done)
        i += 1
    return times, items, failures, refs


def block_rate(times: list[float], items: list[int], blocks: int = 20) -> float:
    """Median over consecutive blocks of units of items / time.

    The median keeps a pause on a shared host from moving the figure
    the way it moves a plain mean.
    """
    size = max(1, len(times) // blocks)
    return statistics.median(
        sum(items[i:i + size]) / sum(times[i:i + size])
        for i in range(0, len(times) - size + 1, size))


def end_to_end(cls, seed: int, seconds: float, min_units: int = MIN_UNITS):
    """Untraced run; returns (metrics, attempted, failures, api)."""
    workload = cls(seed, WORK)
    setup_times: list[float] = []
    setup_raw: list[float] = []

    def set_up(count: int):
        for _ in range(count):
            ref = statistics.median(reference_time() for _ in range(3))
            t0 = time.perf_counter()
            api = import_toroid()
            workload.setup(api)
            setup_raw.append(time.perf_counter() - t0)
            setup_times.append(setup_raw[-1] * REFERENCE_S / ref)
        return api

    set_up(SETUP_REPEATS)
    raw, items, failures, refs = measure(workload, seconds=seconds, min_units=min_units)
    times = host_scaled(raw, refs)
    # Set-ups after the measurement too, so the median spans the run
    # rather than one moment of a shared host.
    api = set_up(SETUP_REPEATS)
    checks = getattr(workload, "final_checks", dict)()
    failures += [name for name, ok in checks.items() if not ok]
    deciles = statistics.quantiles(times, n=10)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "throughput": (block_rate(times, items), "items/s"),
        "unit_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "unit_ms_p90": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    attempted = len(times) + len(checks)
    print(f"{cls.name}: {len(times)} units, {sum(items)} {cls.item} in "
          f"{sum(raw):.3f} s timed; throughput counts {cls.item}/s")
    print(f"  unscaled wall clock: throughput {block_rate(raw, items):.6g} items/s, "
          f"unit p50 {statistics.median(raw) * 1e3:.6g} ms, "
          f"p90 {statistics.quantiles(raw, n=10)[8] * 1e3:.6g} ms, "
          f"setup {statistics.median(setup_raw):.6g} s; "
          f"reference loop median {statistics.median(refs) * 1e3:.4g} ms")
    return metrics, attempted, failures, api


def traced(cls, seed: int, seconds: float):
    """Alternating untraced/traced passes over the same fixed units.

    Returns (metrics, attempted, failures, api).  Counts come from the
    first traced pass and must repeat exactly in every later one; times
    are medians over the passes.
    """
    units = cls.trace_units
    api = import_toroid()
    passes: list[dict[str, float]] = []
    plain_s: list[float] = []
    traced_s: list[float] = []
    failures: list[str] = []
    attempted = 0
    first = None
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        order = ("plain", "traced") if len(passes) % 2 == 0 else ("traced", "plain")
        for kind in order:
            workload = cls(seed, WORK)
            workload.setup(api)
            if kind == "plain":
                times, _, failed, refs = measure(workload, units=units)
                plain_s.append(sum(host_scaled(times, refs)))
            else:
                tracer = Tracer()
                tracer.install()
                try:
                    times, _, failed, refs = measure(workload, units=units, tracer=tracer)
                finally:
                    tracer.restore()
                traced_s.append(sum(host_scaled(times, refs)))
                passes.append(tracer.layer_metrics())
                if first is None:
                    first = tracer
            attempted += len(times)
            failures += failed
    counts = {k: v for k, v in passes[0].items() if not k.endswith(".self_ms")}
    for n, later in enumerate(passes[1:], start=2):
        if {k: later[k] for k in counts} != counts:
            failures.append(f"traced pass {n} counts differ from pass 1")
    first.write_spans(WORK / f"spans-{cls.name}-{seed}.csv")
    metrics = {}
    for name, value in passes[0].items():
        if name.endswith(".self_ms"):
            metrics[name] = (statistics.median(p[name] for p in passes), "ms")
        elif name == "numerics.index_bits_max":
            metrics[name] = (value, "bits")
        else:
            metrics[name] = (value, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(plain_s) / statistics.median(traced_s), "ratio")
    print(f"{cls.name}: {len(passes)} traced passes of {units} units; "
          f"spans in {WORK / f'spans-{cls.name}-{seed}.csv'}")
    return metrics, attempted, failures, api


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        run = traced if args.trace else end_to_end
        metrics, attempted, failures, api = run(cls, args.seed, args.seconds)
        checks = golden_checks(api, WORK)
    except ImportError as exc:
        print(f"cannot import toroid from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    finally:
        for path in WORK.glob("*.csv"):
            if not path.name.startswith("spans-"):
                path.unlink()
    failures += [name for name, ok in checks.items() if not ok]
    attempted += len(checks)
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not args.trace:
        metrics["success_ratio"] = ((attempted - len(failures)) / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
