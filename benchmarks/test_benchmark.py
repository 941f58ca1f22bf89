"""Smoke tests for the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import tracing
from tracing import Tracer
from workloads import AttackSweep, Backtest, LedgerBook

TINY = {
    "backtest": lambda seed, work: Backtest(seed, work, pool=2, rows=40),
    "attack_sweep": lambda seed, work: AttackSweep(seed, work, size=5),
    "ledger_book": lambda seed, work: LedgerBook(
        seed, work, accounts=60, transfers=20, reads=5, deposits=3, opens=2,
        withdrawals=3),
}


@pytest.fixture
def api():
    # A fresh import per test: run.main() re-imports toroid, and the tracer
    # wraps whatever sys.modules holds.
    return run.import_toroid()


def tiny(name, api, work, seed=3):
    workload = TINY[name](seed, work)
    workload.setup(api)
    return workload


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_passes_its_checks(name, api, tmp_path):
    workload = tiny(name, api, tmp_path)
    times, items, failures, refs = run.measure(workload, units=12)
    assert failures == []
    assert len(times) == len(refs) == 12 and min(items) >= 1
    assert all(getattr(workload, "final_checks", dict)().values())


def test_golden_outputs_match(api, tmp_path):
    assert all(run.golden_checks(api, tmp_path).values())


def test_broken_output_check_counts_as_failure(api, tmp_path):
    workload = tiny("ledger_book", api, tmp_path)
    workload.ledger.total_collateral = api.numerics.Amount(1)
    _, _, failures, _ = run.measure(workload, units=1)
    assert len(failures) == 1 and "collateral" in failures[0]


def traced_layers(name, api, work):
    tracer = Tracer()
    tracer.install()
    try:
        _, _, failures, _ = run.measure(tiny(name, api, work), units=6, tracer=tracer)
    finally:
        tracer.restore()
    assert failures == []
    return {k: v for k, v in tracer.layer_metrics().items() if not k.endswith("self_ms")}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_for_a_seed(name, api, tmp_path):
    first = traced_layers(name, api, tmp_path)
    assert first == traced_layers(name, api, tmp_path)
    assert first["numerics.Amount.constructed"] > 0


def test_ledger_book_scans_every_account_once_per_period(api, tmp_path):
    layers = traced_layers("ledger_book", api, tmp_path)
    assert layers["ledger.rebase.calls"] == 6
    # 60 opening accounts plus 2 opened per period, scanned at each close.
    assert layers["ledger.total_supply.accounts_scanned"] == sum(
        60 + 2 * p for p in range(1, 7))
    assert layers["controller.combined_rate.calls"] == 6


def namespaces():
    modules = [m for n, m in sys.modules.items() if n.startswith("toroid")]
    ledger, numerics = sys.modules["toroid.ledger"], sys.modules["toroid.numerics"]
    return modules + [ledger.Ledger, numerics.Amount]


def bindings():
    return {(id(ns), name): value
            for ns in namespaces() for name, value in vars(ns).items()}


def test_tracer_restores_every_name_it_wrapped(api):
    before = bindings()
    tracer = Tracer()
    tracer.install()
    wrapped = {key for key, value in bindings().items() if value is not before[key]}
    # Every spanned function, at each module that binds it, plus the two counters.
    assert len(wrapped) > len(tracing.SPANNED) + 2
    tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_main_prints_the_result_contract(capsys):
    assert run.main(["--workload", "attack_sweep", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_UNITS
    assert set(result["metrics"]) == {
        "throughput", "unit_ms_p50", "unit_ms_p90", "setup_s", "peak_rss_mb",
        "success_ratio"}
