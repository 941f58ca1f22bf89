"""Per-layer tracing from outside the program.

The tracer wraps toroid's public functions at every name their callers
bind (``toroid.harness.combined_rate`` as well as
``toroid.controller.combined_rate``, methods on the ``Ledger`` class),
records one span per call and a few counts observed at the same
boundaries, and puts every original back on ``restore()``.  Nothing in
``src/`` knows it is being traced, and an untraced run executes the
unmodified code.

Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` with
``parent`` the index of the enclosing span (-1 for a root) and are only
written out by ``write_spans`` when the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded and nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (metric prefix, module, attribute) of every function that gets a span.
# "Ledger.x" names a method, patched on the class.
SPANNED = (
    ("controller.volume_rate", "toroid.controller", "volume_rate"),
    ("controller.combined_rate", "toroid.controller", "combined_rate"),
    ("ledger.total_supply", "toroid.ledger", "Ledger.total_supply"),
    ("ledger.rebase", "toroid.ledger", "Ledger.rebase"),
    ("ledger.transfer", "toroid.ledger", "Ledger.transfer"),
    ("ledger.balance_of", "toroid.ledger", "Ledger.balance_of"),
    ("ledger.open_account", "toroid.ledger", "Ledger.open_account"),
    ("ledger.deposit", "toroid.ledger", "Ledger.deposit"),
    ("ledger.withdraw", "toroid.ledger", "Ledger.withdraw"),
    ("numerics.grow_index", "toroid.numerics", "grow_index"),
    ("market.step_price", "toroid.market", "step_price"),
    ("harness.load_market_csv", "toroid.harness", "load_market_csv"),
    ("harness.run_backtest", "toroid.harness", "run_backtest"),
    ("harness.write_series_csv", "toroid.harness", "write_series_csv"),
    ("cli.main", "toroid.cli", "main"),
    ("adversary.run_sybil", "toroid.adversary", "run_sybil"),
    ("adversary.run_pump_and_dump", "toroid.adversary", "run_pump_and_dump"),
    ("adversary.render_reports_csv", "toroid.adversary", "render_reports_csv"),
)

# Counts observed at the span boundaries, reported next to the spans.
COUNTED = (
    "controller.volume_rate.ln_calls",
    "ledger.total_supply.accounts_scanned",
    "numerics.Amount.constructed",
    "numerics.index_bits_max",
    "market.peg_clamped",
    "adversary.scenarios_profitable",
)


class Tracer:
    """Records spans and counts while installed and ``active``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the toroid modules loaded right now."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "toroid" or name.startswith("toroid."))
        ]
        for metric, module_name, attr in SPANNED:
            module = sys.modules[module_name]
            if attr.startswith("Ledger."):
                name = attr.split(".", 1)[1]
                self._set(module.Ledger, name,
                          self._span_wrapper(metric, vars(module.Ledger)[name]))
            else:
                original = getattr(module, attr)
                wrapper = self._span_wrapper(metric, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, name, wrapper)
        numerics = sys.modules["toroid.numerics"]
        ledger_cls = sys.modules["toroid.ledger"].Ledger
        if "__post_init__" in vars(numerics.Amount):
            self._set(numerics.Amount, "__post_init__",
                      self._amount_counter(vars(numerics.Amount)["__post_init__"]))
        # Per-account conversions made inside total_supply are the accounts
        # it scans; the helper is private, so it is counted only if present.
        if "_shares_to_balance" in vars(ledger_cls):
            self._set(ledger_cls, "_shares_to_balance",
                      self._scan_counter(vars(ledger_cls)["_shares_to_balance"]))

    def restore(self) -> None:
        """Put back every name ``install`` replaced, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _set(self, owner: object, name: str, wrapper: object) -> None:
        """Replace a name that ``owner`` itself defines."""
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, metric: str, fn):
        observe = _OBSERVERS.get(metric)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [metric, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def _amount_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def post_init(amount):
            if self.active:
                counts["numerics.Amount.constructed"] += 1
            return fn(amount)

        return post_init

    def _scan_counter(self, fn):
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def shares_to_balance(ledger, shares):
            if self.active and stack and spans[stack[-1]][0] == "ledger.total_supply":
                counts["ledger.total_supply.accounts_scanned"] += 1
            return fn(ledger, shares)

        return shares_to_balance

    # -- recording --------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """A benchmark-side span that parents the calls made inside it."""
        span = [name, time.perf_counter_ns(), 0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time (ms) and counts per spanned function."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, _, _ in SPANNED:
            out[f"{metric}.calls"] = calls[metric]
            out[f"{metric}.self_ms"] = self_ns[metric] / 1e6
        for metric in COUNTED:
            out[metric] = self.counts[metric]
        return out

    def write_spans(self, path: Path) -> None:
        lines = ["name,start_ns,end_ns,parent"]
        lines.extend(f"{n},{s},{e},{p}" for n, s, e, p in self.spans)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _observe_volume_rate(counts, args, result) -> None:
    # The log is evaluated only when the floored counts differ.
    m = args[0]
    if max(m.v, 1) != max(m.v_prev, 1):
        counts["controller.volume_rate.ln_calls"] += 1


def _observe_grow_index(counts, args, result) -> None:
    bits = max(result.num.bit_length(), result.den.bit_length())
    if bits > counts["numerics.index_bits_max"]:
        counts["numerics.index_bits_max"] = bits


def _observe_step_price(counts, args, result) -> None:
    cfg = args[3]
    if result.trd_price == (cfg.peg_ratio.ppb / 10**9) * result.base_price:
        counts["market.peg_clamped"] += 1


def _observe_report(counts, args, result) -> None:
    if result.profitable:
        counts["adversary.scenarios_profitable"] += 1


_OBSERVERS = {
    "controller.volume_rate": _observe_volume_rate,
    "numerics.grow_index": _observe_grow_index,
    "market.step_price": _observe_step_price,
    "adversary.run_sybil": _observe_report,
    "adversary.run_pump_and_dump": _observe_report,
}
