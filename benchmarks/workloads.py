"""The three benchmark workloads.

Each workload is a closed loop: one caller, and the next unit starts
after the last one completed.  A workload object has four steps, and
only ``run`` is timed:

``__init__(seed, work)``  benchmark-side input generation from the seed
``setup(api)``            builds the start state through toroid's API;
                          timed as part of ``setup_s``
``prepare(i)``            draws the inputs of unit ``i``
``run(unit)``             calls the program; the timed region
``check(unit, out)``      verifies the unit's outputs and returns the
                          number of throughput items it completed

``api`` is a namespace holding the imported toroid modules.  Workloads
call into them through module attributes (``api.cli.main``), so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import replace
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

UNIT = 10**9


class CheckFailed(Exception):
    """A unit's output broke one of the workload's checks."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _ppb(text: str) -> int:
    return int(Decimal(text).scaleb(9))


def _raw(value) -> int:
    """Raw integer of an Amount, or the value itself if already an int."""
    return getattr(value, "raw", value)


def market_csv(seed: int, rows: int) -> str:
    """A geometric random walk like the bundled sample: drift 0.15%/day,
    volatility 5%/day, transaction counts growing with time and price."""
    rng = random.Random(seed)
    price = 100.0
    day = date(2017, 1, 1)
    lines = ["date,price,tx_count"]
    for t in range(rows):
        if t:
            z = sum(rng.random() for _ in range(12)) - 6.0
            price *= math.exp(0.0015 + 0.05 * z)
        wobble = 1.0 + 0.1 * (rng.random() - 0.5)
        tx_count = max(1, int(4.0 * (t + 10) * price * wobble))
        lines.append(f"{day + timedelta(days=t)},{price:.9f},{tx_count}")
    return "\n".join(lines) + "\n"


class Backtest:
    """The analyst's path: ``toroid simulate`` over 500-row daily series.

    Units cycle through a pool of independently seeded series, so each
    series runs several times and every repeat must reproduce the first
    output byte for byte.
    """

    name = "backtest"
    item = "periods"
    trace_units = 12

    def __init__(self, seed: int, work: Path, pool: int = 32, rows: int = 500):
        rng = random.Random(seed)
        self.work = work
        self.inputs = []
        for k in range(pool):
            path = work / f"market-{k}.csv"
            text = market_csv(rng.randrange(2**32), rows)
            path.write_text(text, encoding="utf-8")
            prices = [float(line.split(",")[1]) for line in text.splitlines()[2:]]
            self.inputs.append((path, prices))
        self.digests: dict[int, bytes] = {}

    def setup(self, api) -> None:
        self.api = api
        self.cfg = api.controller.load_config(api.root / "data" / "default.cfg")

    def prepare(self, i: int):
        k = i % len(self.inputs)
        path, _ = self.inputs[k]
        out = self.work / f"series-{k}.csv"
        argv = ["simulate", "--data", str(path),
                "--config", str(self.api.root / "data" / "default.cfg"),
                "--initial-supply", "10000", "--out", str(out),
                "--gas-cost-trd", "0.1"]
        return k, out, argv

    def run(self, unit):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.api.cli.main(unit[2])

    def check(self, unit, code) -> int:
        k, out, _ = unit
        _require(code == 0, f"simulate exited {code}")
        data = out.read_bytes()
        digest = hashlib.sha256(data).digest()
        _require(self.digests.setdefault(k, digest) == digest,
                 f"series {k} differs from its first run")
        peg = self.cfg.peg_ratio.ppb / UNIT
        prices = self.inputs[k][1]
        lines = data.decode("utf-8").splitlines()[1:]
        _require(len(lines) == len(prices), "one row per period")
        for line, base in zip(lines, prices):
            f = line.split(",")
            _require(float(f[1]) <= peg * base * (1 + 1e-9) + 1e-9,
                     f"price above the peg ceiling: {line}")
            r_initial, r_cap, r_combined = _ppb(f[3]), _ppb(f[5]), _ppb(f[6])
            _require(abs(r_combined - r_initial) <= r_cap,
                     f"volume response beyond the gas cap: {line}")
        return len(lines)


class AttackSweep:
    """The economic verdict path: sweeps of randomized protected attacks.

    A unit is one sweep of ``size`` scenarios, rendered with
    ``render_reports_csv``.  Scenarios are drawn like the acceptance sweep:
    Sybil injection into a quiet system (4 in 7) and pump-and-dump with
    honest background volume (3 in 7).
    """

    name = "attack_sweep"
    item = "scenarios"
    trace_units = 12

    def __init__(self, seed: int, work: Path, size: int = 50):
        self.rng = random.Random(seed)
        self.size = size

    def setup(self, api) -> None:
        self.api = api
        self.cfg = api.controller.load_config(api.root / "data" / "default.cfg")

    def prepare(self, i: int):
        return [self._scenario(f"{i}.{k}") for k in range(self.size)]

    def _scenario(self, scenario_id: str):
        rng, tokens = self.rng, self.api.numerics.Amount.from_tokens
        supply = rng.randrange(1_000, 10_000_001)
        if rng.random() < 4 / 7:
            scenario = self.api.adversary.SybilScenario(
                delta_v_per_period=rng.randrange(1, 1_000_001),
                periods=rng.randrange(1, 7),
                baseline_v=0,
                start_supply=tokens(supply),
                attacker_holdings=tokens(rng.randrange(0, supply + 1)),
                start_period=rng.randrange(90, 401),
            )
            return f"s{scenario_id}", scenario, None
        delta_v = rng.randrange(100, 1_000_001)
        buy = rng.randrange(1, 4)
        sell = buy + rng.randrange(1, 5)
        scenario = self.api.adversary.SybilScenario(
            delta_v_per_period=delta_v,
            periods=sell,
            baseline_v=rng.randrange(0, min(delta_v, 1000) + 1),
            start_supply=tokens(supply),
            attacker_holdings=tokens(rng.randrange(0, supply // 2 + 1)),
            start_period=rng.randrange(90, 201),
        )
        return f"p{scenario_id}", scenario, (buy, sell)

    def run(self, sweep):
        adversary, cfg = self.api.adversary, self.cfg
        entries = []
        for scenario_id, scenario, pump in sweep:
            if pump is None:
                report = adversary.run_sybil(scenario, cfg)
            else:
                report = adversary.run_pump_and_dump(scenario, pump[0], pump[1], cfg)
            entries.append((scenario_id, scenario, report))
        return entries, adversary.render_reports_csv(entries)

    def check(self, sweep, out) -> int:
        entries, text = out
        for scenario_id, scenario, report in entries:
            _require(not report.profitable, f"{scenario_id} is profitable")
            _require(report.net_profit_base <= scenario.periods,
                     f"{scenario_id} nets more than one raw unit per period")
        rows = text.splitlines()[1:]
        _require([r.split(",")[0] for r in rows] == [s[0] for s in sweep],
                 "report CSV rows do not match the sweep")
        _require(all(r.endswith(",false") for r in rows),
                 "report CSV marks a scenario profitable")
        return len(entries)

    def final_checks(self) -> dict[str, bool]:
        """With the gas cap off, the acceptance contrast case profits."""
        tokens = self.api.numerics.Amount.from_tokens
        exploit = self.api.adversary.SybilScenario(
            delta_v_per_period=10_000, periods=1, baseline_v=100,
            start_supply=tokens(10_000), attacker_holdings=tokens(5_000),
            start_period=90,
        )
        report = self.api.adversary.run_sybil(
            exploit, replace(self.cfg, gas_cap_enabled=False))
        return {"cap-off contrast case profits": report.profitable}


class LedgerBook:
    """An embedded ledger: one long-lived book, one unit per period.

    Each period makes ~1,500 ledger calls: transfers, each preceded by a
    balance read of the sender, plain reads, deposits, new accounts and
    withdrawals that are valid by construction, then closes with
    ``combined_rate`` and ``rebase``.  The benchmark mirrors the minted
    amounts and collateral it was told about and checks the ledger
    against them after every period.
    """

    name = "ledger_book"
    item = "ledger calls"
    trace_units = 10

    def __init__(self, seed: int, work: Path, accounts: int = 10_000,
                 transfers: int = 600, reads: int = 150, deposits: int = 60,
                 opens: int = 2, withdrawals: int = 40):
        self.rng = random.Random(seed)
        self.opening = [self.rng.randrange(UNIT, 1000 * UNIT) for _ in range(accounts)]
        self.mix = (transfers, reads, deposits, opens, withdrawals)

    def setup(self, api) -> None:
        self.api = api
        self.cfg = api.controller.RebaseConfig()
        self.ledger = api.ledger.Ledger(self.cfg.peg_ratio, start_period=90)
        amount = api.numerics.Amount
        self.ids, self.collateral = [], []
        self.minted_total = 0
        for c in self.opening:
            account_id, minted = self.ledger.open_account(amount(c))
            self.ids.append(account_id)
            self.collateral.append(c)
            self.minted_total += _raw(minted)
        self.supply = _raw(self.ledger.total_supply())
        self.v_prev = 0
        # Accounts old enough to withdraw; the opening book matures once
        # its first period closes.
        self.mature = 0

    def prepare(self, i: int):
        rng, n = self.rng, len(self.ids)
        transfers, reads, deposits, opens, withdrawals = self.mix
        ops = [("transfer", *rng.sample(range(n), 2), rng.randrange(1, 513))
               for _ in range(transfers)]
        ops += [("read", rng.randrange(n)) for _ in range(reads)]
        ops += [("deposit", rng.randrange(n), rng.randrange(1, 100 * UNIT))
                for _ in range(deposits)]
        ops += [("open", rng.randrange(UNIT, 1000 * UNIT)) for _ in range(opens)]
        ops += [("withdraw", k, rng.randrange(1, 1025))
                for k in rng.sample(range(self.mature), min(withdrawals, self.mature))]
        rng.shuffle(ops)
        return ops

    def run(self, ops):
        """One period; returns (ledger calls, transfers, events, supply)."""
        ledger, ids, amount = self.ledger, self.ids, self.api.numerics.Amount
        peg = self.cfg.peg_ratio.ppb
        calls = transfers = 0
        events = []
        for op in ops:
            kind = op[0]
            if kind == "transfer":
                src = ids[op[1]]
                balance = ledger.balance_of(src).raw
                ledger.transfer(src, ids[op[2]], amount(balance * op[3] // 1024))
                calls += 2
                transfers += 1
            elif kind == "read":
                ledger.balance_of(ids[op[1]])
                calls += 1
            elif kind == "deposit":
                events.append(("mint", op[1], op[2],
                               ledger.deposit(ids[op[1]], amount(op[2]))))
                calls += 1
            elif kind == "open":
                account_id, minted = ledger.open_account(amount(op[1]))
                events.append(("open", account_id, op[1], minted))
                calls += 1
            else:
                balance = ledger.balance_of(ids[op[1]]).raw
                out = min(self.collateral[op[1]], balance * peg // UNIT) * op[2] // 1024
                if out:
                    events.append(("burn", op[1], out,
                                   ledger.withdraw(ids[op[1]], amount(out))))
                    calls += 1
                calls += 1
        metrics = self.api.controller.PeriodMetrics(
            t=ledger.current_period, v=transfers, v_prev=self.v_prev,
            s=amount(self.supply))
        rate = self.api.controller.combined_rate(metrics, self.cfg)
        supply = ledger.rebase(rate.r_combined)
        return calls + 1, transfers, events, supply

    def check(self, ops, out) -> int:
        calls, transfers, events, supply = out
        peg = self.cfg.peg_ratio.ppb
        for kind, who, collateral, minted in events:
            _require(_raw(minted) * peg == collateral * UNIT,
                     f"{kind} of {collateral} raw collateral minted {minted}")
            if kind == "open":
                self.ids.append(who)
                self.collateral.append(collateral)
                self.minted_total += _raw(minted)
            elif kind == "mint":
                self.collateral[who] += collateral
                self.minted_total += _raw(minted)
            else:
                self.collateral[who] -= collateral
                self.minted_total -= _raw(minted)
        total_collateral = _raw(self.ledger.total_collateral)
        _require(total_collateral == sum(self.collateral),
                 "ledger collateral differs from the deposits made")
        _require(total_collateral * UNIT == self.minted_total * peg,
                 "collateral != minted x peg")
        self.supply = _raw(supply)
        owned = sum(_raw(self.ledger.balance_of(a)) for a in self.ids)
        _require(0 <= self.supply - owned <= len(self.ids),
                 f"supply {self.supply} vs balances {owned} of {len(self.ids)} accounts")
        self.v_prev = transfers
        self.mature = len(self.ids)
        return calls


WORKLOADS = {w.name: w for w in (Backtest, AttackSweep, LedgerBook)}
