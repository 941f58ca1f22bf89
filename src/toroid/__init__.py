"""Toroid: a deterministic simulator for a collateral-backed, one-way-pegged
elastic-supply token with gas-cost-capped rebasement and an adversary
harness for pricing volume-manipulation attacks."""

from .adversary import (
    AttackReport,
    SybilScenario,
    render_reports_csv,
    run_pump_and_dump,
    run_sybil,
    sybil_cost,
)
from .controller import (
    PeriodMetrics,
    RateBreakdown,
    RebaseConfig,
    combined_rate,
    load_config,
    parse_config,
    volume_rate,
)
from .errors import ToroidError
from .harness import (
    MarketRow,
    PeriodRecord,
    load_market_csv,
    run_backtest,
    write_series_csv,
)
from .ledger import Ledger
from .numerics import UNIT, Amount, Index, Rate, grow_index

__version__ = "0.1.0"

__all__ = [
    "Amount",
    "AttackReport",
    "Index",
    "Ledger",
    "MarketRow",
    "PeriodMetrics",
    "PeriodRecord",
    "Rate",
    "RateBreakdown",
    "RebaseConfig",
    "SybilScenario",
    "ToroidError",
    "UNIT",
    "combined_rate",
    "grow_index",
    "load_config",
    "load_market_csv",
    "parse_config",
    "render_reports_csv",
    "run_backtest",
    "run_pump_and_dump",
    "run_sybil",
    "sybil_cost",
    "volume_rate",
    "write_series_csv",
    "__version__",
]
