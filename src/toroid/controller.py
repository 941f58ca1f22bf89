"""Per-period rebasement rate computation.

The combined rate has three ingredients: a decaying bootstrap incentive
1/(t + t0), a volume response driven by the ratio of consecutive
transaction counts, and a gas-cost cap that clamps the volume response so
that the supply change attributable to transaction count, valued at the
peg, can never exceed the gas burned to produce those transactions.  That
clamp is what makes count manipulation uneconomical.

Each rule is written once, as a private integer form taking and giving
ppb.  combined_rate boxes them into a RateBreakdown, volume_rate boxes
the volume response alone, and PeriodMetrics, a record of int period and
counts and an Amount supply, is the one check that they are >= 0.
_combined_ppb composes the rules into the four rates as bare ints: a
backtest period and an attack arm's period are that integer rate rule
and then Ledger._rebase_raw, with no rate record built.

All functions here are pure and stateless; sweeps over scenarios can call
them from as many threads as they like.
"""

from __future__ import annotations

import math
from dataclasses import fields
from decimal import ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

from .errors import (
    AmountOverflowError,
    ConfigError,
    InvalidArgumentError,
    ZeroSupplyError,
    decode_utf8,
)
from .numerics import UNIT, Amount, Rate, record

# Natural-log precision (decimal digits) of the exact volume response.
# Decimal ln is correctly rounded, so _volume_rate_exact floors to the same
# ppb on every platform.  It is the fallback of volume_rate's float fast
# path and the oracle the tests hold that fast path to.
_LN_PRECISION = 50

# The fast path runs only where its inputs are exact: both counts below
# 2**53, so each converts to a float exactly and v / v_prev is one correctly
# rounded division; |k_v| below 2**40 ppb, so with |ln(v / v_prev)| < 37 the
# estimate stays below 2**46, far below 2**53, past which floats skip integers.
# At |k_v| >= 2**40 the guard below is at least 1 and could never pass.
_FAST_COUNT_LIMIT = 2**53
_FAST_GAIN_LIMIT = 2**40

# Guard band of the fast path (Ziv's rounding test).  Write x = v / v_prev,
# K = k_v in ppb (an integer, exact as a float), u = 2**-53 and the target
# T = K ln x.  The estimate carries three errors:
#   - the quotient: q = fl(x) = x (1 + d), |d| <= u, so |ln q - ln x| <= 1.01 u;
#   - libm: L = log(q) is trusted only to |L - ln q| <= 2**-44 (1 + |ln q|),
#     an absolute and a relative budget of at least 256 ulp, far above the
#     few-ulp error of any real libm;
#   - the product: est = fl(L K) = L K (1 + e), |e| <= u.
# With |K| |L| <= |est| (1 + 2u) these sum to
#   |est - T| <= |K| |L - ln x| + u |est| (1 + 2u) < (|K| + |est|) 2**-43.
# The guard (|K| + |est|) 2**-40 is eight times that bound, which also
# absorbs the rounding of est -+ guard (relative u) and the oracle's own
# 50-digit error.  So when floor(est - guard) == floor(est + guard) == n,
# both T and the oracle's value lie in [n, n + 1), and n is the oracle's
# result.
_GUARD_SCALE = 2.0**-40

# Combined rate never goes below -0.99: one period can never wipe more
# than 99% of supply, whatever the configuration.
HARD_FLOOR_PPB = -990_000_000

@record
class RebaseConfig:
    """All controller constants.

    t0                 initial-rate offset: first period grows 1/t0
    bootstrap_periods  periods in which rebasement cannot go negative; 0 for none
    k_v                gain on the log volume ratio
    gas_cost_base      base-coin cost of one transaction (raw units)
    peg_ratio          base coin per TRD (the one-way peg ceiling)
    gas_cap_enabled    clamp the volume response to the gas cap
    """

    t0: int = 10
    bootstrap_periods: int = 90
    k_v: Rate = Rate(100_000_000)
    gas_cost_base: Amount = Amount(400_000)
    peg_ratio: Rate = Rate(100_000_000)
    gas_cap_enabled: bool = True

    def __post_init__(self) -> None:
        if self.t0 < 1:
            raise ConfigError(f"t0: must be >= 1, got {self.t0}")
        if self.peg_ratio.ppb <= 0:
            raise ConfigError("peg_ratio: must be positive")
        if self.gas_cost_base.raw <= 0:
            raise ConfigError("gas_cost_base: must be positive")
        if self.bootstrap_periods < 0:
            raise ConfigError("bootstrap_periods: must be >= 0")

    def _gas_cost_trd_raw(self) -> int:
        """Per-transaction gas cost in raw TRD at the peg, flooring."""
        return self.gas_cost_base.raw * UNIT // self.peg_ratio.ppb


@record
class PeriodMetrics:
    """Endogenous inputs measured over one period.

    t       period ordinal since launch
    v       transfer count this period
    v_prev  transfer count the previous period
    s       total TRD supply at period start
    """

    t: int
    v: int
    v_prev: int
    s: Amount

    def __post_init__(self) -> None:
        t, v, v_prev = self.t, self.v, self.v_prev
        if t < 0:
            raise InvalidArgumentError(f"period must be >= 0, got {t}")
        if v < 0 or v_prev < 0:
            raise InvalidArgumentError(
                f"transaction counts must be >= 0, got v={v}, v_prev={v_prev}"
            )


@record
class RateBreakdown:
    """combined_rate's result: the three rules' rates and their combination."""

    r_initial: Rate
    r_vol: Rate
    r_gas_cap: Rate
    r_combined: Rate


def _initial_ppb(t: int, cfg: RebaseConfig) -> int:
    return UNIT // (t + cfg.t0)


def _gas_cap_ppb(v: int, s_raw: int, cfg: RebaseConfig) -> int:
    if s_raw == 0:
        raise ZeroSupplyError("gas cap undefined at zero supply")
    return v * cfg._gas_cost_trd_raw() * UNIT // s_raw


def _volume_ppb(v: int, v_prev: int, k: int) -> int:
    v = v if v > 1 else 1
    v_prev = v_prev if v_prev > 1 else 1
    if v == v_prev:
        return 0
    if (
        v < _FAST_COUNT_LIMIT
        and v_prev < _FAST_COUNT_LIMIT
        and -_FAST_GAIN_LIMIT < k < _FAST_GAIN_LIMIT
    ):
        est = math.log(v / v_prev) * k
        guard = (abs(k) + abs(est)) * _GUARD_SCALE
        low = math.floor(est - guard)
        if low == math.floor(est + guard):
            return low
    return _volume_rate_exact(v, v_prev, k)


def volume_rate(m: PeriodMetrics, cfg: RebaseConfig) -> Rate:
    """Volume response k_v * ln(v / v_prev), both counts floored at 1.

    Floored to ppb (toward negative infinity), so negative responses are
    conservatively deepened by at most one ppb.  Zero when the counts are
    equal; sign otherwise matches the direction of the change, except that
    sub-ppb positive responses floor to zero.

    The result always equals _volume_rate_exact, the 50-digit Decimal
    evaluation.  A float estimate from math.log is returned when its guard
    band, proved to exceed the estimate's worst-case error, floors to one
    integer; otherwise, and for counts or gains outside the fast path's
    exact range, the Decimal path computes the result.
    """
    return Rate(_volume_ppb(m.v, m.v_prev, cfg.k_v.ppb))


def _volume_rate_exact(v: int, v_prev: int, k_ppb: int) -> int:
    """k_ppb * ln(v / v_prev) floored to an integer, ln at _LN_PRECISION digits.

    The fallback of volume_rate and the oracle its fast path is tested
    against.  Counts must be positive.
    """
    with localcontext() as ctx:
        ctx.prec = _LN_PRECISION
        ln_ratio = (Decimal(v) / Decimal(v_prev)).ln()
        scaled = ln_ratio * k_ppb
        return int(scaled.to_integral_value(rounding=ROUND_FLOOR))


def _combine_ppb(
    t: int, r_initial: int, r_vol: int, r_gas_cap: int, cfg: RebaseConfig
) -> int:
    body = r_vol
    if cfg.gas_cap_enabled:
        # Clamp the volume response into [-r_gas_cap, +r_gas_cap].  Both
        # tests run: for a negative r_gas_cap the second overrides the
        # first, as max(-cap, min(cap, body)) does.
        if body > r_gas_cap:
            body = r_gas_cap
        if body < -r_gas_cap:
            body = -r_gas_cap
    combined = r_initial + body
    if combined < 0 and t < cfg.bootstrap_periods:
        combined = 0
    if combined < HARD_FLOOR_PPB:
        combined = HARD_FLOOR_PPB
    return combined


def _combined_ppb(
    t: int, v: int, v_prev: int, s_raw: int, cfg: RebaseConfig
) -> tuple[int, int, int, int]:
    """combined_rate(PeriodMetrics(t, v, v_prev, Amount(s_raw)), cfg) as bare ppb.

    (r_initial, r_vol, r_gas_cap, r_combined), from the same four rules
    with no record built: the backtest kernel reads all four and the
    attack arms the last.  The arguments are taken as valid: t, v and
    v_prev ints >= 0, and s_raw an Amount's raw value.
    """
    r_i = _initial_ppb(t, cfg)
    r_v = _volume_ppb(v, v_prev, cfg.k_v.ppb)
    r_cap = _gas_cap_ppb(v, s_raw, cfg)
    return r_i, r_v, r_cap, _combine_ppb(t, r_i, r_v, r_cap, cfg)


def combined_rate(m: PeriodMetrics, cfg: RebaseConfig) -> RateBreakdown:
    """Full per-period rate: incentive plus gas-capped volume response.

    The gas cap is computed (and reported) even when clamping is disabled,
    so uncapped runs still expose how far they stray past it.  The volume
    response comes from volume_rate itself, so a caller that wraps it sees
    every period; PeriodMetrics has already checked the period and counts.
    """
    r_i = _initial_ppb(m.t, cfg)
    r_v = volume_rate(m, cfg)
    r_cap = _gas_cap_ppb(m.v, m.s.raw, cfg)
    return RateBreakdown(
        Rate(r_i), r_v, Rate(r_cap), Rate(_combine_ppb(m.t, r_i, r_v.ppb, r_cap, cfg))
    )


# --- configuration files ------------------------------------------------

_TRUE_WORDS = {"true", "yes", "1", "on"}
_FALSE_WORDS = {"false", "no", "0", "off"}


def _parse_bool(raw: str) -> bool:
    word = raw.lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


# How a value of each RebaseConfig field type is read from and written to
# the config format, keyed by the type of the field's default.
_CODECS = {
    int: (int, str),
    bool: (_parse_bool, lambda b: "true" if b else "false"),
    Rate: (Rate.from_decimal, Rate.decimal),
    Amount: (Amount.from_tokens, Amount.tokens),
}


def parse_config(text: str) -> RebaseConfig:
    """Parse flat key = value configuration text.

    The keys are exactly RebaseConfig's fields.  Rates are decimal strings,
    amounts are decimal token counts, and unknown keys are rejected.  Blank
    lines and '#' comments are ignored.
    """
    defaults = {f.name: f.default for f in fields(RebaseConfig)}
    kwargs: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, raw = stripped.partition("=")
        if not eq:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key = key.strip()
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in kwargs:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        read = _CODECS[type(defaults[key])][0]
        try:
            kwargs[key] = read(raw.strip())
        except (ValueError, AmountOverflowError) as exc:
            raise ConfigError(f"{key}: {exc}", line=lineno) from exc
        try:
            # Every range check involves one field, so the defaults with
            # this one value replaced fail exactly when the value does.
            RebaseConfig(**{key: kwargs[key]})
        except ConfigError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
    return RebaseConfig(**kwargs)


def load_config(path: str | Path) -> RebaseConfig:
    data = Path(path).read_bytes()
    return parse_config(decode_utf8(data, ConfigError))


def dump_config(cfg: RebaseConfig) -> str:
    """Render a config back to the flat key = value format."""
    return "".join(
        f"{f.name} = {_CODECS[type(f.default)][1](getattr(cfg, f.name))}\n"
        for f in fields(RebaseConfig)
    )
