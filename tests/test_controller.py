import math
import random
import re
from dataclasses import fields, replace
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid import controller
from toroid.controller import (
    HARD_FLOOR_PPB,
    PeriodMetrics,
    RebaseConfig,
    combined_rate,
    dump_config,
    parse_config,
    volume_rate,
)
from toroid.errors import ConfigError, ZeroSupplyError
from toroid.numerics import MAX_RAW, UNIT, Amount, Rate

from oracles import (
    combine_by_min_max,
    gas_cap_by_fraction,
    initial_rate_by_fraction,
    ppb_of,
)


# The 50-digit Decimal evaluation, bound before any test replaces it.
ORACLE = controller._volume_rate_exact


def metrics(v: int, v_prev: int, s_tokens: int, t: int = 0) -> PeriodMetrics:
    return PeriodMetrics(t=t, v=v, v_prev=v_prev, s=Amount.from_tokens(s_tokens))


@pytest.fixture
def exact_calls(monkeypatch) -> list[tuple[int, int, int]]:
    """Arguments of every call volume_rate makes to its Decimal fallback."""
    calls: list[tuple[int, int, int]] = []

    def spy(v: int, v_prev: int, k_ppb: int) -> int:
        calls.append((v, v_prev, k_ppb))
        return ORACLE(v, v_prev, k_ppb)

    monkeypatch.setattr(controller, "_volume_rate_exact", spy)
    return calls


def r_initial(t: int, cfg: RebaseConfig) -> Rate:
    return combined_rate(metrics(0, 0, 1, t=t), cfg).r_initial


class TestInitialRate:
    def test_launch_rate_is_ten_percent(self, cfg):
        assert r_initial(0, cfg) == Rate(100_000_000)

    def test_rate_after_ninety_periods_is_one_percent(self, cfg):
        assert r_initial(90, cfg) == Rate(10_000_000)

    def test_mid_bootstrap(self, cfg):
        # 1/(40 + 10) = 0.02
        assert r_initial(40, cfg) == Rate(20_000_000)

    def test_strictly_decreasing(self, cfg):
        rates = [controller._combined_ppb(t, 1, 1, 1, cfg)[0] for t in range(1000)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_custom_offset(self):
        cfg = RebaseConfig(t0=1)
        assert r_initial(0, cfg) == Rate(UNIT)


def r_gas_cap(m: PeriodMetrics, cfg: RebaseConfig) -> Rate:
    return combined_rate(m, cfg).r_gas_cap


class TestGasCapRate:
    def test_reference_cap(self, cfg):
        # 1e4 transactions over 10000 TRD: 40 TRD of headroom = 0.004
        assert r_gas_cap(metrics(10_000, 0, 10_000), cfg) == Rate(4_000_000)

    def test_zero_volume(self, cfg):
        assert r_gas_cap(metrics(0, 0, 10_000), cfg) == Rate(0)

    def test_hand_arithmetic(self, cfg):
        # 5000 * 0.004 / 20000
        assert r_gas_cap(metrics(5_000, 0, 20_000), cfg) == Rate(1_000_000)

    def test_zero_supply_rejected(self, cfg):
        with pytest.raises(ZeroSupplyError):
            r_gas_cap(PeriodMetrics(t=0, v=1, v_prev=0, s=Amount(0)), cfg)

    def test_linear_in_volume_inverse_in_supply(self, cfg):
        base = r_gas_cap(metrics(1_000, 0, 10_000), cfg).ppb
        assert r_gas_cap(metrics(2_000, 0, 10_000), cfg).ppb == 2 * base
        assert r_gas_cap(metrics(1_000, 0, 20_000), cfg).ppb == base // 2

    def test_gas_cost_trd_conversion(self, cfg):
        # 0.0004 base at peg 0.1 is 0.004 TRD: one transaction over 1 TRD
        assert r_gas_cap(metrics(1, 0, 1), cfg).ppb == Amount.from_tokens("0.004").raw


class TestVolumeRate:
    def test_flat_volume_is_zero(self, cfg):
        assert volume_rate(metrics(500, 500, 1), cfg) == Rate(0)

    def test_doubling(self, cfg):
        # k_v * ln 2; oracle recomputed at high precision below
        got = volume_rate(metrics(1000, 500, 1), cfg)
        with localcontext() as ctx:
            ctx.prec = 80
            oracle = int(Decimal(2).ln() * 100_000_000)
        assert got == Rate(69_314_718)
        assert abs(got.ppb - oracle) <= 1

    def test_both_zero_counts(self, cfg):
        # both floored to 1: ln 1 = 0
        assert volume_rate(metrics(0, 0, 1), cfg) == Rate(0)

    def test_sign_matches_direction(self, cfg):
        rng = random.Random(42)
        for _ in range(500):
            v = rng.randrange(0, 10**6)
            v_prev = rng.randrange(0, 10**6)
            got = volume_rate(metrics(v, v_prev, 1), cfg).ppb
            if max(v, 1) > max(v_prev, 1):
                assert got >= 0
            elif max(v, 1) < max(v_prev, 1):
                assert got < 0
            else:
                assert got == 0

    def test_halving_floors_downward(self, cfg):
        # negative values floor away from zero: one ppb deeper than -ln 2
        assert volume_rate(metrics(500, 1000, 1), cfg) == Rate(-69_314_719)

    def test_gain_scales_response(self):
        cfg = RebaseConfig(k_v=Rate.from_decimal("0.2"))
        assert volume_rate(metrics(1000, 500, 1), cfg) == Rate(138_629_436)


class TestVolumeRateOracle:
    """The float fast path must floor exactly as the Decimal oracle does."""

    COUNTS = st.one_of(
        st.integers(1, 1000),
        st.integers(2**53 - 4, 2**53 + 4),
        st.integers(1, 10**18),
    )

    def test_exhaustive_small_counts(self, cfg, exact_calls):
        k = cfg.k_v.ppb
        pairs = [(v, p) for v in range(1, 111) for p in range(1, 111) if v != p]
        for v, v_prev in pairs:
            got = volume_rate(metrics(v, v_prev, 1), cfg)
            assert got.ppb == ORACLE(v, v_prev, k), (v, v_prev)
        # the grid exercises the fast path, not only the fallback
        assert 0 < len(exact_calls) < len(pairs) // 100

    @settings(max_examples=400, deadline=None)
    @given(
        v=COUNTS,
        v_prev=COUNTS,
        k=st.one_of(
            st.integers(10**7, 10**9),
            st.integers(-(10**9), -(10**7)),
            st.integers(-10, 10),
            st.integers(2**40 - 4, 2**40 + 4),
            st.integers(-(2**40) - 4, -(2**40) + 4),
            st.integers(-(10**18), 10**18),
        ),
    )
    def test_matches_oracle(self, v, v_prev, k):
        got = volume_rate(metrics(v, v_prev, 1), RebaseConfig(k_v=Rate(k)))
        assert got.ppb == ORACLE(v, v_prev, k)

    @pytest.mark.parametrize(
        "v, v_prev, k, unguarded_error",
        [
            # default gain: the estimate sits 2.5e-4 from an integer
            (3, 98, 100_000_000, 0),
            # the unguarded estimate floors one too high
            (968, 651, 2**39, 1),
            (406, 95, -(2**39), 1),
        ],
    )
    def test_ambiguous_floor_falls_back(
        self, v, v_prev, k, unguarded_error, exact_calls
    ):
        oracle = ORACLE(v, v_prev, k)
        assert math.floor(math.log(v / v_prev) * k) - oracle == unguarded_error
        got = volume_rate(metrics(v, v_prev, 1), RebaseConfig(k_v=Rate(k)))
        assert got.ppb == oracle
        assert exact_calls == [(v, v_prev, k)]

    @pytest.mark.parametrize(
        "v, v_prev",
        [
            (2**53, 2**53 - 1),
            (3, 2**53 + 1),
            # past the float range: a float quotient overflows or vanishes
            (10**400, 7),
            (7, 10**400),
        ],
        ids=["v=2**53", "v_prev=2**53+1", "v=1e400", "v_prev=1e400"],
    )
    def test_large_count_falls_back(self, cfg, v, v_prev, exact_calls):
        got = volume_rate(metrics(v, v_prev, 1), cfg)
        assert got.ppb == ORACLE(v, v_prev, cfg.k_v.ppb)
        assert exact_calls == [(v, v_prev, cfg.k_v.ppb)]

    # 1e15 is the config value k_v = 1000000; at it an unguarded estimate
    # floors one too high.  10**400 does not convert to a float at all.
    @pytest.mark.parametrize(
        "k", [2**40, -(2**40), 10**15, -(10**400)], ids=["2**40", "-2**40", "1e15", "-1e400"]
    )
    def test_gain_past_bound_falls_back(self, k, exact_calls):
        got = volume_rate(metrics(783, 65, 1), RebaseConfig(k_v=Rate(k)))
        assert got.ppb == ORACLE(783, 65, k)
        assert exact_calls == [(783, 65, k)]


class TestCombineComponents:
    def test_positive_volume_clamps_to_cap(self, cfg):
        got = controller._combine_ppb(0, 100_000_000, 500_000_000, 4_000_000, cfg)
        assert got == 104_000_000

    def test_negative_volume_clamps_to_cap(self, cfg):
        got = controller._combine_ppb(0, 100_000_000, -500_000_000, 4_000_000, cfg)
        assert got == 96_000_000

    def test_zero_volume_passes_through(self, cfg):
        got = controller._combine_ppb(0, 100_000_000, 0, 4_000_000, cfg)
        assert got == 100_000_000

    def test_cap_disabled_passes_volume(self):
        cfg = RebaseConfig(gas_cap_enabled=False)
        got = controller._combine_ppb(0, 100_000_000, 500_000_000, 4_000_000, cfg)
        assert got == 600_000_000

    def test_bootstrap_floor(self, cfg):
        # inside bootstrap a negative combination floors at zero
        got = controller._combine_ppb(10, 1_000_000, -500_000_000, 400_000_000, cfg)
        assert got == 0

    def test_bootstrap_floor_disabled(self):
        cfg = RebaseConfig(bootstrap_periods=0)
        got = controller._combine_ppb(10, 1_000_000, -300_000_000, 400_000_000, cfg)
        assert got == -299_000_000

    def test_hard_floor(self):
        cfg = RebaseConfig(gas_cap_enabled=False, bootstrap_periods=0)
        got = controller._combine_ppb(0, 100_000_000, -3 * UNIT, 0, cfg)
        assert got == HARD_FLOOR_PPB

    @settings(max_examples=500, deadline=None)
    @given(
        r_initial=st.integers(),
        r_vol=st.integers(),
        r_gas_cap=st.integers(),
        bootstrap=st.integers(0, 400),
        # t on either side of the bootstrap window's end, and on it
        offset=st.integers(-3, 3) | st.integers(-400, 400),
        enabled=st.booleans(),
    )
    # A negative cap, with the body between, below and above its bounds:
    # min(-5, 0) = -5, then max(5, -5) = 5, so the lower bound has the last
    # word and a clamp that stops after the first bound is wrong.
    @example(r_initial=0, r_vol=0, r_gas_cap=-5, bootstrap=90, offset=10, enabled=True)
    @example(r_initial=0, r_vol=-7, r_gas_cap=-5, bootstrap=90, offset=10, enabled=True)
    @example(r_initial=0, r_vol=7, r_gas_cap=-5, bootstrap=0, offset=0, enabled=True)
    def test_matches_min_max_oracle(
        self, r_initial, r_vol, r_gas_cap, bootstrap, offset, enabled
    ):
        cfg = RebaseConfig(bootstrap_periods=bootstrap, gas_cap_enabled=enabled)
        t = max(bootstrap + offset, 0)
        got = controller._combine_ppb(t, r_initial, r_vol, r_gas_cap, cfg)
        assert Rate(got) == combine_by_min_max(
            t, Rate(r_initial), Rate(r_vol), Rate(r_gas_cap), cfg
        )


class TestCombinedRate:
    def test_breakdown_consistency(self, cfg):
        m = metrics(10_000, 100, 10_000, t=120)
        bd = combined_rate(m, cfg)
        assert bd.r_initial == Rate(UNIT // 130)
        assert bd.r_vol == volume_rate(m, cfg)
        assert bd.r_gas_cap == Rate(4_000_000)
        assert bd.r_combined == combine_by_min_max(
            120, bd.r_initial, bd.r_vol, bd.r_gas_cap, cfg
        )

    def test_cap_reported_even_when_disabled(self):
        cfg = RebaseConfig(gas_cap_enabled=False)
        bd = combined_rate(metrics(10_000, 0, 10_000, t=100), cfg)
        assert bd.r_gas_cap == Rate(4_000_000)
        assert bd.r_combined.ppb > bd.r_initial.ppb + bd.r_gas_cap.ppb

    def test_zero_supply_propagates(self, cfg):
        with pytest.raises(ZeroSupplyError):
            combined_rate(PeriodMetrics(t=0, v=1, v_prev=0, s=Amount(0)), cfg)


# Counts around the float path's limit and far past it.
PERIOD_COUNTS = st.one_of(
    st.just(0),
    st.integers(1, 1000),
    st.integers(2**53 - 2, 2**53 + 2),
    st.integers(0, 10**20),
)


@st.composite
def period_inputs(draw):
    """(t, v, v_prev, s, cfg) over every branch of the four rules."""
    bootstrap = draw(st.sampled_from([0, 90]) | st.integers(0, 400))
    # inside the window, on its last period and its end, and far past it
    t = max(bootstrap + draw(st.integers(-3, 3) | st.integers(-400, 10**6)), 0)
    v = draw(PERIOD_COUNTS)
    v_prev = draw(st.just(v) | PERIOD_COUNTS)
    k = draw(
        st.just(0)
        | st.integers(-(10**9), 10**9)
        # past the float path's gain limit: the Decimal fallback
        | st.integers(2**40, 2**42)
        | st.integers(-(2**42), -(2**40))
    )
    s = draw(st.just(1) | st.just(MAX_RAW) | st.integers(1, 10**22) | st.integers(1, MAX_RAW))
    cfg = RebaseConfig(
        bootstrap_periods=bootstrap, k_v=Rate(k), gas_cap_enabled=draw(st.booleans())
    )
    return t, v, v_prev, s, cfg


class TestIntegerComposition:
    """The kernel's and arms' integer rates and combined_rate box one rule."""

    @settings(max_examples=600, deadline=None)
    @given(period_inputs())
    # the bootstrap floor's last period and the first period past it,
    # with a volume fall deeper than the incentive and a loose cap
    @example((89, 1, 1000, 1, RebaseConfig()))
    @example((90, 1, 1000, 1, RebaseConfig()))
    # a fall and a rise clamped to the gas cap, past the window
    @example((100, 1000, 100_000, 10**19, RebaseConfig()))
    @example((100, 100_000, 1000, 10**19, RebaseConfig()))
    def test_matches_combined_rate(self, inputs):
        t, v, v_prev, s, cfg = inputs
        m = PeriodMetrics(t, v, v_prev, Amount(s))
        bd = combined_rate(m, cfg)
        # all four rates, not only the combined one the arms read
        assert controller._combined_ppb(t, v, v_prev, s, cfg) == ppb_of(bd)
        # and the shared rule itself holds to builtin min/max bounds
        assert bd.r_combined == combine_by_min_max(
            t, bd.r_initial, bd.r_vol, bd.r_gas_cap, cfg
        )

    @settings(max_examples=400, deadline=None)
    @given(
        t=st.integers(0, 400) | st.integers(0, 10**12),
        t0=st.integers(1, 20) | st.integers(1, 10**12),
        v=st.just(0) | st.integers(1, 1000) | st.integers(0, 10**20),
        s=st.just(1) | st.just(MAX_RAW) | st.integers(1, 10**22) | st.integers(1, MAX_RAW),
        # gas and peg whose conversion to raw TRD floors, and exact ones
        gas=st.integers(1, 10**12) | st.sampled_from([400_000, 1, 7]),
        peg=st.integers(1, 3 * UNIT) | st.sampled_from([100_000_000, UNIT, 3]),
    )
    # the floored conversion: 7 raw base at a peg of 3 is 2,333,333,333.3 raw TRD
    @example(t=0, t0=10, v=1, s=1, gas=7, peg=3)
    # a zero count, and one raw unit of supply
    @example(t=0, t0=10, v=0, s=1, gas=400_000, peg=100_000_000)
    @example(t=5, t0=1, v=10**20, s=1, gas=10**12, peg=1)
    def test_incentive_and_gas_cap_match_fraction_oracles(self, t, t0, v, s, gas, peg):
        cfg = RebaseConfig(t0=t0, gas_cost_base=Amount(gas), peg_ratio=Rate(peg))
        r_i, _, r_cap, _ = controller._combined_ppb(t, v, v, s, cfg)
        assert r_i == initial_rate_by_fraction(t, cfg)
        assert r_cap == gas_cap_by_fraction(v, s, cfg)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_zero_supply_raises_from_both(self, enabled):
        cfg = RebaseConfig(gas_cap_enabled=enabled)
        with pytest.raises(ZeroSupplyError):
            controller._combined_ppb(100, 5, 3, 0, cfg)
        with pytest.raises(ZeroSupplyError):
            combined_rate(PeriodMetrics(100, 5, 3, Amount(0)), cfg)


class TestControllerProperties:
    def _random_metrics(self, rng: random.Random, t_lo: int = 0) -> PeriodMetrics:
        return PeriodMetrics(
            t=rng.randrange(t_lo, 500),
            v=rng.randrange(0, 10**6),
            v_prev=rng.randrange(0, 10**6),
            s=Amount(rng.randrange(1, 10**16)),
        )

    def test_clamp_identity(self, cfg):
        rng = random.Random(7001)
        for _ in range(2000):
            m = self._random_metrics(rng, t_lo=cfg.bootstrap_periods)
            bd = combined_rate(m, cfg)
            clamped = max(-bd.r_gas_cap.ppb, min(bd.r_gas_cap.ppb, bd.r_vol.ppb))
            assert abs(bd.r_combined.ppb - (bd.r_initial.ppb + clamped)) <= 1

    def test_cap_dominance(self, cfg):
        rng = random.Random(7002)
        for _ in range(2000):
            m = self._random_metrics(rng)
            bd = combined_rate(m, cfg)
            assert abs(bd.r_combined.ppb - bd.r_initial.ppb) <= bd.r_gas_cap.ppb

    def test_bootstrap_positivity(self, cfg):
        rng = random.Random(7003)
        for _ in range(2000):
            m = replace(
                self._random_metrics(rng), t=rng.randrange(0, cfg.bootstrap_periods)
            )
            assert combined_rate(m, cfg).r_combined.ppb >= 0

    def test_volume_rebasement_never_outruns_gas(self, cfg):
        # Supply change attributable to volume, valued at the peg, is
        # bounded by the gas spent creating the volume.
        rng = random.Random(7004)
        for _ in range(2000):
            m = self._random_metrics(rng)
            bd = combined_rate(m, cfg)
            delta_ppb = bd.r_combined.ppb - bd.r_initial.ppb
            if delta_ppb <= 0:
                continue
            extra_trd = m.s.raw * delta_ppb // UNIT
            extra_base = extra_trd * cfg.peg_ratio.ppb // UNIT
            assert extra_base <= m.v * cfg.gas_cost_base.raw + 1


_BIG = 10**30
VALID_CONFIGS = st.builds(
    RebaseConfig,
    t0=st.integers(1, _BIG),
    # 0 runs without the bootstrap floor
    bootstrap_periods=st.just(0) | st.integers(0, _BIG),
    k_v=st.builds(Rate, st.integers(-_BIG, _BIG)),
    gas_cost_base=st.builds(Amount, st.integers(1, MAX_RAW)),
    peg_ratio=st.builds(Rate, st.integers(1, _BIG)),
    gas_cap_enabled=st.booleans(),
)
# Config-shaped text: real and unknown keys with values that are valid,
# out of range, malformed or arbitrary.
NUMBER = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-", "+"]),
    st.integers(0, 45).map("7".__mul__),
    st.sampled_from(["", ".", ".5", ".0000000001", ".1000000000"]),
)
CONFIG_LINE = st.builds(
    "{} {} {}".format,
    st.sampled_from([f.name for f in fields(RebaseConfig)] + ["velocity"]),
    st.sampled_from(["=", "=", "=", ""]),
    st.one_of(
        NUMBER,
        st.sampled_from(["true", "off", "maybe", "nan", "1e3", "1_0", " 7 # note"]),
        st.text(max_size=8),
    ),
)
CONFIG_TEXT = st.lists(CONFIG_LINE, max_size=3).map("\n".join)


class TestConfigFiles:
    def test_defaults_from_empty(self):
        assert parse_config("") == RebaseConfig()

    def test_full_round_trip(self):
        cfg = RebaseConfig(
            t0=5,
            bootstrap_periods=30,
            k_v=Rate.from_decimal("0.25"),
            gas_cost_base=Amount.from_tokens("0.001"),
            peg_ratio=Rate.from_decimal("0.5"),
            gas_cap_enabled=False,
        )
        assert parse_config(dump_config(cfg)) == cfg

    def test_comments_and_blanks(self):
        text = "# cadence\n\nt0 = 12   # wider start\n"
        assert parse_config(text).t0 == 12

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("velocity = 9")
        # bootstrap_periods = 0 is the one way to turn the bootstrap floor off
        with pytest.raises(ConfigError, match="unknown key 'floor_zero_during"):
            parse_config("floor_zero_during_bootstrap = false")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("t0 = 1\nt0 = 2")

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            parse_config("gas_cap_enabled = maybe")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config("k_v = fast")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("k_v = fast", "line 1: k_v: "),
            ("t0 = 3\ngas_cap_enabled = maybe", "line 2: gas_cap_enabled: "),
            ("gas_cost_base = 1" + "0" * 40, "line 1: gas_cost_base: "),
            ("\n\nt0 = 0", "line 3: t0: "),
            ("k_v = 0.2\npeg_ratio = 0", "line 2: peg_ratio: "),
            ("gas_cost_base = 0", "line 1: gas_cost_base: "),
            ("# window\nbootstrap_periods = -1", "line 2: bootstrap_periods: "),
        ],
    )
    def test_bad_value_names_line_and_key(self, text, where):
        # the overflowing Amount and the out-of-range values (the last four)
        # escaped without line or key
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value).startswith(where)

    def test_defaults_dump_byte_stable(self, default_cfg_path):
        assert dump_config(RebaseConfig()) == (
            "t0 = 10\n"
            "bootstrap_periods = 90\n"
            "k_v = 0.100000000\n"
            "gas_cost_base = 0.000400000\n"
            "peg_ratio = 0.100000000\n"
            "gas_cap_enabled = true\n"
        )
        assert parse_config(default_cfg_path.read_text()) == RebaseConfig()

    def test_default_cfg_and_readme_name_every_field(self, default_cfg_path):
        # a key left out of default.cfg parses to its default and a stale
        # README row is read by nothing, so neither drift fails elsewhere
        names = {f.name for f in fields(RebaseConfig)}
        cfg_keys = {
            line.split("#", 1)[0].partition("=")[0].strip()
            for line in default_cfg_path.read_text().splitlines()
        } - {""}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        table_keys = set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))
        assert cfg_keys == names
        assert table_keys == names

    @settings(max_examples=120, deadline=None)
    @given(text=st.one_of(st.text(), CONFIG_TEXT))
    @example(text="gas_cost_base = 1" + "0" * 40)
    def test_any_text_parses_or_raises_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert parse_config(dump_config(cfg)) == cfg

    @settings(max_examples=80, deadline=None)
    @given(cfg=VALID_CONFIGS)
    def test_dump_parse_round_trip(self, cfg):
        assert parse_config(dump_config(cfg)) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            RebaseConfig(t0=0)
        with pytest.raises(ConfigError):
            RebaseConfig(peg_ratio=Rate(0))
        with pytest.raises(ConfigError):
            RebaseConfig(gas_cost_base=Amount(0))
