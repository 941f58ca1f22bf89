import copy
import inspect
import json
import os
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid import RebaseConfig, SybilScenario, numerics
from toroid.errors import (
    AmountOverflowError,
    ConfigError,
    InvalidArgumentError,
    NegativeAmountError,
    NonPositiveFactorError,
)
from toroid.numerics import (
    MAX_RAW,
    UNIT,
    Amount,
    Index,
    Rate,
    _grow_terms,
    format_raw,
    grow_index,
)

from oracles import (
    RECORDS,
    apply_index,
    format_raw_by_divmod,
    grow_index_by_search,
    index_value,
    one_plus,
    stock_twin,
)


class TestAmount:
    def test_from_tokens_whole(self):
        assert Amount.from_tokens(1).raw == UNIT
        assert Amount.from_tokens("10000").raw == 10_000 * UNIT

    def test_from_tokens_decimal(self):
        assert Amount.from_tokens("0.0004").raw == 400_000
        assert Amount.from_tokens("0.000000001").raw == 1

    def test_tokens_round_trip(self):
        for raw in (0, 1, 999_999_999, UNIT, 123_456_789_012):
            a = Amount(raw)
            assert Amount.from_tokens(a.tokens()) == a

    def test_rejects_negative(self):
        with pytest.raises(NegativeAmountError):
            Amount(-1)
        with pytest.raises(ValueError):
            Amount.from_tokens("-1")

    def test_rejects_too_many_digits(self):
        with pytest.raises(ValueError):
            Amount.from_tokens("0.0000000001")

    @pytest.mark.parametrize("text", ["+", "."])
    def test_rejects_sign_or_point_alone(self, text):
        with pytest.raises(ValueError, match="malformed decimal string"):
            Amount.from_tokens(text)

    def test_subtraction_never_wraps(self):
        with pytest.raises(NegativeAmountError):
            Amount(1) - Amount(2)

    def test_overflow_guard(self):
        with pytest.raises(AmountOverflowError):
            Amount(MAX_RAW + 1)
        with pytest.raises(AmountOverflowError):
            Amount(MAX_RAW) + Amount(1)


class TestRate:
    def test_from_decimal(self):
        assert Rate.from_decimal("0.1").ppb == 100_000_000
        assert Rate.from_decimal("-0.2").ppb == -200_000_000
        assert Rate.from_decimal("1.5").ppb == 1_500_000_000

    def test_decimal_round_trip(self):
        for ppb in (0, 1, -1, 10**10, -(10**10), 69_314_718):
            r = Rate(ppb)
            assert Rate.from_decimal(r.decimal()) == r


def decimal_string(value: int) -> str:
    """value / 10^9 with nine fractional digits, by exact Decimal scaling."""
    with localcontext() as ctx:
        ctx.prec = 60
        return format(Decimal(value).scaleb(-9), "f")


class TestFixedPointStrings:
    @settings(max_examples=300, deadline=None)
    @given(value=st.integers(-MAX_RAW, MAX_RAW))
    @example(value=0)
    @example(value=-1)
    @example(value=-UNIT)
    @example(value=UNIT - 1)
    @example(value=MAX_RAW)
    @example(value=-MAX_RAW)
    def test_strings_match_decimal_and_parse_back(self, value):
        text = decimal_string(value)
        assert Rate(value).decimal() == format_raw(value) == text
        assert Rate.from_decimal(text).ppb == value
        if value >= 0:
            assert Amount(value).tokens() == text
            assert Amount.from_tokens(text).raw == value


class TestFormatRaw:
    """format_raw renders from the integer's digits; the divmod rendering
    it replaced is the oracle."""

    @settings(max_examples=500, deadline=None)
    @given(
        value=st.integers(-(2**128), 2**128)
        | st.sampled_from([0, 1, UNIT - 1, UNIT, MAX_RAW])
    )
    def test_matches_divmod_and_reads_back(self, value):
        for v in (value, -value):
            text = format_raw(v)
            assert text == format_raw_by_divmod(v)
            with localcontext() as ctx:
                ctx.prec = 60
                assert Decimal(text).scaleb(9) == v


class TestApplyIndex:
    def test_exact_rational(self):
        assert apply_index(Amount(10 * UNIT), Index(11, 10)).raw == 11 * UNIT

    def test_identity(self):
        assert apply_index(Amount(123456), Index.identity()).raw == 123456

    def test_floor(self):
        assert apply_index(Amount(1), Index(1, 3)).raw == 0

    def test_monotone_in_shares(self):
        rng = random.Random(202)
        for _ in range(1000):
            idx = Index(rng.randrange(1, 10**9), rng.randrange(1, 10**9))
            a = rng.randrange(0, 10**14)
            b = a + rng.randrange(0, 10**10)
            assert apply_index(Amount(a), idx).raw <= apply_index(Amount(b), idx).raw


class TestGrowIndex:
    def test_simple_growth(self):
        assert index_value(grow_index(Index.identity(), Rate(100_000_000))) == Fraction(11, 10)

    def test_exact_rational_product(self):
        # 1.1 * 0.9 = 0.99 exactly
        idx = grow_index(grow_index(Index.identity(), Rate(100_000_000)), Rate(-100_000_000))
        assert index_value(idx) == Fraction(99, 100)

    def test_zero_rate_identity(self):
        # an index already on the grid grows at r = 0 unchanged
        for idx in (Index(123457 * 10**25, 10**30), Index(123457 * 10**22, 10**33)):
            assert grow_index(idx, Rate(0)) == idx

    @pytest.mark.parametrize(
        "idx, ppb",
        [
            (Index(123457, 99991), 0),
            (Index(123457, 99991), 123_456_789),
            (Index(1, 3), -999_999_999),
            (Index(2**300 + 1, 3**180), -1),
        ],
        ids=["r=0", "messy rate", "collapsing", "wide"],
    )
    def test_off_grid_index_lands_on_the_grid(self, idx, ppb):
        grown = grow_index(idx, Rate(ppb))
        exact = index_value(idx) * Fraction(UNIT + ppb, UNIT)
        assert grown.den in {10**e for e in range(30, 40, 3)}
        assert grown.num >= 10**27 and (grown.den == 10**30 or grown.num < 10**30)
        assert abs(grown.num - exact * grown.den) <= Fraction(1, 2)
        assert abs(index_value(grown) - exact) / exact < Fraction(5, 10**28)

    def test_a_tie_rounds_up(self):
        # 1 + 0.5e-30 lies halfway between two grid points
        idx = Index(2 * 10**30 + 1, 2 * 10**30)
        assert grow_index(idx, Rate(0)) == Index(10**30 + 1, 10**30)

    @settings(max_examples=150, deadline=None)
    @given(
        j=st.integers(0, 1_656),
        # num * UNIT just past a power of two is where the bit lengths
        # bound num/den most tightly
        num=st.integers(1, 10**40)
        | st.integers(0, 132).map(lambda k: -(-(2**k) // UNIT)),
        off_grid=st.integers(1, 10**6),
        ppb=st.integers(-UNIT + 1, -UNIT + 1_000) | st.integers(-UNIT + 1, 10 * UNIT),
    )
    @example(j=5, num=2 * 10**27 - 1, off_grid=2, ppb=0)  # a tie right at 10^27
    @example(j=5, num=2 * 10**27 - 2, off_grid=2, ppb=0)  # just under it
    @example(j=1_656, num=1, off_grid=1, ppb=-UNIT + 1)  # about 10^-5010
    @example(j=0, num=10**27, off_grid=1, ppb=-1)
    @example(j=1, num=4_611_686_019, off_grid=5, ppb=0)  # num * UNIT just past 2^62
    def test_matches_the_grid_search(self, j, num, off_grid, ppb):
        # on the grid when off_grid is 1, anywhere in between otherwise;
        # values reach down to about 10^-5000
        idx = Index(num, off_grid * 10 ** (30 + 3 * j))
        expected = grow_index_by_search(idx, Rate(ppb))
        assert grow_index(idx, Rate(ppb)) == expected
        assert _grow_terms(num, idx.den, ppb) == (expected.num, expected.den)

    @settings(max_examples=200, deadline=None)
    @given(
        target=st.integers(-2, 2),
        offset=st.integers(-1, 1),
        ppb=st.integers(-UNIT + 1, -UNIT + 20_000_000) | st.integers(-UNIT + 1, UNIT),
    )
    # at -99%: num * factor / UNIT is 10^27 - 0.51, 10^27 - 0.5 (a tie),
    # 10^27 and 10^27 + 0.5
    @example(target=0, offset=-1, ppb=-990_000_000)
    @example(target=0, offset=0, ppb=-990_000_000)
    @example(target=0, offset=50, ppb=-990_000_000)
    @example(target=1, offset=0, ppb=-990_000_000)
    @example(target=0, offset=0, ppb=-UNIT + 1)  # 1 + r at one ppb
    def test_grid_0_rounds_at_the_boundary_as_the_search_does(self, target, offset, ppb):
        # From grid 0, num is the least whose growth rounds half up to
        # 10^27 + target, moved by offset: the one division by UNIT lands
        # just below, at or just above the least numerator grid 0 keeps.
        factor = UNIT + ppb
        num = -(-((10**27 + target) * UNIT - UNIT // 2) // factor) + offset
        idx = Index(num, 10**30)
        expected = grow_index_by_search(idx, Rate(ppb))
        assert grow_index(idx, Rate(ppb)) == expected
        # grid 0 holds the result exactly when it rounds to 10^27 or more
        on_grid_0 = num * factor + UNIT // 2 >= 10**27 * UNIT
        assert expected.den == (10**30 if on_grid_0 else 10**33)

    @pytest.mark.parametrize("j", [0, 1, 2, 100, 1_656])
    def test_at_most_three_grids_tried(self, monkeypatch, j):
        # Each grid tried compares its numerator with _MIN_NUM once, and an
        # int subclass on the right of < has its reflected > called first.
        tried = []

        class CountingMinNum(int):
            def __gt__(self, other):
                tried.append(other)
                return int(self) > other

        monkeypatch.setattr(numerics, "_MIN_NUM", CountingMinNum(10**27))
        grid = 10 ** (30 + 3 * j)
        rng = random.Random(j)
        # on grid j at r = 0, across its whole numerator range and where
        # num * UNIT is just past a power of two (the loosest bit-length bound)
        nums = [rng.randrange(10**27, 10**30) for _ in range(200)] + [
            -(-(2**k) // UNIT) for k in range(120, 130)
        ]
        counts = set()
        for num in nums:
            tried.clear()
            assert grow_index(Index(num, grid), Rate(0)) == Index(num, grid)
            counts.add(len(tried))
        assert counts <= ({1} if j == 0 else {2, 3})

    def test_non_positive_factor(self):
        with pytest.raises(NonPositiveFactorError):
            grow_index(Index.identity(), Rate(-UNIT))
        with pytest.raises(NonPositiveFactorError):
            grow_index(Index.identity(), Rate(-UNIT - 1))

    def test_no_drift_over_many_periods(self):
        idx = Index.identity()
        for _ in range(10_000):
            idx = grow_index(idx, Rate(0))
        assert index_value(idx) == 1

    def test_renormalization_error_within_budget(self):
        # Messy ppb values make the exact product outgrow the grid, so most
        # steps round; the running exact value must never drift more than
        # 1 part in 1e15.
        rng = random.Random(303)
        idx = Index.identity()
        exact = Fraction(1)
        for _ in range(400):
            ppb = rng.randrange(-50_000_000, 120_000_000)
            idx = grow_index(idx, Rate(ppb))
            exact *= Fraction(UNIT + ppb, UNIT)
            drift = abs(index_value(idx) - exact) / exact
            assert drift <= Fraction(1, 10**15)

    def test_one_plus(self):
        assert one_plus(Rate(100_000_000)) == Index(11, 10)
        assert one_plus(Rate(0)) == Index(1, 1)
        with pytest.raises(NonPositiveFactorError):
            one_plus(Rate(-UNIT))


class TestRoundTrip:
    """Chained index growth versus stepwise application.

    When the product idx * (1 + r) lands on the grid exactly, applying the
    grown index can only exceed the two-floor stepwise path, never trail
    it.  Off the grid, grow_index rounds the product half up by less than
    5e-28 relative, which can tip the chained floor by one raw unit either
    way; these seeded off-grid draws do not hit such a case.  With non-positive growth the gap is at most one raw
    unit; positive growth amplifies the inner floor's lost fraction by the
    factor (1 + r), so the provable bound is one extra unit for r < 1.
    """

    def test_never_below_stepwise(self):
        rng = random.Random(404)
        for _ in range(3000):
            s = Amount(rng.randrange(0, 10**14))
            idx = Index(rng.randrange(1, 10**7), rng.randrange(1, 10**7))
            r = Rate(rng.randrange(-900_000_000, 900_000_000))
            chained = apply_index(s, grow_index(idx, r)).raw
            stepwise = apply_index(apply_index(s, idx), one_plus(r)).raw
            assert 0 <= chained - stepwise <= 2

    def test_within_one_raw_for_non_positive_rates(self):
        rng = random.Random(505)
        for _ in range(3000):
            s = Amount(rng.randrange(0, 10**14))
            idx = Index(rng.randrange(1, 10**7), rng.randrange(1, 10**7))
            r = Rate(rng.randrange(-900_000_000, 1))
            chained = apply_index(s, grow_index(idx, r)).raw
            stepwise = apply_index(apply_index(s, idx), one_plus(r)).raw
            assert 0 <= chained - stepwise <= 1


TWINS = {cls: stock_twin(cls) for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, args, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestFrozenRecords:
    """Each value type behaves as a stock frozen slots dataclass."""

    def test_is_a_frozen_slots_dataclass(self, cls, args, other):
        obj = cls(*args)
        assert is_dataclass(cls) and "__slots__" in vars(cls)
        assert not hasattr(obj, "__dict__")

    def test_fields_cannot_be_set_or_deleted(self, cls, args, other):
        obj = cls(*args)
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(obj, f.name)
        assert obj == cls(*args)

    def test_positional_keyword_and_default_construction(self, cls, args, other):
        names = [f.name for f in fields(cls)]
        for values in (args, other):
            obj = cls(*values)
            assert obj == cls(**dict(zip(names, values)))
            assert tuple(getattr(obj, name) for name in names[: len(values)]) == values
            for f in fields(cls)[len(values):]:
                assert getattr(obj, f.name) == f.default

    def test_replace(self, cls, args, other):
        obj, new = cls(*args), cls(*other)
        assert replace(obj, **{f.name: getattr(new, f.name) for f in fields(cls)}) == new
        assert replace(obj) == obj

    def test_copy_and_pickle_round_trip(self, cls, args, other):
        obj = cls(*other)
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(clone) is cls
            assert clone == obj and hash(clone) == hash(obj)

    def test_matches_its_stock_twin(self, cls, args, other):
        twin = TWINS[cls]
        a, b, ta, tb = cls(*args), cls(*other), twin(*args), twin(*other)
        assert inspect.signature(cls) == inspect.signature(twin)
        assert cls.__match_args__ == twin.__match_args__
        assert [repr(a), repr(b)] == [repr(ta), repr(tb)]
        assert [hash(a), hash(b)] == [hash(ta), hash(tb)]
        assert [a == b, a == cls(*args), a != b] == [ta == tb, ta == twin(*args), ta != tb]
        with pytest.raises(TypeError):
            a < b
        with pytest.raises(TypeError):
            ta < tb

    def test_bad_calls_fail_as_in_its_stock_twin(self, cls, args, other):
        for call in (lambda c: c(*args, *other, None), lambda c: c(*args, unexpected=1)):
            with pytest.raises(TypeError) as ours:
                call(cls)
            with pytest.raises(TypeError) as stock:
                call(TWINS[cls])
            assert str(ours.value) == str(stock.value)


# Run with -S, so nothing but the standard library and src/ is importable.
# The first import loads the stdlib modules toroid uses; the second, with
# the hook set, counts the compiles that define a function (exec'd code,
# not module files): those of one bare code-free dataclass call (3.13
# compiles one) and then those of importing every toroid module.
COMPILE_BUDGET_CHILD = """
import dataclasses, importlib, json, pkgutil, re, sys
def import_toroid():
    import toroid
    return [importlib.import_module(f"toroid.{m.name}")
            for m in pkgutil.iter_modules(toroid.__path__) if m.name != "__main__"]
import_toroid()
for name in [n for n in sys.modules if n.partition(".")[0] == "toroid"]:
    del sys.modules[name]
defines = re.compile(rb"\\b(?:def|lambda)\\b")
compiled = []
def count(event, args):
    if event == "compile" and not str(args[1]).endswith(".py"):
        source = args[0].encode() if isinstance(args[0], str) else args[0]
        if isinstance(source, bytes) and defines.search(source):
            compiled.append(source)
sys.addaudithook(count)
bare = type("Bare", (), {"__doc__": "A bare record.", "__annotations__": {"x": int}})
dataclasses.dataclass(bare, init=False, repr=False, eq=False, slots=True)
bare_compiles = len(compiled)
records = [obj for module in import_toroid() for obj in vars(module).values()
           if dataclasses.is_dataclass(obj) and isinstance(obj, type)
           and obj.__module__ == module.__name__]
print(json.dumps([bare_compiles, len(records), len(compiled) - bare_compiles]))
"""


def test_importing_toroid_compiles_one_function_per_record():
    # record compiles each class's __init__ and nothing else; a stock
    # dataclass(frozen=True, slots=True) compiled six methods more on 3.10-3.12
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.run(
        [sys.executable, "-S", "-c", COMPILE_BUDGET_CHILD],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    bare_compiles, records, compiled = json.loads(child.stdout)
    assert records >= 11
    assert compiled <= records * (1 + bare_compiles)


def test_record_takes_no_keyword():
    # records are unordered: Amount and Rate compare through .raw and .ppb
    with pytest.raises(TypeError):
        numerics.record(order=True)


@pytest.mark.parametrize(
    "hint", [int | None, list[int], "int | None"], ids=["union", "generic", "string"]
)
def test_record_refuses_a_field_type_that_is_not_a_plain_class(hint):
    # a string annotation is read as the type it names
    cls = type("Maybe", (), {"__annotations__": {"n": hint}})
    with pytest.raises(TypeError, match="^Maybe: record fields take plain classes only$"):
        numerics.record(cls)


def test_record_refuses_a_field_without_default_after_one_with_it():
    cls = type("Late", (), {"__annotations__": {"a": "int", "b": "int"}, "a": 1})
    with pytest.raises(TypeError, match="^Late: record fields with defaults come last$"):
        numerics.record(cls)


def _scenario(delta_v=1, periods=1, baseline_v=0, supply=1, holdings=0, start=0):
    return SybilScenario(delta_v, periods, baseline_v, Amount(supply), Amount(holdings), start)


class TestValidation:
    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: Amount(-1), NegativeAmountError, "amount cannot be negative: -1"),
            (lambda: Amount(MAX_RAW + 1), AmountOverflowError,
             f"amount exceeds capacity: {MAX_RAW + 1}"),
            (lambda: Amount(1.0), TypeError, "raw must be int, got 1.0"),
            (lambda: Amount("1"), TypeError, "raw must be int, got '1'"),
            (lambda: replace(Amount(1), raw=-2), NegativeAmountError,
             "amount cannot be negative: -2"),
            (lambda: Rate(0.5), TypeError, "ppb must be int, got 0.5"),
            (lambda: Index(1, 0), NonPositiveFactorError, "index denominator must be > 0: 0"),
            (lambda: Index(0, -1), NonPositiveFactorError, "index denominator must be > 0: -1"),
            (lambda: Index(0, 1), NonPositiveFactorError, "index numerator must be > 0: 0"),
            (lambda: Index(0.5, 1), TypeError, "num must be int, got 0.5"),
            (lambda: Index(1, 10.0), TypeError, "den must be int, got 10.0"),
            (lambda: Index(Fraction(1, 2), 1), TypeError,
             "num must be int, got Fraction(1, 2)"),
            (lambda: RebaseConfig(t0=0), ConfigError, "t0: must be >= 1, got 0"),
            (lambda: RebaseConfig(peg_ratio=Rate(0)), ConfigError, "peg_ratio: must be positive"),
            (lambda: RebaseConfig(gas_cost_base=Amount(0)), ConfigError,
             "gas_cost_base: must be positive"),
            (lambda: RebaseConfig(bootstrap_periods=-1), ConfigError,
             "bootstrap_periods: must be >= 0"),
            (lambda: _scenario(periods=0), InvalidArgumentError, "periods must be >= 1"),
            (lambda: _scenario(delta_v=-1), InvalidArgumentError,
             "transaction counts must be >= 0"),
            (lambda: _scenario(baseline_v=-1), InvalidArgumentError,
             "transaction counts must be >= 0"),
            (lambda: _scenario(holdings=2), InvalidArgumentError,
             "attacker cannot hold more than the total supply"),
            (lambda: _scenario(start=-1), InvalidArgumentError, "start_period must be >= 0"),
        ],
    )
    def test_each_check_raises_its_type_and_message(self, make, error, message):
        with pytest.raises(Exception) as info:
            make()
        assert info.type is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls, args",
        [pytest.param(cls, other, id=cls.__name__)
         for cls, _, other in RECORDS if "__post_init__" in vars(cls)],
    )
    def test_post_init_runs_once_after_every_field_is_stored(self, monkeypatch, cls, args):
        original = vars(cls)["__post_init__"]
        seen = []

        def spy(self):
            seen.append({f.name: getattr(self, f.name) for f in fields(self)})
            original(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
        obj = cls(*args)
        assert seen == [{f.name: getattr(obj, f.name) for f in fields(obj)}]

    def test_a_post_init_replaced_on_the_class_sees_every_amount(self, monkeypatch):
        # benchmarks/tracing.py counts numerics.Amount.constructed this way
        original = vars(Amount)["__post_init__"]
        built = []

        def counting(self):
            built.append(self.raw)
            original(self)

        monkeypatch.setattr(Amount, "__post_init__", counting)
        Amount(1) + Amount(2)
        Amount.from_tokens("0.5")
        replace(Amount(3), raw=4)
        with pytest.raises(NegativeAmountError):
            Amount(-1)
        assert built == [1, 2, 3, 500_000_000, 3, 4, -1]
