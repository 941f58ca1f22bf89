import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid.errors import (
    AmountOverflowError,
    NegativeAmountError,
    NonPositiveFactorError,
)
from toroid.numerics import MAX_RAW, UNIT, Amount, Index, Rate, format_raw, grow_index

from oracles import (
    apply_index,
    format_raw_by_divmod,
    grow_index_by_search,
    index_value,
    one_plus,
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
        assert grow_index(idx, Rate(ppb)) == grow_index_by_search(idx, Rate(ppb))

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
