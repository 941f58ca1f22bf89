import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroid.errors import (
    AmountOverflowError,
    ExceedsCollateralError,
    HoldingPeriodNotMetError,
    InsufficientBalanceError,
    InsufficientForRefundError,
    InvalidArgumentError,
    NegativeAmountError,
    NonDivisibleCollateralError,
    NonPositiveFactorError,
    SelfTransferError,
    SnapshotError,
    ToroidError,
    UnknownAccountError,
    ZeroCollateralError,
)
from toroid.ledger import SHARE_SCALE, Ledger
from toroid.numerics import MAX_RAW, UNIT, Amount, Index, Rate

from oracles import (
    apply_index,
    grow_index_by_search,
    index_value,
    one_plus,
    supply_by_division,
)

PEG = Rate.from_decimal("0.1")


def fresh() -> Ledger:
    return Ledger(PEG)


def grown_ledger() -> Ledger:
    """A ledger whose index is ~10^12, where one share is worth ~1,000 raw."""
    ledger = fresh()
    ledger.open_account(Amount(10))
    for _ in range(4):
        ledger.rebase(Rate(10**12))
    return ledger


class TestOpenAccount:
    def test_one_base_mints_ten_trd(self):
        ledger = fresh()
        account_id, minted = ledger.open_account(Amount.from_tokens(1))
        assert minted == Amount.from_tokens(10)
        assert ledger.balance_of(account_id) == minted
        assert ledger.total_supply() == minted
        assert ledger.total_collateral == Amount.from_tokens(1)

    def test_zero_collateral_rejected(self):
        with pytest.raises(ZeroCollateralError):
            fresh().open_account(Amount(0))

    def test_negative_start_period_rejected(self):
        with pytest.raises(ValueError, match="start_period"):
            Ledger(PEG, start_period=-1)

    def test_entry_after_growth_converts_at_current_index(self):
        # 0.1 base at index 11/10 mints 1 TRD; the share count at raw
        # granularity is floor(1e9 * 10 / 11)
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate.from_decimal("0.1"))
        account_id, minted = ledger.open_account(Amount.from_tokens("0.1"))
        assert minted == Amount.from_tokens(1)
        assert ledger._shares[account_id] // SHARE_SCALE == 909_090_909
        assert ledger.balance_of(account_id) == minted

    def test_non_divisible_collateral(self):
        ledger = Ledger(Rate.from_decimal("0.3"))
        with pytest.raises(NonDivisibleCollateralError):
            ledger.open_account(Amount(1))
        ledger.open_account(Amount(3))

    def test_duplicate_id_rejected(self):
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1), account_id="x")
        with pytest.raises(ValueError):
            ledger.open_account(Amount.from_tokens(1), account_id="x")

    def test_id_with_comma_rejected(self):
        with pytest.raises(ValueError):
            fresh().open_account(Amount.from_tokens(1), account_id="a,b")

    @pytest.mark.parametrize("account_id", ["a\rb", "a\x0bb", "a\u2028b", "a\n", ""])
    def test_id_with_line_break_rejected(self, account_id):
        # snapshot() could write such an id but restore() could not read it
        ledger = fresh()
        with pytest.raises(ValueError):
            ledger.open_account(Amount.from_tokens(1), account_id=account_id)
        assert ledger.account_ids() == []

    @pytest.mark.parametrize(
        "account_id, shown", [("a,b", "'a,b'"), ("", "''"), ("a\u2028b", r"'a\u2028b'")]
    )
    def test_id_refusal_text(self, account_id, shown):
        with pytest.raises(InvalidArgumentError) as info:
            fresh().open_account(Amount.from_tokens(1), account_id=account_id)
        assert str(info.value) == (
            "account id may not be empty or contain ',' or a line break: " + shown
        )

    @settings(max_examples=200, deadline=None)
    @given(account_id=st.text())
    @example(account_id="a\u00b2")  # isdigit() but not int(): restore raised ValueError
    def test_accepted_ids_round_trip(self, account_id):
        ledger = fresh()
        try:
            ledger.open_account(Amount.from_tokens(1), account_id=account_id)
        except ValueError:
            return
        text = ledger.snapshot()
        assert Ledger.restore(text).snapshot() == text

    def test_auto_id_skips_taken_ids(self):
        # an explicit "a2" made the second auto open raise "already exists"
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1), account_id="a2")
        assert ledger.open_account(Amount.from_tokens(1))[0] == "a1"
        assert ledger.open_account(Amount.from_tokens(1))[0] == "a3"

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.none() | st.integers(1, 8).map("a{}".format), max_size=10))
    def test_auto_id_is_lowest_free_and_survives_restore(self, ids):
        ledger = fresh()
        for account_id in ids + [None]:
            lowest = next(
                f"a{n}" for n in itertools.count(1) if f"a{n}" not in ledger
            )
            if account_id is None:
                restored = Ledger.restore(ledger.snapshot())
                assert restored.open_account(Amount.from_tokens(1))[0] == lowest
                assert ledger.open_account(Amount.from_tokens(1))[0] == lowest
            elif account_id not in ledger:
                ledger.open_account(Amount.from_tokens(1), account_id=account_id)

    def test_collateral_overflow_leaves_ledger_unchanged(self):
        # at a peg of 10 base per TRD the share total is worth a tenth of
        # the collateral total, so it fits while the collateral does not
        ledger = Ledger(Rate(10 * UNIT))
        big = Amount(MAX_RAW // 100 * 10)
        for _ in range(10):
            ledger.open_account(big)
        before = ledger.snapshot()
        with pytest.raises(AmountOverflowError):
            ledger.open_account(big, account_id="x")
        with pytest.raises(AmountOverflowError):
            ledger.open_account(big)
        assert ledger.snapshot() == before
        assert ledger.total_collateral.raw == sum(
            ledger.collateral_of(i).raw for i in ledger.account_ids()
        )
        # the refused auto open took no id
        assert ledger.open_account(Amount(10))[0] == "a11"

    @pytest.mark.parametrize(
        "opens",
        [[MAX_RAW // 10 - 1], [MAX_RAW // 20] * 2],
        ids=["one balance", "the sum"],
    )
    def test_open_worth_past_max_raw_leaves_the_ledger_usable(self, opens):
        # each open mints an Amount, but at ~1,000 raw a share the last
        # one's shares, alone or with the others, are worth past MAX_RAW
        ledger = grown_ledger()
        for collateral in opens[:-1]:
            ledger.open_account(Amount(collateral))
        before = ledger.snapshot()
        with pytest.raises(AmountOverflowError, match=r"^amount exceeds capacity: \d+$"):
            ledger.open_account(Amount(opens[-1]))
        assert ledger.snapshot() == before
        assert ledger.total_supply() == supply_by_division(ledger)
        assert ledger.rebase(Rate(0)) == ledger.total_supply()
        assert ledger.current_period == 5


class TestCollateralFor:
    @pytest.mark.parametrize("peg", ["0.1", "0.3", "1", "2.5", "0.000000007"])
    @pytest.mark.parametrize("minted_raw", [1, 7, 10**9, 123_456_789_000, 10**18])
    def test_open_and_deposit_mint_exactly(self, peg, minted_raw):
        ledger = Ledger(Rate.from_decimal(peg))
        # scale by the smallest amount that has exact collateral at this peg
        step = UNIT // math.gcd(ledger.peg_ratio.ppb, UNIT)
        want = Amount(minted_raw * step)
        account_id, minted = ledger.open_account(ledger.collateral_for(want))
        assert minted == want
        assert ledger.deposit(account_id, ledger.collateral_for(want)) == want
        assert ledger.balance_of(account_id) == Amount(2 * want.raw)

    def test_inexact_collateral_rejected(self):
        ledger = Ledger(Rate.from_decimal("0.3"))
        with pytest.raises(NonDivisibleCollateralError):
            ledger.collateral_for(Amount(1))
        assert ledger.collateral_for(Amount(10)) == Amount(3)


class TestDeposit:
    def test_deposit_mints_at_peg(self):
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(1))
        minted = ledger.deposit(account_id, Amount.from_tokens("0.5"))
        assert minted == Amount.from_tokens(5)
        assert ledger.balance_of(account_id) == Amount.from_tokens(15)
        collateral = ledger.collateral_of(account_id)
        assert ledger.minted_for(collateral) == Amount.from_tokens(15)

    def test_minted_overflow_leaves_ledger_unchanged(self):
        # after a -90% rebase the shares and collateral fit, the obligation
        # minted_for(collateral) does not; no part of the deposit may be
        # stored, or the account would hold collateral with no refund
        # obligation at the peg
        ledger = fresh()
        a, _ = ledger.open_account(Amount(MAX_RAW // 10 - 1))
        ledger.rebase(Rate(-900_000_000))
        before = ledger.snapshot()
        with pytest.raises(AmountOverflowError):
            ledger.deposit(a, Amount(MAX_RAW // 20))
        assert ledger.snapshot() == before
        assert ledger.total_collateral.raw == sum(
            ledger.collateral_of(i).raw for i in ledger.account_ids()
        )

    def test_zero_deposit_rejected(self):
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(1))
        with pytest.raises(ZeroCollateralError):
            ledger.deposit(account_id, Amount(0))

    def test_unknown_account(self):
        with pytest.raises(UnknownAccountError):
            fresh().deposit("ghost", Amount.from_tokens(1))
        with pytest.raises(UnknownAccountError):
            fresh().collateral_of("ghost")


class TestTransfer:
    def test_full_balance_moves(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        b, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.transfer(a, b, Amount.from_tokens(10))
        assert ledger.balance_of(a) == Amount(0)
        assert ledger.balance_of(b) == Amount.from_tokens(20)

    def test_insufficient_balance(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        b, _ = ledger.open_account(Amount.from_tokens(1))
        with pytest.raises(InsufficientBalanceError):
            ledger.transfer(a, b, Amount.from_tokens(11))

    def test_self_transfer(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        with pytest.raises(SelfTransferError):
            ledger.transfer(a, a, Amount(1))

    def test_unknown_parties(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        with pytest.raises(UnknownAccountError):
            ledger.transfer(a, "ghost", Amount(1))
        with pytest.raises(UnknownAccountError):
            ledger.transfer("ghost", a, Amount(1))

    def test_transfer_at_grown_index(self):
        # moving 1 TRD at index 11/10: share floor leaves the receiver at
        # most one raw unit short
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate.from_decimal("0.1"))
        b, _ = ledger.open_account(Amount.from_tokens(1))
        before = ledger.balance_of(b)
        ledger.transfer(a, b, Amount.from_tokens(1))
        received = ledger.balance_of(b) - before
        assert UNIT - 1 <= received.raw <= UNIT

    def test_receiver_shares_may_pass_max_raw(self):
        # both wallets hold just under MAX_RAW shares; half of one moves to
        # the other, whose count passes MAX_RAW while its balance and the
        # supply stay far inside it
        ledger = fresh()
        collateral = Amount(MAX_RAW // (10 * SHARE_SCALE * UNIT // PEG.ppb) * 10)
        a, _ = ledger.open_account(collateral)
        b, _ = ledger.open_account(collateral)
        assert ledger._shares[a] > MAX_RAW // 2
        supply, received = ledger.total_supply(), ledger.balance_of(b)
        half = Amount(ledger.balance_of(a).raw // 2)
        ledger.transfer(a, b, half)
        assert ledger._shares[b] > MAX_RAW
        assert ledger.balance_of(b) == received + half
        assert ledger.total_supply() == supply

    def test_supply_neutral_within_one_raw(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(3))
        b, _ = ledger.open_account(Amount.from_tokens(2))
        ledger.rebase(Rate.from_decimal("0.037"))
        index_before = ledger.index
        supply_before = ledger.total_supply()
        ledger.transfer(a, b, Amount.from_tokens("7.123456789"))
        assert abs(ledger.total_supply().raw - supply_before.raw) <= 1
        assert ledger.index == index_before


class TestRebase:
    def test_pro_rated_growth(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        b, _ = ledger.open_account(Amount.from_tokens(2))
        supply = ledger.rebase(Rate.from_decimal("0.1"))
        assert ledger.balance_of(a) == Amount.from_tokens(11)
        assert ledger.balance_of(b) == Amount.from_tokens(22)
        assert supply == Amount.from_tokens(33)

    def test_zero_rate_identity(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate(0))
        assert ledger.balance_of(a) == Amount.from_tokens(10)

    def test_negative_rebasement(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        b, _ = ledger.open_account(Amount.from_tokens(2))
        ledger.rebase(Rate.from_decimal("-0.2"))
        assert ledger.balance_of(a) == Amount.from_tokens(8)
        assert ledger.balance_of(b) == Amount.from_tokens(16)

    def test_counters_roll(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        b, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.transfer(a, b, Amount(5))
        ledger.transfer(b, a, Amount(5))
        ledger.rebase(Rate(0))
        assert ledger.current_period == 1

    def test_non_positive_factor(self):
        ledger = fresh()
        with pytest.raises(NonPositiveFactorError):
            ledger.rebase(Rate(-UNIT))

    def test_overflowing_rebase_leaves_ledger_unchanged(self):
        # a refused rebase keeps the index and the period, or every later
        # total_supply() would overflow too
        ledger = Ledger(Rate(UNIT))
        ledger.open_account(Amount(MAX_RAW // 10**9 - 10))
        ledger.rebase(Rate(2 * UNIT))
        before = ledger.snapshot()
        with pytest.raises(AmountOverflowError):
            ledger.rebase(Rate(10**18))
        assert ledger.snapshot() == before
        assert ledger.current_period == 1
        assert ledger.rebase(Rate(UNIT)) == ledger.total_supply()
        assert ledger.current_period == 2


class TestWithdraw:
    def test_interest_stays_after_full_withdrawal(self):
        # open 10 TRD for 1 base, +10% rebasement, full withdrawal: the
        # refund is exactly 1 base and exactly 1 TRD of interest remains
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate.from_decimal("0.1"))
        assert ledger.balance_of(account_id) == Amount.from_tokens(11)
        burned = ledger.withdraw(account_id, Amount.from_tokens(1))
        assert burned == Amount.from_tokens(10)
        assert ledger.balance_of(account_id) == Amount.from_tokens(1)
        collateral = ledger.collateral_of(account_id)
        assert collateral == Amount(0)
        assert ledger.minted_for(collateral) == Amount(0)
        assert ledger.total_collateral == Amount(0)

    def test_negative_interest_blocks_full_withdrawal(self):
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate.from_decimal("-0.2"))
        assert ledger.balance_of(account_id) == Amount.from_tokens(8)
        with pytest.raises(InsufficientForRefundError):
            ledger.withdraw(account_id, Amount.from_tokens(1))
        burned = ledger.withdraw(account_id, Amount.from_tokens("0.8"))
        assert burned == Amount.from_tokens(8)
        assert ledger.balance_of(account_id) == Amount(0)
        collateral = ledger.collateral_of(account_id)
        assert collateral == Amount.from_tokens("0.2")
        assert ledger.minted_for(collateral) == Amount.from_tokens(2)

    def test_holding_period(self):
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(1))
        with pytest.raises(HoldingPeriodNotMetError):
            ledger.withdraw(account_id, Amount.from_tokens(1))

    def test_exceeds_collateral(self):
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate(0))
        with pytest.raises(ExceedsCollateralError):
            ledger.withdraw(account_id, Amount.from_tokens("1.1"))

    def test_zero_withdrawal_rejected(self):
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate(0))
        with pytest.raises(ZeroCollateralError):
            ledger.withdraw(account_id, Amount(0))

    def test_unknown_account(self):
        with pytest.raises(UnknownAccountError):
            fresh().withdraw("ghost", Amount.from_tokens(1))
        with pytest.raises(UnknownAccountError):
            fresh().collateral_of("ghost")

    def test_peg_obligation_after_partial(self):
        ledger = fresh()
        account_id, _ = ledger.open_account(Amount.from_tokens(2))
        ledger.rebase(Rate.from_decimal("0.05"))
        burned = ledger.withdraw(account_id, Amount.from_tokens("0.7"))
        collateral = ledger.collateral_of(account_id)
        assert burned == Amount.from_tokens(7)
        assert collateral == Amount.from_tokens("1.3")
        assert ledger.minted_for(collateral) == Amount.from_tokens(13)


class TestTimestampInsulation:
    def test_entry_balance_ignores_prior_history(self):
        # same deposit, wildly different prior rebasement history: the
        # entry balance is the minted amount either way
        history_a = fresh()
        history_b = fresh()
        history_a.open_account(Amount.from_tokens(1), account_id="seed")
        history_b.open_account(Amount.from_tokens(1), account_id="seed")
        rng = random.Random(88)
        for _ in range(25):
            history_a.rebase(Rate(rng.randrange(-300_000_000, 500_000_000)))
        for _ in range(3):
            history_b.rebase(Rate(rng.randrange(-300_000_000, 500_000_000)))
        for ledger in (history_a, history_b):
            account_id, minted = ledger.open_account(Amount.from_tokens("7.3"))
            assert ledger.balance_of(account_id) == minted


def edited_snapshot(collaterals, rates, edits) -> str:
    """Snapshot of a ledger with the given accounts and rebases, then with
    each (line, field, value) edit written over one field."""
    ledger = fresh()
    rates = iter(rates)
    for collateral in collaterals:
        ledger.open_account(Amount(collateral))
        ledger.rebase(Rate(next(rates, 0)))
    rows = [line.split(",") for line in ledger.snapshot().splitlines()]
    for line, field, value in edits:
        row = rows[line % len(rows)]
        row[field % len(row)] = value
    return "\n".join(",".join(row) for row in rows)


# Snapshots one or two field edits away from a valid one, with values in
# range, negative, oversized or malformed.
SNAPSHOT_TEXT = st.builds(
    edited_snapshot,
    st.lists(st.integers(1, 10**15), max_size=4),
    st.lists(st.integers(-500_000_000, UNIT), max_size=4),
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 5),
            st.one_of(
                st.integers(-2, 12),
                st.integers(-(2**130), 2**130),
                st.sampled_from([MAX_RAW, MAX_RAW + 1]),
            ).map(str) | st.text(max_size=3),
        ),
        max_size=2,
    ),
)


def busy_ledger() -> Ledger:
    ledger = fresh()
    for tokens in (1, "2.5", 4):
        ledger.open_account(Amount.from_tokens(tokens))
    ledger.rebase(Rate.from_decimal("0.05"))
    return ledger


# Between them these change every part of a ledger's state: account
# fields, the account set, index, period, collateral and the auto-id
# sequence.
FORK_OPS = {
    "transfer": lambda led: led.transfer("a1", "a2", Amount.from_tokens(3)),
    "deposit": lambda led: led.deposit("a3", Amount.from_tokens("0.7")),
    "withdraw": lambda led: led.withdraw("a2", Amount.from_tokens(1)),
    "open": lambda led: led.open_account(Amount.from_tokens(2)),
    "rebase": lambda led: led.rebase(Rate.from_decimal("-0.02")),
}


class TestCopy:
    def test_copy_has_the_same_state(self):
        ledger = busy_ledger()
        clone = ledger.copy()
        assert clone.snapshot() == ledger.snapshot()
        assert clone.total_collateral == ledger.total_collateral
        assert clone.total_supply() == ledger.total_supply()
        assert clone.open_account(Amount.from_tokens(1)) == ledger.open_account(
            Amount.from_tokens(1)
        )

    @pytest.mark.parametrize("mutated", ["original", "copy"])
    @pytest.mark.parametrize("op", sorted(FORK_OPS))
    def test_either_side_leaves_the_other_unchanged(self, mutated, op):
        ledger = busy_ledger()
        clone = ledger.copy()
        target, other = (ledger, clone) if mutated == "original" else (clone, ledger)
        before, collateral = other.snapshot(), other.total_collateral
        FORK_OPS[op](target)
        assert target.snapshot() != before
        assert other.snapshot() == before
        assert other.total_collateral == collateral
        # the untouched side still hands out the auto id it would have
        assert other.open_account(Amount.from_tokens(1))[0] == "a4"


class TestSnapshot:
    def test_round_trip_bit_exact(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        b, _ = ledger.open_account(Amount.from_tokens("2.5"))
        ledger.rebase(Rate.from_decimal("0.123456789"))
        ledger.transfer(a, b, Amount.from_tokens(3))
        ledger.rebase(Rate.from_decimal("-0.01"))
        ledger.deposit(b, Amount.from_tokens("0.1"))
        text = ledger.snapshot()
        restored = Ledger.restore(text)
        assert restored.snapshot() == text
        assert restored.index == ledger.index
        assert restored.total_supply() == ledger.total_supply()
        assert restored.total_collateral == ledger.total_collateral
        assert restored.balance_of(a) == ledger.balance_of(a)

    def test_peg_and_holding_period_travel_with_the_snapshot(self):
        # restore used to take the peg as an argument; the holding rule
        # rides on each row's created_period and the header's period
        ledger = Ledger(Rate.from_decimal("0.2"))
        a, minted = ledger.open_account(Amount.from_tokens(1))
        restored = Ledger.restore(ledger.snapshot())
        assert restored.peg_ratio == Rate.from_decimal("0.2")
        assert minted == Amount.from_tokens(5)
        assert restored.open_account(Amount.from_tokens(1))[1] == minted
        with pytest.raises(HoldingPeriodNotMetError):
            restored.withdraw(a, Amount.from_tokens(1))
        restored.rebase(Rate(0))
        assert restored.withdraw(a, Amount.from_tokens(1)) == minted

    def test_restored_ledger_keeps_working(self):
        ledger = fresh()
        a, _ = ledger.open_account(Amount.from_tokens(1))
        ledger.rebase(Rate.from_decimal("0.1"))
        restored = Ledger.restore(ledger.snapshot())
        new_id, _ = restored.open_account(Amount.from_tokens(1))
        assert new_id not in ledger
        assert restored.balance_of(new_id) == Amount.from_tokens(10)

    @pytest.mark.parametrize("digits", [639, 640, 5_000])
    def test_long_auto_style_id_restores(self, digits):
        # 5,000 digits passed the int-string limit and restore raised
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1), account_id="a" + "9" * digits)
        text = ledger.snapshot()
        restored = Ledger.restore(text)
        assert restored.snapshot() == text
        new_id, _ = restored.open_account(Amount.from_tokens(1))
        assert new_id not in ledger
        assert new_id == "a1"

    def test_duplicate_account_rejected(self):
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1), account_id="x")
        text = ledger.snapshot()
        # the same row twice would count its collateral twice
        with pytest.raises(SnapshotError, match="duplicate"):
            Ledger.restore(text + text.splitlines()[1] + "\n")

    def test_collateral_off_peg_rejected(self):
        # at the 0.3 peg, 1 raw of collateral has no exact obligation
        with pytest.raises(SnapshotError, match="line 2: .* not an exact multiple"):
            Ledger.restore("v3,300000000,1,1,0\nx,1,1,0\n")
        # every raw collateral is exact at the 0.1 peg, but not every one
        # stays exact under another peg in the header
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1), account_id="x")
        text = ledger.snapshot()
        repegged = text.replace(f"v3,{PEG.ppb},", "v3,300000000,", 1)
        assert repegged != text
        with pytest.raises(SnapshotError, match="line 2: .* not an exact multiple"):
            Ledger.restore(repegged)

    def test_snapshot_writes_v3(self):
        # header v3,peg_ppb,index_num,index_den,period; rows
        # id,shares,collateral,created_period
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1), account_id="x")
        assert ledger.snapshot() == (
            "v3,100000000,1,1,0\nx,10000000000000000000,1000000000,0\n"
        )

    def test_bad_account_id_rejected(self):
        # the only id the line and comma split can leave that open_account
        # would refuse is the empty one
        text = fresh().snapshot() + ",10000000000000000000,1000000000,0\n"
        with pytest.raises(SnapshotError, match="account id"):
            Ledger.restore(text)

    def test_negative_created_period_rejected(self):
        text = "v3,100000000,1,1,0\nx,10000000000000000000,1000000000,-1\n"
        with pytest.raises(SnapshotError, match="line 2: created_period -1 is negative"):
            Ledger.restore(text)

    def test_negative_header_period_rejected(self):
        with pytest.raises(SnapshotError, match="line 1: start_period must be >= 0"):
            Ledger.restore("v3,100000000,1,1,-3\n")

    @pytest.mark.parametrize(
        "header, error",
        [
            ("1,1,0,0,0", "not a v3 header"),  # v1: num,den,period and two counters
            ("v2,100000000,1,1,1,0", "not a v3 header"),  # v2: holding period after peg
            ("v3,100000000,1,1", "not a v3 header"),
            ("v3,100000000,1,1,0,0", "not a v3 header"),
            ("v3,0.1,1,1,0", "bad header"),
            ("v3,0,1,1,0", "peg_ratio must be positive"),
            ("v3,-100000000,1,1,0", "peg_ratio must be positive"),
        ],
    )
    def test_bad_header_rejected(self, header, error):
        with pytest.raises(SnapshotError, match=f"line 1: {error}"):
            Ledger.restore(header + "\n")

    @pytest.mark.parametrize(
        "spelling", ["1_0", "+1", " 1", "1 ", "01", "00", "-0", "\u0661"]
    )
    def test_non_canonical_integer_rejected(self, spelling):
        # int() reads every one of these, so each restored to a ledger
        # whose snapshot differed from the text
        with pytest.raises(SnapshotError, match="line 1: bad header"):
            Ledger.restore(f"v3,100000000,{spelling},1,0\n")
        with pytest.raises(SnapshotError, match="line 2: bad integer"):
            Ledger.restore(f"v3,100000000,1,1,0\nx,{spelling},0,0\n")

    def test_short_row_rejected(self):
        with pytest.raises(SnapshotError, match="line 2: expected 4 fields"):
            Ledger.restore("v3,100000000,1,1,0\nx,1,0\n")

    def test_account_created_after_period_rejected(self):
        # restored, withdraw would report the account as -4 periods old
        text = "v3,100000000,1,1,5\nx,10000000000000000000,1000000000,9\n"
        with pytest.raises(SnapshotError, match="line 2: created_period 9"):
            Ledger.restore(text)

    @pytest.mark.parametrize("index", ["0,1", "1,0", "-2,3"])
    def test_non_positive_index_term_rejected(self, index):
        with pytest.raises(SnapshotError, match="line 1: index"):
            Ledger.restore(f"v3,100000000,{index},0\n")

    @pytest.mark.parametrize(
        "row",
        [
            "x,-1,0,0",
            "x,1,-1,0",
            # shares worth MAX_RAW + 1 raw at index 1
            f"x,{(MAX_RAW + 1) * SHARE_SCALE},0,0",
            # the collateral fits, its obligation at the 0.1 peg does not
            f"x,1,{MAX_RAW // 10 + 1},0",
        ],
    )
    def test_amount_out_of_range_rejected(self, row):
        with pytest.raises(SnapshotError, match="line 3: amount"):
            Ledger.restore(f"v3,100000000,1,1,0\nok,1,0,0\n{row}\n")

    def test_total_collateral_overflow_rejected(self):
        row = f",1,{MAX_RAW // 10},0\n"
        text = "v3,100000000,1,1,0\n" + "".join(f"{i}{row}" for i in "abcdefghijk")
        with pytest.raises(SnapshotError, match="line 12: amount exceeds"):
            Ledger.restore(text)

    @settings(max_examples=120, deadline=None)
    @given(text=st.one_of(st.text(), SNAPSHOT_TEXT))
    @example(text="v3,100000000,01,1,0\n")  # restored as index 1/1
    def test_any_snapshot_restores_or_raises_snapshot_error(self, text):
        try:
            ledger = Ledger.restore(text)
        except SnapshotError:
            return
        assert Ledger.restore(ledger.snapshot()).snapshot() == ledger.snapshot()
        if text == "\n".join(text.splitlines()) + "\n":
            assert ledger.snapshot() == text
        assert ledger.total_collateral.raw == sum(
            ledger.collateral_of(i).raw for i in ledger.account_ids()
        )


# One operation: (kind, a, b, c); a and b pick accounts by position, and c
# sizes the operation (collateral, a ppm share of a balance, or a ppb rate,
# taken mod 10^9 above +100%).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["open", "deposit", "transfer", "withdraw", "rebase"]),
        st.integers(0, 63),
        st.integers(0, 63),
        st.integers(-900_000_000, 10**12),
    ),
    max_size=40,
)
# Twelve rebases at 1 + 0.123456789: from the fourth on, the exact product
# has more decimals than the grid and the index rounds.
RENORMALISING_OPS = [("open", 0, 0, 10**12)] + [("rebase", 0, 0, 123_456_789)] * 12


def assert_share_total(ledger: Ledger) -> None:
    """The running share total is the sum of the share counts."""
    assert ledger._total_shares == sum(ledger._shares.values())


def replay(ops):
    """Apply ops to a fresh ledger, checking that a refused operation
    changes nothing and that the share total holds; yields the ledger
    after each op, with whether that op renormalised the index."""
    ledger = fresh()
    ids: list[str] = []
    for kind, a, b, c in ops:
        renormalised = False
        if kind == "open":
            ids.append(ledger.open_account(Amount(abs(c) + 1))[0])
        elif ids:
            src, dst = ids[a % len(ids)], ids[b % len(ids)]
            ppm = abs(c) % (10**6 + 1)
            before = ledger.snapshot()
            try:
                if kind == "deposit":
                    ledger.deposit(src, Amount(abs(c) + 1))
                elif kind == "transfer":
                    amount = ledger.balance_of(src).raw * ppm // 10**6
                    ledger.transfer(src, dst, Amount(amount))
                elif kind == "withdraw":
                    out = ledger.collateral_of(src).raw * ppm // 10**6
                    ledger.withdraw(src, Amount(out))
                else:
                    r = Rate(c if c <= UNIT else c % UNIT)
                    exact = index_value(ledger.index) * (UNIT + r.ppb) / UNIT
                    assert ledger.rebase(r) == ledger.total_supply()
                    renormalised = index_value(ledger.index) != exact
            except ToroidError:
                assert ledger.snapshot() == before
        assert_share_total(ledger)
        yield ledger, renormalised


def replay_checking_supply(ops) -> int:
    """Replay ops, checking after each that total_supply() is the exact sum
    of balances and of the per-account apply_index oracle.  Returns how
    many rebases renormalised the index."""
    renormalised = 0
    for ledger, renormalised_now in replay(ops):
        renormalised += renormalised_now
        supply = ledger.total_supply().raw
        assert supply == sum(ledger.balance_of(i).raw for i in ledger.account_ids())
        assert supply == sum(
            apply_index(Amount(shares), ledger.index).raw // SHARE_SCALE
            for shares in ledger._shares.values()
        )
    return renormalised


class TestExactSupply:
    @settings(max_examples=300, deadline=None)
    @given(ops=OPS)
    @example(ops=RENORMALISING_OPS)
    def test_supply_is_exact_sum_of_balances(self, ops):
        replay_checking_supply(ops)

    def test_renormalising_sequence_renormalises(self):
        assert replay_checking_supply(RENORMALISING_OPS) > 0

    def test_thousand_accounts_match_oracle(self):
        rng = random.Random(4_000_001)
        ledger = fresh()
        ids = [
            ledger.open_account(Amount(rng.randrange(1, 10**13)))[0] for _ in range(1_000)
        ]
        for _ in range(20):
            for _ in range(200):
                src, dst = rng.sample(ids, 2)
                amount = Amount(rng.randrange(0, ledger.balance_of(src).raw + 1))
                ledger.transfer(src, dst, amount)
            ledger.rebase(Rate(rng.randrange(-300_000_000, 400_000_000)))
            balances = [
                apply_index(Amount(ledger._shares[i]), ledger.index).raw
                // SHARE_SCALE
                for i in ids
            ]
            assert [ledger.balance_of(i).raw for i in ids] == balances
            assert ledger.total_supply().raw == sum(balances)


def restored(num: int, den: int, shares: list[int]) -> Ledger:
    """A ledger at index num/den holding one account per share count."""
    lines = [f"v3,{PEG.ppb},{num},{den},0"]
    lines += [f"a{i},{s},1,0" for i, s in enumerate(shares, start=1)]
    return Ledger.restore("\n".join(lines) + "\n")


def share_bound(num: int, den: int) -> int:
    """The largest share total worth at most MAX_RAW at index num/den."""
    return ((MAX_RAW + 1) * den * SHARE_SCALE - 1) // num


def edge_shares(num: int, den: int, bound: int) -> st.SearchStrategy[int]:
    """Share counts 0, 1, bound, any up to bound, and exact multiples of
    d / gcd(num, d), whose balance has no fractional part."""
    d = den * SHARE_SCALE
    step = d // math.gcd(num, d)
    return (
        st.sampled_from([0, min(1, bound), bound])
        | st.integers(0, bound)
        | st.integers(0, bound // step).map(lambda j: j * step)
    )


def refused_past(num: int, den: int, shares: list[int]) -> None:
    """One share more than the bound allows is refused on restore."""
    extra = share_bound(num, den) - sum(shares) + 1
    with pytest.raises(SnapshotError, match="amount exceeds capacity"):
        restored(num, den, shares + [extra])


class TestSupplyReciprocal:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_matches_one_division_per_account(self, data):
        # den reaches far past the grid's 10**30, as a restored snapshot's
        # index may; the counts fill up to the share bound
        num = data.draw(st.integers(1, 2**64) | st.integers(1, 2**300))
        den = data.draw(st.integers(1, 2**64) | st.integers(2**128, 2**300))
        bound, shares = share_bound(num, den), []
        for _ in range(data.draw(st.integers(0, 6))):
            shares.append(data.draw(edge_shares(num, den, bound - sum(shares))))
        ledger = restored(num, den, shares)
        assert ledger.total_supply() == supply_by_division(ledger)
        refused_past(num, den, shares)

    @pytest.mark.parametrize(
        "num, den",
        [(1, 1), (3, 7), (10**27, 10**30), (1, 2**300), (2**300 + 1, 3**180), (2**64, 1)],
        ids=["identity", "3/7", "renormalized", "collapsed", "wide", "grown"],
    )
    def test_matches_at_the_share_bound(self, num, den):
        step = den * SHARE_SCALE // math.gcd(num, den * SHARE_SCALE)
        bound = share_bound(num, den)
        for shares in (0, 1, bound, bound // step * step):
            ledger = restored(num, den, [shares])
            assert ledger.total_supply() == supply_by_division(ledger)
        refused_past(num, den, [])

    @pytest.mark.parametrize(
        "num, den",
        [(7 * 5**39, 10**30), (5**39 * 10**3, 10**30), (3 * 10**9, 1), (10**18, 1)],
        ids=["grid-0", "grid-0-whole", "den-1", "den-1-whole"],
    )
    def test_matches_where_d_divides_the_shifted_numerator(self, num, den):
        # num * 2^k is a multiple of d = den * SHARE_SCALE, so the reciprocal
        # floor(num * 2^k / d) + 1 is one above the exact quotient: the one
        # case where it differs from the ceiling, and where the proof's
        # error s / 2^k comes nearest its bound 1/d
        d = den * SHARE_SCALE
        assert (num << d.bit_length()) % d == 0
        bound = share_bound(num, den)
        for shares in ([1], [bound], [1, bound - 1], [bound // 3] * 3, [d - 1, d, d + 1]):
            ledger = restored(num, den, shares)
            assert ledger.total_supply() == supply_by_division(ledger)

    def test_refuses_an_index_the_share_total_is_worth_past(self):
        # two counts just under half a raw unit past whole balances: their
        # floors sum to MAX_RAW at either index, while the total is worth
        # MAX_RAW at index 1 and MAX_RAW + 1 at 1 + 10^-46
        whole = [MAX_RAW // 2, MAX_RAW - MAX_RAW // 2]
        ledger = restored(1, 1, [w * SHARE_SCALE + SHARE_SCALE // 2 - 1 for w in whole])
        assert ledger.total_supply() == Amount(MAX_RAW)
        # No public call or restore reaches an index past capacity: write
        # the private terms, as _rebase_raw does.
        ledger._index_num, ledger._index_den = 10**60 + 10**14, 10**60
        assert supply_by_division(ledger) == Amount(MAX_RAW)
        message = f"amount exceeds capacity: {MAX_RAW + 1}$"
        with pytest.raises(AmountOverflowError, match=f"^{message}"):
            ledger.total_supply()
        with pytest.raises(SnapshotError, match=f"^line 3: {message}"):
            Ledger.restore(ledger.snapshot())


def grid_step(idx) -> int:
    """The j of an index on the grid 10^-(30+3j); fails for any other index."""
    exponent = len(str(idx.den)) - 1
    assert idx.den == 10**exponent and exponent >= 30 and exponent % 3 == 0
    return (exponent - 30) // 3


def collapsing_ledger() -> Ledger:
    """Three accounts after twelve rebases at -0.499999999: index ~2.4e-4."""
    ledger = fresh()
    for tokens in (1, 3, 7):
        ledger.open_account(Amount.from_tokens(tokens))
    for _ in range(12):
        ledger.rebase(Rate(-499_999_999))
    return ledger


class TestBoundedIndex:
    """Every rebase rounds the index onto the grid, so its terms depend on
    its value alone, never on how many periods ran."""

    def test_long_collapsed_run_snapshots(self):
        ledger = collapsing_ledger()
        for period in range(500):
            ledger.rebase(Rate(-499_999_999 if period % 2 == 0 else 999_999_997))
        text = ledger.snapshot()
        assert Ledger.restore(text).snapshot() == text
        assert ledger.total_supply() == supply_by_division(ledger)
        assert grid_step(ledger.index) == 1

    def test_snapshot_past_the_digit_limit_is_a_snapshot_error(self):
        # 474 rebases at -0.999999999 leave a 4,294-digit denominator, the
        # 475th one of 4,303 digits, past Python's default 4,300 limit.
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter sets no int-to-str limit")
        ledger = fresh()
        ledger.open_account(Amount.from_tokens(1000))
        for _ in range(474):
            ledger.rebase(Rate(-UNIT + 1))
        text = ledger.snapshot()
        assert Ledger.restore(text).snapshot() == text
        ledger.rebase(Rate(-UNIT + 1))
        before = ledger.copy()
        with pytest.raises(SnapshotError, match=f"{limit}-digit limit") as exc:
            ledger.snapshot()
        assert "index terms of 90/14291 bits" in str(exc.value)
        assert ledger.index == before.index
        assert ledger._shares == before._shares
        assert ledger._collateral == before._collateral
        assert ledger._created == before._created
        assert ledger.total_supply() == before.total_supply()

    @settings(max_examples=200, deadline=None)
    @given(
        rates=st.lists(
            st.integers(-UNIT + 1, -UNIT + 1_000)
            | st.integers(-UNIT + 1, -400_000_000)
            | st.integers(-UNIT + 1, UNIT),
            min_size=1,
            max_size=40,
        )
    )
    def test_every_rebase_lands_on_the_grid(self, rates):
        ledger = collapsing_ledger()
        for ppb in rates:
            ledger.rebase(Rate(ppb))
            j = grid_step(ledger.index)
            assert ledger.index.num >= 10**27
            if index_value(ledger.index) >= Fraction(1, 1000):
                assert j == 0
            if j > 0:
                assert ledger.index.num < 10**30
            assert ledger.total_supply() == supply_by_division(ledger)


@st.composite
def index_terms(draw):
    """(num, den) on the first grid, at its 10^27 edge, on a grid down to
    j = 1,000 (about 10^-3000), or any positive fraction, as restore takes."""
    return draw(
        st.integers(10**27, 10**30 - 1).map(lambda num: (num, 10**30))
        | st.integers(10**27, 10**27 + 10**12).map(lambda num: (num, 10**30))
        | st.tuples(st.integers(10**27, 10**30 - 1), st.integers(1, 1_000)).map(
            lambda t: (t[0], 10 ** (30 + 3 * t[1]))
        )
        | st.tuples(st.integers(1, 2**64) | st.integers(1, 2**300),
                    st.integers(1, 2**64) | st.integers(2**128, 2**300))
    )


RATES_PPB = (
    st.integers(-UNIT - 2, -UNIT + 1_000)
    | st.integers(-UNIT + 1, 3 * UNIT)
    | st.sampled_from([0, -1, 1, -UNIT // 2, UNIT // 2])
)


def outcome(call, *args):
    """call(*args), or the type of the ToroidError it raises."""
    try:
        return call(*args)
    except ToroidError as exc:
        return type(exc)


class TestIntegerForms:
    """The ledger's private integer forms against the oracles."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), terms=index_terms(), ppb=RATES_PPB)
    def test_rebase_raw_matches_the_oracles(self, data, terms, ppb):
        num, den = terms
        bound, shares = share_bound(num, den), []
        for _ in range(data.draw(st.integers(0, 4))):
            shares.append(data.draw(edge_shares(num, den, bound - sum(shares))))
        ledger = restored(num, den, shares)
        assert ledger._supply_raw() == supply_by_division(ledger).raw
        text = ledger.snapshot()
        grown = outcome(grow_index_by_search, ledger.index, Rate(ppb))
        raw = outcome(ledger._rebase_raw, ppb)
        if grown is NonPositiveFactorError:
            assert raw is NonPositiveFactorError
            assert ledger.snapshot() == text
        elif sum(shares) > share_bound(grown.num, grown.den):
            assert raw is AmountOverflowError
            assert ledger.snapshot() == text
        else:
            assert ledger.index == grown
            assert ledger.current_period == 1
            assert raw == supply_by_division(ledger).raw

    @settings(max_examples=200, deadline=None)
    @given(
        terms=index_terms(),
        # multiples of 10 raw have exact collateral at the peg of 0.1
        minted=st.integers(1, 10**20).map(lambda m: 10 * m) | st.integers(1, MAX_RAW),
    )
    def test_open_minted_is_open_account_of_collateral_for(self, terms, minted):
        # at any index: the same shares and collateral, or the same refusal
        def opened(ledger, open_):
            try:
                open_(ledger)
            except ToroidError as exc:
                return type(exc), str(exc)
            return ledger.snapshot()

        raw = opened(restored(*terms, []), lambda ledger: ledger._open_minted("x", minted))
        public = opened(
            restored(*terms, []),
            lambda ledger: ledger.open_account(
                ledger.collateral_for(Amount(minted)), account_id="x"
            ),
        )
        assert raw == public

    @settings(max_examples=200, deadline=None)
    @given(terms=index_terms(), ppb=st.integers(1, 3 * UNIT))
    def test_rebase_raw_past_capacity_changes_nothing(self, terms, ppb):
        num, den = terms
        # a share total at its bound: below 2^64 at the index, one share is
        # worth under 2^64 / 10^9 raw, far less than 1 ppb of MAX_RAW
        if num >= den * 2**64:
            num, den = den, num
        ledger = restored(num, den, [share_bound(num, den)])
        index, text = ledger.index, ledger.snapshot()
        with pytest.raises(AmountOverflowError, match=r"^amount exceeds capacity: \d+$"):
            ledger._rebase_raw(ppb)
        assert ledger.index == index
        assert ledger.current_period == 0
        assert ledger.snapshot() == text
        assert ledger._supply_raw() == supply_by_division(ledger).raw


class TestAccountState:
    """Only the ledger's own methods write its accounts.  When they sat in a
    public dict of mutable records, storing one there left the share total
    stale: total_supply() read 57,561,560,123 raw above the sum of the
    balances, and the ledger disagreed with its own snapshot."""

    def test_no_public_attribute_is_a_mutable_container(self):
        ledger = busy_ledger()
        public = {k: v for k, v in vars(ledger).items() if not k.startswith("_")}
        assert public
        for name, value in public.items():
            assert not isinstance(value, (dict, list, set)), name
            # a mutable record (a dataclass that is not frozen) has no hash
            hash(value)

    def test_index_is_read_only(self):
        # Set from outside, an index could pass the capacity rule unchecked.
        ledger = busy_ledger()
        text = ledger.snapshot()
        with pytest.raises(AttributeError):
            ledger.index = Index(10**60, 1)
        assert ledger.snapshot() == text

    @pytest.mark.parametrize(
        "name, value",
        [
            # Set from outside, each wrote a snapshot that restore refused:
            # 1 base no longer a multiple of the peg, and a negative period.
            ("peg_ratio", Rate(300_000_000)),
            ("current_period", -5),
        ],
    )
    def test_peg_and_period_are_read_only(self, name, value):
        ledger = busy_ledger()
        text = ledger.snapshot()
        with pytest.raises(AttributeError):
            setattr(ledger, name, value)
        assert ledger.snapshot() == text
        assert Ledger.restore(text).snapshot() == text

    def test_mutating_account_ids_leaves_the_ledger_unchanged(self):
        ledger = busy_ledger()
        ids, supply, text = ledger.account_ids(), ledger.total_supply(), ledger.snapshot()
        listed = ledger.account_ids()
        listed.append("z")
        listed.reverse()
        assert ledger.account_ids() == ids == ["a1", "a2", "a3"]
        assert "z" not in ledger
        assert ledger.total_supply() == supply
        assert ledger.snapshot() == text


# The largest collateral whose share count is at most MAX_RAW at index 1:
# the 0.1 peg mints 10 TRD per base, and each raw TRD is SHARE_SCALE shares.
FULL = Amount(MAX_RAW // (10 * SHARE_SCALE))

# Each pushes one account's share count past MAX_RAW on a ledger holding
# two FULL accounts, while the share total stays worth far below MAX_RAW.
SHARE_COUNTS_PAST_MAX_RAW = {
    "open": lambda led: led.open_account(Amount(FULL.raw + 1)),
    "deposit": lambda led: led.deposit("a1", FULL),
    "transfer receiver": lambda led: led.transfer("a2", "a1", led.balance_of("a2")),
}

# Each pushes the share total's worth past MAX_RAW on a ledger holding two
# accounts worth MAX_RAW - 7 raw together; nothing else is out of range.
SHARE_TOTAL_OVERFLOWS = {
    "open": lambda led: led.open_account(Amount(1)),
    "deposit": lambda led: led.deposit("a2", Amount(1)),
    "rebase": lambda led: led.rebase(Rate(1)),
}


class TestShareCounts:
    """Share counts are plain ints >= 0 whose total is worth at most MAX_RAW."""

    @pytest.mark.parametrize("op", sorted(FORK_OPS))
    def test_every_write_stores_an_int(self, op):
        ledger = busy_ledger()
        FORK_OPS[op](ledger)
        for twin in (ledger, Ledger.restore(ledger.snapshot()), ledger.copy()):
            assert {type(shares) for shares in twin._shares.values()} == {int}

    @pytest.mark.parametrize("op", sorted(SHARE_COUNTS_PAST_MAX_RAW))
    def test_share_count_past_max_raw_is_accepted(self, op):
        ledger = fresh()
        ledger.open_account(FULL)
        ledger.open_account(FULL)
        SHARE_COUNTS_PAST_MAX_RAW[op](ledger)
        assert max(ledger._shares.values()) > MAX_RAW
        assert_share_total(ledger)
        assert ledger.total_supply() == supply_by_division(ledger)
        text = ledger.snapshot()
        assert Ledger.restore(text).snapshot() == text

    @pytest.mark.parametrize("op", sorted(SHARE_TOTAL_OVERFLOWS))
    def test_share_total_worth_past_max_raw_is_refused(self, op):
        ledger = fresh()
        ledger.open_account(Amount(MAX_RAW // 20))
        ledger.open_account(Amount(MAX_RAW // 20))
        assert ledger.total_supply() == Amount(MAX_RAW - 7)
        before = ledger.snapshot()
        with pytest.raises(AmountOverflowError, match=r"^amount exceeds capacity: \d+$"):
            SHARE_TOTAL_OVERFLOWS[op](ledger)
        assert ledger.snapshot() == before
        assert ledger.rebase(Rate(0)) == Amount(MAX_RAW - 7)

    @pytest.mark.parametrize(
        "shares, error, message",
        [
            (-1, NegativeAmountError, "amount cannot be negative: -1"),
            # shares worth MAX_RAW + 1 raw at index 1
            (
                (MAX_RAW + 1) * SHARE_SCALE,
                AmountOverflowError,
                f"amount exceeds capacity: {MAX_RAW + 1}",
            ),
        ],
        ids=["negative", "past MAX_RAW"],
    )
    def test_restore_refuses_a_share_count_out_of_range(self, shares, error, message):
        text = f"v3,100000000,1,1,0\nok,1,0,0\nx,{shares},0,0\n"
        with pytest.raises(SnapshotError, match=f"^line 3: {message}$") as raised:
            Ledger.restore(text)
        assert type(raised.value.__cause__) is error


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Ledger(Rate(100_000_000), start_period=True),
            lambda: Ledger(Rate(100_000_000)).open_account(Amount(True)),
        ],
        ids=["start_period", "collateral"],
    )
    def test_a_bool_never_reaches_a_snapshot(self, build):
        # True passed isinstance(x, int) and was written out as "True",
        # a header or collateral field that restore refused
        with pytest.raises(TypeError, match="must be int, got "):
            build()

    def test_the_int_twins_of_those_bools_round_trip(self):
        ledger = Ledger(Rate(100_000_000), start_period=1)
        ledger.open_account(Amount(1), account_id="a")
        text = ledger.snapshot()
        assert text == "v3,100000000,1,1,1\na,10000000000,1,1\n"
        assert Ledger.restore(text).snapshot() == text

    @settings(max_examples=200, deadline=None)
    @given(ops=OPS)
    @example(ops=RENORMALISING_OPS)
    def test_restore_and_copy_give_back_every_ledger(self, ops):
        for ledger, _ in replay(ops):
            text = ledger.snapshot()
            ids = ledger.account_ids()
            for twin in (Ledger.restore(text), ledger.copy()):
                assert twin.snapshot() == text
                assert twin.total_collateral == ledger.total_collateral
                assert twin.account_ids() == ids
                for i in ids:
                    assert twin.collateral_of(i) == ledger.collateral_of(i)
                    assert twin.balance_of(i) == ledger.balance_of(i)


class TestRandomizedInvariants:
    """Seeded operation-sequence fuzzing of the conservation rules.

    The heavyweight version with a much larger sequence count lives in the
    acceptance suite; this one keeps day-to-day runs fast.
    """

    def _run_sequence(self, rng: random.Random) -> None:
        ledger = fresh()
        expected_collateral = 0
        expected_minted = 0
        ids: list[str] = []
        for _ in range(rng.randrange(4, 11)):
            assert_share_total(ledger)
            op = rng.random()
            if op < 0.3 or len(ids) < 2:
                collateral = Amount(rng.randrange(1, 10**7) * 100)
                account_id, minted = ledger.open_account(collateral)
                ids.append(account_id)
                expected_collateral += collateral.raw
                expected_minted += minted.raw
                # entry balance equals the minted amount exactly
                assert ledger.balance_of(account_id) == minted
            elif op < 0.5:
                collateral = Amount(rng.randrange(1, 10**7) * 100)
                expected_minted += ledger.deposit(rng.choice(ids), collateral).raw
                expected_collateral += collateral.raw
            elif op < 0.7:
                src, dst = rng.sample(ids, 2)
                balance = ledger.balance_of(src)
                if balance.raw == 0:
                    continue
                amount = Amount(rng.randrange(0, balance.raw + 1))
                ledger.transfer(src, dst, amount)
            elif op < 0.9:
                r = Rate(rng.randrange(-500_000_000, 1_000_000_000))
                balances = {i: ledger.balance_of(i) for i in ids}
                shares = {i: ledger._shares[i] for i in ids}
                ledger.rebase(r)
                # proportionality: shares untouched; every balance scales by
                # (1 + r) within one raw unit of quantization, plus one more
                # when positive growth amplifies the pre-rebase floor loss
                slack = 1 if r.ppb <= 0 else 2
                for i in ids:
                    assert ledger._shares[i] == shares[i]
                    scaled = apply_index(balances[i], one_plus(r)).raw
                    actual = ledger.balance_of(i).raw
                    assert 0 <= actual - scaled <= slack
                # pairwise balance ratios survive the rebase up to one raw
                # unit of jitter on each side
                for x, y in zip(ids, ids[1:]):
                    lhs = ledger.balance_of(x).raw * balances[y].raw
                    rhs = ledger.balance_of(y).raw * balances[x].raw
                    assert abs(lhs - rhs) <= 2 * (balances[x].raw + balances[y].raw)
            else:
                account_id = rng.choice(ids)
                collateral = ledger.collateral_of(account_id)
                if collateral.raw == 0:
                    continue
                if ledger.current_period - ledger._created[account_id] < 1:
                    continue
                out = Amount(rng.randrange(1, collateral.raw + 1) // 100 * 100)
                if out.raw == 0:
                    continue
                burned = Amount(out.raw * UNIT // PEG.ppb)
                if ledger.balance_of(account_id).raw < burned.raw:
                    continue
                expected_minted -= ledger.withdraw(account_id, out).raw
                expected_collateral -= out.raw

        assert_share_total(ledger)
        # collateral conservation is exact
        assert ledger.total_collateral.raw == expected_collateral
        assert ledger.total_collateral.raw == sum(
            ledger.collateral_of(i).raw for i in ledger.account_ids()
        )
        # peg obligation: the obligations the collateral implies are
        # exactly what the operations minted and burned
        assert expected_minted == sum(
            ledger.minted_for(ledger.collateral_of(i)).raw for i in ledger.account_ids()
        )
        assert ledger.total_collateral.raw * UNIT == expected_minted * PEG.ppb
        # conservation: balances match the share pool within floor dust
        implied = apply_index(
            Amount(sum(ledger._shares.values())), ledger.index
        ).raw // SHARE_SCALE
        total = ledger.total_supply().raw
        assert 0 <= implied - total <= len(ledger.account_ids())

    def test_sequences(self):
        rng = random.Random(20_250_101)
        for _ in range(1500):
            self._run_sequence(rng)
