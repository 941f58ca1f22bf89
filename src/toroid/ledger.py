"""Account and collateral state machine with pro-rated lazy rebasement.

Balances are not stored directly.  Each account holds index-invariant
share units; one global index (the running product of all 1 + r factors)
converts shares to TRD.  A rebase therefore touches a single fraction,
every balance scales in exact proportion, and an account opened at period
t is untouched by every rebasement before t, because its shares were
converted at the index current when it entered.

Shares carry an extra factor of 10^9 below raw token precision, so the
floor error of a share conversion sits nine decimal digits under one raw
unit and whole-raw arithmetic (mint, burn, rebase of round amounts) comes
out exact at token precision.  A share count is a plain int >= 0; Amount
is the type at the public boundary (balances, supply, collateral).  One
rule keeps balances and supply in range: the share total is worth at most
MAX_RAW at the index, and a sum of floors is at most the floor of the sum.
Opening, deposit, restore and rebase check it; a transfer keeps the total.

Collateral is the only stored amount.  The peg is fixed, so an account's
refund obligation is always minted_for(collateral) and needs no column of
its own; deposits and withdrawals are pure integer addition on collateral.
An account's shares, collateral and opening period each sit in a private
map by id that only Ledger's own methods write.

The index is two private int terms that only _rebase_raw and restore
write; conversions read them, and the index property boxes them into an
Index when read.  The peg and the period ordinal are read-only
properties as well: __init__ sets both, and only _rebase_raw advances
the period.  _rebase_raw(ppb) is the period close on ints: the
terms grow through numerics._grow_terms and the raw supply comes back
from _supply_raw.  rebase(r) and total_supply() box it into an Amount.
An attack arm's period is controller._combined_ppb and then _rebase_raw.
"""

from __future__ import annotations

import sys

from .errors import (
    AmountOverflowError,
    ExceedsCollateralError,
    HoldingPeriodNotMetError,
    InsufficientBalanceError,
    InsufficientForRefundError,
    InvalidArgumentError,
    NegativeAmountError,
    NonDivisibleCollateralError,
    SelfTransferError,
    SnapshotError,
    ToroidError,
    UnknownAccountError,
    ZeroCollateralError,
    check_id,
)
from .numerics import MAX_RAW, UNIT, Amount, Index, Rate, _grow_terms, format_raw

# Internal share units per raw token unit at index 1.
SHARE_SCALE = 10**9

# Periods an account must exist before it may withdraw: the paper's
# minimum investment period ("for example one day") is one period here.
MIN_HOLDING_PERIODS = 1

# Every new ledger's collateral total; an Amount is immutable, so all share it.
_NO_COLLATERAL = Amount(0)


def _canonical_int(field: str) -> int:
    """Read an integer only as str() spells it: no '+', pad, '_' or leading 0."""
    value = int(field)
    if str(value) != field:
        raise ValueError(f"not a canonical integer: {field!r}")
    return value


class _Field(dict):
    """One account field by id; reading an unknown id raises UnknownAccountError."""

    def __missing__(self, account_id: str):
        raise UnknownAccountError(f"unknown account {account_id!r}")


class Ledger:
    """Single-owner mutable state machine; operations are serialized.

    Safe to hand between threads, never to mutate concurrently.  Run many
    scenarios in parallel by giving each its own Ledger.
    """

    def __init__(self, peg_ratio: Rate, start_period: int = 0):
        if type(peg_ratio) is not Rate:
            raise TypeError(f"peg_ratio must be Rate, got {peg_ratio!r}")
        if type(start_period) is not int:
            raise TypeError(f"start_period must be int, got {start_period!r}")
        if peg_ratio.ppb <= 0:
            raise InvalidArgumentError("peg_ratio must be positive")
        if start_period < 0:
            raise InvalidArgumentError("start_period must be >= 0")
        self._peg_ratio = peg_ratio
        self._shares: dict[str, int] = _Field()
        self._collateral: dict[str, Amount] = _Field()
        self._created: dict[str, int] = _Field()
        self._index_num, self._index_den = 1, 1
        self._current_period = start_period
        self.total_collateral = _NO_COLLATERAL
        self._total_shares = 0
        self._next_account_seq = 1

    def copy(self) -> Ledger:
        """An independent ledger in the same state.

        The per-account maps are copied; the ints and Amounts they hold
        and the index terms are immutable values, so both ledgers share
        them.
        """
        clone = object.__new__(type(self))
        vars(clone).update(vars(self))
        clone._shares = _Field(self._shares)
        clone._collateral = _Field(self._collateral)
        clone._created = _Field(self._created)
        return clone

    @property
    def index(self) -> Index:
        """The rebase index Pi(1 + r), read-only: only rebase and restore move it."""
        return Index(self._index_num, self._index_den)

    def _index_terms(self) -> tuple[int, int]:
        """index's numerator and denominator, unboxed."""
        return self._index_num, self._index_den

    @property
    def peg_ratio(self) -> Rate:
        """Base coin locked per TRD minted, read-only: fixed at construction."""
        return self._peg_ratio

    @property
    def current_period(self) -> int:
        """The open period's ordinal, read-only: only _rebase_raw advances it."""
        return self._current_period

    # -- conversions -------------------------------------------------

    def minted_for(self, collateral: Amount) -> Amount:
        """TRD minted for collateral, and so its refund obligation.

        Must divide exactly at the peg; the inverse of collateral_for.
        """
        scaled = collateral.raw * UNIT
        if scaled % self._peg_ratio.ppb != 0:
            raise NonDivisibleCollateralError(
                f"{collateral.tokens()} base is not an exact multiple of the peg"
            )
        return Amount(scaled // self._peg_ratio.ppb)

    def collateral_for(self, minted: Amount) -> Amount:
        """Collateral that mints exactly minted TRD; the inverse of minted_for."""
        return Amount(self._collateral_raw(minted.raw))

    def _collateral_raw(self, minted: int) -> int:
        """collateral_for on a raw TRD count, unboxed."""
        scaled = minted * self._peg_ratio.ppb
        if scaled % UNIT != 0:
            raise NonDivisibleCollateralError(
                f"{format_raw(minted)} TRD has no exact collateral at the peg"
            )
        return scaled // UNIT

    def _to_shares_ceil(self, raw: int) -> int:
        """Shares granted when raw tokens enter; ceiling keeps entry balances exact."""
        return -((-raw * SHARE_SCALE * self._index_den) // self._index_num)

    def _to_shares_floor(self, raw: int) -> int:
        """Shares removed when raw tokens leave; flooring never debits extra."""
        return raw * SHARE_SCALE * self._index_den // self._index_num

    def _balance_raw(self, shares: int) -> int:
        # One floor over den * SHARE_SCALE equals flooring by den, then by
        # SHARE_SCALE: floor(floor(shares * num / den) / SHARE_SCALE).
        return shares * self._index_num // (self._index_den * SHARE_SCALE)

    def _capped(self, total_shares: int) -> int:
        """total_shares, or AmountOverflowError if worth more than MAX_RAW."""
        worth = self._balance_raw(total_shares)
        if worth > MAX_RAW:
            raise AmountOverflowError(f"amount exceeds capacity: {worth}")
        return total_shares

    # -- queries -------------------------------------------------------

    def __contains__(self, account_id: object) -> bool:
        return account_id in self._shares

    def account_ids(self) -> list[str]:
        """Every account id, in opening order; a new list on each call."""
        return list(self._shares)

    def balance_of(self, account_id: str) -> Amount:
        return Amount(self._held_raw(account_id))

    def _held_raw(self, account_id: str) -> int:
        """balance_of as a raw int, unboxed."""
        return self._balance_raw(self._shares[account_id])

    def collateral_of(self, account_id: str) -> Amount:
        """Collateral locked by an account; its obligation is minted_for of it."""
        return self._collateral[account_id]

    def total_supply(self) -> Amount:
        """Exact sum of every floored balance; see _supply_raw."""
        return Amount(self._supply_raw())

    def _supply_raw(self) -> int:
        """Exact sum of every floored balance as a raw int, in one integer pass.

        Each balance floor(s * num / d), d = den * SHARE_SCALE, is taken as
        s * m >> k with the reciprocal m = floor(num * 2**k / d) + 1: one
        division per call, none per account (Granlund & Montgomery,
        "Division by Invariant Integers using Multiplication", 1994).
        Every share count s lies in 0..T, T the share total, and k makes
        2**k > T * d.  Then the two floors are equal:
          1. m - num * 2**k / d lies in (0, 1]: it is 1 exactly when d
             divides num * 2**k, and below 1 otherwise.
          2. s * m / 2**k - s * num / d = s * (m - num * 2**k / d) / 2**k,
             which lies in [0, T / 2**k], inside [0, 1/d).
          3. s * num / d is a multiple of 1/d, so its fractional part is at
             most 1 - 1/d.
          4. Adding less than 1/d to it cannot reach the next integer.

        Past capacity it raises AmountOverflowError.
        """
        num, den = self._index_num, self._index_den
        d = den * SHARE_SCALE
        d_bits = d.bit_length()
        k = self._total_shares.bit_length() + d_bits
        m = (num << k) // d + 1
        # T's worth, T * m >> k, is at most m >> d_bits: check exactly past it.
        if m >> d_bits > MAX_RAW:
            self._capped(self._total_shares)
        total = 0
        for shares in self._shares.values():
            total += shares * m >> k
        return total

    # -- operations ------------------------------------------------------

    def open_account(
        self, collateral: Amount, account_id: str | None = None
    ) -> tuple[str, Amount]:
        """Open a wallet by locking collateral; returns (id, minted TRD).

        Without an account_id the wallet gets the lowest "a<n>" not yet
        taken, so the auto id depends only on the set of accounts.
        """
        if collateral.raw == 0:
            raise ZeroCollateralError("cannot open an account with zero collateral")
        minted = self.minted_for(collateral)
        if account_id is None:
            # Accounts are never removed, so every "a<n>" below the hint is taken.
            while f"a{self._next_account_seq}" in self._shares:
                self._next_account_seq += 1
            account_id = f"a{self._next_account_seq}"
        else:
            check_id(account_id, "account")
        shares = self._to_shares_ceil(minted.raw)
        self._insert(account_id, shares, collateral, self._current_period)
        return account_id, minted

    def _open_minted(self, account_id: str, minted: int) -> None:
        """open_account(collateral_for(Amount(minted)), account_id), minted > 0.

        The same checks, in the same order and with the same text, on the
        raw TRD count: only the collateral is boxed, as _insert stores it.
        account_id is taken as well-formed: the callers pass constants.
        """
        collateral = Amount(self._collateral_raw(minted))
        shares = self._to_shares_ceil(minted)
        self._insert(account_id, shares, collateral, self._current_period)

    def _insert(
        self, account_id: str, shares: int, collateral: Amount, created: int
    ) -> None:
        """Store a new account under a free id; nothing on failure."""
        if account_id in self._shares:
            raise InvalidArgumentError(f"duplicate account id: {account_id!r}")
        total_shares = self._capped(self._total_shares + shares)
        self.total_collateral += collateral
        self._shares[account_id] = shares
        self._collateral[account_id] = collateral
        self._created[account_id] = created
        self._total_shares = total_shares

    def deposit(self, account_id: str, collateral: Amount) -> Amount:
        """Add collateral to an existing wallet; returns the TRD minted."""
        held = self._collateral[account_id]
        if collateral.raw == 0:
            raise ZeroCollateralError("cannot deposit zero collateral")
        minted = self.minted_for(collateral)
        new_collateral = held + collateral
        # The obligation, share total and collateral total are checked first.
        self.minted_for(new_collateral)
        shares = self._to_shares_ceil(minted.raw)
        total_shares = self._capped(self._total_shares + shares)
        self.total_collateral += collateral
        self._shares[account_id] += shares
        self._collateral[account_id] = new_collateral
        self._total_shares = total_shares
        return minted

    def transfer(self, src: str, dst: str, amount: Amount) -> None:
        """Move TRD between wallets; the share total does not change."""
        if src == dst:
            raise SelfTransferError(f"cannot transfer {src!r} to itself")
        sender = self._shares[src]
        receiver = self._shares[dst]
        balance = self._balance_raw(sender)
        if balance < amount.raw:
            raise InsufficientBalanceError(
                f"{src!r} holds {format_raw(balance)} TRD, "
                f"cannot send {amount.tokens()}"
            )
        moved = self._to_shares_floor(amount.raw)
        self._shares[src] = sender - moved
        self._shares[dst] = receiver + moved

    def rebase(self, r: Rate) -> Amount:
        """Close the period: grow the index by (1 + r).

        Every balance scales by (1 + r) to within one raw unit; shares are
        untouched.  Returns the new total supply.  Past capacity it raises
        AmountOverflowError and leaves the ledger as it was.
        """
        return Amount(self._rebase_raw(r.ppb))

    def _rebase_raw(self, ppb: int) -> int:
        """rebase at a rate of ppb parts per billion; returns the raw supply.

        The index grows as grow_index grows it, on its bare terms.  ppb is
        taken as a Rate's; 1 + r <= 0 raises NonPositiveFactorError, and
        past capacity the terms roll back before AmountOverflowError leaves.
        """
        num, den = self._index_num, self._index_den
        self._index_num, self._index_den = _grow_terms(num, den, ppb)
        try:
            supply = self._supply_raw()
        except AmountOverflowError:
            self._index_num, self._index_den = num, den
            raise
        self._current_period += 1
        return supply

    def withdraw(self, account_id: str, collateral_out: Amount) -> Amount:
        """Release collateral, burning the proportional originally-minted TRD.

        Interest (balance above the refund obligation) stays in the wallet.
        Returns the TRD burned.
        """
        collateral = self._collateral[account_id]
        if collateral_out.raw == 0:
            raise ZeroCollateralError("cannot withdraw zero collateral")
        if collateral_out.raw > collateral.raw:
            raise ExceedsCollateralError(
                f"{account_id!r} holds {collateral.tokens()} base, "
                f"cannot release {collateral_out.tokens()}"
            )
        age = self._current_period - self._created[account_id]
        if age < MIN_HOLDING_PERIODS:
            raise HoldingPeriodNotMetError(
                f"{account_id!r} is {age} periods old, "
                f"minimum holding is {MIN_HOLDING_PERIODS}"
            )
        burned = self.minted_for(collateral_out)
        balance = self._balance_raw(self._shares[account_id])
        if balance < burned.raw:
            raise InsufficientForRefundError(
                f"{account_id!r} holds {format_raw(balance)} TRD, "
                f"refund requires burning {burned.tokens()}"
            )
        shares = self._to_shares_floor(burned.raw)
        self._shares[account_id] -= shares
        self._total_shares -= shares
        self._collateral[account_id] = collateral - collateral_out
        self.total_collateral -= collateral_out
        return burned

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> str:
        """Serialize full state; the round trip is bit-exact.

        Line 1 is v3,peg_ppb,index_num,index_den,period; each further line
        is id,shares,collateral,created_period.  An index too small for
        its terms to be written as decimal text (below about 10^-4270 at
        Python's default limit) raises SnapshotError.
        """
        num, den = self._index_num, self._index_den
        try:
            lines = [f"v3,{self._peg_ratio.ppb},{num},{den},{self._current_period}"]
        except ValueError as exc:
            raise SnapshotError(
                f"index terms of {num.bit_length()}/{den.bit_length()} "
                f"bits exceed the interpreter's {sys.get_int_max_str_digits()}-digit "
                "limit for int-to-str conversion"
            ) from exc
        for account_id, shares in self._shares.items():
            lines.append(
                f"{account_id},{shares},{self._collateral[account_id].raw},"
                f"{self._created[account_id]}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def restore(cls, text: str) -> Ledger:
        """Rebuild a snapshot()'s ledger; bad text raises SnapshotError with its line."""
        lines = text.splitlines()
        if not lines:
            raise SnapshotError("empty snapshot")
        version, *header = lines[0].split(",")
        if version != "v3" or len(header) != 4:
            raise SnapshotError(f"not a v3 header: {lines[0]!r}", line=1)
        try:
            peg, num, den, period = map(_canonical_int, header)
        except ValueError as exc:
            raise SnapshotError(f"bad header: {lines[0]!r}", line=1) from exc
        try:
            ledger = cls(Rate(peg), start_period=period)
            Index(num, den)
        except ToroidError as exc:
            raise SnapshotError(str(exc), line=1) from exc
        ledger._index_num, ledger._index_den = num, den
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if len(fields) != 4:
                raise SnapshotError(f"expected 4 fields: {line!r}", line=lineno)
            try:
                shares, collateral, created = map(_canonical_int, fields[1:])
            except ValueError as exc:
                raise SnapshotError(f"bad integer: {line!r}", line=lineno) from exc
            if not 0 <= created <= period:
                raise SnapshotError(
                    f"created_period {created} is negative or after period {period}",
                    line=lineno,
                )
            try:
                if shares < 0:
                    raise NegativeAmountError(f"amount cannot be negative: {shares}")
                locked = Amount(collateral)
                ledger.minted_for(locked)
                check_id(fields[0], "account")
                ledger._insert(fields[0], shares, locked, created)
            except ToroidError as exc:
                raise SnapshotError(str(exc), line=lineno) from exc
        return ledger
