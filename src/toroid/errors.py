"""Exception hierarchy for the toroid simulator.

Everything raised on purpose derives from ToroidError.  Input-shaped
problems (bad files, bad arguments, rejected operations) are ordinary
subclasses; InvariantViolationError is reserved for internal consistency
failures and maps to a distinct process exit code in the CLI.  Every
parse error names its input line in .line and its message; the line
prefix and the id refusal are written only here.
"""


class ToroidError(Exception):
    """Base class for all simulator errors; .line is the input line, or None."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class InvariantViolationError(ToroidError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class InvalidArgumentError(ToroidError, ValueError):
    """A library call got an argument outside its domain; also a ValueError."""


def decode_utf8(data: bytes, error: type[ToroidError]) -> str:
    """data as UTF-8 text, or error naming the line of its first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines as str.splitlines() counts them; "." stands in for the byte.
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise error(f"invalid UTF-8 byte {data[exc.start]:#04x}", line=line) from exc


def check_id(value: str, what: str) -> None:
    """Refuse an id a comma- and line-separated format cannot round-trip."""
    if "," in value or value.splitlines() != [value]:
        raise InvalidArgumentError(
            f"{what} id may not be empty or contain ',' or a line break: {value!r}"
        )


# --- numerics ---------------------------------------------------------------

class AmountOverflowError(ToroidError):
    """An amount or intermediate product exceeded the supported capacity."""


class NegativeAmountError(ToroidError):
    """An amount would become negative (amounts are unsigned)."""


class NonPositiveFactorError(ToroidError):
    """A growth factor (1 + r) was zero or negative."""


# --- controller -------------------------------------------------------------

class ZeroSupplyError(ToroidError):
    """A rate that divides by total supply was requested at zero supply."""


class ConfigError(ToroidError):
    """A configuration file could not be parsed or contained bad values."""


# --- ledger -----------------------------------------------------------------

class LedgerError(ToroidError):
    """Base class for rejected ledger operations."""


class ZeroCollateralError(LedgerError):
    pass


class NonDivisibleCollateralError(LedgerError):
    """Collateral is not an exact multiple of the peg ratio in raw units."""


class UnknownAccountError(LedgerError):
    pass


class SelfTransferError(LedgerError):
    pass


class InsufficientBalanceError(LedgerError):
    pass


class HoldingPeriodNotMetError(LedgerError):
    pass


class InsufficientForRefundError(LedgerError):
    """Balance fell below the refund obligation (negative interest)."""


class ExceedsCollateralError(LedgerError):
    pass


class SnapshotError(LedgerError):
    """A ledger snapshot could not be parsed or breaks a ledger invariant."""


# --- market -----------------------------------------------------------------

class NonFinitePriceError(ToroidError):
    """A base price was not finite and positive, or a price left the floats.

    Two prices can underflow to 0: the peg ceiling on a subnormal base
    price, and the TRD price, peg * anchor / index of a tiny base price.
    Above a peg of 1 a huge base price's ceiling can overflow even when
    the TRD price under it is finite.
    """


# --- harness ----------------------------------------------------------------

class MarketDataError(ToroidError):
    """A market data file could not be parsed or held no rows."""


class NonMonotoneDatesError(MarketDataError):
    pass


class NonPositivePriceError(MarketDataError):
    """A price was zero, negative, NaN or infinite."""
