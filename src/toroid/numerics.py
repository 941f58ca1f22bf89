"""Fixed-point primitives for token amounts, rates and the rebase index.

Token quantities are unsigned integer counts of nano-units (10^-9 of one
token), rates are signed integer parts-per-billion, and the cumulative
rebase index is a decimal fixed-point number kept as an integer
numerator over a power-of-ten denominator.  Token arithmetic floors
toward negative infinity, so its quantization error is one-sided:
conversions can round value away but never mint unbacked dust.  The one
exception is the index itself, which each rebase rounds half up onto its
grid, a relative error below 5e-28 per step; an index on the first grid
(any index of at least 10^-3) grows with one division by UNIT.  Every
operation is pure integer math and therefore bit-reproducible across
hosts.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from typing import get_origin

from .errors import (
    AmountOverflowError,
    InvalidArgumentError,
    NegativeAmountError,
    NonPositiveFactorError,
)

# One whole token in raw nano-units.
UNIT = 10**9

# Amounts and intermediates are kept within 128 bits so products with
# rates stay well inside practical integer sizes.
MAX_RAW = 2**127 - 1

# The index grid: each rebase rounds the index onto the denominator
# 10^(30+3j), the smallest j >= 0 that keeps the numerator >= 10^27 (j = 0
# for any index >= 10^-3).  One rounding errs below 5e-28 relative, far
# inside the 1e-15 budget the rest of the system assumes, and the terms'
# size depends on the index's value alone, not on how many periods ran.
_GRID = 10**30
_MIN_NUM = 10**27


def record(cls):
    """A frozen slots dataclass whose fields hold their types.

    ``dataclass(cls, init=False, repr=False, eq=False, slots=True)`` makes
    the fields, the slots and ``__match_args__``, so ``fields``,
    ``replace``, ``is_dataclass`` and 3.13's ``copy.replace`` work as on a
    stock ``dataclass(frozen=True, slots=True)``; it generates no code.
    The methods the stock one would generate come from here instead:

    - ``__init__``, compiled per class, raises ``TypeError("<field> must
      be <T>, got <value!r>")`` unless ``type(value) is T`` for each
      field's declared class T (so a bool is no int; a T that is no plain
      class, such as ``int | None``, is refused at decoration), then
      stores through each slot's own setter and calls
      ``self.__post_init__()``, the range checks, if the class defines one.
    - ``__repr__``, ``__eq__`` and ``__hash__`` read the fields as one
      tuple, as stock does; ``==`` is 3.10-3.12's tuple comparison on
      every interpreter (3.13's stock compares field by field, which
      differs only for a NaN field).
    - ``__setattr__`` and ``__delattr__`` raise ``FrozenInstanceError``
      with the stock text, and ``__getstate__`` and ``__setstate__``
      pickle as stock does, restoring through the slot setters.

    All but ``__init__`` are closures built once per class, with no
    ``exec``; a method the class defines itself is kept.  Records are
    unordered, so ``<`` raises TypeError.  ``__dataclass_params__`` reads
    ``frozen=False``, yet every instance refuses assignment.
    """
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
    params = fields(cls)
    # A string annotation names a type in the class's module, as
    # typing.get_type_hints reads it, at about half its cost.
    scope = getattr(sys.modules.get(cls.__module__), "__dict__", {})
    hints = {f.name: eval(f.type, scope) if type(f.type) is str else f.type for f in params}
    if any(f.default_factory is not MISSING or not f.init or f.kw_only for f in params):
        raise TypeError(f"{cls.__name__}: record fields take plain defaults only")
    if any(not isinstance(hints[f.name], type) or get_origin(hints[f.name]) for f in params):
        raise TypeError(f"{cls.__name__}: record fields take plain classes only")
    defaults = tuple(f.default for f in params if f.default is not MISSING)
    if any(f.default is MISSING for f in params[len(params) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: record fields with defaults come last")
    names = tuple(f.name for f in params)
    setters = [vars(cls)[name].__set__ for name in names]

    def refuse(*values):
        for name, value in zip(names, values):
            if type(value) is not hints[name]:
                raise TypeError(f"{name} must be {hints[name].__name__}, got {value!r}")

    # One condition for all fields: it compiles faster than one per field.
    checks = " or ".join(f"type({n}) is not _T_{n}" for n in names)
    body = [f"    if {checks}: _refuse({', '.join(names)})"]
    body += [f"    _set_{n}(self, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    namespace = {"_refuse": refuse}
    for name, setter in zip(names, setters):
        namespace[f"_T_{name}"] = hints[name]
        namespace[f"_set_{name}"] = setter
    exec(f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body), namespace)
    __init__ = namespace["__init__"]
    __init__.__defaults__ = defaults or None
    __init__.__annotations__ = {f.name: f.type for f in params} | {"return": None}

    get = attrgetter(*names)
    field_values = get if len(names) > 1 else lambda self: (get(self),)

    def __repr__(self):
        items = ", ".join(map("{}={!r}".format, names, field_values(self)))
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return field_values(self) == field_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(field_values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __getstate__(self):
        return list(field_values(self))

    def __setstate__(self, state):
        for setter, value in zip(setters, state):
            setter(self, value)

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__,
                   __getstate__, __setstate__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        method.__module__ = cls.__module__
        if vars(cls).get(method.__name__) is None:
            setattr(cls, method.__name__, method)
    return cls


def _parse_fixed(text: str, *, allow_sign: bool) -> int:
    """Parse a decimal string into an integer count of 10^-9 units."""
    s = text.strip()
    if not s:
        raise InvalidArgumentError("empty decimal string")
    sign = 1
    if s[0] in "+-":
        if s[0] == "-":
            if not allow_sign:
                raise InvalidArgumentError(f"negative value not allowed: {text!r}")
            sign = -1
        s = s[1:]
    if not s or s == ".":
        raise InvalidArgumentError(f"malformed decimal string: {text!r}")
    whole, _, frac = s.partition(".")
    whole = whole or "0"
    # isdecimal(), unlike isdigit(), admits exactly the digits int() reads.
    if not whole.isdecimal() or (frac and not frac.isdecimal()):
        raise InvalidArgumentError(f"malformed decimal string: {text!r}")
    if len(frac) > 9:
        if frac[9:].strip("0"):
            raise InvalidArgumentError(f"more than 9 fractional digits: {text!r}")
        frac = frac[:9]
    try:
        return sign * (int(whole) * UNIT + int(frac.ljust(9, "0")))
    except ValueError as exc:  # past int()'s limit on digits
        raise InvalidArgumentError(f"{len(whole)} whole digits is too many") from exc


def format_raw(value: int) -> str:
    """Render a signed raw nano-unit count as a decimal token string."""
    # The integer's own digits, padded to at least one whole digit, with
    # the point set before the last nine.
    digits = str(abs(value)).rjust(10, "0")
    text = f"{digits[:-9]}.{digits[-9:]}"
    return "-" + text if value < 0 else text


@record
class Amount:
    """A non-negative token quantity in raw nano-units.

    The unit kind (TRD or base coin) is carried by context; the two are
    never mixed inside a single value.
    """

    raw: int

    def __post_init__(self) -> None:
        if self.raw < 0:
            raise NegativeAmountError(f"amount cannot be negative: {self.raw}")
        if self.raw > MAX_RAW:
            raise AmountOverflowError(f"amount exceeds capacity: {self.raw}")

    @classmethod
    def from_tokens(cls, tokens: str | int) -> Amount:
        """Build from a whole-token count or decimal token string."""
        if type(tokens) is int:
            return cls(tokens * UNIT)
        if type(tokens) is not str:
            raise TypeError(f"tokens must be int or str, got {tokens!r}")
        return cls(_parse_fixed(tokens, allow_sign=False))

    def tokens(self) -> str:
        """Render as a decimal token string with nine fractional digits."""
        return format_raw(self.raw)

    def __add__(self, other: Amount) -> Amount:
        return Amount(self.raw + other.raw)

    def __sub__(self, other: Amount) -> Amount:
        if other.raw > self.raw:
            raise NegativeAmountError(
                f"subtraction would go negative: {self.raw} - {other.raw}"
            )
        return Amount(self.raw - other.raw)


@record
class Rate:
    """A dimensionless signed rate in parts-per-billion (value = ppb / 10^9)."""

    ppb: int

    @classmethod
    def from_decimal(cls, text: str) -> Rate:
        if type(text) is not str:
            raise TypeError(f"text must be str, got {text!r}")
        return cls(_parse_fixed(text, allow_sign=True))

    def decimal(self) -> str:
        """Render as a signed decimal string with nine fractional digits."""
        return format_raw(self.ppb)


@record
class Index:
    """Cumulative rebase factor Pi(1 + r_i) as a positive fraction num/den.

    grow_index keeps it on the grid (den a power of ten, never reduced);
    identity() and a restored snapshot may hold any positive fraction.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise NonPositiveFactorError(f"index denominator must be > 0: {self.den}")
        if self.num <= 0:
            raise NonPositiveFactorError(f"index numerator must be > 0: {self.num}")

    @classmethod
    def identity(cls) -> Index:
        return cls(1, 1)


def grow_index(idx: Index, r: Rate) -> Index:
    """Multiply the index by (1 + r), rounding half up onto the grid.

    The result's denominator is 10^(30+3j) for the smallest j >= 0 that
    keeps its numerator >= 10^27 (see _GRID).  An index already on the
    grid grows at r = 0 unchanged; any other lands on the grid.  This
    boxes the terms of _grow_terms, the integer form that
    Ledger._rebase_raw runs on the ledger's own index terms.
    """
    return Index(*_grow_terms(idx.num, idx.den, r.ppb))


def _grow_terms(num: int, den: int, ppb: int) -> tuple[int, int]:
    """grow_index on bare terms: num/den times 1 + ppb/10^9, on the grid.

    The search tries j = 0 first.  From grid 0 (den == _GRID) that try is
    one division by UNIT: (n * _GRID + _GRID * UNIT // 2) // (_GRID * UNIT),
    n = num * (UNIT + ppb), has _GRID in every term and UNIT is even, so
    it equals (n + UNIT // 2) // UNIT.  On a miss the search jumps to the
    lowest grid the terms' bit lengths allow.  They place num/den within
    a factor of four, and flooring the digit count loses under one digit
    more, less than the three digits between neighbouring grids, so the
    jump lands on j or j - 1: at most three tries in all.
    """
    factor = UNIT + ppb
    if factor <= 0:
        raise NonPositiveFactorError(f"1 + r must be positive, got {ppb} ppb")
    on_grid_0 = den == _GRID
    num, den, grid = num * factor, den * UNIT, _GRID
    rescaled = (num + UNIT // 2) // UNIT if on_grid_0 else (num * grid + den // 2) // den
    while rescaled < _MIN_NUM:
        # den/num > 2^m > 10^(0.301029995663 m): no grid below this one holds.
        m = den.bit_length() - num.bit_length() - 1
        grid = max(grid * 1000, _GRID * 1000 ** -(-(m * 301029995663 // 10**12 - 3) // 3))
        rescaled = (num * grid + den // 2) // den
    return rescaled, grid
