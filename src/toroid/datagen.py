"""Synthetic market data generator for the bundled sample series.

The price path is a geometric random walk: each day's log return is
drift + vol * z, with z a standard normal drawn as a sum of twelve
uniforms minus six.  Daily transaction counts grow with both adoption
(linearly in t + 10, tracking the supply's own early growth so the gas
cap stays a meaningful fraction of the volume response) and the price
level, with a +/-5% uniform wobble.  The scale is chosen so the cap sits
near one percent: ordinary volume swings pass through the controller
while multi-sigma days exceed the cap and get clamped.

Everything is platform-reproducible by construction: the Mersenne
Twister is bit-exact everywhere, uniform sums use only IEEE-754
additions, and the exponential runs through Decimal (correctly rounded)
before prices are quantized to nine decimals.

Regenerate the bundled file with:  python -m toroid.datagen [PATH]
"""

from __future__ import annotations

import datetime as dt
import random
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path

from .harness import MARKET_CSV_HEADER, write_output

PERIODS = 500
SEED = 7
START_DATE = dt.date(2017, 1, 1)
START_PRICE = Decimal("100.000000000")
DRIFT = Decimal("0.0015")
VOL = Decimal("0.05")
TX_SCALE = 4.0
TX_NOISE = 0.10

_CENT = Decimal("0.000000001")
_BUNDLED = Path(__file__).resolve().parents[2] / "data" / "sample_market.csv"


def sample_market_csv() -> str:
    """The bundled series as date,price,tx_count CSV text, PERIODS rows."""
    rng = random.Random(SEED)
    lines = [MARKET_CSV_HEADER]
    price = START_PRICE
    with localcontext() as ctx:
        ctx.prec = 40
        for t in range(PERIODS):
            if t > 0:
                z = sum(rng.random() for _ in range(12)) - 6.0
                log_return = DRIFT + VOL * Decimal(z)
                price = (price * log_return.exp()).quantize(
                    _CENT, rounding=ROUND_HALF_EVEN
                )
            wobble = 1.0 + TX_NOISE * (rng.random() - 0.5)
            tx_count = max(1, int(TX_SCALE * (t + 10) * float(price) * wobble))
            date = START_DATE + dt.timedelta(days=t)
            lines.append(f"{date.isoformat()},{price},{tx_count}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Write the series to the one PATH given, else to the bundled file.

    Returns the exit code: 1 after a usage line for an option or a second
    argument, or after an error for a path that cannot be written.
    """
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 or (args and args[0].startswith("-")):
        print("usage: python -m toroid.datagen [PATH]", file=sys.stderr)
        return 1
    target = Path(args[0]) if args else _BUNDLED
    try:
        write_output(target, sample_market_csv())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {PERIODS} rows to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
