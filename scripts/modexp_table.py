#!/usr/bin/env python3
"""Print the per-size cost of one modular power, as in README.md's modexp table.

For each modulus size, three ways of computing base^exp mod n, medians in
microseconds: CPython's ``pow``; a throwaway ``blindsig._Mont(n, exp).pow``,
which reads the modulus and the exponent in and works out the Montgomery
context for one power, then frees them, as a one-off power costs; and the
power a key runs, the same ``_Mont.pow`` with the modulus, the exponent and
the Montgomery context kept. Both ``_Mont`` rows reuse the thread's
``BN_CTX`` and ``BIGNUM``s, and run ``pow`` where the dispatch rule says so.
Once with e = 65537 and once with an exponent as long as the modulus.

    PYTHONPATH=src python scripts/modexp_table.py
"""

import random
import statistics
import sys
import time

from blindvote import blindsig

SIZES = (256, 384, 512, 768, 1024, 1536, 2048)
REPEAT = 9
#: wall time of one sample; each sample repeats the power to fill it
SAMPLE_S = 0.005


def _median_us(fn, repeat: int) -> float:
    start = time.perf_counter()
    fn()
    number = max(1, min(1000, int(SAMPLE_S / (time.perf_counter() - start))))
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * 1e6


def _row(bits: int, kind: str, repeat: int) -> tuple[float, ...]:
    rng = random.Random(bits)
    mod = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    base = rng.randrange(2, mod)
    exp = rng.getrandbits(bits) | (1 << (bits - 1)) if kind == "full" else 65537
    kept = blindsig._Mont(mod, exp)
    cells = (
        lambda: pow(base, exp, mod),
        lambda: blindsig._Mont(mod, exp).pow(base),
        lambda: kept.pow(base),
    )
    return tuple(_median_us(fn, repeat) for fn in cells)


def _cell(us: float) -> str:
    return f"{us:,.0f}" if us >= 100 else f"{us:.3g}"


#: the rows of each table
NAMES = ("`pow`", "`_Mont.pow`, throwaway context", "`_Mont.pow`, kept context")
#: (kind, title) of each table
TABLES = (("short", "e = 65537"), ("full", "exponent as long as n"))


def table(repeat: int = REPEAT) -> str:
    """The two tables as markdown, each cell the median of ``repeat`` samples."""
    lines = []
    for kind, title in TABLES:
        rows = [_row(bits, kind, repeat) for bits in SIZES]
        lines.append(f"| {title}, µs | " + " | ".join(map(str, SIZES)) + " bits |")
        lines.append("|---" * (len(SIZES) + 1) + "|")
        for i, name in enumerate(NAMES):
            lines.append(f"| {name} | " + " | ".join(_cell(row[i]) for row in rows) + " |")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    if blindsig._bn() is None:
        print("libcrypto.so.3 cannot be loaded", file=sys.stderr)
        return 1
    print(table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
