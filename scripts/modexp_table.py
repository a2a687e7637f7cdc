#!/usr/bin/env python3
"""Print the per-size cost of one modular power, as in README.md's modexp table.

For each modulus size, three ways of computing base^exp mod n, medians in
microseconds: CPython's ``pow``, one ``BN_mod_exp`` call (OpenSSL works out
the modulus' Montgomery constants on each call), and the power a key runs,
``blindsig._Mont(n, exp).pow``: ``BN_mod_exp_mont`` with the modulus, the
exponent and the Montgomery context kept, and the thread's ``BN_CTX`` and
``BIGNUM``s reused (or ``pow`` where the dispatch rule says so).
Once with e = 65537 and once with an exponent as long as the modulus.

A third table is the power :func:`blindsig.factor_modulus` runs when a
sealing key is published: a one-word base, 2, raised to an odd exponent 16
bits longer than the modulus, as the odd part of e * d - 1 is for
e = 65537. It sets ``BN_mod_exp`` on base 2, which OpenSSL sends to
``BN_mod_exp_mont_word``, against ``BN_mod_exp`` on a full-size base and a
throwaway ``blindsig._Mont(n, exp).pow(2)``, which builds the contexts the
power needs and frees them again.

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
    bn = blindsig._bn()
    if kind == "word":
        exp = rng.getrandbits(bits + 16) | (1 << (bits + 15)) | 1
        cells = (
            lambda: blindsig._native(*bn, 2, exp, mod),
            lambda: blindsig._native(*bn, base, exp, mod),
            lambda: blindsig._Mont(mod, exp).pow(2),
        )
    else:
        exp = rng.getrandbits(bits) | (1 << (bits - 1)) if kind == "full" else 65537
        kept = blindsig._Mont(mod, exp)
        cells = (
            lambda: pow(base, exp, mod),
            lambda: blindsig._native(*bn, base, exp, mod),
            lambda: kept.pow(base),
        )
    return tuple(_median_us(fn, repeat) for fn in cells)


def _cell(us: float) -> str:
    return f"{us:,.0f}" if us >= 100 else f"{us:.3g}"


#: (kind, title, row names) of each table
TABLES = (
    ("short", "e = 65537", ("`pow`", "`BN_mod_exp`", "`_Mont.pow`, kept context")),
    ("full", "exponent as long as n", ("`pow`", "`BN_mod_exp`", "`_Mont.pow`, kept context")),
    ("word", "exponent 16 bits longer than n", (
        "`BN_mod_exp`, base 2", "`BN_mod_exp`, full-size base", "`_Mont.pow(2)`, throwaway context",
    )),
)


def table(repeat: int = REPEAT) -> str:
    """The three tables as markdown, each cell the median of ``repeat`` samples."""
    lines = []
    for kind, title, names in TABLES:
        rows = [_row(bits, kind, repeat) for bits in SIZES]
        lines.append(f"| {title}, µs | " + " | ".join(map(str, SIZES)) + " bits |")
        lines.append("|---" * (len(SIZES) + 1) + "|")
        for i, name in enumerate(names):
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
