"""A fixed pure-Python reference loop for calibrating machine speed.

It uses no cycloclass code, so no change to the program moves it. It does the
kinds of work the workloads spend their time in: modular arithmetic on
word-size integers, tuple-keyed dictionary updates and small Fractions.
"""

import time
from fractions import Fraction


def reference_seconds() -> float:
    """Seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    p = (1 << 61) - 1
    acc = 0
    for _ in range(50):
        for x in range(1, 3000):
            acc = (acc * 31 + x * x) % p
    counts: dict[tuple[int, int], int] = {}
    for i in range(100_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    total = Fraction(0)
    for k in range(1, 6000):
        total += Fraction(k % 7, k % 11 + 1)
    if acc < 0 or len(counts) != 97 * 89 or total <= 0:
        raise AssertionError("reference loop computed a wrong result")
    return time.perf_counter() - start
