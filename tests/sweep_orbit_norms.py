"""Equality sweep: every odd-orbit norm of every conductor 3 <= u <= N with
u != 2 (mod 4), by cycloclass.classnum.orbit_norm (transform route) against
norm_oracle.oracle_orbit_norm (Euclidean resultants). Not collected by pytest.

    PYTHONPATH=src:tests python tests/sweep_orbit_norms.py 1000

Prints each mismatch, then the number of norms compared and both routes'
total times; exits 1 on any mismatch. The x^k mod Phi_d rows that b1_chi
needs are built outside the timed calls and dropped after each conductor,
which keeps memory flat.
"""

from __future__ import annotations

import sys
import time

from cycloclass.abelian import characters, galois_orbits
from cycloclass.classnum import _power_rows, orbit_norm
from norm_oracle import oracle_orbit_norm


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 1000
    count = mismatches = 0
    new_s = oracle_s = 0.0
    for u in range(3, n + 1):
        if u % 4 == 2:
            continue
        for ob in galois_orbits([ch for ch in characters(u) if ch.is_odd]):
            _power_rows(ob.order)
            t0 = time.perf_counter()
            new = orbit_norm(ob)
            t1 = time.perf_counter()
            old = oracle_orbit_norm(ob)
            t2 = time.perf_counter()
            new_s += t1 - t0
            oracle_s += t2 - t1
            count += 1
            if new != old:
                mismatches += 1
                print(f"MISMATCH u={u} order={ob.order} rep={ob.members[0].exponents}")
        _power_rows.cache_clear()
    print(
        f"u <= {n}: {count} odd-orbit norms, {mismatches} mismatches; "
        f"orbit_norm {new_s:.1f} s, oracle_orbit_norm {oracle_s:.1f} s"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
