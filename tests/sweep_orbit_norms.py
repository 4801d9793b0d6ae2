"""Equality sweep: every odd-orbit norm of every conductor 3 <= u <= N with
u != 2 (mod 4), by cycloclass.classnum.orbit_norm (transform route) against
norm_oracle.oracle_orbit_norm (Euclidean resultants), each orbit's b1_chi
against norm_oracle.oracle_b1 (sum of roots of unity), and the exponents that
cycloclass.classnum._chi_exponent reads of the primitive character chi* mod f
at orbit_norm's two auxiliary primes, the smallest not dividing f, against
norm_oracle.char_value (discrete-log table). Not collected by pytest.

    PYTHONPATH=src:tests python tests/sweep_orbit_norms.py 1000

Prints each mismatch, then the number of norms compared, the number of
mismatches of each kind (norm, b1_chi, exponent) and both norm routes' total times; exits 1 on any
mismatch. Phi_d is built before the timed calls, so the first conductor with a
given orbit order does not charge it to oracle_orbit_norm; the x^k mod Phi_d rows
that oracle_b1 needs are dropped after each conductor, which keeps memory flat.
"""

from __future__ import annotations

import itertools
import sys
import time
from fractions import Fraction

from cycloclass.abelian import characters, galois_orbits
from cycloclass.arith import is_prime
from cycloclass.classnum import _chi_exponent, b1_chi, orbit_norm
from norm_oracle import (
    _power_rows,
    char_value,
    cyclotomic_polynomial,
    oracle_b1,
    oracle_orbit_norm,
)


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 1000
    count = mismatches = b1_mismatches = exp_mismatches = 0
    new_s = oracle_s = 0.0
    for u in range(3, n + 1):
        if u % 4 == 2:
            continue
        for ob in galois_orbits([ch for ch in characters(u) if ch.is_odd]):
            chi = ob.members[0]
            cyclotomic_polynomial(ob.order)
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
                print(f"MISMATCH u={u} order={ob.order} rep={chi.exponents}")
            c, f = b1_chi(chi)
            if tuple(Fraction(x, f) for x in c) != oracle_b1(chi).coeffs:
                b1_mismatches += 1
                print(f"B1 MISMATCH u={u} order={ob.order} rep={chi.exponents}")
            # orbit_norm's auxiliary primes: the two smallest not dividing f
            prim = chi.primitive
            primes = (a for a in itertools.count(2) if f % a and is_prime(a))
            aux = itertools.islice(primes, 2)
            if any(_chi_exponent(prim, a % f) != char_value(prim, a) for a in aux):
                exp_mismatches += 1
                print(f"EXPONENT MISMATCH u={u} order={ob.order} rep={chi.exponents}")
        _power_rows.cache_clear()
    print(
        f"u <= {n}: {count} odd-orbit norms, {mismatches} mismatches, "
        f"{b1_mismatches} b1_chi mismatches, {exp_mismatches} exponent mismatches; "
        f"orbit_norm {new_s:.1f} s, oracle_orbit_norm {oracle_s:.1f} s"
    )
    return 1 if mismatches or b1_mismatches or exp_mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
