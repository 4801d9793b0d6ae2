"""Equality sweep: every odd-orbit norm of every conductor 3 <= u <= N with
u != 2 (mod 4), then of each conductor listed after N, by
cycloclass.classnum.orbit_norm (transform route) against
norm_oracle.oracle_orbit_norm (Euclidean resultants), each orbit's b1_chi
against norm_oracle.oracle_b1 (sum of roots of unity), and the exponents that
cycloclass.classnum._chi_exponent reads of the primitive character chi* mod f
at orbit_norm's two auxiliary primes, the smallest not dividing f, against
norm_oracle.char_value (discrete-log table). Not collected by pytest.

    PYTHONPATH=src:tests python tests/sweep_orbit_norms.py 1000
    PYTHONPATH=src:tests python tests/sweep_orbit_norms.py --no-oracle 1000 \\
        1052 1163 1437 2039 4007 10007

Prints each mismatch, then the number of norms compared, the number of
mismatches of each kind (norm, b1_chi, exponent) and both norm routes' total
times, and last a line `digest <16 hex>`: the first 16 hex digits of the
sha256 over one line `u order exponents numerator denominator` per odd orbit,
in sweep order (exponents those of the orbit's first member, comma-separated).
Exits 1 on any mismatch. --no-oracle runs orbit_norm alone, with no
comparison, for the digest: two checkouts that print the same digest compute
the same norms. Phi_d is built before the timed calls, so the first conductor
with a given orbit order does not charge it to oracle_orbit_norm; the x^k mod
Phi_d rows that oracle_b1 needs are dropped after each conductor, which keeps
memory flat.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import time
from fractions import Fraction

from cycloclass.abelian import characters, galois_orbits
from cycloclass.arith import _decimal, is_prime
from cycloclass.classnum import _chi_exponent, b1_chi, orbit_norm
from norm_oracle import (
    _power_rows,
    char_value,
    cyclotomic_polynomial,
    oracle_b1,
    oracle_orbit_norm,
)


def _conductor(text: str) -> int:
    u = int(text)
    if u < 3 or u % 4 == 2:
        raise argparse.ArgumentTypeError(f"{u} is not a conductor u >= 3 with u != 2 (mod 4)")
    return u


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Sweep odd-orbit norms against the oracles.")
    parser.add_argument("n", type=int, nargs="?", default=1000, help="sweep 3 <= u <= N")
    parser.add_argument("extra", type=_conductor, nargs="*", help="conductors swept after N")
    parser.add_argument("--no-oracle", action="store_true",
                        help="compute the norms and the digest only, comparing nothing")
    args = parser.parse_args(argv[1:])
    oracle = not args.no_oracle
    count = mismatches = b1_mismatches = exp_mismatches = 0
    new_s = oracle_s = 0.0
    digest = hashlib.sha256()
    for u in itertools.chain(range(3, args.n + 1), args.extra):
        if u % 4 == 2:
            continue
        for ob in galois_orbits([ch for ch in characters(u) if ch.is_odd]):
            chi = ob.members[0]
            if oracle:
                cyclotomic_polynomial(ob.order)
            t0 = time.perf_counter()
            new = orbit_norm(ob)
            new_s += time.perf_counter() - t0
            count += 1
            exponents = ",".join(map(str, chi.exponents))
            line = f"{u} {ob.order} {exponents} {_decimal(new.numerator)} {new.denominator}\n"
            digest.update(line.encode())
            if not oracle:
                continue
            t1 = time.perf_counter()
            old = oracle_orbit_norm(ob)
            oracle_s += time.perf_counter() - t1
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
    swept = f"u <= {args.n}" + "".join(f", {u}" for u in args.extra)
    if oracle:
        print(
            f"{swept}: {count} odd-orbit norms, {mismatches} mismatches, "
            f"{b1_mismatches} b1_chi mismatches, {exp_mismatches} exponent mismatches; "
            f"orbit_norm {new_s:.1f} s, oracle_orbit_norm {oracle_s:.1f} s"
        )
    else:
        print(f"{swept}: {count} odd-orbit norms, not compared; orbit_norm {new_s:.1f} s")
    print(f"digest {digest.hexdigest()[:16]}")
    return 1 if mismatches or b1_mismatches or exp_mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
