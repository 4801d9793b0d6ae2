"""Equality sweep: every odd-orbit norm of every conductor 3 <= u <= N with
u != 2 (mod 4), then of each conductor listed after N, by
cycloclass.classnum.orbit_norm (transform route) against
norm_oracle.oracle_orbit_norm (Euclidean resultants), each orbit's b1_chi
against norm_oracle.oracle_b1 (sum of roots of unity), and the denominator of
each oracle norm of B_{1,chi}, -2 to the orbit size times the norm of
-B_{1,chi}/2, against the D of the conductor f that orbit_norm takes: it must
divide D = p for f = p^k and D = 1 otherwise (Carlitz). Not collected by
pytest.

    PYTHONPATH=src:tests python tests/sweep_orbit_norms.py 1000
    PYTHONPATH=src:tests python tests/sweep_orbit_norms.py --no-oracle 1000 \\
        1052 1163 1437 2039 4007 10007 12289 40961 65537

Prints each mismatch, then the number of norms compared, the number of
mismatches of each kind (norm, b1_chi, denominator) and both norm routes' total
times. Then a line `last steps: <n> (<w> whole group, <c> by CRT with <p>
primes), choices <16 hex>` on the last step of each descent that stops above
order 2: the order |H| of the subgroup classnum._subgroup_order chose, which
decides between the exact route (H the whole group) and the CRT, and the
number of CRT primes orbit_norm drew; the hex is the first 16 hex digits of
the sha256 over one line `u order |H| primes` per last step, in sweep order.
Both functions are wrapped from here, so the norms are computed as without the
sweep. Last comes a line `digest <16 hex>`: the first 16 hex digits of the
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

from cycloclass import classnum
from cycloclass.abelian import characters, galois_orbits
from cycloclass.arith import _decimal, euler_phi, factorize
from cycloclass.classnum import b1_chi, orbit_norm
from norm_oracle import (
    _power_rows,
    cyclotomic_polynomial,
    oracle_b1,
    oracle_orbit_norm,
)


def _conductor(text: str) -> int:
    u = int(text)
    if u < 3 or u % 4 == 2:
        raise argparse.ArgumentTypeError(f"{u} is not a conductor u >= 3 with u != 2 (mod 4)")
    return u


def _record_last_steps() -> list:
    """Wrap classnum._subgroup_order and classnum._norm_primes in place; the
    list returned holds [q, |H|, primes drawn] of the latest last step, with
    q = None until _subgroup_order is next called."""
    step = [None, None, 0]
    choose, draw = classnum._subgroup_order, classnum._norm_primes

    def subgroup_order(B, q, bits):
        step[:] = [q, choose(B, q, bits), 0]
        return step[1]

    def norm_primes(d):
        for item in draw(d):
            step[2] += 1
            yield item

    classnum._subgroup_order, classnum._norm_primes = subgroup_order, norm_primes
    return step


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Sweep odd-orbit norms against the oracles.")
    parser.add_argument("n", type=int, nargs="?", default=1000, help="sweep 3 <= u <= N")
    parser.add_argument("extra", type=_conductor, nargs="*", help="conductors swept after N")
    parser.add_argument("--no-oracle", action="store_true",
                        help="compute the norms and the digest only, comparing nothing")
    args = parser.parse_args(argv[1:])
    oracle = not args.no_oracle
    count = mismatches = b1_mismatches = den_mismatches = 0
    new_s = oracle_s = 0.0
    digest, choices = hashlib.sha256(), hashlib.sha256()
    step = _record_last_steps()
    steps = whole = crt_primes = 0
    for u in itertools.chain(range(3, args.n + 1), args.extra):
        if u % 4 == 2:
            continue
        for ob in galois_orbits([ch for ch in characters(u) if ch.is_odd]):
            chi = ob.members[0]
            if oracle:
                cyclotomic_polynomial(ob.order)
            step[0] = None
            t0 = time.perf_counter()
            new = orbit_norm(ob)
            new_s += time.perf_counter() - t0
            count += 1
            q, h, primes = step
            if q is not None:
                steps += 1
                whole += h == q - 1
                crt_primes += primes
                choices.update(f"{u} {ob.order} {h} {primes}\n".encode())
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
            p, *rest = factorize(f).primes()
            if (1 if rest else p) % (old * (-2) ** euler_phi(ob.order)).denominator:
                den_mismatches += 1
                print(f"DENOMINATOR MISMATCH u={u} order={ob.order} rep={chi.exponents}")
        _power_rows.cache_clear()
    swept = f"u <= {args.n}" + "".join(f", {u}" for u in args.extra)
    if oracle:
        print(
            f"{swept}: {count} odd-orbit norms, {mismatches} mismatches, "
            f"{b1_mismatches} b1_chi mismatches, {den_mismatches} denominator mismatches; "
            f"orbit_norm {new_s:.1f} s, oracle_orbit_norm {oracle_s:.1f} s"
        )
    else:
        print(f"{swept}: {count} odd-orbit norms, not compared; orbit_norm {new_s:.1f} s")
    print(
        f"last steps: {steps} ({whole} whole group, {steps - whole} by CRT with "
        f"{crt_primes} primes), choices {choices.hexdigest()[:16]}"
    )
    print(f"digest {digest.hexdigest()[:16]}")
    return 1 if mismatches or b1_mismatches or den_mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
