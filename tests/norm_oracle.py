"""Resultant routes to orbit norms: the reference that the transform route in
cycloclass.classnum.orbit_norm is tested against.

oracle_orbit_norm computes Res(Phi_d, A) by the Euclidean remainder sequence
over F_p for descending 62-bit primes p, CRT-combined past a Hadamard bound.
_sylvester_resultant is the Sylvester determinant, and _orbit_norm_conjugates
the explicit product of Galois conjugates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from cycloclass.abelian import CharacterOrbit
from cycloclass.arith import euler_phi, is_prime
from cycloclass.classnum import (
    CyclotomicNumber,
    _bareiss_det,
    b1_chi,
    cyclotomic_polynomial,
)

_PRIME_POOL: list[int] = []


def _crt_primes():
    """Yield fixed 62-bit primes, descending from 2^62; pool grows lazily."""
    i = 0
    candidate = (1 << 62) - 1 if not _PRIME_POOL else _PRIME_POOL[-1] - 2
    while True:
        while i >= len(_PRIME_POOL):
            if is_prime(candidate):
                _PRIME_POOL.append(candidate)
            candidate -= 2
        yield _PRIME_POOL[i]
        i += 1


def _poly_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over F_p (b trimmed, lc(b) nonzero), ascending."""
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) - 1 >= db:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        off = len(a) - 1 - db
        for j in range(db + 1):
            a[off + j] = (a[off + j] - c * b[j]) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _resultant_mod(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) over F_p by the Euclidean remainder sequence."""
    f = [c % p for c in f]
    g = [c % p for c in g]
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    res = 1
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if dg < 0:
            return 0 if df > 0 else res
        if dg == 0:
            return res * pow(g[0], df, p) % p
        r = _poly_mod_p(f, g, p)
        dr = len(r) - 1
        res = res * pow(g[-1], df - dr, p) % p
        if (df * dg) % 2 == 1:
            res = (p - res) % p
        f, g = g, r


def _resultant_int(f: tuple[int, ...], g: tuple[int, ...]) -> int:
    """Res(f, g) over Z: modular images CRT-combined past a Hadamard-type bound."""
    f = list(f)
    g = list(g)
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    if not f or not g:
        return 0 if (len(f) > 1 or len(g) > 1) else 1
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    # |Res| <= ||f||_2^dg * ||g||_2^df  (Hadamard on the Sylvester matrix).
    bits = (
        dg * (sum(c * c for c in f).bit_length() + 1)
        + df * (sum(c * c for c in g).bit_length() + 1)
    ) // 2 + 3
    x, mod = 0, 1
    for p in _crt_primes():
        if f[-1] % p == 0 or g[-1] % p == 0:
            continue  # degree would drop mod p
        r = _resultant_mod(f, g, p)
        # CRT: combine (x mod mod) with (r mod p).
        t = (r - x) * pow(mod, -1, p) % p
        x += mod * t
        mod *= p
        if mod.bit_length() > bits + 1:
            break
    return x - mod if 2 * x > mod else x


def _sylvester_matrix(f: list[int], g: list[int]) -> list[list[int]]:
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = []
    for i in range(dg):
        row = [0] * n
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(df):
        row = [0] * n
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return rows


def _sylvester_resultant(f, g) -> int:
    """Reference resultant: determinant of the Sylvester matrix (slow, exact)."""
    return _bareiss_det(_sylvester_matrix(list(f), list(g)))


def oracle_orbit_norm(orbit: CharacterOrbit) -> Fraction:
    """Norm from Q(zeta_d) to Q of -B_{1,chi}/2 for one Galois orbit of odd chi,
    as the Euclidean resultant Res(Phi_d, A) by CRT over 62-bit primes."""
    if not orbit.is_odd:
        raise ValueError("orbit norm is defined here for odd-character orbits only")
    chi = orbit.members[0]
    d = chi.order
    if euler_phi(d) != orbit.size:
        raise AssertionError("orbit size must be phi(order)")
    w = b1_chi(chi) * Fraction(-1, 2)
    if d == 2:
        return w.coeffs[0]
    denom = reduce(math.lcm, (c.denominator for c in w.coeffs), 1)
    A = tuple(int(c * denom) for c in w.coeffs)
    res = _resultant_int(cyclotomic_polynomial(d), A)
    return Fraction(res, denom ** euler_phi(d))


def _orbit_norm_conjugates(orbit: CharacterOrbit) -> Fraction:
    """Same norm as the explicit product of Galois conjugates (test route)."""
    chi = orbit.members[0]
    d = chi.order
    w = b1_chi(chi) * Fraction(-1, 2)
    prod = CyclotomicNumber.one(d)
    for k in range(1, d + 1):
        if math.gcd(k, d) == 1:
            prod = prod * w.galois_map(k)
    return prod.constant()
