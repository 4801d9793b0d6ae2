"""Relative class numbers h^-(u) via generalized Bernoulli numbers.

h^-(u) = Q * w * prod_{chi odd} (-B_{1,chi}/2), the product taken over Galois
orbits as exact rational norms. b1_chi gives B_{1,chi} as integers c_i over the
conductor f on the power basis of Q(zeta_d): a character sum over the units,
folded by x^(d/2) + 1 and reduced by Phi_d through the power series of 1/Phi_d.
Then N(B_{1,chi}) = Res(Phi_d, c0) * g^phi / f^phi, g = gcd(c_i) and c0 = c/g.
Res(Phi_d, c0) descends the cyclotomic tower: the norm of c0 from Q(zeta_e)
down to Q(zeta_{e/p}) has the same resultant against Phi_{e/p}, and is an
exact product of conjugates mod x^(e/2) + 1, first while p^2 | e, then for
each odd p of the squarefree rest. At e = 2 the resultant is the one
coefficient left. A last prime above _CRT_LAST_PRIME is not taken out: there
the integer T = N(B_{1,chi}) * D = Res(Phi_e, beta) * g^phi * D / f^phi is
found modulo primes q = 1 (mod e) below 2^62, where the resultant is
prod_{k in (Z/e)^*} beta(omega^k) with omega of order e mod q, from one
chirp-z convolution per prime, and the residues are CRT-combined past a
Parseval bound. The denominator D comes from Stickelberger's theorem: for a
prime c not dividing u, (c - chi(c)^-1) B_{1,chi} is integral, so D_c =
N(c - chi(c)) = Phi_k(c)^(phi(d)/phi(k)), k the order of chi(c), clears the
norm, with Phi_k(c) = prod (c^f - 1)^mu(k/f) from the binomial product, and
D is the gcd of D_c over the two smallest such auxiliary primes, chi(c) read
off the walk of b1_chi. The norm of -B_{1,chi}/2 is N(B_{1,chi}) * (-1/2)^phi.

relative_class_number runs under arith.within(time_limit), checked before
every pass of a reduction by Phi_d, every product of the descent, every CRT
prime and in the factoring of h^-. Out of time in the norms,
TimeLimitExceeded says how far they got; out of time in the factoring, the
exact value comes back, its unsplit rest a composite cofactor, and
RelativeClassNumber.note says so.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    PrimeFactorization,
    TimeLimitExceeded,
    _check,
    _has_order,
    euler_phi,
    factorize,
    is_prime,
    within,
)
from .abelian import (
    CharacterOrbit,
    DirichletCharacter,
    _crt_lift,
    _primitive_root_mod_pk,
    characters,
    galois_orbits,
    normalize_conductor,
)


class IntegralityError(Exception):
    """The analytic product failed to be a positive integer."""

    def __init__(self, message: str, offending: Fraction):
        super().__init__(f"{message}: {offending}")
        self.offending = offending


def _binomials(d: int) -> list[tuple[int, int]]:
    """(e, mu(d/e)) for the squarefree d/e, so that Phi_d = prod (x^e - 1)^mu(d/e),
    and = prod (1 - x^e)^mu(d/e) as a power series for d > 1."""
    primes = factorize(d).primes()
    return [
        (d // math.prod(sub), (-1) ** k)
        for k in range(len(primes) + 1)
        for sub in itertools.combinations(primes, k)
    ]


def _times_binomial(a: list[int], e: int, mu: int) -> None:
    """a times (1 - x^e)^mu, mu = 1 or -1, as a power series cut at len(a), in place."""
    n = len(a)
    if mu == 1:
        if e < n:
            a[e:] = map(operator.sub, a[e:], a[: n - e])
    else:  # 1/(1 - x^e) = (1 + x^e)(1 + x^2e)(1 + x^4e)...
        while e < n:
            a[e:] = map(operator.add, a[e:], a[: n - e])
            e *= 2


def _poly_rem(num: list[int], d: int) -> list[int]:
    """Remainder of num by Phi_d, d > 1, ascending. Phi_d is palindromic, so
    the quotient reversed is the top of num reversed times the power series
    1/Phi_d, and the remainder is num less the quotient times Phi_d, both cut
    at phi(d) terms: one sparse pass per binomial factor, each after a check
    of the time limit."""
    phi = euler_phi(d)
    if len(num) <= phi:
        return list(num)
    factors = _binomials(d)
    passes = 2 * len(factors)
    q = num[: phi - 1 : -1]
    for i, (e, mu) in enumerate(factors):
        _check(f"reduction by Phi_{d}: {i} of {passes} passes")
        _times_binomial(q, e, -mu)
    q = (q[::-1] + [0] * phi)[:phi]
    for i, (e, mu) in enumerate(factors, len(factors)):
        _check(f"reduction by Phi_{d}: {i} of {passes} passes")
        _times_binomial(q, e, mu)
    return [a - b for a, b in zip(num, q)]


def b1_chi(
    chi: DirichletCharacter, chi_at: dict[int, int | None] | None = None
) -> tuple[tuple[int, ...], int]:
    """B_{1,chi} = (1/f) sum_{a=1}^{f} chi*(a) a, chi* the primitive character
    of conductor f inducing chi, as (c, f) with B_{1,chi} = (1/f) sum c_i zeta^i:
    the phi(d) integer coefficients on the power basis of Q(zeta_d), d = order
    of chi, and the conductor. Each key r of `chi_at`, a unit 0 < r < u, gets as
    its value the exponent k of chi(r) = e(k/d), read off the same walk."""
    if chi.is_trivial:
        raise ValueError("B_{1,chi} is defined here only for nontrivial chi")
    d, f, u = chi.order, chi.conductor, chi.modulus
    acc = [0] * d
    chi_at = {} if chi_at is None else chi_at
    # chi(r) = chi*(r mod f), and r mod u hits each unit mod f phi(u)/phi(f) times
    for r, k in chi.values():
        acc[k] += r % f
        if r in chi_at:
            chi_at[r] = k
    if d % 2 == 0:  # Phi_d divides x^(d/2) + 1
        acc = [a - b for a, b in zip(acc[: d // 2], acc[d // 2:])]
    c = _poly_rem(acc, d)
    m = euler_phi(u) // euler_phi(f)
    return tuple(x // m for x in c), f


# ---------------------------------------------------------------------------
# Orbit norms: N(B_{1,chi}) times a Stickelberger denominator, from
# Res(Phi_e, beta) = prod_{k in (Z/e)^*} beta(omega^k) modulo primes
# q = 1 (mod e), where Phi_e splits with roots omega^k, CRT-combined.

_ROOT_POOLS: dict[int, list[tuple[int, int]]] = {}


def _norm_primes(d: int):
    """Yield (q, omega) for the primes q = m*d + 1 < 2^62, descending, with
    omega of exact order d mod q; one pool per d, grown lazily."""
    pool = _ROOT_POOLS.setdefault(d, [])
    i = 0
    while True:
        if i == len(pool):
            q = pool[-1][0] - d if pool else ((1 << 62) - 2) // d * d + 1
            while not is_prime(q):
                q -= d
            roots = (pow(g, (q - 1) // d, q) for g in range(2, q))
            omega = next(w for w in roots if _has_order(w, d, q))
            pool.append((q, omega))
        yield pool[i]
        i += 1


def _norm_mod(A: tuple[int, ...], d: int, q: int, omega: int) -> int:
    """prod A(omega^k) mod q over the units k mod d, for even d, len(A) <= d/2
    and omega of exact order d.

    The units are the odd k = 2j + 1, and A(omega^(2j+1)) is a length-d/2 DFT
    of a_i omega^i. Bluestein's 2ij = i^2 + j^2 - (j-i)^2 makes it
    omega^(j^2) sum_i (a_i omega^(i+i^2)) omega^(-(j-i)^2): one convolution
    with a chirp, done as a single big-integer product of W-byte slots
    (Kronecker substitution). A slot holds at most len(A) products below q^2.
    """
    L, n = len(A), d // 2
    pw = [1] * d
    for k in range(1, d):
        pw[k] = pw[k - 1] * omega % q
    W = (2 * q.bit_length() + L.bit_length() + 7) // 8
    a = b"".join(
        (c * pw[(i + i * i) % d] % q).to_bytes(W, "little") for i, c in enumerate(A)
    )
    chirp = b"".join(pw[-m * m % d].to_bytes(W, "little") for m in range(1 - L, n))
    conv = int.from_bytes(a, "little") * int.from_bytes(chirp, "little")
    conv = conv.to_bytes(len(a) + len(chirp), "little")
    acc, e = 1, 0
    for j in range(n):
        if math.gcd(2 * j + 1, d) == 1:
            t = (j + L - 1) * W
            acc = acc * int.from_bytes(conv[t:t + W], "little") % q
            e += j * j
    return acc * pow(omega, e, q) % q


def _norm_bound_bits(A: tuple[int, ...], d: int) -> int:
    """b with |Res(Phi_d, A)| < 2^b, for len(A) <= d. Parseval gives
    sum_{k mod d} |A(zeta^k)|^2 = d * sum a_i^2, and AM-GM over the phi(d)
    primitive k gives |Res|^2 <= (d * sum a_i^2 / phi)^phi."""
    phi = euler_phi(d)
    t = -(-((d * sum(c * c for c in A)) ** phi) // phi**phi)
    return (t.bit_length() + 1) // 2


def _stickelberger_denominator(d: int, aux: list[tuple[int, int]]) -> int:
    """D > 0 with D * N(B_{1,chi}) an integer, chi of order d: the gcd of
    N(c - chi(c)) = Phi_e(c)^(phi(d)/phi(e)) over the pairs (c, k) of aux, c
    prime to u and chi(c) = e(k/d) of order e = d/gcd(k, d) (Stickelberger;
    Washington, Introduction to Cyclotomic Fields, 6.2). Phi_e(c) is the exact
    quotient prod (c^f - 1)^mu(e/f) over the binomials of e."""
    D, phi = 0, euler_phi(d)
    for c, k in aux:
        e = d // math.gcd(k, d)
        terms = _binomials(e)
        num = math.prod(c**f - 1 for f, mu in terms if mu == 1)
        den = math.prod(c**f - 1 for f, mu in terms if mu == -1)
        D = math.gcd(D, (num // den) ** (phi // euler_phi(e)))
    return D


# ---------------------------------------------------------------------------
# Descent through the cyclotomic tower. For even e an element of Q(zeta_e) is
# held at half length, as A with A(zeta_e) = sum_{i < e/2} a_i zeta_e^i: Phi_e
# divides x^(e/2) + 1, and sigma_k: x^i -> x^(ik), k odd, is an automorphism
# of Z[x]/(x^(e/2) + 1). The norm from Q(zeta_e) down to Q(zeta_{e/p}) has the
# same resultant against Phi_{e/p} as A against Phi_e.

# A last prime p above this is left to the CRT at order 2p: timed against that
# CRT with its primes found cold, the exact step took at most 1.08 times as
# long for p <= 13, up to 1.3 times for p = 17-23, and 1.1-4.2 times (median
# 2.4) for p >= 37 once the coefficients passed 80 bits (CHANGES.md).
_CRT_LAST_PRIME = 13


def _conjugate(A: list[int], k: int) -> list[int]:
    """sigma_k(A) mod x^n + 1, n = len(A), for odd k."""
    n = len(A)
    out = [0] * n
    for i, a in enumerate(A):
        j = i * k % (2 * n)
        out[j % n] = a if j < n else -a
    return out


def _mul_negacyclic(A: list[int], B: list[int]) -> list[int]:
    """A * B mod x^n + 1 for signed coefficient lists of length n: one
    big-integer product of W-byte slots (Kronecker substitution). Each slot is
    biased by H = 2^(8W - 1) so that it is unsigned; packing and unpacking are
    linear bytes joins and slices."""
    n = len(A)
    bits = max(map(abs, A)).bit_length() + max(map(abs, B)).bit_length() + n.bit_length()
    W = bits // 8 + 1  # every product coefficient is below 2^bits <= H
    H = 1 << (8 * W - 1)
    slot = H.to_bytes(W, "little")

    def pack(P: list[int]) -> int:
        biased = b"".join((c + H).to_bytes(W, "little") for c in P)
        return int.from_bytes(biased, "little") - int.from_bytes(slot * len(P), "little")

    m = 2 * n - 1
    prod = pack(A) * pack(B) + int.from_bytes(slot * m, "little")
    raw = prod.to_bytes(m * W, "little")
    c = [int.from_bytes(raw[t:t + W], "little") - H for t in range(0, m * W, W)]
    return [x - y for x, y in zip(c, c[n:] + [0])]


def _relative_norm(A: tuple[int, ...], e: int, p: int, stage: str) -> tuple[int, ...]:
    """The norm of A from Q(zeta_e) down to Q(zeta_m), m = e/p, e and m even,
    at half length on both sides: the product of the conjugates sigma_k,
    k = 1 (mod m), a cyclic group with generator g, built by doubling with
    one check of the time limit (raising with `stage`) before each product.
    It is read off with no reduction by Phi_e:
    - p^2 | e: k = 1 + jm, and the conjugates of x^i with p not dividing i sum
      to 0, so the norm is the sum of a_i zeta_m^(i/p) over p | i.
    - p not dividing m: zeta_e^i = zeta_p^b zeta_m^t, b = i m^-1 mod p and
      t = i p^-1 mod m; on the basis 1, zeta_p^2, ..., zeta_p^(p-1) over
      Q(zeta_m) the norm is C_0 - C_1, C_b the sum of a_i zeta_m^t with that b."""
    m, n = e // p, e // 2
    if m % p == 0:
        g, order = 1 + m, p
    else:
        g, order = _crt_lift(_primitive_root_mod_pk(p, 1), p, e), p - 1
    A = list(A) + [0] * (n - len(A))
    prod, size = A, 1  # prod = sigma_{g^0}(A) * ... * sigma_{g^(size - 1)}(A)
    for bit in bin(order)[3:]:
        _check(stage)
        prod = _mul_negacyclic(prod, _conjugate(prod, pow(g, size, e)))
        size *= 2
        if bit == "1":
            _check(stage)
            prod = _mul_negacyclic(A, _conjugate(prod, g))
            size += 1
    if m % p == 0:
        return tuple(prod[::p])
    h, to_m, to_p = m // 2, pow(p, -1, m), pow(m, -1, p)
    out = [0] * h
    for i, a in enumerate(prod):
        b, t = i * to_p % p, i * to_m % m
        if b < 2:  # zeta_m^t = -zeta_m^(t - h) for t >= h
            out[t % h] += a if (b + t // h) % 2 == 0 else -a
    return tuple(out)


def _descend(A: tuple[int, ...], d: int) -> tuple[tuple[int, ...], int]:
    """(B, e) with Res(Phi_e, B) = Res(Phi_d, A), for even d and len(A) <= d/2,
    B at half length: p goes out while p^2 divides what is left, then each odd
    prime, ascending, down to e = 2, where the resultant is B_0, or to e = 2p
    for a last prime p above _CRT_LAST_PRIME."""
    fact = factorize(d)
    last = fact.primes()[-1]
    steps = [p for p, k in fact.factors for _ in range(k - 1)]
    steps += [p for p in fact.primes() if 2 < p and (p < last or p <= _CRT_LAST_PRIME)]
    e = d
    for p in steps:
        A = _relative_norm(A, e, p, f"order-{d} norm: descent reached order {e}")
        e //= p
    return A, e


def orbit_norm(orbit: CharacterOrbit) -> Fraction:
    """Norm from Q(zeta_d) to Q of -B_{1,chi}/2 for one Galois orbit of odd chi.
    Raises TimeLimitExceeded when the time limit passes, checked in every pass
    of the reduction of B_1 by Phi_d, before every product of the descent and
    before every CRT prime."""
    if not orbit.is_odd:
        raise ValueError("orbit norm is defined here for odd-character orbits only")
    chi = orbit.members[0]
    u, d = chi.modulus, chi.order
    phi = euler_phi(d)
    if phi != orbit.size:
        raise AssertionError("orbit size must be phi(order)")
    # chi(-1) = -1 makes d even, as _descend and _norm_mod need.
    primes = (c for c in itertools.count(2) if u % c and is_prime(c))
    aux = list(itertools.islice(primes, 2))
    chi_at = dict.fromkeys(c % u for c in aux)
    c, f = b1_chi(chi, chi_at)
    # N(B_{1,chi}) = Res(Phi_d, c0) * g^phi / f^phi, g = gcd(c_i), c0 = c/g.
    g = math.gcd(*c)
    c0 = tuple(x // g for x in c)
    beta, e = _descend(c0, d)
    if e == 2:
        return Fraction(beta[0] * g**phi, f**phi) * Fraction(-1, 2) ** phi
    # T = N(B_{1,chi}) * D, an integer, found by CRT.
    D = _stickelberger_denominator(d, [(a, chi_at[a % u]) for a in aux])
    scale, f_phi = g**phi * D, f**phi
    bits = max(1, _norm_bound_bits(beta, e) + scale.bit_length() - f_phi.bit_length() + 1)
    x, mod = 0, 1
    for i, (q, omega) in enumerate(_norm_primes(e)):
        _check(f"order-{d} norm: {i} CRT primes, {mod.bit_length()} of {bits} bits")
        r = _norm_mod(beta, e, q, omega) * (scale % q) * pow(f, -phi, q) % q
        # CRT: combine (x mod mod) with (r mod q).
        t = (r - x) * pow(mod, -1, q) % q
        x += mod * t
        mod *= q
        if mod.bit_length() > bits + 1:
            break
    T = x - mod if 2 * x > mod else x
    return Fraction(T, D) * Fraction(-1, 2) ** phi


# ---------------------------------------------------------------------------
# Assembly.


@dataclass(frozen=True)
class OrbitNorm:
    order: int
    size: int
    rep_exponents: tuple[int, ...]
    norm: Fraction

    @property
    def orbit_id(self) -> str:
        return f"order={self.order} size={self.size} rep={self.rep_exponents}"


@dataclass(frozen=True)
class RelativeClassNumber:
    modulus: int  # normalized conductor
    value: int
    factorization: PrimeFactorization
    orbit_norms: tuple[OrbitNorm, ...]
    q_factor: int  # 1 for prime powers, else 2
    roots_of_unity: int  # w = number of roots of unity in Q(zeta_u)
    note: str = ""  # why the factorization has a cofactor; empty when complete


def relative_class_number(u: int, time_limit: float | None = None) -> RelativeClassNumber:
    """h^-(u) with its factorization and per-orbit norms; exact throughout.

    u is normalized first (u = 2 mod 4 names the same field as u/2). Raises
    ValueError for a time_limit that is negative, infinite or NaN,
    IntegralityError if the rational product is not a positive integer, and
    TimeLimitExceeded when `time_limit` seconds pass in the orbit norms. When
    they pass while factoring, the value is still exact: its factorization
    carries the unsplit part as a composite cofactor, and `note` says where
    factoring stopped.
    """
    if u < 1:
        raise ValueError(f"expected u >= 1, got {u}")
    with within(time_limit):
        u = normalize_conductor(u)
        if u <= 2:
            return RelativeClassNumber(u, 1, factorize(1), (), 1, 2)
        odd_chars = [ch for ch in characters(u) if ch.is_odd]
        orbits = galois_orbits(odd_chars)
        # Largest orbits first: the expensive norms fail fast under a time limit.
        orbits.sort(key=lambda ob: (-ob.size, ob.order, ob.members[0].exponents))
        norms = []
        for ob in orbits:
            try:
                norm = orbit_norm(ob)
            except TimeLimitExceeded as exc:
                raise TimeLimitExceeded(
                    f"h^-({u}): time limit {time_limit}s exceeded in orbit norms "
                    f"after {len(norms)} of {len(orbits)} orbits ({exc})"
                ) from None
            norms.append(OrbitNorm(ob.order, ob.size, ob.members[0].exponents, norm))
        q = 1 if len(factorize(u).factors) == 1 else 2
        w = 2 * u if u % 2 == 1 else u
        h = Fraction(q * w) * math.prod((n.norm for n in norms), start=Fraction(1))
        if h.denominator != 1 or h <= 0:
            raise IntegralityError(f"h^-({u}) is not a positive integer", h)
        note = ""
        try:
            fact = factorize(int(h))
        except TimeLimitExceeded as exc:
            fact = exc.partial
            note = f"time limit {time_limit}s exceeded in factorization ({exc})"
    return RelativeClassNumber(u, int(h), fact, tuple(norms), q, w, note)
