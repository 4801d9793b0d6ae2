"""Relative class numbers h^-(u) via generalized Bernoulli numbers.

h^-(u) = Q * w * prod_{chi odd} (-B_{1,chi}/2), the product taken over Galois
orbits as exact rational norms. b1_chi gives B_{1,chi} as integers c_i over the
conductor f on the power basis of Q(zeta_d): a character sum over the unit
walk mod f, taken by slices of units that share chi's value and not one unit
at a time, folded by x^(d/2) + 1 and reduced by Phi_d through the power series
of 1/Phi_d.
Then N(B_{1,chi}) = Res(Phi_d, c0) * g^phi / f^phi, g = gcd(c_i) and c0 = c/g.
Res(Phi_d, c0) descends the cyclotomic tower: the norm of c0 from Q(zeta_e)
down to Q(zeta_{e/p}) has the same resultant against Phi_{e/p}, and is an
exact product of conjugates mod x^(e/2) + 1, first while p^2 | e, then for
each odd p of the squarefree rest but the largest, q. At e = 2 the resultant
is the one coefficient left. At e = 2q the last step takes the exact product
gamma of the conjugates over a subgroup H of (Z/2q)^*, chosen by a cost rule,
and Res(Phi_2q, beta) is the product of gamma over one root of unity per coset
of H, each value a sum of Gauss periods. For H the whole group that is one
integer. Otherwise the integer T = N(B_{1,chi}) * D = Res(Phi_e, beta) * g^phi
* D / f^phi is found modulo primes p = 1 (mod e) below 2^62, where the m coset
values are one cyclic correlation per prime, and the residues are
CRT-combined past a Parseval bound. Only this route needs the denominator
D, from Stickelberger's theorem for the primitive chi*: for a prime c not
dividing f, (c - chi*(c)^-1) B_{1,chi} is integral, so D_c = N(c - chi*(c)) =
Phi_k(c)^(phi(d)/phi(k)), k the order of chi*(c), clears the norm, with
Phi_k(c) = prod (c^j - 1)^mu(k/j) from the binomial product, and D is the gcd
of D_c over the two smallest such auxiliary primes, chi*(c) read off the
position of c mod f in the unit walk abelian._UnitData.units of (Z/f)^*, the
walk b1_chi takes. A norm thus depends on chi* alone, not on the modulus u.
The norm of -B_{1,chi}/2 is N(B_{1,chi}) * (-1/2)^phi.

relative_class_number factors h^- through its pieces, Q*w and the numerator
of each orbit norm: every prime of h^- divides one of them, and the
denominators only cancel. Each piece goes through the cached arith.factorize,
smallest first, and the primes found are divided out of h^- exactly. It runs
under arith.within(time_limit), checked before every pass of a reduction by
Phi_d, every product of the descent and of the last step, every CRT prime and
in the factoring of the pieces. Out of time in the norms, TimeLimitExceeded
says how far they got; out of time in the factoring, the exact value comes
back, its unsplit rest a composite cofactor, and RelativeClassNumber.note says
so.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .arith import (
    PrimeFactorization,
    TimeLimitExceeded,
    _check,
    _decimal,
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
    _unit_data,
    characters,
    galois_orbits,
    normalize_conductor,
)


class IntegralityError(Exception):
    """The analytic product failed to be a positive integer."""

    def __init__(self, message: str, offending: Fraction):
        super().__init__(f"{message}: {_decimal(offending)}")
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


def b1_chi(chi: DirichletCharacter) -> tuple[tuple[int, ...], int]:
    """B_{1,chi} = (1/f) sum_{a=1}^{f} chi*(a) a, chi* the primitive character
    of conductor f inducing chi, as (c, f) with B_{1,chi} = (1/f) sum c_i zeta^i:
    the phi(d) integer coefficients on the power basis of Q(zeta_d), d = order
    of chi, and the conductor.

    The sum runs over _unit_data(f).units with chi* = chi.primitive, r =
    prod g_i^t_i with the last digit fastest, where chi*(r) = e(sum t_i w_i/d),
    w_i = e_i d/o_i. chi*(g_i) has order d_i = o_i/gcd(e_i, o_i), so t_i
    matters only mod d_i. Generator by generator from the first, the sub-walks
    of one digit value t_i are added elementwise into one per class of t_i mod
    d_i, and sub-walks that reach the same partial exponent k0 merge. What is
    left are blocks of the last generator, one per k0, and each residue class j
    mod d_n of a block is one slice sum, added to the coefficient of k0 + j w_n."""
    if chi.is_trivial:
        raise ValueError("B_{1,chi} is defined here only for nontrivial chi")
    chi = chi.primitive
    d, f = chi.order, chi.modulus
    data = _unit_data(f)
    weights = [e * d // o for o, e in zip(data.orders, chi.exponents)]
    blocks = {0: data.units}  # partial exponent k0 -> walk over the digits left
    *head, (o, e, w) = zip(data.orders, chi.exponents, weights)
    for oi, ei, wi in head:
        di, merged = oi // math.gcd(ei, oi), {}
        for k0, walk in blocks.items():
            s = len(walk) // oi
            for j in range(di):
                parts = [walk[t * s : (t + 1) * s] for t in range(j, oi, di)]
                part = parts[0] if len(parts) == 1 else list(map(sum, zip(*parts)))
                k = (k0 + j * wi) % d
                if k in merged:
                    part = list(map(operator.add, merged[k], part))
                merged[k] = part
        blocks = merged
    dn, acc = o // math.gcd(e, o), [0] * d
    for k0, walk in blocks.items():
        for j in range(dn):
            acc[(k0 + j * w) % d] += sum(walk[j::dn])
    if d % 2 == 0:  # Phi_d divides x^(d/2) + 1
        acc = [a - b for a, b in zip(acc[: d // 2], acc[d // 2:])]
    return tuple(_poly_rem(acc, d)), f


# ---------------------------------------------------------------------------
# Orbit norms: N(B_{1,chi}) times a Stickelberger denominator, from
# Res(Phi_e, beta), exactly or modulo primes p = 1 (mod e), where Phi_e
# splits, CRT-combined.

def _norm_primes(d: int):
    """Yield (q, omega) for the primes q = m*d + 1 < 2^62, descending, with
    omega of exact order d mod q."""
    q = ((1 << 62) - 2) // d * d + 1
    while True:
        if is_prime(q):
            roots = (pow(g, (q - 1) // d, q) for g in range(2, q))
            yield q, next(w for w in roots if _has_order(w, d, q))
        q -= d


def _norm_bound_bits(A: tuple[int, ...], d: int) -> int:
    """b with |Res(Phi_d, A)| < 2^b, for len(A) <= d. Parseval gives
    sum_{k mod d} |A(zeta^k)|^2 = d * sum a_i^2, and AM-GM over the phi(d)
    primitive k gives |Res|^2 <= (d * sum a_i^2 / phi)^phi."""
    phi = euler_phi(d)
    t = -(-((d * sum(c * c for c in A)) ** phi) // phi**phi)
    return (t.bit_length() + 1) // 2


def _stickelberger_denominator(d: int, aux: list[tuple[int, int]]) -> int:
    """D > 0 with D * N(B_{1,chi}) an integer, chi of order d: the gcd of
    N(c - chi*(c)) = Phi_e(c)^(phi(d)/phi(e)) over the pairs (c, k) of aux,
    c prime to the conductor of chi, chi* the primitive character inducing
    chi and chi*(c) = e(k/d) of order e = d/gcd(k, d) (Stickelberger;
    Washington, Introduction to Cyclotomic Fields, 6.2). Phi_e(c) is the exact
    quotient prod (c^j - 1)^mu(e/j) over the binomials of e."""
    D, phi = 0, euler_phi(d)
    for c, k in aux:
        e = d // math.gcd(k, d)
        terms = _binomials(e)
        num = math.prod(c**j - 1 for j, mu in terms if mu == 1)
        den = math.prod(c**j - 1 for j, mu in terms if mu == -1)
        D = math.gcd(D, (num // den) ** (phi // euler_phi(e)))
    return D


# ---------------------------------------------------------------------------
# Descent through the cyclotomic tower. For even e an element of Q(zeta_e) is
# held at half length, as A with A(zeta_e) = sum_{i < e/2} a_i zeta_e^i: Phi_e
# divides x^(e/2) + 1, and sigma_k: x^i -> x^(ik), k odd, is an automorphism
# of Z[x]/(x^(e/2) + 1). The norm from Q(zeta_e) down to Q(zeta_{e/p}) has the
# same resultant against Phi_{e/p} as A against Phi_e.


def _conjugate(A: list[int], k: int) -> list[int]:
    """sigma_k(A) mod x^n + 1, n = len(A), for odd k."""
    n = len(A)
    out = [0] * n
    for i, a in enumerate(A):
        j = i * k % (2 * n)
        out[j % n] = a if j < n else -a
    return out


def _kronecker(A: list[int], B: list[int]) -> list[int]:
    """A * B for signed coefficient lists of any lengths, all len(A) + len(B)
    - 1 coefficients: one big-integer product of W-byte slots (Kronecker
    substitution). Each slot is biased by H = 2^(8W - 1) so that it is
    unsigned; packing and unpacking are linear bytes joins and slices."""
    terms = min(len(A), len(B))  # most products in one coefficient
    bits = max(map(abs, A)).bit_length() + max(map(abs, B)).bit_length() + terms.bit_length()
    W = bits // 8 + 1  # every product coefficient is below 2^bits <= H
    H = 1 << (8 * W - 1)
    slot = H.to_bytes(W, "little")

    def pack(P: list[int]) -> int:
        biased = b"".join((c + H).to_bytes(W, "little") for c in P)
        return int.from_bytes(biased, "little") - int.from_bytes(slot * len(P), "little")

    m = len(A) + len(B) - 1
    prod = pack(A) * pack(B) + int.from_bytes(slot * m, "little")
    raw = prod.to_bytes(m * W, "little")
    return [int.from_bytes(raw[t:t + W], "little") - H for t in range(0, m * W, W)]


def _mul_negacyclic(A: list[int], B: list[int]) -> list[int]:
    """A * B mod x^n + 1 for signed coefficient lists of length n: the
    product from _kronecker, folded by x^n = -1."""
    n = len(A)
    c = _kronecker(A, B)
    return [x - y for x, y in zip(c, c[n:] + [0])]


def _conjugate_product(A: list[int], g: int, order: int, stage: str) -> list[int]:
    """prod_{j < order} sigma_{g^j}(A) mod x^n + 1, n = len(A), g odd, built
    by doubling with one check of the time limit (raising with `stage`)
    before each product."""
    e = 2 * len(A)
    prod, size = A, 1  # prod = sigma_{g^0}(A) * ... * sigma_{g^(size - 1)}(A)
    for bit in bin(order)[3:]:
        _check(stage)
        prod = _mul_negacyclic(prod, _conjugate(prod, pow(g, size, e)))
        size *= 2
        if bit == "1":
            _check(stage)
            prod = _mul_negacyclic(A, _conjugate(prod, g))
            size += 1
    return prod


def _relative_norm(A: tuple[int, ...], e: int, p: int, stage: str) -> tuple[int, ...]:
    """The norm of A from Q(zeta_e) down to Q(zeta_m), m = e/p, e and m even,
    at half length on both sides: the product of the conjugates sigma_k,
    k = 1 (mod m), a cyclic group, from _conjugate_product. It is read off
    with no reduction by Phi_e:
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
    prod = _conjugate_product(list(A) + [0] * (n - len(A)), g, order, stage)
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
    prime but the largest, ascending, down to e = 2q, q the largest odd prime
    of d, or to e = 2 when d is a power of 2, where the resultant is B_0."""
    fact = factorize(d)
    steps = [p for p, k in fact.factors for _ in range(k - 1)]
    steps += [p for p in fact.primes()[:-1] if p > 2]
    e = d
    for p in steps:
        A = _relative_norm(A, e, p, f"order-{d} norm: descent reached order {e}")
        e //= p
    return A, e


# ---------------------------------------------------------------------------
# The last step: Res(Phi_2q, B) for an odd prime q, through a subgroup H of
# (Z/2q)^* = (Z/q)^*, cyclic of order q - 1. With y = -x, Z[x]/(x^q + 1) is
# Z[y]/(y^q - 1) and sigma_k: y -> y^k depends on k mod q only. The product
# gamma of the conjugates of B over H is H-invariant, so its coefficients a_j
# on y^j are constant on the cosets g^s H, g the generator of the unit walk
# abelian._unit_data(q).units = (g^i mod q, i < q - 1): a_0 and A_s,
# s < m = (q - 1)/|H|. Res(Phi_2q, B) is the product of gamma over one
# primitive q-th root of unity per coset, zeta^(g^t), t < m, and
# gamma(zeta^(g^t)) = a_0 + sum_s A_s eta_{s+t}, with the Gauss periods
# eta_s = sum_{i = s (mod m)} zeta^(g^i) (Washington, Introduction to
# Cyclotomic Fields, ch. 8). For H the whole group, m = 1, eta_0 = -1, and
# the resultant is the integer a_0 - A_0.


# The cost rule that picks H, in seconds. The exact product of |H| = h
# conjugates takes the products of _conjugate_product's doubling chain, each
# _SLOT_S per slot plus _KARATSUBA_S per bit^1.585 of its packed operands
# (CPython multiplies big integers by Karatsuba), with coefficients growing by
# b + log2(q)/2 bits per conjugate, b those of B. For H the whole group the
# chain stops at (q - 1)/2 conjugates, and the read-off is 2q products of
# two coefficients at the same _KARATSUBA_S. Each CRT prime then takes
# _POWER_S per power of zeta, _COSET_S per coset, _CORRELATION_S per
# bit^1.585 of the correlation's operands and _COLD_PRIME_S to be found. The
# constants are least-squares fits, within 35% for the products and 15% per
# prime, to best-of-3 timings of _conjugate_product (q = 17-509, b = 8-64,
# every divisor h of q - 1) and of _coset_norm_mod (q = 17-5003), and the
# mean cost of the first 20 primes of _norm_primes(2q), on a 2-core x86-64
# machine under CPython 3.11 (CHANGES.md); the read-off is within 0.6-1.6
# times its timings above q = 17 (below, under 5% of its chain). On the
# tabulated conductors the rule takes H = (Z/2q)^* for every last prime, up
# to q = 89; at u = 1163 it takes |H| = 2 for q = 83, and at u = 10007
# |H| = 41. Every CRT prime is charged as drawn cold; is_prime caches its
# answers, so a later draw of the primes of 2q in the same process costs
# less than _COLD_PRIME_S.
_SLOT_S = 1.3e-6
_KARATSUBA_S = 3.0e-11
_POWER_S = 3.2e-7
_COSET_S = 1.6e-6
_CORRELATION_S = 7.7e-11
_COLD_PRIME_S = 5e-4


def _subgroup_order(B: tuple[int, ...], q: int, bits: int) -> int:
    """The order h of H, a divisor of q - 1, that costs least by the rule
    above, for a CRT past `bits` bits when H is not the whole group."""
    w, log_q = max(map(abs, B)).bit_length() + math.log2(q) / 2, math.log2(q)
    primes = bits / 62 + 1

    def product(size: int) -> float:  # one product, of `size` conjugates
        return q * _SLOT_S + _KARATSUBA_S * (q * (size * w + log_q)) ** 1.585

    def cost(h: int) -> float:
        m = (q - 1) // h
        t, size = 0.0, 1
        for bit in bin(h // 2 if m == 1 else h)[3:]:
            size *= 2
            t += product(size)
            if bit == "1":
                size += 1
                t += product(size)
        if m == 1:  # the read-off: 2q products of two coefficients
            t += 2 * q * _KARATSUBA_S * (size * w) ** 1.585
        else:
            slot_bits = 8 * ((2 * 62 + m.bit_length() + 7) // 8)
            per_prime = q * _POWER_S + m * _COSET_S + _COLD_PRIME_S
            t += primes * (per_prime + _CORRELATION_S * (m * slot_bits) ** 1.585)
        return t

    return min((h for h in range(1, q) if (q - 1) % h == 0), key=cost)


def _coset_values(B: tuple[int, ...], q: int, bits: int, stage: str) -> tuple[int, list[int]]:
    """(a_0, [A_0, ..., A_{m-1}]) of gamma = prod_{k in H} sigma_k(B) mod
    x^q + 1, |H| = _subgroup_order(B, q, bits), read at y^0 and at y^(g^s).
    For H the whole group, sigma_{g^((q-1)/2)} = sigma_{-1}: y -> y^-1, so
    gamma = P(y) P(1/y), P the product over the first half of the walk, and
    a_0 and A_0 = a_1 are the sums of y_i^2 and y_i y_{i-1}, y_i the
    coefficients of P on y^i; the chain's last and largest product is not
    made."""
    h, walk = _subgroup_order(B, q, bits), _unit_data(q).units
    m = (q - 1) // h
    generator = _crt_lift(pow(walk[1], m, q), q, 2 * q)  # g^m, odd
    B = list(B) + [0] * (q - len(B))
    if m == 1:
        P = _conjugate_product(B, generator, h // 2, stage)
        y = [-c if j % 2 else c for j, c in enumerate(P)]
        return sum(map(operator.mul, y, y)), [sum(map(operator.mul, y, y[-1:] + y[:-1]))]
    gamma = _conjugate_product(B, generator, h, stage)
    # a_j = (-1)^j c_j, c_j the coefficient of x^j
    return gamma[0], [-gamma[j] if j % 2 else gamma[j] for j in walk[:m]]


def _coset_norm_mod(a0: int, A: list[int], q: int, p: int, omega: int) -> int:
    """prod_{t < m} (a0 + sum_s A_s eta_{s+t}) mod p, m = len(A) dividing
    q - 1, with omega of order 2q mod p. zeta = -omega has order q; one pass
    over its powers, in the order of the walk g^i, sums the Gauss periods, and
    the m sums over s are one cyclic correlation, read off the product from
    _kronecker: the coefficient of z^(m-1+t) in
    (sum_s A_s z^(m-1-s)) * (sum_{k < 2m-1} eta_{k mod m} z^k)."""
    m, zeta = len(A), p - omega
    pw = [1] * q
    for j in range(1, q):
        pw[j] = pw[j - 1] * zeta % p
    vals = [pw[j] for j in _unit_data(q).units]
    eta = [sum(vals[s::m]) % p for s in range(m)]
    conv = _kronecker([x % p for x in reversed(A)], eta + eta[:-1])
    acc, a0 = 1, a0 % p
    for c in conv[m - 1 : 2 * m - 1]:
        acc = acc * (a0 + c) % p
    return acc


def _chi_exponent(chi: DirichletCharacter, r: int) -> int:
    """k with chi(r) = e(k/d), d the order of chi, for a unit r in (0, m), m
    chi's modulus: r's position in _unit_data(m).units, split into the digits
    t_i (last digit fastest), gives k = sum t_i e_i d/o_i mod d."""
    d, data = chi.order, _unit_data(chi.modulus)
    pos, k = data.units.index(r), 0
    for o, e in zip(reversed(data.orders), reversed(chi.exponents)):
        pos, t = divmod(pos, o)
        k += t * (e * d // o)
    return k % d


def orbit_norm(orbit: CharacterOrbit) -> Fraction:
    """Norm from Q(zeta_d) to Q of -B_{1,chi}/2 for one Galois orbit of odd chi.
    Raises TimeLimitExceeded when the time limit passes, checked before every
    product of the descent and of the last step and before every CRT prime."""
    if not orbit.is_odd:
        raise ValueError("orbit norm is defined here for odd-character orbits only")
    chi = orbit.members[0]
    d = chi.order
    phi = euler_phi(d)
    if phi != orbit.size:
        raise AssertionError("orbit size must be phi(order)")
    # chi(-1) = -1 makes d even, as _descend needs.
    c, f = b1_chi(chi)
    # N(B_{1,chi}) = Res(Phi_d, c0) * g^phi / f^phi, g = gcd(c_i), c0 = c/g.
    g = math.gcd(*c)
    c0 = tuple(x // g for x in c)
    beta, e = _descend(c0, d)
    if e == 2:  # Res(Phi_2, beta) = beta_0
        return Fraction(beta[0] * g**phi, f**phi) * Fraction(-1, 2) ** phi
    res_bits, g_phi, f_phi = _norm_bound_bits(beta, e), g**phi, f**phi
    # The rule is sized by the CRT bound below without D, which adds few bits.
    rule_bits = max(1, res_bits + g_phi.bit_length() - f_phi.bit_length() + 1)
    a0, A = _coset_values(beta, e // 2, rule_bits, f"order-{d} norm: descent reached order {e}")
    if len(A) == 1:  # H is the whole group: Res(Phi_e, beta) = a0 - A_0
        return Fraction((a0 - A[0]) * g_phi, f_phi) * Fraction(-1, 2) ** phi
    # T = N(B_{1,chi}) * D, an integer, found by CRT; D from the two smallest
    # primes not dividing f, chi*(c) read on the walk mod f that b1_chi built.
    primes = (a for a in itertools.count(2) if f % a and is_prime(a))
    aux = [(a, _chi_exponent(chi.primitive, a % f)) for a in itertools.islice(primes, 2)]
    D = _stickelberger_denominator(d, aux)
    scale = g_phi * D
    bits = max(1, res_bits + scale.bit_length() - f_phi.bit_length() + 1)
    x, mod = 0, 1
    for i, (p, omega) in enumerate(_norm_primes(e)):
        _check(f"order-{d} norm: {i} CRT primes, {mod.bit_length()} of {bits} bits")
        r = _coset_norm_mod(a0, A, e // 2, p, omega) * (scale % p) * pow(f, -phi, p) % p
        # CRT: combine (x mod mod) with (r mod p).
        t = (r - x) * pow(mod, -1, p) % p
        x += mod * t
        mod *= p
        if mod.bit_length() > bits + 1:
            break
    T = x - mod if 2 * x > mod else x
    return Fraction(T, D) * Fraction(-1, 2) ** phi


# ---------------------------------------------------------------------------
# Assembly.


class OrbitNorm(NamedTuple):
    order: int
    size: int
    rep_exponents: tuple[int, ...]
    norm: Fraction

    @property
    def orbit_id(self) -> str:
        return f"order={self.order} size={self.size} rep={self.rep_exponents}"


class RelativeClassNumber(NamedTuple):
    modulus: int  # normalized conductor
    value: int
    factorization: PrimeFactorization
    orbit_norms: tuple[OrbitNorm, ...]
    q_factor: int  # 1 for prime powers, else 2
    roots_of_unity: int  # w = number of roots of unity in Q(zeta_u)
    note: str = ""  # why the factorization has a cofactor; empty when complete


def _factor_from_pieces(h: int, pieces: list[int]) -> PrimeFactorization:
    """The factorization of h from the factorizations of pieces whose product
    every prime of h divides, smallest piece first, so that a time-out leaves
    only the hardest unsplit. Each prime found is divided out of h exactly.

    Out of time in one piece, the others still run, each stopping at its first
    check; then raises TimeLimitExceeded naming the first stage that stopped,
    with h's factorization as `partial`, its unsplit rest the cofactor.
    """
    exponents: dict[int, int] = {}
    rest, stage = h, ""
    for piece in sorted(pieces):
        try:
            primes = factorize(piece).primes()
        except TimeLimitExceeded as exc:
            primes = exc.partial.primes()
            stage = stage or str(exc).partition(" stopped on ")[0]
        for p in primes:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                exponents[p] = e
    fact = PrimeFactorization.assemble(h, exponents, rest)
    if fact.cofactor > 1:
        raise TimeLimitExceeded(f"{stage} stopped on {fact.terms()[-1]}", fact)
    return fact


def relative_class_number(u: int, time_limit: float | None = None) -> RelativeClassNumber:
    """h^-(u) with its factorization and per-orbit norms; exact throughout.

    u is normalized first (u = 2 mod 4 names the same field as u/2). h^- is
    factored from Q*w and the numerators of the orbit norms, never as a whole.
    Raises ValueError for a time_limit that is negative, infinite or NaN,
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
            fact = _factor_from_pieces(int(h), [q * w] + [n.norm.numerator for n in norms])
        except TimeLimitExceeded as exc:
            fact = exc.partial
            note = f"time limit {time_limit}s exceeded in factorization ({exc})"
    return RelativeClassNumber(u, int(h), fact, tuple(norms), q, w, note)
