"""Relative class numbers h^-(u) via generalized Bernoulli numbers.

h^-(u) = Q * w * prod_{chi odd} (-B_{1,chi}/2), the product taken over Galois
orbits as exact rational norms. A norm is the integer Res(Phi_d, A) =
prod_{k in (Z/d)^*} A(omega^k) modulo primes q = 1 (mod d) below 2^62, with
omega of order d mod q; the products come from one chirp-z convolution per
prime and are CRT-combined past a Parseval bound. An independent check is
available for prime u through the classical half-matrix determinant
(maillet_hminus).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .arith import PrimeFactorization, divisors, euler_phi, factorize, is_prime
from .abelian import (
    CharacterOrbit,
    DirichletCharacter,
    characters,
    galois_orbits,
    normalize_conductor,
)


class IntegralityError(Exception):
    """The analytic product failed to be a positive integer."""

    def __init__(self, message: str, offending: Fraction):
        super().__init__(f"{message}: {offending}")
        self.offending = offending


class TimeLimitExceeded(Exception):
    pass


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact polynomial division by a monic divisor, ascending coefficients."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd]
        q[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    if any(num):
        raise AssertionError("division not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, ascending. Phi_d(x) = Phi_r(x^(d/r)) for r = rad d;
    for squarefree d, Phi_d = (x^d - 1) / prod_{e|d, e<d} Phi_e."""
    if d < 1:
        raise ValueError(f"cyclotomic_polynomial expects d >= 1, got {d}")
    r = math.prod(factorize(d).primes())
    if r < d:
        poly = [0] * (euler_phi(d) + 1)
        poly[:: d // r] = cyclotomic_polynomial(r)
        return tuple(poly)
    poly = [-1] + [0] * (d - 1) + [1]
    for e in divisors(d)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(e))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(d: int) -> tuple[tuple[int, ...], ...]:
    """x^k reduced mod Phi_d for 0 <= k < max(d, 2*phi(d) - 1), as integer rows."""
    phi = euler_phi(d)
    Phi = cyclotomic_polynomial(d)
    neg_low = tuple(-c for c in Phi[:phi])
    rows = [tuple(1 if i == k else 0 for i in range(phi)) for k in range(phi)]
    for _ in range(phi, max(d, 2 * phi - 1)):
        prev = rows[-1]
        c = prev[-1]
        shifted = (0,) + prev[:-1]
        rows.append(tuple(s + c * n for s, n in zip(shifted, neg_low)))
    return tuple(rows)


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of Q(zeta_d) on the power basis 1, zeta, ..., zeta^(phi(d)-1)."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"need {euler_phi(self.order)} coefficients for order {self.order}"
            )

    @classmethod
    def zero(cls, d: int) -> CyclotomicNumber:
        return cls(d, (Fraction(0),) * euler_phi(d))

    @classmethod
    def one(cls, d: int) -> CyclotomicNumber:
        return cls.from_rational(d, Fraction(1))

    @classmethod
    def from_rational(cls, d: int, q) -> CyclotomicNumber:
        coeffs = [Fraction(0)] * euler_phi(d)
        coeffs[0] = Fraction(q)
        return cls(d, tuple(coeffs))

    @classmethod
    def root_of_unity(cls, d: int, k: int) -> CyclotomicNumber:
        row = _power_rows(d)[k % d]
        return cls(d, tuple(Fraction(c) for c in row))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def constant(self) -> Fraction:
        """The value as a rational; raises if any higher coefficient is nonzero."""
        if any(self.coeffs[1:]):
            raise ValueError(f"not rational: {self}")
        return self.coeffs[0]

    def __add__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        return CyclotomicNumber(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        return CyclotomicNumber(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> CyclotomicNumber:
        return CyclotomicNumber(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        phi = len(self.coeffs)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        rows = _power_rows(self.order)
        out = [Fraction(0)] * phi
        for k, c in enumerate(conv):
            if c:
                for i, r in enumerate(rows[k]):
                    if r:
                        out[i] += c * r
        return CyclotomicNumber(self.order, tuple(out))

    __rmul__ = __mul__

    def galois_map(self, k: int) -> CyclotomicNumber:
        """sigma_k: zeta -> zeta^k, for gcd(k, d) = 1."""
        d = self.order
        if math.gcd(k, d) != 1:
            raise ValueError(f"sigma_{k} is not an automorphism for order {d}")
        rows = _power_rows(d)
        phi = len(self.coeffs)
        out = [Fraction(0)] * phi
        for j, c in enumerate(self.coeffs):
            if c:
                for i, r in enumerate(rows[(j * k) % d]):
                    if r:
                        out[i] += c * r
        return CyclotomicNumber(d, tuple(out))

    def _check(self, other: CyclotomicNumber) -> None:
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders")

    def __str__(self) -> str:
        return f"({' , '.join(str(c) for c in self.coeffs)}) in Q(zeta_{self.order})"


def b1_chi(chi: DirichletCharacter) -> CyclotomicNumber:
    """B_{1,chi} = (1/f) sum_{a=1}^{f} chi*(a) a, chi* the primitive character
    of conductor f inducing chi; an element of Q(zeta_d), d = order of chi."""
    if chi.is_trivial:
        raise ValueError("B_{1,chi} is defined here only for nontrivial chi")
    d, f, u = chi.order, chi.conductor, chi.modulus
    acc = [0] * d
    for a in range(1, f + 1):
        if math.gcd(a, f) != 1:
            continue
        # Lift a to a unit mod u congruent to a mod f; chi*(a) = chi(lift).
        b = a
        while math.gcd(b, u) != 1:
            b += f
        v = chi.value(b)
        acc[int(v * d)] += a
    rows = _power_rows(d)
    out = [0] * euler_phi(d)
    for k, c in enumerate(acc):
        if c:
            for i, r in enumerate(rows[k]):
                if r:
                    out[i] += c * r
    return CyclotomicNumber(d, tuple(Fraction(c, f) for c in out))


# ---------------------------------------------------------------------------
# Orbit norms: Res(Phi_d, A) = prod_{k in (Z/d)^*} A(omega^k) modulo primes
# q = 1 (mod d), where Phi_d splits with roots omega^k, CRT-combined.

_ROOT_POOLS: dict[int, list[tuple[int, int]]] = {}


def _norm_primes(d: int):
    """Yield (q, omega) for the primes q = m*d + 1 < 2^62, descending, with
    omega of exact order d mod q; one pool per d, grown lazily."""
    pool = _ROOT_POOLS.setdefault(d, [])
    cofactors = [d // p for p in factorize(d).primes()]
    i = 0
    while True:
        if i == len(pool):
            q = pool[-1][0] - d if pool else ((1 << 62) - 2) // d * d + 1
            while not is_prime(q):
                q -= d
            roots = (pow(g, (q - 1) // d, q) for g in range(2, q))
            omega = next(w for w in roots if all(pow(w, c, q) != 1 for c in cofactors))
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


def orbit_norm(orbit: CharacterOrbit) -> Fraction:
    """Norm from Q(zeta_d) to Q of -B_{1,chi}/2 for one Galois orbit of odd chi."""
    if not orbit.is_odd:
        raise ValueError("orbit norm is defined here for odd-character orbits only")
    chi = orbit.members[0]
    d = chi.order
    if euler_phi(d) != orbit.size:
        raise AssertionError("orbit size must be phi(order)")
    w = b1_chi(chi) * Fraction(-1, 2)
    if d == 2:
        return w.coeffs[0]
    # chi(-1) = -1 makes d even, as _norm_mod needs.
    denom = reduce(math.lcm, (c.denominator for c in w.coeffs), 1)
    A = tuple(int(c * denom) for c in w.coeffs)
    bits = _norm_bound_bits(A, d)
    x, mod = 0, 1
    for q, omega in _norm_primes(d):
        r = _norm_mod(A, d, q, omega)
        # CRT: combine (x mod mod) with (r mod q).
        t = (r - x) * pow(mod, -1, q) % q
        x += mod * t
        mod *= q
        if mod.bit_length() > bits + 1:
            break
    res = x - mod if 2 * x > mod else x
    return Fraction(res, denom ** euler_phi(d))


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


def relative_class_number(u: int, time_limit: float | None = None) -> RelativeClassNumber:
    """h^-(u) with its factorization and per-orbit norms; exact throughout.

    u is normalized first (u = 2 mod 4 names the same field as u/2). Raises
    IntegralityError if the rational product is not a positive integer, and
    TimeLimitExceeded when `time_limit` seconds pass mid-computation.
    """
    if u < 1:
        raise ValueError(f"expected u >= 1, got {u}")
    u = normalize_conductor(u)
    if u <= 2:
        return RelativeClassNumber(u, 1, factorize(1), (), 1, 2)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    odd_chars = [ch for ch in characters(u) if ch.is_odd]
    orbits = galois_orbits(odd_chars)
    # Largest orbits first: the expensive norms fail fast under a time limit.
    orbits.sort(key=lambda ob: (-ob.size, ob.order, ob.members[0].exponents))
    norms = []
    for ob in orbits:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeLimitExceeded(f"h^-({u}) exceeded {time_limit}s")
        norms.append(
            OrbitNorm(ob.order, ob.size, ob.members[0].exponents, orbit_norm(ob))
        )
    q = 1 if len(factorize(u).factors) == 1 else 2
    w = 2 * u if u % 2 == 1 else u
    h = Fraction(q * w) * math.prod((n.norm for n in norms), start=Fraction(1))
    if h.denominator != 1 or h <= 0:
        raise IntegralityError(f"h^-({u}) is not a positive integer", h)
    return RelativeClassNumber(u, int(h), factorize(int(h)), tuple(norms), q, w)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact integer determinant."""
    n = len(rows)
    if n == 0:
        return 1
    M = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def maillet_hminus(p: int) -> int:
    """h^-(p) from the half-size least-residue determinant:
    |det R(r s^*)|_{r,s <= (p-1)/2} = p^((p-3)/2) h^-(p). Independent of b1_chi."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"expected a prime p >= 5, got {p}")
    half = (p - 1) // 2
    inv = [0] * (half + 1)
    for s in range(1, half + 1):
        inv[s] = pow(s, -1, p)
    rows = [[(r * inv[s]) % p for s in range(1, half + 1)] for r in range(1, half + 1)]
    det = _bareiss_det(rows)
    if det == 0:
        raise AssertionError("half-matrix determinant vanished")
    h, rem = divmod(abs(det), p ** ((p - 3) // 2))
    if rem:
        raise AssertionError("determinant not divisible by p^((p-3)/2)")
    return h
