"""Exact integer arithmetic: primality, factorization, phi, multiplicative order.

is_prime is a proof below MR_PROVEN_LIMIT = psi_13 (~3.3e24): Miller-Rabin
with the first t prime bases for n < psi_t, the smallest strong pseudoprime to
all of them, so the number of rounds grows with n up to 13. Beyond that limit,
primality falls back to 40 more seeded random rounds, and callers can ask
whether a given prime was only probabilistically certified.

factorize is one splitter with three stages: trial division by the primes
below 10^4, one Pollard p - 1 stage with smoothness bound 20000, and
Brent-Pollard rho. Trial division and p - 1 share one list of the primes
below 20000, sieved on first use. Trial division takes the primes in blocks,
one gcd per block telling whether any of them divides; p - 1 batches their
prime powers once. The time limit is ambient: within(seconds) sets it, and
_check, the package's only clock reading, raises once it has passed. Checked
once per batch of p - 1 or rho steps, it stops the splitter: what it found
then comes back, with the unsplit rest as a composite cofactor, on the
TimeLimitExceeded it raises. As an lru_cache, factorize stores nothing for a
call that raises.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

# psi_t, the smallest strong pseudoprime to all of the first t prime bases
# (OEIS A014233; Sorenson-Webster, Math. Comp. 86, 2017, for t = 12, 13), with
# the least t of each value: below psi_t, Miller-Rabin with the first t bases is
# a proof. The 13 bases prove every n < psi_13 ~ 3.3e24, well past 2**64.
_MR_PROVEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (MR_PROVEN_LIMIT, 13),
)
_MR_RANDOM_ROUNDS = 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    """True if a witnesses the compositeness of n = d*2^s + 1, d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Primality test; a proof for n < MR_PROVEN_LIMIT, with the first t prime
    bases for n < psi_t, else 13 bases and 40 seeded random Miller-Rabin rounds."""
    if n < 0:
        raise ValueError(f"is_prime expects n >= 0, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    t = next((t for psi, t in _MR_TIERS if n < psi), len(_MR_PROVEN_BASES))
    for a in _MR_PROVEN_BASES[:t]:
        if _mr_witness(a, d, s, n):
            return False
    if n < MR_PROVEN_LIMIT:
        return True
    # Deterministically seeded so that repeated runs agree on the same input.
    rng = random.Random(n)
    for _ in range(_MR_RANDOM_ROUNDS):
        if _mr_witness(rng.randrange(2, n - 1), d, s, n):
            return False
    return True


def probable_prime_only(n: int) -> bool:
    """True when is_prime(n) holds but rests on randomized rounds, not a proof."""
    return n >= MR_PROVEN_LIMIT and is_prime(n)


_TRIAL_BOUND = 10_000  # trial division clears every prime factor below this
_PM1_BOUND = 20_000  # smoothness bound of the p - 1 stage
_PM1_BATCH = 64  # prime powers per p - 1 batch
_TRIAL_BLOCK = 64  # primes per trial-division block


class TimeLimitExceeded(Exception):
    """A time limit passed mid-computation. When factoring stopped, `partial`
    is the factorization found by then, with the unsplit rest as its cofactor,
    and `stage` names the stage that ran out of time."""

    def __init__(self, message: str, partial: PrimeFactorization | None = None, stage: str = ""):
        super().__init__(message)
        self.partial = partial
        self.stage = stage


# The time.monotonic() reading past which _check raises; inf for no limit.
_deadline: ContextVar[float] = ContextVar("deadline", default=math.inf)


@contextmanager
def within(seconds: float | None):
    """Run the body under a time limit of `seconds` from now (None: no new
    limit) that never outlasts an enclosing one; NaN, inf or < 0 is a ValueError."""
    if seconds is not None and not 0 <= seconds < math.inf:
        raise ValueError(f"time limit must be a finite number of seconds >= 0, got {seconds}")
    limit = math.inf if seconds is None else time.monotonic() + seconds
    token = _deadline.set(min(_deadline.get(), limit))
    try:
        yield
    finally:
        _deadline.reset(token)


def _check(stage: str) -> None:
    """Raise TimeLimitExceeded(stage) once the limit has passed; no limit, no clock reading."""
    deadline = _deadline.get()
    if deadline < math.inf and time.monotonic() > deadline:
        raise TimeLimitExceeded(stage)


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    """The primes below _PM1_BOUND, sieved on first use."""
    sieve = bytearray([1]) * _PM1_BOUND
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(_PM1_BOUND - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _PM1_BOUND, i)))
    return tuple(itertools.compress(range(_PM1_BOUND), sieve))


@lru_cache(maxsize=None)
def _pm1_batches() -> tuple[tuple[tuple[int, ...], int], ...]:
    """The largest power below _PM1_BOUND of each prime below it, in batches
    of _PM1_BATCH, each with its product; built on first use."""
    powers = []
    for p in _small_primes():
        q = p
        while q * p < _PM1_BOUND:
            q *= p
        powers.append(q)
    return _with_products(powers, _PM1_BATCH)


@lru_cache(maxsize=None)
def _trial_blocks() -> tuple[tuple[tuple[int, ...], int], ...]:
    """The primes below _TRIAL_BOUND in blocks of _TRIAL_BLOCK, each with its
    product; built on first use."""
    return _with_products([p for p in _small_primes() if p < _TRIAL_BOUND], _TRIAL_BLOCK)


def _with_products(items: list[int], size: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """items in consecutive chunks of `size`, each with its product."""
    chunks = (tuple(items[i:i + size]) for i in range(0, len(items), size))
    return tuple((chunk, math.prod(chunk)) for chunk in chunks)


def _trial_divide(m: int, found: dict[int, int]) -> int:
    """Divide the primes below _TRIAL_BOUND out of m, counting them in found,
    and return the rest. The scan stops at the first p with p * p > m, where
    the rest is 1 or a prime. A block whose last prime's square m reaches
    costs one gcd, and is skipped when prime to m."""
    for block, product in _trial_blocks():
        if m >= block[-1] ** 2 and math.gcd(m, product) == 1:
            continue
        for p in block:
            if p * p > m:
                return m
            if m % p == 0:
                m //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                found[p] = e
    return m


def _pollard_pm1(n: int) -> int | None:
    """A nontrivial factor of odd composite n from one Pollard p - 1 stage, or
    None. The base 2 is raised to the largest power below _PM1_BOUND of each
    prime below it, so a prime p | n is caught once every prime power dividing
    p - 1 is below _PM1_BOUND."""
    a = 2
    for batch, exponent in _pm1_batches():
        _check("Pollard p - 1")
        b = pow(a, exponent, n)
        g = math.gcd(b - 1, n)
        if g == n:
            # Every prime of n was caught within this batch: redo it one
            # prime power at a time to separate them.
            for q in batch:
                a = pow(a, q, n)
                g = math.gcd(a - 1, n)
                if g > 1:
                    break
            return g if g < n else None
        if g > 1:
            return g
        a = b
    return None


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho: a nontrivial factor of composite n, deterministic
    in n. Checks the time limit once per batch of steps."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for k in range(0, r, m):
                _check("Pollard rho")
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                _check("Pollard rho")
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # Backtrack one step at a time to recover the factor lost in batching.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # Degenerate cycle; retry with fresh deterministic parameters.


def _decimal(x: int | Fraction) -> str:
    """str(x) of an integer or a fraction, through Decimal: CPython's limit on
    int-to-str conversion (4300 digits by default) does not cover it."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


class PrimeFactorization(NamedTuple):
    """value = prod(p**e) * cofactor, primes strictly increasing, exponents >= 1.
    The cofactor is 1, or, when factoring stopped at a time limit, a composite
    prime to every listed p."""

    value: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    @classmethod
    def assemble(
        cls, value: int, exponents: dict[int, int], cofactor: int = 1
    ) -> PrimeFactorization:
        """The verified factorization of value from prime exponents and the
        product of its unsplit pieces. A listed prime can divide an unsplit
        piece (m = p^2 C splits as p and pC), so listed primes are divided out
        of the cofactor, and a prime remainder is listed."""
        exponents = dict(exponents)
        for p in exponents:
            while cofactor % p == 0:
                cofactor //= p
                exponents[p] += 1
        if cofactor > 1 and is_prime(cofactor):
            exponents[cofactor] = 1
            cofactor = 1
        fact = cls(value, tuple(sorted(exponents.items())), cofactor)
        fact.verify()
        return fact

    def verify(self) -> None:
        """Recheck every structural invariant; raises ValueError on failure."""
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError(f"primes not strictly increasing: {self.factors}")
            if e < 1:
                raise ValueError(f"exponent < 1 for prime {p}")
            if not is_prime(p):
                raise ValueError(f"listed factor {p} is not prime")
            if self.cofactor % p == 0:
                raise ValueError(f"listed prime {p} divides the cofactor")
            prev = p
            prod *= p**e
        if self.cofactor < 1 or (self.cofactor > 1 and is_prime(self.cofactor)):
            raise ValueError(f"cofactor {self.cofactor} is neither 1 nor composite")
        if prod * self.cofactor != self.value:
            raise ValueError(
                f"factors and cofactor multiply to {prod * self.cofactor}, not {self.value}"
            )

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def terms(self) -> list[str]:
        """'p' or 'p^e' per listed prime, then 'C<digits>' for a cofactor."""
        out = [f"{_decimal(p)}^{e}" if e > 1 else _decimal(p) for p, e in self.factors]
        if self.cofactor > 1:
            out.append(f"C{Decimal(self.cofactor).adjusted() + 1}")
        return out

    def __str__(self) -> str:
        return " * ".join(self.terms()) or str(self.value)


@lru_cache(maxsize=None)
def factorize(n: int) -> PrimeFactorization:
    """Prime factorization of n >= 1: trial division, then Pollard p - 1 and
    Brent-Pollard rho on each composite piece.

    When the time limit passes, raises TimeLimitExceeded naming the stage that
    stopped, also as its `stage`, with the primes found so far and the unsplit
    pieces as `partial`.
    A raised call leaves nothing in the cache.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    found: dict[int, int] = {}
    m = _trial_divide(n, found)
    pending, unsplit, stage = [m] if m > 1 else [], [], ""
    while pending:
        # Smallest piece first, so that a time-out leaves only the hardest
        # unsplit; the stage named is the one that ran out of time.
        pending.sort(reverse=True)
        m = pending.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        try:
            d = _pollard_pm1(m) or _pollard_rho(m)
        except TimeLimitExceeded as exc:
            unsplit.append(m)
            stage = stage or str(exc)
            continue
        pending += [d, m // d]
    fact = PrimeFactorization.assemble(n, found, math.prod(unsplit))
    if fact.cofactor > 1:
        raise TimeLimitExceeded(f"{stage} stopped on {fact.terms()[-1]}", fact, stage)
    return fact


def euler_phi(n: int) -> int:
    """Euler totient."""
    if n < 1:
        raise ValueError(f"euler_phi expects n >= 1, got {n}")
    result = n
    for p, _ in factorize(n).factors:
        result = result // p * (p - 1)
    return result


def _has_order(g: int, o: int, n: int) -> bool:
    """Whether g has exact order o mod n (g^o = 1, g^(o/r) != 1 for primes r | o)."""
    return pow(g, o, n) == 1 and all(pow(g, o // r, n) != 1 for r in factorize(o).primes())


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k == 1 (mod n); requires gcd(a, n) == 1."""
    if n < 1:
        raise ValueError(f"multiplicative_order expects modulus >= 1, got {n}")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    if n == 1:
        return 1
    # Start from phi(n) and strip primes while the power stays 1.
    e = euler_phi(n)
    for q, _ in factorize(e).factors:
        while e % q == 0 and pow(a, e // q, n) == 1:
            e //= q
    return e
