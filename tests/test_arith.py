"""Tests for primality, factorization, and multiplicative orders."""

from __future__ import annotations

import itertools
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from cycloclass import arith
from cycloclass.arith import (
    MR_PROVEN_LIMIT,
    PrimeFactorization,
    TimeLimitExceeded,
    _check,
    _decimal_digits,
    _has_order,
    _pm1_batches,
    _pollard_pm1,
    _pollard_rho,
    _MR_PROVEN_BASES,
    _MR_TIERS,
    _mr_witness,
    _small_primes,
    _trial_blocks,
    _trial_divide,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
    probable_prime_only,
    within,
)


def _sieve(limit: int) -> list[bool]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def _order_linear(a: int, n: int) -> int:
    """Oracle: scan powers of a until 1 reappears."""
    x = a % n
    k = 1
    while x != 1:
        x = x * a % n
        k += 1
    return k


def test_is_prime_against_sieve():
    flags = _sieve(20_000)
    for n in range(20_001):
        assert is_prime(n) == flags[n], n


def test_is_prime_rejects_negative():
    with pytest.raises(ValueError):
        is_prime(-7)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(2**89 - 1)  # Mersenne prime, above the proven witness limit
    assert is_prime(5123189985484229035947419)  # 83-bit prime, above proven limit


def test_proven_tiers_are_strong_pseudoprimes():
    # psi_t of each tier (OEIS A014233) passes Miller-Rabin for all of the
    # first t prime bases, so t bases prove nothing at psi_t, and is_prime
    # still rejects it: with t + 1 bases, or random rounds at psi_13
    assert [psi for psi, _ in _MR_TIERS] == sorted({psi for psi, _ in _MR_TIERS})
    assert _MR_TIERS[-1] == (MR_PROVEN_LIMIT, len(_MR_PROVEN_BASES))
    for psi, t in _MR_TIERS:
        d, s = psi - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        assert not any(_mr_witness(a, d, s, psi) for a in _MR_PROVEN_BASES[:t] if psi % a), psi
        assert not is_prime(psi), psi
    # psi_12 = 399165290221 * 798330580441 fools the first twelve bases, and
    # psi_13 the first thirteen
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961981)


def test_probable_prime_only_flag():
    assert not probable_prime_only(2**61 - 1)
    assert not probable_prime_only(279405653)
    big = 5123189985484229035947419
    assert big >= MR_PROVEN_LIMIT
    assert probable_prime_only(big)
    assert not probable_prime_only(big + 2)  # composite: divisible by 3


def test_factorize_small_exhaustive():
    for n in range(1, 3000):
        fact = factorize(n)
        fact.verify()
        assert fact.value == n


def test_factorize_known_values():
    assert factorize(1).factors == ()
    assert factorize(41241).factors == ((3, 1), (59, 1), (233, 1))
    assert factorize(3882809).factors == ((7, 2), (79241, 1))
    assert factorize(119281).factors == ((101, 1), (1181, 1))
    assert factorize(2**10 * 3**5 * 1009).factors == ((2, 10), (3, 5), (1009, 1))


def test_factorize_random_roundtrip():
    rng = random.Random(20260814)
    for _ in range(500):
        n = rng.randrange(2, 10**12)
        fact = factorize(n)
        fact.verify()
        assert math.prod(p**e for p, e in fact.factors) == n


def test_factorize_semiprime_with_large_factors():
    p, q = 1_000_003, 999_999_937
    fact = factorize(p * q)
    assert fact.factors == ((p, 1), (q, 1))


def test_factorization_str():
    assert str(factorize(41241)) == "3 * 59 * 233"
    assert str(factorize(12)) == "2^2 * 3"
    assert str(factorize(1)) == "1"


def test_prime_factorization_verify_rejects_junk():
    with pytest.raises(ValueError):
        PrimeFactorization(91, ((91, 1),)).verify()
    with pytest.raises(ValueError):
        PrimeFactorization(12, ((3, 1), (2, 2))).verify()
    with pytest.raises(ValueError):
        PrimeFactorization(12, ((2, 2), (5, 1))).verify()


def test_small_primes_sieve_bypasses_is_prime_cache():
    _small_primes.cache_clear()
    before = is_prime.cache_info()
    primes = _small_primes()
    assert is_prime.cache_info() == before
    flags = _sieve(20_000)
    assert primes == tuple(n for n in range(20_000) if flags[n])


def _trial_divide_per_prime(m: int, found: dict[int, int]) -> int:
    """Oracle: one prime below 10^4 at a time, stopping once p * p > m."""
    for p in _small_primes():
        if p >= 10_000 or p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    return m


def test_trial_division_by_blocks_matches_per_prime_loop():
    blocks = _trial_blocks()
    assert [p for block, _ in blocks for p in block] == [p for p in _small_primes() if p < 10_000]
    assert all(product == math.prod(block) for block, product in blocks)
    assert _trial_blocks() is blocks
    # the primes closest to 10^4, first and last of their blocks, squared and
    # times a prime above the bound and a large prime
    near = [p for p in _small_primes() if p < 10_000][-70:]
    edges = [block[i] for block, _ in blocks for i in (0, -1)]
    large = (10007, 2**61 - 1, 2**89 - 1)
    cases = list(range(1, 100_001))
    cases += [p * q for p in near for q in near + edges]
    cases += [p**2 * q * r for p in near[::7] for q in edges[::5] for r in large]
    for n in cases:
        by_blocks, per_prime = {}, {}
        assert _trial_divide(n, by_blocks) == _trial_divide_per_prime(n, per_prime), n
        assert by_blocks == per_prime, n


def test_pm1_stage_splits_orbit_norm_of_199():
    # the numerator of the order-198 orbit norm of Q(zeta_199);
    # 207293548177 - 1 = 2^4 3^2 11 13 17 331 1789 is smooth, the other is not
    assert _pollard_pm1(207293548177 * 3168190412839) == 207293548177


def test_pm1_stage_separates_primes_caught_in_one_batch():
    # 748861 - 1 = 2^2 3 5 7 1783 and 207293548177 - 1 end in 1783 and 1789,
    # which share a batch: the batch is redone one prime power at a time
    assert _pollard_pm1(207293548177 * 748861) == 748861


def test_pm1_batches_are_built_once_and_checked_once_each(monkeypatch):
    # the batches hold, in order, the largest power below the bound of every
    # prime below it, each with its product
    powers = [p ** int(math.log(20_000 - 1, p)) for p in _small_primes()]
    assert all(q < 20_000 <= q * p for q, p in zip(powers, _small_primes()))
    batches = _pm1_batches()
    assert [q for batch, _ in batches for q in batch] == powers
    assert all(len(batch) == 64 for batch, _ in batches[:-1])
    assert all(product == math.prod(batch) for batch, product in batches)
    assert _pm1_batches() is batches
    # a run that finds nothing reads the clock once in within, then once per batch
    readings = []

    def clock():
        readings.append(len(readings))
        return 0

    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=clock))
    with within(1):
        assert _pollard_pm1(10000000000000000051 * 30000000000000000041) is None
    assert len(readings) == 1 + len(batches)


def test_factorize_deadline_returns_partial_uncached(monkeypatch):
    # a clock that reads 0, 1, 2, ...: within(0) reads 0, and the first
    # check of the p - 1 stage reads 1, past the limit
    ticks = itertools.count()
    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    big = 207293548177 * 3168190412839
    n = 3**5 * 9973 * big
    before = factorize.cache_info()
    with pytest.raises(TimeLimitExceeded, match=r"^Pollard p - 1 stopped on C24$") as exc:
        with within(0):
            factorize(n)
    after = factorize.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)
    partial = exc.value.partial
    partial.verify()
    assert partial.factors == ((3, 5), (9973, 1)) and partial.cofactor == big
    assert str(partial) == "3^5 * 9973 * C24"
    assert factorize(n).factors == ((3, 5), (9973, 1), (207293548177, 1), (3168190412839, 1))


def test_factorize_rejects_nan_and_infinite_deadlines():
    # a NaN limit never passes: it is refused before any factoring work
    n = 10000000000000000051 * 30000000000000000041
    before = factorize.cache_info()
    for seconds in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="time limit must be a finite"):
            with within(seconds):
                factorize(n)
    assert factorize.cache_info() == before


def test_within_is_the_one_time_limit(monkeypatch):
    # a clock that reads 0, 1, 2, ... and logs every reading
    readings = []

    def clock():
        readings.append(len(readings))
        return readings[-1]

    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=clock))
    # a NaN limit never passes and an infinite one is no limit: they and a
    # negative one are refused before any work, with the message the CLI prints
    for seconds in (math.nan, math.inf, -math.inf, -1):
        with pytest.raises(
            ValueError, match=rf"^time limit must be a finite number of seconds >= 0, got {seconds}$"
        ):
            with within(seconds):
                pytest.fail("the body ran")
    # no limit, outside any within or under within(None): no clock reading
    _check("never")
    with within(None):
        _check("never")
    assert readings == []
    # an inner limit cannot extend an outer one: the outer limit, set at 0,
    # passes at 1, and the inner one, set at 1 for 10 s, is cut to it
    with within(1):
        with within(10):
            with pytest.raises(TimeLimitExceeded, match="^inner$"):
                _check("inner")
        with within(None):
            with pytest.raises(TimeLimitExceeded, match="^outer$"):
                _check("outer")
    assert readings == [0, 1, 2, 3]
    # leaving the outermost within lifts the limit
    _check("never")
    assert readings == [0, 1, 2, 3]


def test_only_arith_reads_the_clock():
    # every time limit is decided by within and _check, so no other module
    # of the package reads the clock
    package = Path(arith.__file__).parent
    readers = sorted(p.name for p in package.glob("*.py") if "time.monotonic" in p.read_text())
    assert readers == ["arith.py"]


class _CountingInt(int):
    """An int that counts the reductions modulo itself: Python prefers the
    reflected __rmod__ of an int subclass on the right of %."""

    reductions = 0

    def __rmod__(self, other):
        _CountingInt.reductions += 1
        return int.__rmod__(self, other)


def test_rho_checks_deadline_every_batch(monkeypatch):
    # a clock that counts its readings, one by within and then one per check,
    # and records how many rho steps had run: between two checks there is one
    # batch of at most 128 steps (two reductions each), also in Brent's
    # stretches of r steps without a gcd, which reach r = 2^15 here
    readings = []

    def clock():
        readings.append(_CountingInt.reductions)
        return len(readings)

    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(TimeLimitExceeded, match="^Pollard rho$"):
        with within(599):
            _pollard_rho(_CountingInt(10000000000000000051 * 30000000000000000041))
    assert len(readings) == 601
    assert max(b - a for a, b in zip(readings, readings[1:])) <= 2 * 128


def test_prime_factorization_assemble_strips_cofactor():
    # a cofactor holding a listed prime and a prime remainder is resolved
    fact = PrimeFactorization.assemble(7**3 * 10007, {7: 2}, 7 * 10007)
    assert fact.factors == ((7, 3), (10007, 1)) and fact.cofactor == 1
    fact = PrimeFactorization.assemble(3 * 35, {3: 1}, 35)
    assert fact.factors == ((3, 1),) and fact.cofactor == 35
    with pytest.raises(ValueError):
        PrimeFactorization(2 * 7, ((2, 1),), 7).verify()  # prime cofactor
    with pytest.raises(ValueError):
        PrimeFactorization(2 * 14, ((2, 1),), 14).verify()  # shares a listed prime


def test_assemble_drops_a_listed_prime_that_does_not_divide():
    # primes listed at exponent 0 with the whole value as the cofactor are
    # divided out and counted; 11 divides nothing and is dropped, and the
    # prime rest 7 is listed
    value = 3**2 * 5 * 7
    fact = PrimeFactorization.assemble(value, {3: 0, 5: 0, 11: 0}, value)
    assert fact == (value, ((3, 2), (5, 1), (7, 1)), 1)
    fact = PrimeFactorization.assemble(3 * 35, {2: 0, 3: 0}, 3 * 35)
    assert fact == (3 * 35, ((3, 1),), 35)


def test_verify_rejects_a_zero_exponent():
    with pytest.raises(ValueError, match="exponent < 1 for prime 2"):
        PrimeFactorization(3, ((2, 0), (3, 1))).verify()


def test_decimal_digits_is_the_length_of_the_decimal_string():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in range(1, 1000):
            assert _decimal_digits(n) == len(str(n)), n
        for k in range(1, 5001):
            for n in (10**k - 1, 10**k, 10**k + 1):
                assert _decimal_digits(n) == len(str(n)), n
        rng = random.Random(33)
        for _ in range(300):
            n = rng.getrandbits(rng.randrange(1, 30_000)) | 1
            assert _decimal_digits(n) == len(str(n)), n.bit_length()
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(ValueError):
        _decimal_digits(0)


def test_terms_count_cofactor_digits_past_the_str_limit():
    # a 5000-digit cofactor, above CPython's default limit of 4300 digits for
    # int-to-str conversion: its digits are counted exactly, no str() needed
    cofactor = 10**4999 + 1  # divisible by 7 and 11, so not prime
    fact = PrimeFactorization(2**3 * 3 * cofactor, ((2, 3), (3, 1)), cofactor)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError):
            str(cofactor)
        assert fact.terms() == ["2^3", "3", "C5000"]
        assert str(fact) == "2^3 * 3 * C5000"
        assert PrimeFactorization(10**4300, (), 10**4300).terms() == ["C4301"]
        assert PrimeFactorization(10**4299, (), 10**4299).terms() == ["C4300"]
    finally:
        sys.set_int_max_str_digits(limit)


def test_euler_phi_matches_unit_count():
    for n in range(1, 500):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_multiplicative_order_small_exhaustive():
    for n in range(2, 300):
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                assert multiplicative_order(a, n) == _order_linear(a, n), (a, n)


def test_has_order_is_exact_order():
    # non-units never reach 1; o = 1 holds only for g = 1 mod n
    for n in range(2, 60):
        for g in range(n):
            order = _order_linear(g, n) if math.gcd(g, n) == 1 else None
            for o in range(1, n + 1):
                assert _has_order(g, o, n) == (o == order), (g, o, n)


def test_multiplicative_order_sampled_moduli():
    # Every modulus up to 10^4, a few deterministic units each, against the oracle.
    rng = random.Random(7)
    for n in range(2, 10_001):
        candidates = {n - 1, 2, 3, rng.randrange(1, n)}
        units = [a % n for a in candidates if a % n and math.gcd(a, n) == 1]
        for a in sorted(set(units))[:3]:
            assert multiplicative_order(a, n) == _order_linear(a, n), (a, n)


def test_multiplicative_order_rejects_nonunit():
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)
    with pytest.raises(ValueError):
        multiplicative_order(0, 7)


def test_domain_errors_and_the_trivial_modulus():
    for call in (lambda: factorize(0), lambda: euler_phi(0),
                 lambda: multiplicative_order(3, 0)):
        with pytest.raises(ValueError):
            call()
    assert multiplicative_order(3, 1) == 1


def test_multiplicative_order_known():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(7, 5) == 4
    assert multiplicative_order(3, 13) == 3
    assert multiplicative_order(11, 5) == 1
