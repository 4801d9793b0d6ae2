"""Relative class numbers: Bernoulli character sums, orbit norms by the
transform route against the resultant routes of norm_oracle, assembly, and the
Maillet determinant oracle."""

import hashlib
import itertools
import math
import random
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cycloclass import arith, classnum
from cycloclass.abelian import _crt_lift, _unit_data, characters, galois_orbits
from cycloclass.arith import euler_phi, factorize, is_prime, within
from cycloclass.classnum import (
    IntegralityError,
    TimeLimitExceeded,
    _chi_exponent,
    _conjugate_product,
    _coset_norm_mod,
    _coset_values,
    _descend,
    _kronecker,
    _norm_bound_bits,
    _norm_primes,
    _poly_rem,
    _relative_norm,
    _stickelberger_denominator,
    _subgroup_order,
    b1_chi,
    orbit_norm,
    relative_class_number,
)
from norm_oracle import (
    CyclotomicNumber,
    _norm_mod,
    _orbit_norm_conjugates,
    _resultant_int,
    _sylvester_resultant,
    char_power,
    char_value,
    cyclotomic_polynomial,
    maillet_hminus,
    oracle_b1,
    oracle_orbit_norm,
    per_unit_b1_chi,
)

# Conductors with relative class number exactly 1 (classical: finitely many).
H_ONE = {1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21,
         24, 25, 27, 28, 32, 33, 35, 36, 40, 44, 45, 48, 60, 84}


def _poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_cyclotomic_polynomial_product_identity():
    # prod_{d | n} Phi_d(x) = x^n - 1, checked as exact integer evaluation
    for n in list(range(1, 31)) + [105, 1008, 2310, 10006]:
        for x in (2, -3, 10):
            prod = 1
            for d in range(1, n + 1):
                if n % d == 0:
                    prod *= _poly_eval(cyclotomic_polynomial(d), x)
            assert prod == x**n - 1, (n, x)


def test_cyclotomic_polynomial_105_has_coefficient_minus_two():
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert cyclotomic_polynomial(105)[7] == -2


def test_cyclotomic_number_roots_multiply_like_exponents():
    rng = random.Random(7)
    for d in (5, 8, 12, 15):
        for _ in range(10):
            a, b = rng.randrange(d), rng.randrange(d)
            za = CyclotomicNumber.root_of_unity(d, a)
            zb = CyclotomicNumber.root_of_unity(d, b)
            assert za * zb == CyclotomicNumber.root_of_unity(d, (a + b) % d)


def test_b1_quadratic_character_values():
    # mod 3: B_{1,chi} = (1*1 + 2*(-1))/3 = -1/3; mod 4: (1 - 3)/4 = -1/2
    chi3 = next(ch for ch in characters(3) if ch.is_odd)
    (c0,), f = b1_chi(chi3)
    assert Fraction(c0, f) == Fraction(-1, 3)
    chi4 = next(ch for ch in characters(4) if ch.is_odd)
    (c0,), f = b1_chi(chi4)
    assert Fraction(c0, f) == Fraction(-1, 2)


def test_b1_chi_refuses_the_trivial_character():
    trivial = next(ch for ch in characters(7) if ch.is_trivial)
    with pytest.raises(ValueError, match="only for nontrivial chi"):
        b1_chi(trivial)


def test_b1_even_nontrivial_characters_vanish():
    for u in (5, 7, 8, 9, 11, 12, 13, 15, 16, 21, 24, 36, 40):
        for ch in characters(u):
            if not ch.is_odd and not ch.is_trivial:
                assert not any(b1_chi(ch)[0]), (u, ch.exponents)


def _b1_fractions(chi):
    c, f = b1_chi(chi)
    return tuple(Fraction(x, f) for x in c)


def test_b1_chi_matches_oracle():
    # integer coefficients over the conductor vs the sum of roots of unity,
    # and the exponents _chi_exponent reads vs the discrete-log table
    chars = [ch for u in range(3, 61) if u % 4 != 2 for ch in characters(u)]
    # the orbits of orders 105 and 210 mod 211, by representative: Phi_105 and
    # Phi_210(x) = Phi_105(-x) have the coefficients -2 and 2 at x^7
    chars += [ob.members[0] for ob in galois_orbits(characters(211)) if ob.order in (105, 210)]
    for ch in chars:
        if not ch.is_trivial:
            u = ch.modulus
            c, f = b1_chi(ch)
            assert f == ch.conductor, (u, ch.exponents)
            want = oracle_b1(ch).coeffs
            assert tuple(Fraction(x, f) for x in c) == want, (u, ch.exponents)
            for r in {r % u for r in (1, 2, 3, 5, u - 1) if math.gcd(r, u) == 1}:
                assert _chi_exponent(ch, r) == char_value(ch, r), (u, ch.exponents, r)


def test_b1_chi_matches_the_per_unit_sum():
    # the slice sums against one unit at a time, for every nontrivial
    # character (imprimitive included) and the odd-orbit representatives of
    # 27720; and the exponents _chi_exponent reads of chi* mod f at
    # orbit_norm's auxiliary primes, the two smallest not dividing f, and at
    # 1 and -1, against the discrete-log table
    reps = [ob.members[0] for ob in galois_orbits([ch for ch in characters(27720) if ch.is_odd])]
    for u in [u for u in range(3, 201) if u % 4 != 2] + [572, 1680, 4620, 27720]:
        for chi in reps if u == 27720 else characters(u)[1:]:
            assert b1_chi(chi) == per_unit_b1_chi(chi), (u, chi.exponents)
            prim, f = chi.primitive, chi.conductor
            primes = (c for c in itertools.count(2) if f % c and is_prime(c))
            for r in {c % f for c in itertools.islice(primes, 2)} | {1, f - 1}:
                assert _chi_exponent(prim, r) == char_value(prim, r), (u, chi.exponents, r)


def test_only_the_crt_route_reads_chi_at_the_auxiliary_primes(monkeypatch):
    # the exact routes (descent to e = 2, and H the whole group) need no
    # Stickelberger denominator, so they never read chi at a unit
    def refuse(chi, r):
        raise AssertionError(f"_chi_exponent read on an exact route: {chi}, {r}")

    monkeypatch.setattr(classnum, "_chi_exponent", refuse)
    # the 16 tabulated prime-power conductors and 572
    for u in (59, 71, 79, 83, 103, 107, 121, 127, 131, 139, 151, 163, 167, 179, 191, 199, 572):
        relative_class_number(u)
    for u in (401, 1009):
        for ob in galois_orbits([ch for ch in characters(u) if ch.is_odd]):
            orbit_norm(ob)
    # the order-262 orbit of 263 is a CRT at q = 131: two reads of the
    # primitive character, one per auxiliary prime, each equal to the
    # discrete-log table's exponent
    reads = []

    def record(chi, r):
        k = _chi_exponent(chi, r)
        reads.append((chi, r, k))
        return k

    monkeypatch.setattr(classnum, "_chi_exponent", record)
    (ob,) = [ob for ob in galois_orbits(characters(263)) if ob.order == 262]
    norm = orbit_norm(ob)
    assert norm == oracle_orbit_norm(ob)
    assert [(chi.modulus, r) for chi, r, _ in reads] == [(263, 2), (263, 3)]
    assert all(k == char_value(chi, r) for chi, r, k in reads)
    # the order-262 orbit mod 1052 = 4 * 263 of conductor 263 reads chi* at
    # the primes not dividing 263, on the walk mod 263: its norm is the one
    # mod 263, and the walk of (Z/1052)^* is never built
    reads.clear()
    vars(_unit_data(1052)).pop("units", None)
    (ob,) = [ob for ob in galois_orbits(characters(1052))
             if ob.order == 262 and ob.members[0].conductor == 263]
    assert orbit_norm(ob) == norm
    assert [(chi.modulus, r) for chi, r, _ in reads] == [(263, 2), (263, 3)]
    assert "units" not in vars(_unit_data(1052))


def test_norm_primes_generators_agree():
    # each generator walks the same primes down from 2^62 on its own: a
    # second one, drawn while the first is part-way, starts from the top
    first = _norm_primes(262)
    head = list(itertools.islice(first, 3))
    assert list(itertools.islice(_norm_primes(262), 5)) == head + list(itertools.islice(first, 2))
    assert all(q % 262 == 1 and q < 2**62 for q, _ in head)
    assert [q for q, _ in head] == sorted((q for q, _ in head), reverse=True)


def test_b1_galois_equivariance():
    # sigma_k(B_{1,chi}) = B_{1,chi^k} for k prime to the order
    for u in (7, 9, 11, 13, 20):
        for ch in characters(u):
            if ch.is_trivial:
                continue
            d = ch.order
            for k in range(2, d):
                if math.gcd(k, d) == 1:
                    want = _b1_fractions(char_power(ch, k))
                    assert oracle_b1(ch).galois_map(k).coeffs == want, (u, ch.exponents, k)


def test_orbit_norm_matches_conjugate_product():
    # resultant route vs explicit Galois-conjugate product
    for u in (5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 21, 23, 24, 29):
        odd = [ch for ch in characters(u) if ch.is_odd]
        for ob in galois_orbits(odd):
            assert orbit_norm(ob) == _orbit_norm_conjugates(ob), (u, ob.members[0].exponents)


def _odd_orbits_up_to(n):
    for u in range(3, n + 1):
        if u % 4 != 2:
            yield from galois_orbits([ch for ch in characters(u) if ch.is_odd])


def test_orbit_norm_matches_oracle():
    # transform route vs Euclidean resultants, every odd orbit of u <= 150;
    # and Stickelberger: N(B_1) * Phi_e(c)^(phi(d)/phi(e)) is an integer for
    # the two smallest primes c prime to u, e the order of chi(c), with
    # chi(c) from the discrete-log table of norm_oracle
    for ob in _odd_orbits_up_to(150):
        chi, d = ob.members[0], ob.order
        want = oracle_orbit_norm(ob)
        assert orbit_norm(ob) == want, (chi.modulus, chi.exponents)
        norm_b1 = want / Fraction(-1, 2) ** euler_phi(d)
        cs = [c for c in (2, 3, 5, 7, 11) if chi.modulus % c][:2]
        for c in cs:
            e = d // math.gcd(char_value(chi, c), d)
            denom = _poly_eval(cyclotomic_polynomial(e), c) ** (euler_phi(d) // euler_phi(e))
            assert (norm_b1 * denom).denominator == 1, (chi.modulus, chi.exponents, c)


def test_stickelberger_phi_from_binomials():
    # Phi_e(c) as the exact quotient of the binomial product equals the dense
    # Phi_e at c, e = 1 included: with chi(c) = e(1/e), D = Phi_e(c)
    for e in range(1, 301):
        for c in (2, 3, 5, 7):
            want = _poly_eval(cyclotomic_polynomial(e), c)
            assert _stickelberger_denominator(e, [(c, 1)]) == want, (e, c)


def test_orbit_norm_bound_holds():
    # |Res(Phi_d, c0)| < 2^_norm_bound_bits(c0, d), c0 the coefficients of
    # f * B_1 over their gcd, and the bound that production takes, from the
    # descended (beta, e), holds too
    for ob in _odd_orbits_up_to(150):
        chi, d = ob.members[0], ob.order
        if d == 2:
            continue
        c, f = b1_chi(chi)
        c0 = tuple(x // math.gcd(*c) for x in c)
        res = _resultant_int(cyclotomic_polynomial(d), c0)
        assert abs(res) < 2 ** _norm_bound_bits(c0, d), (chi.modulus, chi.exponents)
        beta, e = _descend(c0, d)
        assert abs(res) < 2 ** _norm_bound_bits(beta, e), (chi.modulus, chi.exponents)


def test_orbit_norm_crt_bound_of_order_1162(monkeypatch):
    # the CRT recovers N(B_1) * D, D from Stickelberger's theorem: for the
    # order-1162 orbit of u = 1163 (1162 = 2 * 7 * 83, so 7 is taken out
    # exactly, and at order 166 the rule takes |H| = 2 for the last prime 83
    # and leaves 41 cosets to the CRT) its bound, read from the time-out
    # message of a limit that passes right after the exact products (a fake
    # clock reading 0, 1, 2, ...: within reads 0, the 16 passes of the
    # reduction by Phi_1162 read 1-16, the three products of the step
    # 1162 -> 166 read 17-19, the one product over H reads 20, the check
    # before the first CRT prime reads 21), is below 3300 bits, where
    # Res(Phi_166, beta) alone would need 7729
    ticks = iter(range(10**6))
    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    big = max(galois_orbits([ch for ch in characters(1163) if ch.is_odd]), key=lambda ob: ob.order)
    with pytest.raises(TimeLimitExceeded) as exc:
        with within(20.5):
            orbit_norm(big)
    bits = re.fullmatch(r"order-1162 norm: 0 CRT primes, 1 of (\d+) bits", str(exc.value))
    assert bits and int(bits[1]) < 3300
    assert next(ticks) == 22


def test_descent_keeps_the_resultant():
    # Res(Phi_e, beta) = Res(Phi_d, alpha) by Euclidean resultants, for random
    # alpha: p = 2 steps down to order 2 (4, 8), and steps that end at 2q, q
    # the largest odd prime of d, which the descent leaves to the last step:
    # p = 2 steps (12, 48 -> 6), odd-p steps (18 -> 6, 54 -> 6, 50 -> 10),
    # both (36 -> 6, 100 -> 10, 400 -> 10), and 102 = 2 * 3 * 17 -> 34,
    # 612 = 4 * 9 * 17 -> 34, 290 = 2 * 5 * 29 -> 58
    rng = random.Random(12)
    cases = [(4, 2), (8, 2), (12, 6), (18, 6), (36, 6), (48, 6), (50, 10), (54, 6)]
    cases += [(100, 10), (400, 10), (102, 34), (612, 34), (290, 58)]
    for d, end in cases:
        phi = euler_phi(d)
        for length in (phi, rng.randrange(1, d // 2 + 1)):
            alpha = tuple(rng.randrange(-50, 51) for _ in range(length))
            beta, e = _descend(alpha, d)
            assert e == end and len(beta) == e // 2, (d, length)
            want = _resultant_int(cyclotomic_polynomial(d), alpha)
            assert _resultant_int(cyclotomic_polynomial(e), beta) == want, (d, length)


def _subgroups_of(q):
    """The orders of the trivial group, of a proper subgroup when there is
    one (the largest proper divisor of q - 1), and of all of (Z/2q)^*."""
    proper = [h for h in range(2, q - 1) if (q - 1) % h == 0]
    return [1] + proper[-1:] + [q - 1]


def test_subgroup_norm_matches_resultants(monkeypatch):
    # the last step on random alpha of length q, the half length of order 2q,
    # keeps Res(Phi_2q, alpha) by Euclidean resultants for H trivial, a proper
    # cyclic subgroup and the whole group: exactly as a0 - A_0 for the whole
    # group, and modulo two CRT primes from the Gauss periods otherwise; q - 1
    # smooth (31, 211: 30 = 2 * 3 * 5, 210 = 2 * 3 * 5 * 7), safe-prime-like
    # (23, 47, 59: 2 * 11, 2 * 23, 2 * 29), and 3, where H is trivial or
    # whole; coefficients up to 2^40 below q = 100
    rng = random.Random(2)
    for q in (3, 23, 31, 47, 59, 211):
        phi_2q = cyclotomic_polynomial(2 * q)
        for bound in (3, 2**40) if q < 100 else (3,):
            alpha = tuple(rng.randrange(-bound, bound + 1) for _ in range(q))
            want = _resultant_int(phi_2q, alpha)
            for h in _subgroups_of(q):
                monkeypatch.setattr(classnum, "_subgroup_order", lambda B, q_, bits: h)
                a0, A = _coset_values(alpha, q, 1, "")
                assert len(A) == (q - 1) // h, (q, h)
                if h == q - 1:
                    # a_0 and a_1 of the product over the whole group
                    g = _crt_lift(_unit_data(q).units[1], q, 2 * q)
                    gamma = _conjugate_product(list(alpha), g, h, "")
                    assert (a0, A) == (gamma[0], [-gamma[1]]), (q, bound)
                    assert a0 - A[0] == want, (q, bound)
                    continue
                for p, omega in itertools.islice(_norm_primes(2 * q), 2):
                    assert _coset_norm_mod(a0, A, q, p, omega) == want % p, (q, h, bound)


def test_subgroup_rule_picks_by_cost():
    # the whole group where the exact product is cheap: small q, and the
    # coefficient sizes of the tabulated conductors up to q = 89 (7 bits and
    # a 250-bit CRT at q = 83 for u = 167); a subgroup and the CRT where it
    # is not: q = 83 with the 91-bit coefficients of u = 1163, and the safe
    # prime 5003 of u = 10007, where |H| = 41 leaves 122 cosets
    small = tuple(range(-100, 100, 7))
    for q in (3, 5, 7, 11, 13, 17, 29, 41, 53, 79):
        assert _subgroup_order(small[: q], q, 400) == q - 1, q
    assert _subgroup_order((2**7,) * 83, 83, 250) == 82
    assert _subgroup_order((2**91,) * 83, 83, 3212) == 2
    assert _subgroup_order((2**13,) * 5003, 5003, 29285) == 41


def test_relative_norm_matches_resultants():
    # one step Q(zeta_e) -> Q(zeta_{e/p}) on random alpha of length e/2 keeps
    # the resultant against Phi: steps with p exactly dividing e (6, 30, 42,
    # 210 and 2 * 41 over each odd prime) and steps with p^2 | e (4, 8, 18, 50,
    # 54, 36 over each such p)
    rng = random.Random(16)
    cases = [(e, p) for e in (6, 30, 42, 210, 82) for p in factorize(e).primes() if p > 2]
    cases += [(4, 2), (8, 2), (18, 3), (50, 5), (54, 3), (36, 2), (36, 3)]
    for e, p in cases:
        for bound in (3, 2**40):
            alpha = tuple(rng.randrange(-bound, bound + 1) for _ in range(e // 2))
            beta = _relative_norm(alpha, e, p, "")
            assert len(beta) == e // p // 2, (e, p)
            want = _resultant_int(cyclotomic_polynomial(e), alpha)
            assert _resultant_int(cyclotomic_polynomial(e // p), beta) == want, (e, p, bound)


def test_exact_descents_use_no_crt_prime(monkeypatch):
    # every odd orbit of u = 1009 (orders 16 * {1, 3, 7, 9, 21, 63}) and the
    # order-4096 orbit of u = 12289 descend to order 2, where the resultant is
    # exact: no CRT prime is drawn, and the values are those of the CRT route
    # (h^-(1009) as pinned by the benchmark's hminus-norms workload; the
    # order-4096 norm as the CRT at order 2 gave it)
    def no_primes(e):
        raise AssertionError(f"CRT prime drawn at order {e}")

    monkeypatch.setattr(classnum, "_norm_primes", no_primes)
    norms = [orbit_norm(ob) for ob in galois_orbits([ch for ch in characters(1009) if ch.is_odd])]
    h = 2 * 1009 * math.prod(norms, start=Fraction(1))
    assert h.denominator == 1 and len(str(h)) == 358
    assert hashlib.sha256(str(h).encode()).hexdigest() == (
        "aa5cc30f460e7b5fb288d1d96ca5638303d4153d9f7e72f7b129957f7c3c85ef"
    )
    orbits = galois_orbits([ch for ch in characters(12289) if ch.is_odd])
    norm = orbit_norm(next(ob for ob in orbits if ob.order == 4096))
    assert hashlib.sha256(str(norm).encode()).hexdigest() == (
        "58ef6fd30a1a74c3c937902dcf55c1c26717d4c496ba4a065843e9416be9677d"
    )


def test_kronecker_matches_the_schoolbook_product():
    # signed lists of unequal lengths, all-zero and one-coefficient lists, and
    # lists at the extremes of their width, where each slot is fullest
    def schoolbook(A, B):
        out = [0] * (len(A) + len(B) - 1)
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                out[i + j] += a * b
        return out

    rng = random.Random(28)
    cases = [([0], [0]), ([5], [-3]), ([0, 0, 0], [0] * 5), ([0, 0], [7, -1, 2]),
             ([-1], [2, 0, -9, 4]), ([2**64 - 1] * 9, [-(2**64 - 1)] * 4),
             ([-(2**7 - 1)] * 33, [-(2**7 - 1)] * 33)]
    for la, lb, bits in ((1, 9, 70), (13, 2, 9), (30, 17, 200), (64, 64, 8), (3, 100, 1)):
        cases.append(([rng.randrange(-2**bits, 2**bits) for _ in range(la)],
                      [rng.randrange(-2**bits, 2**bits) for _ in range(lb)]))
    for A, B in cases:
        assert _kronecker(A, B) == schoolbook(A, B), (len(A), len(B))
        assert _kronecker(B, A) == schoolbook(A, B), (len(B), len(A))


def test_descent_of_order_4096_is_linear_in_its_packing(monkeypatch):
    # order 4096 descends to order 2 in 11 steps, each one big-integer product
    # mod x^(e/2) + 1 of about 2^17 bits; it checks against the chirp-z norm
    # at order 4096 mod two primes (Res(Phi_2, beta) = beta_0). Packing the
    # slots by bytes joins keeps the descent near 4 products of two
    # 229,376-bit integers; a quadratic shift-and-add pack made it 20-30, so
    # 15 is the budget. A passed deadline stops the descent before its first
    # product.
    rng = random.Random(4096)
    alpha = tuple(rng.randrange(-2**20, 2**20) for _ in range(2048))
    cyclotomic_polynomial(4096)

    def best_of(n, fn):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - start)
        return min(times), out

    x, y = rng.getrandbits(4096 * 56), rng.getrandbits(4096 * 56)
    product_s, _ = best_of(5, lambda: x * y)
    descent_s, (beta, e) = best_of(3, lambda: _descend(alpha, 4096))
    assert e == 2 and len(beta) == 1
    for q, omega in itertools.islice(_norm_primes(4096), 2):
        assert beta[0] % q == _norm_mod(alpha, 4096, q, omega)
    assert descent_s < 15 * product_s, (descent_s, product_s)
    # a clock reading 0, 1, 2, ...: within reads 0, the first check reads 1
    ticks = iter(range(10**6))
    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(TimeLimitExceeded, match=r"^order-4096 norm: descent reached order 4096$"):
        with within(0):
            _descend(alpha, 4096)


def test_reduction_by_phi_checks_the_time_limit():
    # B_1 of the order-99990 orbit of u = 99991 is reduced by Phi_99990 in
    # 2 * 2^5 sparse passes, one per binomial factor of the power series of
    # Phi_99990 and of its inverse: the limit is checked before every pass, so
    # a passed one stops it before the first, and the remainder is the long
    # division's (checked against it on a shorter input)
    rng = random.Random(99990)
    acc = [rng.randrange(-99991, 99991) for _ in range(49995)]
    with pytest.raises(TimeLimitExceeded, match=r"^reduction by Phi_99990: 0 of 64 passes$"):
        with within(0):
            _poly_rem(acc, 99990)
    for d in (2, 3, 12, 105, 210, 1008, 2310):
        num = [rng.randrange(-99991, 99991) for _ in range(d + 7)]
        phi_d = cyclotomic_polynomial(d)
        rem = list(num)
        for i in range(len(num) - len(phi_d), -1, -1):
            c = rem[i + len(phi_d) - 1]
            rem[i : i + len(phi_d)] = [r - c * t for r, t in zip(rem[i : i + len(phi_d)], phi_d)]
        assert _poly_rem(num, d) == rem[: len(phi_d) - 1], d


def test_orbit_norm_rejects_nan_and_infinite_deadlines():
    (orbit,) = [ob for ob in galois_orbits([ch for ch in characters(7) if ch.is_odd]) if ob.order == 6]
    for seconds in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="time limit must be a finite"):
            with within(seconds):
                orbit_norm(orbit)


def test_norm_mod_matches_horner():
    # direct prod_{k unit} A(omega^k) mod p by Horner against the chirp-z
    # oracle at any even order d, and against the Gauss-period evaluator of
    # the last step at order 2q, fed with the product over each subgroup H
    rng = random.Random(11)
    for d in (4, 6, 8, 12, 30, 64, 210, 1008):
        phi = euler_phi(d)
        units = [k for k in range(d) if math.gcd(k, d) == 1]
        primes = _norm_primes(d)
        for length, zeros in ((phi, 0), (phi, phi // 2), (rng.randrange(1, phi + 1), 0)):
            q, omega = next(primes)
            assert q % d == 1 and q < 2**62 and is_prime(q)
            assert pow(omega, d, q) == 1
            assert all(pow(omega, d // p, q) != 1 for p in factorize(d).primes())
            A = [rng.randrange(-2**40, 2**40) for _ in range(length - zeros)] + [0] * zeros
            want = 1
            for k in units:
                want = want * _poly_eval(A, pow(omega, k, q)) % q
            assert _norm_mod(tuple(A), d, q, omega) == want, (d, length)
    for q in (3, 5, 17, 29, 101):
        units = [k for k in range(2 * q) if math.gcd(k, 2 * q) == 1]
        walk = _unit_data(q).units
        A = [rng.randrange(-2**40, 2**40) for _ in range(q)]
        for h in [h for h in range(1, q) if (q - 1) % h == 0]:
            m = (q - 1) // h
            gamma = _conjugate_product(A, _crt_lift(pow(walk[1], m, q), q, 2 * q), h, "")
            a0, cosets = gamma[0], [(-1) ** j * gamma[j] for j in walk[:m]]
            for p, omega in itertools.islice(_norm_primes(2 * q), 2):
                want = 1
                for k in units:
                    want = want * _poly_eval(A, pow(omega, k, p)) % p
                if m == 1:
                    assert (a0 - cosets[0]) % p == want, (q, h)
                else:
                    assert _coset_norm_mod(a0, cosets, q, p, omega) == want, (q, h)


def test_orbit_norm_rejects_even_orbits():
    even = [ch for ch in characters(5) if not ch.is_odd and not ch.is_trivial]
    (orbit,) = galois_orbits(even)
    with pytest.raises(ValueError):
        orbit_norm(orbit)


def test_resultant_routes_agree_on_random_polynomials():
    rng = random.Random(2024)
    for _ in range(40):
        df, dg = rng.randrange(1, 7), rng.randrange(1, 7)
        f = [rng.randrange(-30, 31) for _ in range(df)] + [rng.randrange(1, 31)]
        g = [rng.randrange(-30, 31) for _ in range(dg)] + [rng.randrange(1, 31)]
        assert _resultant_int(tuple(f), tuple(g)) == _sylvester_resultant(f, g)


def test_resultant_known_value():
    # Res(x^2 - 1, x^2 - 4) = (1-4)(1-4) ... roots +-1 into g: g(1)g(-1) = (-3)(-3)
    assert _resultant_int((-1, 0, 1), (-4, 0, 1)) == 9
    # Res(Phi_4, Phi_2) = Phi_4(-1) = 2
    assert _resultant_int(cyclotomic_polynomial(2), cyclotomic_polynomial(4)) == 2


def test_hminus_is_one_up_to_22():
    for u in range(1, 23):
        assert relative_class_number(u).value == 1, u


def test_hminus_one_conductor_list():
    for u in sorted(H_ONE):
        assert relative_class_number(u).value == 1, u
    for u in (23, 29, 31, 39, 56):
        assert relative_class_number(u).value > 1, u


def test_hminus_small_primes_known_values():
    known = {23: 3, 29: 8, 31: 9, 37: 37, 41: 121, 43: 211, 47: 695, 53: 4889}
    for p, h in known.items():
        assert relative_class_number(p).value == h, p


def test_hminus_against_maillet_determinant():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        assert relative_class_number(p).value == maillet_hminus(p), p


def test_hminus_conductor_normalization():
    # u = 2 mod 4 names the same field as u/2
    a, b = relative_class_number(46), relative_class_number(23)
    assert a.modulus == b.modulus == 23 and a.value == b.value


def test_hminus_q_factor_and_roots_of_unity():
    r59 = relative_class_number(59)
    assert r59.q_factor == 1 and r59.roots_of_unity == 118
    r12 = relative_class_number(12)
    assert r12.q_factor == 2 and r12.roots_of_unity == 12
    r121 = relative_class_number(121)
    assert r121.q_factor == 1 and r121.roots_of_unity == 242


def test_hminus_factorization_verifies():
    for u in (23, 39, 59, 71, 121):
        r = relative_class_number(u)
        r.factorization.verify()
        assert math.prod(p**e for p, e in r.factorization.factors) == r.value


def test_hminus_factored_from_its_pieces(monkeypatch):
    # the factorization from Q*w and the orbit-norm numerators equals that of
    # h^- as a whole; at the table conductors the pieces are factored last,
    # smallest first, and h^-, which is none of them, is never factored
    table = (59, 71, 79, 83, 103, 107, 121, 127, 131, 139, 151, 163, 167, 179, 191, 199, 572)
    factored = []

    def recording_factorize(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(classnum, "factorize", recording_factorize)
    for u in table:
        factored.clear()
        r = relative_class_number(u)
        pieces = [r.q_factor * r.roots_of_unity] + [n.norm.numerator for n in r.orbit_norms]
        assert factored[-len(pieces):] == sorted(pieces), u
        assert r.value not in factored, u
    results = [relative_class_number(u) for u in (*range(1, 200), *table)]
    monkeypatch.undo()
    for r in results:
        assert r.factorization == factorize(r.value), r.modulus


def test_hminus_orbit_norms_multiply_to_value():
    r = relative_class_number(59)
    prod = Fraction(r.q_factor * r.roots_of_unity)
    for o in r.orbit_norms:
        prod *= o.norm
    assert prod == r.value
    assert sum(o.size for o in r.orbit_norms) == euler_phi(59) // 2


def test_integrality_error_message_past_the_str_limit():
    # the offending value is written in full, above CPython's default limit
    # of 4300 digits for int-to-str conversion
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        exc = IntegralityError("h^-(8191) is not a positive integer", Fraction(10**5000 + 1, 3))
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(exc) == "h^-(8191) is not a positive integer: 1" + "0" * 4999 + "1/3"


def test_hminus_rejects_bad_input():
    with pytest.raises(ValueError):
        relative_class_number(0)
    with pytest.raises(ValueError):
        relative_class_number(-4)


def test_hminus_time_limit_fires():
    # (Z/191)^* is cyclic of order 190: odd orbits of orders 2, 10, 38, 190
    with pytest.raises(TimeLimitExceeded, match=r"in orbit norms after 0 of 4 orbits"):
        relative_class_number(191, time_limit=0.0)


def test_hminus_time_limit_covers_work_before_first_crt_prime():
    # real time: Phi_10006 and B_1 of the order-10006 orbit cost no
    # d^2 long division before the first check of the time limit
    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded, match=r"order-10006 norm"):
        relative_class_number(10007, time_limit=0.5)
    assert time.monotonic() - start < 3.0


def test_orbit_norm_deadline_checked_once_per_crt_prime(monkeypatch):
    # a fake clock that reads 0, 1, 2, ...: within reads it once (tick 0),
    # the order-262 norm of h^-(263) reduces B_1 by Phi_262 in 8 passes, each
    # after a check (ticks 1-8), takes the four products over |H| = 10 for
    # the prime 131 (ticks 9-12), and leaves 13 cosets to the CRT, with one
    # check before each prime (prime i reads 13 + i), so a limit of 15.5
    # stops it after 3 primes; without a limit the clock is never read
    ticks = iter(range(10**6))
    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    big = max(galois_orbits([ch for ch in characters(263) if ch.is_odd]), key=lambda ob: ob.order)
    with pytest.raises(TimeLimitExceeded, match=r"^order-262 norm: 3 CRT primes, \d+ of \d+ bits$"):
        with within(15.5):
            orbit_norm(big)
    assert orbit_norm(big) == oracle_orbit_norm(big)
    assert next(ticks) == 17
    # within reads 17, the reduction 18-25 and the first product check 26: a
    # limit of 8.5 stops it before the product over H
    with pytest.raises(TimeLimitExceeded, match=r"^order-262 norm: descent reached order 262$"):
        with within(8.5):
            orbit_norm(big)
    # relative_class_number reads the clock once in within (tick 27), then
    # the largest orbit's norm reduces and takes its four products (ticks
    # 28-39) and stops at its third CRT prime (tick 42)
    with pytest.raises(
        TimeLimitExceeded,
        match=r"^h\^-\(263\): time limit 14.5s exceeded in orbit norms after 0 of \d+ "
        r"orbits \(order-262 norm: 2 CRT primes, \d+ of \d+ bits\)$",
    ):
        relative_class_number(263, time_limit=14.5)


def test_hminus_401_time_limit_in_factoring_returns_exact_value(monkeypatch):
    # one clock, stopped at 0 while the orbit norms run; after them,
    # relative_class_number factors u = 401 (for Q) and then the pieces of
    # h^-, and from the first of these on the clock reads past any limit: the
    # norms finish, and each piece that needs more than trial division stops
    # at its first check
    now = [0.0]
    monkeypatch.setattr(arith, "time", SimpleNamespace(monotonic=lambda: now[0]))
    raised = []

    def factorize_and_jump_the_clock_at_u(n):
        if n == 401:
            now[0] = math.inf
        try:
            return factorize(n)
        except TimeLimitExceeded:
            raised.append(n)
            raise

    monkeypatch.setattr(classnum, "factorize", factorize_and_jump_the_clock_at_u)
    before = factorize.cache_info()
    r = relative_class_number(401, time_limit=2)
    after = factorize.cache_info()
    fact = r.factorization
    fact.verify()
    assert fact.cofactor > 1 and not is_prime(fact.cofactor)
    assert fact.factors == ((41, 2), (401, 1), (64849, 1), (476056112401, 1))
    # the exact value recorded by the benchmark's hminus-norms workload
    assert len(str(r.value)) == 104
    assert hashlib.sha256(str(r.value).encode()).hexdigest() == (
        "7e04bc620637d61c3f3f847d7f847d8958e9c62db3fc2485feacb7ebc5ea6488"
    )
    assert r.note == (
        "time limit 2s exceeded in factorization (Pollard p - 1 stopped on "
        f"{fact.terms()[-1]})"
    )
    assert fact.terms()[-1] == "C82"
    # each piece that raised was a cache miss that stored no entry
    assert raised
    assert after.currsize - before.currsize == after.misses - before.misses - len(raised)


def test_timed_calls_reuse_factorize_cache():
    relative_class_number(199, time_limit=60)
    before = factorize.cache_info()
    relative_class_number(199, time_limit=60)
    after = factorize.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_maillet_validation():
    with pytest.raises(ValueError):
        maillet_hminus(4)
    with pytest.raises(ValueError):
        maillet_hminus(3)
    with pytest.raises(ValueError):
        maillet_hminus(91)


def test_hminus_121_regression():
    # composite prime-power conductor (orbit orders up to 110); value and
    # factorization pinned, independent of the orbit-norm route
    r = relative_class_number(121)
    assert r.value == 12188792628211
    assert [(p, e) for p, e in r.factorization.factors] == [
        (67, 1), (353, 1), (20021, 1), (25741, 1)
    ]
