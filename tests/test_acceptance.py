"""Acceptance gate: one test per shipped guarantee, each printing a visible
ACCEPTANCE line (PASS/FAIL) even under pytest capture."""

import contextlib
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from cycloclass.abelian import characters, normalize_conductor
from cycloclass.arith import euler_phi, factorize, is_prime, multiplicative_order
from cycloclass.bounds import class_number_bound
from cycloclass.classnum import b1_chi, relative_class_number
from cycloclass.congruence import VIOLATION, feasible_ranks
from cycloclass.cli import main
from cycloclass.tables import audit_records, builtin_paper_dataset
from norm_oracle import maillet_hminus


@contextlib.contextmanager
def criterion(capsys, number, description):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"\nACCEPTANCE {number}: {status} - {description}")


TABLE_CONDUCTORS = (59, 71, 79, 83, 103, 107, 121, 127, 131, 139, 151,
                    163, 167, 179, 191, 199)


def test_acceptance_1_published_hminus_reproduced(capsys):
    with criterion(
        capsys, 1,
        "h- of the 16 tabulated prime-power conductors (and 572) reproduced "
        "exactly, integer and factorization, each under 60 s",
    ):
        table = {
            r.modulus: r for r in builtin_paper_dataset() if r.kind == "cyclotomic"
        }
        for u in TABLE_CONDUCTORS + (572,):
            start = time.perf_counter()
            result = relative_class_number(u)
            elapsed = time.perf_counter() - start
            budget = 1800.0 if u == 572 else 60.0
            assert elapsed < budget, (u, elapsed)
            rec = table[u]
            assert result.value == result.factorization.value
            assert result.factorization.factors == rec.h_minus, u


def test_acceptance_2_maillet_oracle_equivalence(capsys):
    with criterion(
        capsys, 2,
        "character-product h- equals the Maillet-determinant h- for every "
        "prime 5 <= p <= 100, under 2 minutes",
    ):
        start = time.perf_counter()
        for p in range(5, 101):
            if is_prime(p):
                assert relative_class_number(p).value == maillet_hminus(p), p
        assert time.perf_counter() - start < 120.0


def test_acceptance_3_trivial_class_numbers(capsys):
    with criterion(
        capsys, 3,
        "h-(u) = 1 for every conductor u <= 22 after normalization",
    ):
        for u in range(1, 23):
            assert relative_class_number(u).value == 1, u


def test_acceptance_4_bound_values(capsys):
    with criterion(
        capsys, 4,
        "H(1,1) = 1 and H(3969,1) = 63 exactly; H(59,2) matches a decimal "
        "oracle for 2*sqrt(59)*ln(59) to relative error < 1e-9",
    ):
        b = class_number_bound(1, 1)
        assert not b.rounded_up and b.H_fraction == 1
        b = class_number_bound(3969, 1)
        assert not b.rounded_up and b.H_fraction == 63
        b = class_number_bound(59, 2)
        with localcontext() as ctx:
            ctx.prec = 60
            oracle = 2 * Decimal(59).sqrt() * Decimal(59).ln()
        oracle = Fraction(oracle)
        rel_err = abs(b.H_fraction - oracle) / oracle
        assert rel_err < Fraction(1, 10**9), rel_err


def test_acceptance_5_bundled_audit_clean(capsys):
    with criterion(
        capsys, 5,
        "verify-paper audits the bundled dataset (>= 45 records, >= 120 "
        "record/prime pairs) with zero VIOLATION, exit 0, under 10 s",
    ):
        start = time.perf_counter()
        rc = main(["verify-paper"])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert rc == 0
        assert elapsed < 10.0, elapsed
        report = audit_records(builtin_paper_dataset())
        assert len(report.records) >= 45
        assert report.pair_count >= 120
        assert report.counts[VIOLATION] == 0


def test_acceptance_6_known_rank_cases(capsys):
    with criterion(
        capsys, 6,
        "feasible_ranks(3, 3, 13) = {3} and feasible_ranks(11, 2, 5) = {1, 2}",
    ):
        assert feasible_ranks(3, 3, 13) == frozenset({3})
        assert feasible_ranks(11, 2, 5) == frozenset({1, 2})


def _order_by_scan(a: int, n: int) -> int:
    x, k = a % n, 1
    while x != 1:
        x = x * a % n
        k += 1
    return k


def test_acceptance_7_property_suites(capsys):
    with criterion(
        capsys, 7,
        "property suites (factorization round-trip, order oracle, character "
        "invariants, B1 parity, h- integrality) all pass under 5 minutes",
    ):
        start = time.perf_counter()
        rng = random.Random(20260814)

        # factorization round-trip on 10^4 random inputs
        for _ in range(10_000):
            n = rng.randrange(2, 10**12)
            f = factorize(n)
            f.verify()
            assert f.value == n

        # multiplicative_order against a linear scan for every modulus <= 10^4
        for n in range(2, 10_001):
            bases = []
            a = next((x for x in range(2, n) if math.gcd(x, n) == 1), None)
            if a is not None:
                bases.append(a)
            coprimes = [x for x in (rng.randrange(1, n) for _ in range(8))
                        if math.gcd(x, n) == 1]
            if coprimes:
                bases.append(coprimes[0])
            if not bases:
                bases = [1]
            for a in bases:
                assert multiplicative_order(a, n) == _order_by_scan(a, n), (a, n)

        # character count, parity split, conductor-discriminant identity
        for u in range(3, 201):
            if u % 4 == 2:
                continue
            chars = characters(u)
            phi = euler_phi(u)
            assert len(chars) == phi
            assert sum(1 for ch in chars if ch.is_odd) == phi // 2
            disc = 1
            for ch in chars:
                disc *= ch.conductor
            closed_form = u**phi
            for p in factorize(u).primes():
                closed_form //= p ** (phi // (p - 1))
            assert disc == closed_form, u

        # B1 vanishes exactly for even nontrivial characters
        for u in range(3, 101):
            if u % 4 == 2:
                continue
            for ch in characters(u):
                if not ch.is_odd and ch.order > 1:
                    assert not any(b1_chi(ch)[0]), (u, ch)

        # assembled h- is an integer with a verified factorization everywhere
        for u in range(3, 51):
            if u % 4 == 2 or normalize_conductor(u) != u:
                continue
            result = relative_class_number(u)
            assert isinstance(result.value, int) and result.value >= 1
            result.factorization.verify()
            assert result.factorization.value == result.value

        assert time.perf_counter() - start < 300.0
