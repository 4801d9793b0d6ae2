"""Certified geometric class-number bound: exactness, interval width, and an
independent Decimal-arithmetic oracle."""

import contextlib
import io
import math
import random
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, Context, Decimal, getcontext
from fractions import Fraction

import pytest

from cycloclass import bounds, cli
from cycloclass.abelian import AbelianFieldSpec, cyclotomic_field_spec
from cycloclass.bounds import (
    _atanh,
    _decimal_ceiling,
    _power,
    _round,
    class_number_bound,
)

REL_WIDTH = Fraction(1, 2**100)


def _decimal_oracle(abs_disc: int, m: int, prec: int = 60) -> Fraction:
    """H via the decimal module: independent of the integer evaluation."""
    getcontext().prec = prec
    D = Decimal(abs_disc)
    H = Decimal(2) ** (m - 1) / math.factorial(m - 1) * D.sqrt() * D.ln() ** (m - 1)
    return Fraction(H)


def test_degenerate_and_perfect_square_cases_are_exact():
    r = class_number_bound(1, 1)
    assert r.H_fraction == 1 and not r.rounded_up
    r = class_number_bound(3969, 1)
    assert r.H_fraction == 63 and not r.rounded_up
    for root in (2, 10, 59, 100):
        assert class_number_bound(root * root, 1).H_fraction == root


def test_rejects_degenerate_discriminant_and_bad_arguments():
    with pytest.raises(ValueError, match="degenerate"):
        class_number_bound(1, 2)
    with pytest.raises(ValueError):
        class_number_bound(0, 1)
    with pytest.raises(ValueError):
        class_number_bound(5, 0)


def test_against_decimal_oracle():
    for abs_disc, m in [(59, 2), (3, 2), (8, 2), (3969, 3), (9011, 2), (10**12 + 39, 5),
                        (2**136 + 1, 30)]:
        r = class_number_bound(abs_disc, m)
        ref = _decimal_oracle(abs_disc, m)
        for end in (r.H_fraction, r.lower_fraction):
            assert abs(end - ref) / ref < Fraction(1, 10**9), (abs_disc, m)


def test_upper_endpoint_brackets_and_width():
    for abs_disc, m in [(59, 2), (167, 2), (9907**4, 5), (2, 2), (9011, 2), (1234567, 7)]:
        r = class_number_bound(abs_disc, m)
        assert r.lower_fraction <= r.H_fraction
        assert (r.H_fraction - r.lower_fraction) / r.lower_fraction < REL_WIDTH


def test_doubled_precision_agrees():
    # the certified endpoint, taken at 128 bits, against an independent value
    # at twice that precision (80 decimal digits > 256 bits). A small |D| is
    # used exactly, not widened to [|D|, |D| + 1]; each comes at a low degree
    # and at the largest degree before H drops below 1 (test_clamps_below_one)
    for abs_disc, m in [(59, 2), (9011, 2), (1234567, 7), (2, 2), (2, 3), (3, 2), (3, 5),
                        (4, 3), (4, 7), (5, 1), (5, 8), (7, 2), (7, 10), (8, 1), (8, 11)]:
        a = class_number_bound(abs_disc, m)
        b = _decimal_oracle(abs_disc, m, prec=80)
        assert a.precision_bits == 128
        assert abs(a.H_fraction - b) / b < Fraction(1, 2**99)


def test_monotone_in_discriminant():
    rng = random.Random(5)
    for m in (2, 3, 5, 10):
        discs = sorted(rng.randrange(3, 10**8) for _ in range(6))
        values = [class_number_bound(D, m).H_fraction for D in discs]
        for a, b in zip(values, values[1:]):
            assert a <= b


def test_clamps_below_one():
    # 2^29/29! * sqrt(2) * (ln 2)^29 is far below 1; a class number is not
    for abs_disc, m in [(2, 30), (2, 40), (3, 40), (5, 40), (8, 12), (8, 40)]:
        r = class_number_bound(abs_disc, m)
        assert r.H_fraction == 1 and "clamped" in r.note


def test_m_one_nonsquare_notes_hypothesis():
    r = class_number_bound(59, 1)
    assert r.rounded_up and "deferred" in r.note
    assert abs(r.H_fraction - _decimal_oracle(59, 1)) < Fraction(1, 10**9)


def test_enormous_discriminant_converges_at_default_precision():
    D = 9907**1650
    r = class_number_bound(D, 1651)
    assert r.lower_fraction > 0
    assert (r.H_fraction - r.lower_fraction) / r.lower_fraction < REL_WIDTH
    assert r.precision_bits == 128


def test_one_pass_at_128_bits_reaches_the_largest_degree():
    # the bracket on ln|D| is ~2^-120 wide and the power m - 1 widens it
    # (m - 1)-fold: at m = 100 000 every interval still meets 2^-100, with
    # the budget of 2^-103.3 that the class_number_bound docstring states
    m = bounds._MAX_DEGREE
    fact = math.factorial(m - 1)
    for abs_disc in (2, 3, 5, (1 << 137) + 27):
        class_number_bound(abs_disc, m)
        lo, hi = bounds._interval(abs_disc, m, fact, 128)
        assert lo > 0 and (hi - lo) / lo < REL_WIDTH, abs_disc
        assert math.log2((hi - lo) / lo) < -103.3, abs_disc


def test_bracket_and_clamp_checks_on_the_endpoints(monkeypatch):
    # class_number_bound checks the endpoints' integer numerators and
    # denominators: lo = 0 and a relative width of exactly 2^-100 are
    # AssertionErrors, a width just below is a result, and an upper
    # endpoint just below 1 (not at 1) is clamped to 1
    def bound_with(lo, hi):
        monkeypatch.setattr(bounds, "_interval", lambda *args: [lo, hi])
        return class_number_bound.__wrapped__(59, 2)  # past the cache

    lo = Fraction(5, 3)
    with pytest.raises(AssertionError):
        bound_with(Fraction(0), lo)
    with pytest.raises(AssertionError):
        bound_with(lo, lo + lo * REL_WIDTH)
    hi = lo + lo * REL_WIDTH - Fraction(1, 2**300)
    r = bound_with(lo, hi)
    assert (r.H_fraction, r.lower_fraction, r.rounded_up, r.note) == (hi, lo, True, None)
    below_one = 1 - Fraction(1, 2**128)
    r = bound_with(below_one * (1 - REL_WIDTH / 2), below_one)
    assert (r.H_fraction, r.lower_fraction, r.rounded_up) == (1, 1, False)
    assert "clamped" in r.note
    r = bound_with(1 - REL_WIDTH / 2, Fraction(1))
    assert (r.H_fraction, r.rounded_up, r.note) == (1, True, None)


def test_exceeds_uses_certified_upper_endpoint():
    r = class_number_bound(59, 2)  # H = 62.6403...
    assert not r.exceeds(59)
    assert not r.exceeds(62)
    assert r.exceeds(63)
    assert r.exceeds(233)


def test_display_ten_significant_digits():
    assert class_number_bound(59, 2).display() == "62.64031880 (rounded up)"
    assert class_number_bound(3969, 1).display() == "63.00000000 (exact)"


def test_field_bound_routes_through_spec_invariants():
    K = cyclotomic_field_spec(5)  # degree 4, |D| = 125
    r = class_number_bound(K.abs_discriminant, K.degree)
    assert r.abs_disc == 125 and r.degree == 4
    assert abs(r.H_fraction - _decimal_oracle(125, 4)) / r.H_fraction < Fraction(1, 10**9)
    # the rational field: trivial character group, H = 1 exactly
    Q = AbelianFieldSpec(3, ((0,),))
    assert class_number_bound(Q.abs_discriminant, Q.degree).H_fraction == 1


def test_determinism_across_calls():
    a = class_number_bound(167, 2)
    b = class_number_bound(167, 2)
    assert a.H_fraction == b.H_fraction and a.display() == b.display()


def _leading_exponent(v: Fraction) -> int:
    """E with 10^E <= v < 10^(E + 1), from integer comparisons alone."""
    E = (v.numerator.bit_length() - v.denominator.bit_length()) * 30103 // 100_000
    while Fraction(10) ** E > v:
        E -= 1
    while Fraction(10) ** (E + 1) <= v:
        E += 1
    return E


def test_printed_bound_is_the_least_ten_digit_decimal():
    # the printed value is >= x, and the next ten-digit decimal below it is
    # < x; it reads in fixed point exactly when -5 < E < 10, E the exponent
    # of its leading digit
    rng = random.Random(17)
    xs = []
    for _ in range(2000):
        a = rng.randrange(1, 10 ** rng.randint(1, 30))
        b = rng.randrange(1, 10 ** rng.randint(1, 30))
        x = Fraction(a, b) * Fraction(10) ** rng.randint(-12, 6000)
        if Fraction(1, 10**12) <= x <= 10**6000:
            xs.append(x)
    for E in range(-12, 20):  # both sides of both layout edges
        xs += [Fraction(rng.randrange(10**19, 10**20), 10**19) * Fraction(10) ** E
               for _ in range(3)]
    for _ in range(200):
        x = Fraction(rng.randrange(10**9, 10**10)) * Fraction(10) ** rng.randint(-21, 5990)
        xs += [x, x - Fraction(1, 10**50), x + Fraction(1, 10**50)]
    assert len(xs) > 2000
    for x in xs:
        text = _decimal_ceiling(x)
        printed = Fraction(text)
        E = _leading_exponent(printed)
        mantissa = printed / Fraction(10) ** (E - 9)
        assert mantissa.denominator == 1 and 10**9 <= mantissa < 10**10, text
        assert len(text.split("e")[0].replace(".", "").lstrip("0")) == 10, text
        ulp = Fraction(10) ** (E - 9 - (mantissa == 10**9))
        assert printed - ulp < x <= printed, text
        assert ("e" not in text) == (-5 < E < 10), text


def _converted_ceiling(x: Fraction, digits: int) -> Fraction:
    """The least `digits`-digit decimal >= x, from the whole numerator and
    denominator converted to Decimal and divided once, rounding up."""
    ctx = Context(prec=digits, rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return Fraction(ctx.divide(Decimal(x.numerator), Decimal(x.denominator)))


def test_printed_bound_of_a_large_dyadic_matches_full_conversion():
    # H_fraction is q * 2^e with q of about 136 bits; only q is converted,
    # and the power of two is applied exactly
    rng = random.Random(19)
    qs = [1, 3, 10**9 + 7] + [rng.getrandbits(136) | 1 for _ in range(20)]
    for q in qs:
        for x in (Fraction(q << 20000), Fraction(q, 1 << 20000)):
            assert Fraction(_decimal_ceiling(x)) == _converted_ceiling(x, 10), q


def _interval_oracle(abs_disc: int, m: int, fact: int, prec: int) -> list[Fraction]:
    """bounds._interval as it was before ln 2 was cached per precision and an
    exact |D| shared one series between the endpoints."""
    bits = prec + 8
    r = math.isqrt(abs_disc << 2 * prec)
    shift = max(0, abs_disc.bit_length() - bits)
    t = abs_disc >> shift
    ln2 = _atanh(1, 3, prec)
    ends = []
    for up, root, top in ((False, r, t), (True, r + 1, t + (shift > 0))):
        k = top.bit_length() - 1
        ln = 2 * (_atanh(top - (1 << k), top + (1 << k), prec)[up] + (shift + k) * ln2[up])
        q, e = _power(ln, m - 1, bits, up)
        num = root * q
        s = max(0, bits + fact.bit_length() - num.bit_length())
        num <<= s
        q, s2 = _round(-(-num // fact) if up else num // fact, bits, up)
        e += m - 1 - prec * m - s + s2
        ends.append(Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e))
    return ends


def test_interval_matches_the_uncached_oracle(monkeypatch):
    # every interval that `subfields 480`, `subfields 571` and `verify-paper`
    # evaluate (121 + 57, of which 93 + 27 have an exact |D|), then random ones
    seen = []
    interval = bounds._interval

    def record(*args):
        seen.append(args)
        return interval(*args)

    monkeypatch.setattr(bounds, "_interval", record)
    class_number_bound.cache_clear()
    for argv in (["subfields", "480"], ["subfields", "571"], ["verify-paper"]):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    class_number_bound.cache_clear()
    assert len(seen) == 178
    assert sum(a.bit_length() <= prec + 8 for a, _, _, prec in seen) == 120
    rng = random.Random(23)
    for _ in range(300):
        prec, m = rng.choice((128, 256, 512)), rng.randint(1, 40)
        abs_disc = rng.randrange(2, 1 << rng.randint(2, 1200))
        seen.append((abs_disc, m, math.factorial(m - 1), prec))
    for prec in (128, 256):
        # t + 1 a power of two: the upper top has one more bit
        seen.append((((1 << prec + 8) - 1) << 5 | 7, 3, 2, prec))
    for args in seen:
        assert interval(*args) == _interval_oracle(*args), args
