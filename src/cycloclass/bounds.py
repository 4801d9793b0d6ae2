"""Certified evaluation of the geometric class-number bound
H = 2^(m-1)/(m-1)! * sqrt(|D|) * (ln |D|)^(m-1).

Evaluated in integer arithmetic as an interval [lo, hi] with dyadic rational
endpoints and returned as the upper endpoint, so the result is always >= the
true value (overestimating H is safe: it can only turn a theorem application
into INCONCLUSIVE, never fabricate a violation). Natural logarithm throughout.
One pass at _PREC = 128 bits meets the 2^-100 target for every degree up to
_MAX_DEGREE (class_number_bound gives the budget). The printed value is the
`decimal` quotient of the upper endpoint at 10 significant digits, rounded
toward +inf.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, Context, Decimal, Inexact
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

_PREC = 128
_TARGET_REL_BITS = 100  # class_number_bound's target: (hi - lo) / lo < 2^-100
# (m - 1)! and the interval grow faster than m; no field built here has degree
# above phi(100 000) = 40 000
_MAX_DEGREE = 100_000
# integer products and powers in this context are exact, or raise Inexact
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
# rounds toward +inf to 10 significant digits, at any exponent
_CEILING = Context(prec=10, rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN)


class BoundResult(NamedTuple):
    """H with provenance: exact rational values of the returned (upper) and
    the lower interval endpoint, the inputs, and how it was rounded."""

    abs_disc: int
    degree: int
    H_fraction: Fraction
    lower_fraction: Fraction
    precision_bits: int
    rounded_up: bool
    note: str | None = None

    def exceeds(self, p: int) -> bool:
        """True iff p > H certifiedly (uses the upper endpoint)."""
        return Fraction(p) > self.H_fraction

    def display(self) -> str:
        """H_fraction rounded up to 10 significant digits, zeros kept, in the
        layout of `_decimal_ceiling`, marked exact or rounded up."""
        marker = " (rounded up)" if self.rounded_up else " (exact)"
        return f"{_decimal_ceiling(self.H_fraction)}{marker}"


@lru_cache(maxsize=None)
def _decimal_ceiling(x: Fraction) -> str:
    """The least decimal >= x > 0 with 10 significant digits: the `decimal`
    quotient rounded toward +inf. With E the exponent of its leading digit it
    prints in fixed point when -5 < E < 10 (e.g. 62.64031880, 0.001234567890),
    else as d.ddd...e+E or d.ddd...e-E (e.g. 1.234567890e+19). Cached per
    value: the subfields of one degree and |D| share a bound, and a lattice
    lists many of them (380 rows and 107 bounds for u = 480)."""
    # x = (a/b) * 2^e with a, b odd: Decimal(int) takes time quadratic in
    # its size, so only the odd parts are converted, and 2^|e| is applied exactly
    a, b = x.numerator, x.denominator
    e = (a & -a).bit_length() - (b & -b).bit_length()
    num, den = Decimal(a >> max(e, 0)), Decimal(b >> max(-e, 0))
    if e >= 0:
        num = _EXACT.multiply(num, _EXACT.power(2, e))
    else:
        den = _EXACT.multiply(den, _EXACT.power(2, -e))
    q = _CEILING.divide(num, den)
    E = q.adjusted()
    s = str(int(q.scaleb(9 - E, _CEILING)))
    if -5 < E < 10:
        if E < 0:
            return "0." + "0" * (-E - 1) + s
        return f"{s[:E + 1]}.{s[E + 1:]}"
    return f"{s[0]}.{s[1:]}e{E:+d}"


def _exact_result(abs_disc: int, m: int, value: int, note: str | None) -> BoundResult:
    return BoundResult(abs_disc, m, Fraction(value), Fraction(value), 0, False, note)


def _round(x: int, bits: int, up: bool) -> tuple[int, int]:
    """(q, s) with q * 2^s = x rounded down (or up) to `bits` significant bits."""
    s = max(0, x.bit_length() - bits)
    return (-(-x >> s) if up else x >> s), s


def _atanh(a: int, b: int, prec: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^prec * atanh(a/b) <= hi, for 0 <= a/b <= 1/3.

    The series sum of x^(2j+1)/(2j+1) runs in prec-bit fixed point with every
    step floored. The power is carried as p_j = floor(p_(j-1) * a^2/b^2), whose
    error stays below 1/(1 - x^2) <= 9/8 units, so each floored term is less
    than 2 units below its true value. Once p_j floors to 0 the rest of the
    series sums to less than (9/8)^2 < 2 units. So hi = lo + 2 * (terms + 1).
    """
    a2, b2 = a * a, b * b
    p = (a << prec) // b
    lo = terms = 0
    while p:
        lo += p // (2 * terms + 1)
        terms += 1
        p = p * a2 // b2
    return lo, lo + 2 * (terms + 1)


def _power(x: int, n: int, bits: int, up: bool) -> tuple[int, int]:
    """(q, e) with q * 2^e <= x^n (>= when up), q of about `bits` bits:
    square-and-multiply, each product rounded in the same direction."""
    q, e = 1, 0
    base, be = _round(x, bits, up)
    while n:
        if n & 1:
            q, s = _round(q * base, bits, up)
            e += be + s
        n >>= 1
        if n:
            base, s = _round(base * base, bits, up)
            be = 2 * be + s
    return q, e


@lru_cache(maxsize=None)
def _half_ln2(prec: int) -> tuple[int, int]:
    """(lo, hi) around 2^prec * atanh(1/3) = 2^prec * ln 2 / 2."""
    return _atanh(1, 3, prec)


def _interval(abs_disc: int, m: int, fact: int, prec: int) -> list[Fraction]:
    """[lo, hi] around H(abs_disc, m) from prec-bit integer arithmetic, each
    endpoint a dyadic rational of prec + 8 significant bits; fact = (m-1)!."""
    bits = prec + 8
    r = math.isqrt(abs_disc << 2 * prec)  # r <= 2^prec * sqrt|D| < r + 1
    # the top `bits` bits of |D|: t * 2^shift <= |D| < (t + 1) * 2^shift.
    # When nothing is shifted out t = |D| is exact and must not be widened:
    # [t, t + 1] would keep the interval ~1/|D| wide at every precision.
    shift = max(0, abs_disc.bit_length() - bits)
    t = abs_disc >> shift
    logs = []  # (shift + k, atanh bounds) for t, then t + 1 unless t = |D| is exact
    for top in (t, t + 1) if shift else (t,):
        # ln(top * 2^shift) = (shift + k) ln 2 + 2 atanh((top - 2^k)/(top + 2^k)),
        # with 2^k <= top < 2^(k+1)
        k = top.bit_length() - 1
        logs.append((shift + k, _atanh(top - (1 << k), top + (1 << k), prec)))
    ln2 = _half_ln2(prec)
    ends = []
    for up, root, (j, series) in ((False, r, logs[0]), (True, r + 1, logs[-1])):
        ln = 2 * (series[up] + j * ln2[up])  # 2^prec * ln|D|, floored (or raised)
        q, e = _power(ln, m - 1, bits, up)
        # H = 2^(m-1) * root * q * 2^(e - prec*m) / (m-1)!
        num = root * q
        s = max(0, bits + fact.bit_length() - num.bit_length())
        num <<= s
        q, s2 = _round(-(-num // fact) if up else num // fact, bits, up)
        e += m - 1 - prec * m - s + s2
        ends.append(Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e))
    return ends


@lru_cache(maxsize=None)
def class_number_bound(abs_disc: int, m: int) -> BoundResult:
    """H(|D|, m), certified upward; exact in the degenerate/perfect-square cases.

    Rejects abs_disc = 1 with m >= 2: the formula gives 0 there, and the only
    field with |D| = 1 is Q itself (m = 1), and m above _MAX_DEGREE.

    One _interval pass at _PREC = 128 bits meets the 2^-100 relative width
    for every m <= _MAX_DEGREE. The bracket on ln|D| is about 2^-120 wide,
    relative; raising it to the power m - 1 multiplies that width by m - 1, so
    the interval stays below 2^-103.3 (2^-103.39 at |D| = 5, m = 100 000, the
    widest measured). An interval that misses the target is an AssertionError.
    """
    if abs_disc < 1 or m < 1:
        raise ValueError(f"need abs_disc >= 1 and m >= 1, got ({abs_disc}, {m})")
    if m > _MAX_DEGREE:
        raise ValueError(f"m = {m} exceeds the largest degree, {_MAX_DEGREE}")
    if abs_disc == 1:
        if m == 1:
            return _exact_result(1, 1, 1, "H(1,1) = 1 exactly ((log 1)^0 taken as 1)")
        raise ValueError(
            "bound formula degenerate - the only field with |D|=1 is Q, m=1"
        )
    note = None
    if m == 1:
        r = math.isqrt(abs_disc)
        if r * r == abs_disc:
            return _exact_result(abs_disc, 1, r, "m=1: H = sqrt(|D|), exact")
        note = "m=1: formula reduces to sqrt(|D|); hypothesis check deferred to user"

    lo, hi = _interval(abs_disc, m, math.factorial(m - 1), _PREC)
    # (hi - lo) / lo < 2^-100 with lo = a/b and hi = c/d, on the integers
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if not (a > 0 and (c * b - a * d) << _TARGET_REL_BITS < a * d):
        raise AssertionError(f"H({abs_disc}, {m}) not bracketed to 2^-100 at {_PREC} bits")
    if c < d:
        # A class number is always >= 1; the formula can dip below for small
        # |D| at degrees no actual field attains.
        return _exact_result(
            abs_disc, m, 1, "clamped to 1 (class numbers are >= 1)"
        )
    return BoundResult(abs_disc, m, hi, lo, _PREC, True, note)
