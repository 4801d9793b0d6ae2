"""Certified evaluation of the geometric class-number bound
H = 2^(m-1)/(m-1)! * sqrt(|D|) * (ln |D|)^(m-1).

Computed with interval arithmetic and returned as the upper interval endpoint,
so the result is always >= the true value (overestimating H is safe: it can
only turn a theorem application into INCONCLUSIVE, never fabricate a
violation). Natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .abelian import AbelianFieldSpec

_TARGET_REL_WIDTH = Fraction(1, 2**100)


def _mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Exact rational value of a finite mpf."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and x != 0:
        raise ValueError("non-finite value")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


@dataclass(frozen=True)
class BoundResult:
    """H with provenance: exact rational value of the returned (upper) endpoint,
    the matching mpf, the inputs, and how it was rounded."""

    abs_disc: int
    degree: int
    H: mpmath.mpf
    H_fraction: Fraction
    lower_fraction: Fraction
    precision_bits: int
    rounded_up: bool
    note: str | None = None

    def exceeds(self, p: int) -> bool:
        """True iff p > H certifiedly (uses the upper endpoint)."""
        return Fraction(p) > self.H_fraction

    def display(self, digits: int = 10) -> str:
        """H_fraction rounded up to `digits` significant digits, in the layout
        of mpmath.nstr(..., strip_zeros=False), marked exact or rounded up."""
        marker = " (rounded up)" if self.rounded_up else " (exact)"
        return f"{_decimal_ceiling(self.H_fraction, digits)}{marker}"


def _decimal_ceiling(x: Fraction, digits: int) -> str:
    """The least decimal >= x > 0 with `digits` significant digits, printed
    as mpmath.nstr prints it: fixed point when the leading digit's exponent E
    has min(-(digits // 3), -5) < E < digits, else d.ddd...e+E."""
    a, b = x.numerator, x.denominator
    # within one or two of floor(log10 x); str() refuses ints of 4300+ digits
    E = (a.bit_length() - b.bit_length()) * 30103 // 100_000
    while True:  # x * 10^(digits - 1 - E) = num/den in [10^(digits-1), 10^digits)
        k = digits - 1 - E
        num, den = (a * 10**k, b) if k >= 0 else (a, b * 10**-k)
        if num < den * 10 ** (digits - 1):
            E -= 1
        elif num >= den * 10**digits:
            E += 1
        else:
            break
    n = -(-num // den)
    if n == 10**digits:
        n, E = n // 10, E + 1
    s = str(n)
    if min(-(digits // 3), -5) < E < digits:
        if E < 0:
            return "0." + "0" * (-E - 1) + s
        return f"{s[:E + 1]}.{s[E + 1:]}"
    return f"{s[0]}.{s[1:]}e{E:+d}"


def _exact_result(abs_disc: int, m: int, value: int, note: str | None) -> BoundResult:
    return BoundResult(
        abs_disc, m, mpmath.mpf(value), Fraction(value), Fraction(value), 0, False, note
    )


@lru_cache(maxsize=None)
def class_number_bound(abs_disc: int, m: int) -> BoundResult:
    """H(|D|, m), certified upward; exact in the degenerate/perfect-square cases.

    Rejects abs_disc = 1 with m >= 2: the formula gives 0 there, and the only
    field with |D| = 1 is Q itself (m = 1).
    """
    if abs_disc < 1 or m < 1:
        raise ValueError(f"need abs_disc >= 1 and m >= 1, got ({abs_disc}, {m})")
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

    prec = 128
    fact = math.factorial(m - 1)
    while True:
        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = prec
            D = iv.mpf(abs_disc)
            H = iv.mpf(2) ** (m - 1) / fact * iv.sqrt(D) * iv.log(D) ** (m - 1)
            lo_raw, hi_raw = H._mpi_
        finally:
            iv.prec = old
        lo = _mpf_to_fraction(mpmath.mp.make_mpf(lo_raw))
        hi = _mpf_to_fraction(mpmath.mp.make_mpf(hi_raw))
        if lo > 0 and (hi - lo) / lo < _TARGET_REL_WIDTH:
            break
        if prec > 1 << 20:
            raise AssertionError("interval refuses to converge")
        prec *= 2
    if hi < 1:
        # A class number is always >= 1; the formula can dip below for small
        # |D| at degrees no actual field attains.
        return _exact_result(
            abs_disc, m, 1, "clamped to 1 (class numbers are >= 1)"
        )
    return BoundResult(
        abs_disc,
        m,
        mpmath.mp.make_mpf(hi_raw),
        hi,
        lo,
        prec,
        True,
        note,
    )


def field_bound(F: AbelianFieldSpec) -> BoundResult:
    """H_F = class_number_bound(|disc F|, [F:Q])."""
    return class_number_bound(F.abs_discriminant, F.degree)
