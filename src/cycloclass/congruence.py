"""Congruence constraints on primes dividing class numbers of abelian fields.

The underlying theorems, for an abelian field K of degree N and a prime p
dividing h(K) with p-rank r:

* Rank theorem: if p does not divide N, then n | p(p^r - 1) for some odd
  prime n | N forces structure; concretely we test, for an odd prime n,
  whether p = 0 (mod n) or p^r = 1 (mod n).
* Descent (even degree): write N = 2^a * N1 with N1 odd.  If N1 > 1 and
  no odd prime n | N1 satisfies the rank congruence for any admissible rank,
  then p must divide the class number of the degree-2^a subfield L
  ("two-part" of the divisibility).
* GCD corollary (odd degree): if N is odd, every p | h(K) satisfies
  gcd(p(p^r - 1), N) > 1 for some admissible rank r.
* Bounded descent: for an odd prime n | N and the descent subfield F with
  [K:F] = n, if p > H_F (the geometric class-number bound of F) then the
  same congruence p = 0 or p^r = 1 (mod n) must hold.  When p <= H_F the
  theorem is silent.

Each audit returns a Verdict whose witness dict contains enough to replay
the decisive congruence or gate comparison.  One helper, _rank_verdict,
decides the rank congruence for the gcd corollary and the bounded descent;
the descent theorem reads its witness directly, since its fallback is the
two-part branch and not a VIOLATION.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import factorize, is_prime, multiplicative_order
from .bounds import class_number_bound

CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

class _Verdict(NamedTuple):
    status: str
    witness: dict


class Verdict(_Verdict):
    """Outcome of one theorem application: status plus a replayable witness."""

    __slots__ = ()

    def __new__(cls, status: str, witness: dict):
        if status not in (CONSISTENT, VIOLATION, INCONCLUSIVE):
            raise ValueError(f"unknown status {status!r}")
        return tuple.__new__(cls, (status, witness))


class _RankHypothesis(NamedTuple):
    p: int
    v_p: int
    r_p: int | None


class RankHypothesis(_RankHypothesis):
    """A prime p dividing a class number with multiplicity v_p; r_p is the
    p-rank of the class group when known, else every rank 1..v_p is
    admissible."""

    __slots__ = ()

    def __new__(cls, p: int, v_p: int, r_p: int | None = None):
        if p < 2:
            raise ValueError(f"p = {p} is not a prime")
        if v_p < 1:
            raise ValueError(f"v_p must be >= 1, got {v_p}")
        if r_p is not None and not 1 <= r_p <= v_p:
            raise ValueError(f"known rank r_p = {r_p} outside 1..v_p = {v_p}")
        return tuple.__new__(cls, (p, v_p, r_p))

    @property
    def admissible_ranks(self) -> tuple[int, ...]:
        if self.r_p is not None:
            return (self.r_p,)
        return tuple(range(1, self.v_p + 1))


def feasible_ranks(p: int, v_p: int, n: int) -> frozenset[int]:
    """Ranks r in 1..v_p satisfying the congruence for the odd prime n.

    Rejects p = 0 (mod n): the congruence then holds for every rank and the
    set carries no information.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if v_p < 1:
        raise ValueError(f"v_p must be >= 1, got {v_p}")
    if n < 3 or n % 2 == 0 or not is_prime(n):
        raise ValueError(f"n = {n} is not an odd prime")
    if p % n == 0:
        raise ValueError(
            f"p = {p} is divisible by n = {n}: every rank in 1..{v_p} is feasible"
        )
    f = multiplicative_order(p, n)
    return frozenset(r for r in range(1, v_p + 1) if r % f == 0)


def _odd_prime_witness(hyp: RankHypothesis, odd_primes: tuple[int, ...]) -> dict | None:
    """First (r, n) with the congruence satisfied, smallest rank first."""
    for r in hyp.admissible_ranks:
        for n in odd_primes:
            if hyp.p % n == 0:
                return {"n": n, "r": r, "congruence": "p = 0 (mod n)"}
            if pow(hyp.p, r, n) == 1:
                return {"n": n, "r": r, "congruence": "p^r = 1 (mod n)"}
    return None


def _rank_verdict(
    hyp: RankHypothesis, odd_primes: tuple[int, ...], base: dict, reason: str
) -> Verdict:
    """The rank congruence at the odd primes decides: CONSISTENT with the
    witness of _odd_prime_witness, else VIOLATION with the admissible ranks
    and `reason`."""
    hit = _odd_prime_witness(hyp, odd_primes)
    if hit is not None:
        return Verdict(CONSISTENT, base | hit)
    return Verdict(
        VIOLATION, base | {"admissible_ranks": list(hyp.admissible_ranks), "reason": reason}
    )


def corollary1_verdict(N: int, hyp: RankHypothesis) -> Verdict:
    """GCD corollary for odd degree N > 1: some admissible rank r and odd
    prime n | N must satisfy the congruence; otherwise the record is
    inconsistent with the theorem."""
    if N <= 1 or N % 2 == 0:
        raise ValueError(f"degree N = {N} is not an odd integer > 1")
    base = {"theorem": "corollary1", "p": hyp.p, "N": N}
    reason = "gcd(p(p^r - 1), N) = 1 for every admissible rank r"
    return _rank_verdict(hyp, factorize(N).primes(), base, reason)


def theorem1_audit(N: int, hyp: RankHypothesis, p_divides_hL: bool | None = None) -> Verdict:
    """Descent audit for even degree N whose odd part N1 exceeds 1.

    p_divides_hL states what is known about p | h(L) for the degree-2^a
    subfield L: True (recorded as true), False (recorded as false), or None
    (not recorded).  It is consulted only when no odd prime of N1 yields a
    congruence witness.
    """
    if not (p_divides_hL is None or isinstance(p_divides_hL, bool)):
        raise ValueError(f"p_divides_hL must be True, False or None, got {p_divides_hL!r}")
    if N < 2 or N % 2:
        raise ValueError(f"degree N = {N} must be even and >= 2 (odd N: corollary1_verdict)")
    alpha0 = (N & -N).bit_length() - 1
    N1 = N >> alpha0
    if N1 <= 1:
        raise ValueError(f"odd part of N = {N} is 1; the descent theorem is empty")
    odd_primes = factorize(N1).primes()
    base = {"theorem": "theorem1", "p": hyp.p, "N": N, "N1": N1}
    hit = _odd_prime_witness(hyp, odd_primes)
    if hit is not None:
        return Verdict(CONSISTENT, base | hit | {"branch": "odd-prime"})
    two_part_base = base | {
        "branch": "two-part",
        "subfield_degree": 1 << alpha0,
        "admissible_ranks": list(hyp.admissible_ranks),
    }
    if p_divides_hL:
        return Verdict(
            CONSISTENT,
            two_part_base | {"note": "p | h(L) asserted for the 2-power-degree subfield L"},
        )
    if p_divides_hL is False:
        return Verdict(
            VIOLATION,
            two_part_base
            | {
                "reason": "no odd prime of N1 admits the congruence and "
                "p | h(L) is recorded as false"
            },
        )
    return Verdict(
        INCONCLUSIVE,
        two_part_base
        | {"reason": "p | h(L) for the 2-power-degree subfield is not recorded"},
    )


def theorem2_audit(hyp: RankHypothesis, n: int, *, F_abs_disc: int, F_degree: int) -> Verdict:
    """Bounded-descent audit at the odd prime n for the descent subfield F
    (index n in K) with |disc F| = F_abs_disc and [F:Q] = F_degree.  The
    theorem applies only when p > H_F; below the bound the verdict is
    INCONCLUSIVE.
    """
    if n < 3 or n % 2 == 0 or not is_prime(n):
        raise ValueError(f"n = {n} is not an odd prime")
    bound = class_number_bound(F_abs_disc, F_degree)
    base = {
        "theorem": "theorem2",
        "p": hyp.p,
        "n": n,
        "F_abs_disc": F_abs_disc,
        "F_degree": F_degree,
        "H_F": bound.display(),
    }
    if not bound.exceeds(hyp.p):
        return Verdict(
            INCONCLUSIVE,
            base | {"reason": "p <= H_F; the bounded descent theorem is silent"},
        )
    reason = "p > H_F yet no admissible rank satisfies the congruence"
    return _rank_verdict(hyp, (n,), base, reason)
