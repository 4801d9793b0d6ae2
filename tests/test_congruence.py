"""Congruence theorems: rank feasibility, the gcd corollary, descent with
two-part resolution, and the bound-gated descent theorem."""

import random

import pytest

from cycloclass.abelian import cyclotomic_field_spec, descent_subfield
from cycloclass.arith import is_prime, multiplicative_order
from cycloclass.bounds import class_number_bound
from cycloclass.congruence import (
    CONSISTENT,
    INCONCLUSIVE,
    VIOLATION,
    RankHypothesis,
    Verdict,
    corollary1_verdict,
    feasible_ranks,
    theorem1_audit,
    theorem2_audit,
)
from cycloclass.tables import encode_int

PRIMES = [p for p in range(2, 200) if is_prime(p)]
ODD_PRIMES = [p for p in PRIMES if p % 2 == 1]


def rank_congruence(p: int, r: int, n: int) -> bool:
    """Replay oracle for witnesses: True iff p = 0 (mod n) or p^r = 1 (mod n)."""
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    return p % n == 0 or pow(p, r, n) == 1


def _theorem2_from_field(hyp, n, K):
    """theorem2_audit at the descent subfield F of index n in K."""
    F = descent_subfield(K, n)
    return theorem2_audit(hyp, n, F_abs_disc=F.abs_discriminant, F_degree=F.degree)


def test_rank_congruence_basics():
    assert rank_congruence(233, 1, 29)  # 233 = 8*29 + 1
    assert rank_congruence(29, 1, 29)  # p = 0 (mod n)
    assert not rank_congruence(3, 1, 29)
    assert rank_congruence(3, 28, 29)  # Fermat
    with pytest.raises(ValueError):
        rank_congruence(3, 0, 29)


def test_feasible_ranks_known_cases():
    assert feasible_ranks(3, 3, 13) == frozenset({3})
    assert feasible_ranks(11, 2, 5) == frozenset({1, 2})
    assert feasible_ranks(2, 4, 3) == frozenset({2, 4})
    assert feasible_ranks(7, 5, 3) == frozenset({1, 2, 3, 4, 5})  # 7 = 1 (mod 3)


def test_feasible_ranks_matches_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.choice(ODD_PRIMES)
        p = rng.choice([q for q in PRIMES if q != n])
        v = rng.randrange(1, 8)
        expect = frozenset(r for r in range(1, v + 1) if pow(p, r, n) == 1)
        assert feasible_ranks(p, v, n) == expect, (p, v, n)


def test_feasible_ranks_multiples_of_order():
    f = multiplicative_order(3, 13)  # 3
    got = feasible_ranks(3, 12, 13)
    assert got == frozenset({3, 6, 9, 12}) and all(r % f == 0 for r in got)


def test_feasible_ranks_rejections():
    with pytest.raises(ValueError, match="divisible"):
        feasible_ranks(5, 2, 5)
    with pytest.raises(ValueError):
        feasible_ranks(6, 2, 5)
    with pytest.raises(ValueError):
        feasible_ranks(3, 0, 5)
    with pytest.raises(ValueError):
        feasible_ranks(3, 2, 9)


def test_rank_hypothesis_validation():
    h = RankHypothesis(11, 2)
    assert h.admissible_ranks == (1, 2)
    assert RankHypothesis(11, 2, r_p=2).admissible_ranks == (2,)
    with pytest.raises(ValueError):
        RankHypothesis(11, 2, r_p=3)
    with pytest.raises(ValueError):
        RankHypothesis(11, 0)
    with pytest.raises(ValueError):
        RankHypothesis(1, 1)


def test_corollary1_consistent_and_violation():
    v = corollary1_verdict(29, RankHypothesis(233, 1))
    assert v.status == CONSISTENT and v.witness["n"] == 29 and v.witness["r"] == 1
    v = corollary1_verdict(29, RankHypothesis(5, 1, r_p=1))
    assert v.status == VIOLATION
    # rank scan rescues when the order divides some admissible rank
    assert corollary1_verdict(29, RankHypothesis(5, 14)).status == CONSISTENT
    v = corollary1_verdict(15, RankHypothesis(5, 1))
    assert v.status == CONSISTENT and v.witness["congruence"] == "p = 0 (mod n)"


def test_corollary1_rejects_even_or_trivial_degree():
    for N in (1, 2, 10):
        with pytest.raises(ValueError):
            corollary1_verdict(N, RankHypothesis(3, 1))


def test_theorem1_odd_branch_and_two_part_states():
    # N = 58 = 2 * 29: p = 59 = 1 (mod 29) settles on the odd branch
    v = theorem1_audit(58, RankHypothesis(59, 1))
    assert v.status == CONSISTENT and v.witness["branch"] == "odd-prime"
    # p = 3 has no odd witness: whether p | h(L) is recorded decides
    assert theorem1_audit(58, RankHypothesis(3, 1), True).status == CONSISTENT
    assert theorem1_audit(58, RankHypothesis(3, 1), None).status == INCONCLUSIVE
    assert theorem1_audit(58, RankHypothesis(3, 1), False).status == VIOLATION
    with pytest.raises(ValueError):
        theorem1_audit(58, RankHypothesis(3, 1), "maybe")


def test_theorem1_rejects_two_power_degree():
    with pytest.raises(ValueError):
        theorem1_audit(16, RankHypothesis(3, 1))
    with pytest.raises(ValueError):
        theorem1_audit(1, RankHypothesis(3, 1))
    # odd degree is corollary1_verdict's alone
    for N in (9, 15, 29):
        with pytest.raises(ValueError, match="corollary1_verdict"):
            theorem1_audit(N, RankHypothesis(3, 1))


def test_theorem2_gate_and_congruence():
    K = cyclotomic_field_spec(59)
    # p = 233 > H_F = 62.64..., 233 = 1 (mod 29)
    v = _theorem2_from_field(RankHypothesis(233, 1), 29, K)
    assert v.status == CONSISTENT
    assert v.witness["F_abs_disc"] == 59 and v.witness["F_degree"] == 2
    assert v.witness["H_F"].endswith("(rounded up)")
    # p = 3 <= H_F: the theorem is silent
    v = _theorem2_from_field(RankHypothesis(3, 1), 29, K)
    assert v.status == INCONCLUSIVE and "silent" in v.witness["reason"]
    # p = 59 <= 62.64 is still below the bound
    assert _theorem2_from_field(RankHypothesis(59, 1), 29, K).status == INCONCLUSIVE


def test_theorem2_explicit_descent_and_violation():
    # F = Q: H = 1, so every prime is above the gate
    v = theorem2_audit(RankHypothesis(7, 1), 3, F_abs_disc=1, F_degree=1)
    assert v.status == CONSISTENT
    v = theorem2_audit(RankHypothesis(5, 1, r_p=1), 3, F_abs_disc=1, F_degree=1)
    assert v.status == VIOLATION
    # same prime, rank unknown with v_p = 2: 5^2 = 25 = 1 (mod 3)
    v = theorem2_audit(RankHypothesis(5, 2), 3, F_abs_disc=1, F_degree=1)
    assert v.status == CONSISTENT and v.witness["r"] == 2


def test_theorem2_gate_property_randomized():
    rng = random.Random(31337)
    for _ in range(60):
        D = rng.randrange(3, 4000)
        n = rng.choice((3, 5, 7))
        p = rng.choice(PRIMES)
        hyp = RankHypothesis(p, 1)
        v = theorem2_audit(hyp, n, F_abs_disc=D, F_degree=2)
        bound = class_number_bound(D, 2)
        if not bound.exceeds(p):
            assert v.status == INCONCLUSIVE, (D, n, p)
        elif p % n == 0 or pow(p, 1, n) == 1:
            assert v.status == CONSISTENT, (D, n, p)
        else:
            assert v.status == VIOLATION, (D, n, p)


def test_theorem2_argument_validation():
    with pytest.raises(ValueError):
        theorem2_audit(RankHypothesis(3, 1), 4, F_abs_disc=59, F_degree=2)
    with pytest.raises(TypeError):
        theorem2_audit(RankHypothesis(3, 1), 3)


def test_witnesses_replay_their_congruence():
    cases = [
        corollary1_verdict(29, RankHypothesis(233, 1)),
        corollary1_verdict(15, RankHypothesis(5, 1)),
        theorem1_audit(58, RankHypothesis(59, 1)),
        _theorem2_from_field(RankHypothesis(233, 1), 29, cyclotomic_field_spec(59)),
    ]
    for v in cases:
        w = v.witness
        assert v.status == CONSISTENT
        assert rank_congruence(w["p"], w["r"], w["n"])


def test_violation_witness_is_replayable():
    v = corollary1_verdict(29, RankHypothesis(5, 1, r_p=1))
    w = v.witness
    for r in w["admissible_ranks"]:
        assert not rank_congruence(w["p"], r, 29)


def test_verdict_status_validation():
    with pytest.raises(ValueError):
        Verdict("MAYBE", {})


def decode_int(v: int | str) -> int:
    """The inverse of encode_int: a witness integer, inline or as hex."""
    return v if isinstance(v, int) else int(v, 16)


def test_encode_decode_int_round_trip():
    for v in (0, 1, -5, 2**255, 2**257, 9907**1650):
        assert decode_int(encode_int(v)) == v
    assert isinstance(encode_int(2**255), int)
    assert isinstance(encode_int(2**300), str)
