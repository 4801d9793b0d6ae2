"""Tests for Dirichlet characters, orbits, and the subfield lattice."""

from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from cycloclass.arith import euler_phi, factorize, multiplicative_order
from cycloclass.abelian import (
    AbelianFieldSpec,
    DirichletCharacter,
    LatticeTooLarge,
    _count_subgroups,
    _hnf,
    _level_sizes,
    _order,
    _subgroups,
    _unit_data,
    characters,
    cyclic_subfield_spec,
    cyclotomic_field_spec,
    descent_subfield,
    galois_orbits,
    normalize_conductor,
    quadratic_signed_discriminant,
    real_cyclotomic_field_spec,
    subfields,
    two_power_subfield,
)
from cycloclass.classnum import b1_chi, orbit_norm
from cycloclass.cli import EXIT_USAGE, main
import cycloclass.abelian as abelian
import cycloclass.classnum as classnum
from norm_oracle import char_power, char_value, dlog_table, odometer_values
from subgroup_oracle import (
    _all_subgroups,
    _index_n_subgroups,
    _members,
    oracle_field_invariants,
)

MODULI = [u for u in range(3, 201) if u % 4 != 2]
ORACLE_MODULI = [u for u in MODULI if u <= 120] + [168, 240]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert divisors(97) == [1, 97]


def _conductor_oracle(chi: DirichletCharacter) -> int:
    """Smallest f | u such that chi is trivial on units = 1 mod f."""
    u = chi.modulus
    units = [a for a in range(1, u + 1) if math.gcd(a, u) == 1]
    for f in divisors(u):
        if all(char_value(chi, a) == 0 for a in units if a % f == 1 % f):
            return f
    raise AssertionError("unreachable: f = u always works")


def _member_set(F: AbelianFieldSpec) -> set[tuple[int, ...]]:
    return set(_members(F.rows, _unit_data(F.modulus).orders))


def _assert_subgroup(F: AbelianFieldSpec) -> None:
    """The members of F are |X| distinct tuples containing 1 and closed
    under products."""
    orders = _unit_data(F.modulus).orders
    exps = _member_set(F)
    assert len(exps) == F.degree
    assert (0,) * len(orders) in exps
    for a in exps:
        for b in exps:
            assert tuple((x + y) % o for x, y, o in zip(a, b, orders)) in exps


def test_normalize_conductor():
    assert normalize_conductor(6) == 3
    assert normalize_conductor(10) == 5
    assert normalize_conductor(2) == 1
    assert normalize_conductor(4) == 4
    assert normalize_conductor(12) == 12
    assert normalize_conductor(1) == 1


def test_unit_group_rejects_bad_moduli():
    for u in (0, 2, 6, 10, 14):
        with pytest.raises(ValueError):
            _unit_data(u)


def test_q_is_q_zeta_1():
    # Q(zeta_1) = Q(zeta_2) = Q: (Z/1)^* is the trivial group, whose one
    # subgroup gives Q's one subfield, and Q(zeta_1)^+ = Q
    data = _unit_data(1)
    assert (data.generators, data.orders, data.minus_one) == ((), (), ())
    for u in (1, 2):
        (F,) = subfields(u)
        assert (F.degree, F.conductor, F.abs_discriminant) == (1, 1, 1)
        assert real_cyclotomic_field_spec(u) == cyclotomic_field_spec(u) == F


def test_unit_group_structure():
    for u in MODULI:
        prod = 1
        for g, o in _unit_data(u).generators:
            assert math.gcd(g, u) == 1
            # g really has order o.
            assert pow(g, o, u) == 1
            for q in factorize(o).primes():
                assert pow(g, o // q, u) != 1
            prod *= o
        assert prod == euler_phi(u)


def test_character_counts_and_parity_split():
    for u in MODULI:
        chars = characters(u)
        assert len(chars) == euler_phi(u)
        odd = sum(1 for ch in chars if ch.is_odd)
        assert odd == len(chars) - odd == euler_phi(u) // 2


def test_character_values_mod5():
    # (Z/5)^* = <2>; the quadratic character is 1 on {1,4}, -1 on {2,3}.
    quad = next(ch for ch in characters(5) if ch.order == 2)
    assert _unit_data(5).units == (1, 2, 4, 3)
    assert dict(odometer_values(quad)) == {1: 0, 2: 1, 4: 0, 3: 1}
    assert [char_value(quad, r) for r in (1, 2, 3, 4)] == [0, 1, 1, 0]
    assert char_value(quad, 5) is None
    # 5 = 1 mod 4: the quadratic character mod 5 is even
    assert quad.conductor == 5 and not quad.is_odd


def test_character_multiplicativity():
    rng = random.Random(11)
    for u in (9, 16, 35, 63, 80, 105):
        chars = characters(u)
        units = [a for a in range(1, u) if math.gcd(a, u) == 1]
        for _ in range(40):
            chi = rng.choice(chars)
            a, b = rng.choice(units), rng.choice(units)
            assert char_value(chi, a * b) == (char_value(chi, a) + char_value(chi, b)) % chi.order


def test_char_value_function_and_nonunits():
    chi = characters(12)[1]
    assert char_value(chi, 2) is None
    assert char_value(chi, 12 + 5) == char_value(chi, 5)
    # a = prod g_i^k_i gives chi(a) = e(sum e_i k_i / o_i): the odometer's k
    # is that sum mod 1, in units of 1/order.
    for u in (16, 63, 80):
        orders, table = _unit_data(u).orders, dlog_table(u)
        for chi in characters(u):
            for a, v in odometer_values(chi):
                assert isinstance(v, int) and 0 <= v < chi.order
                want = sum(Fraction(e * k, o) for e, k, o in zip(chi.exponents, table[a], orders))
                assert Fraction(v, chi.order) == want % 1
                assert v == char_value(chi, a)


def test_character_values_walk_every_unit_once():
    for u in MODULI + [9907, 99991]:
        residues = _unit_data(u).units
        assert len(set(residues)) == len(residues) == euler_phi(u), u
        assert all(0 < r < u and math.gcd(r, u) == 1 for r in residues), u


def test_character_values_follow_the_odometer():
    # the cached walk holds the units of the one-unit-at-a-time odometer, in
    # its order, which b1_chi's slices read
    for u in MODULI + [480, 572, 1680]:
        walk = [r for r, _ in odometer_values(characters(u)[-1])]
        assert list(_unit_data(u).units) == walk, u


def test_characters_of_one_modulus_share_one_walk(monkeypatch):
    unit_data = lru_cache(maxsize=None)(abelian._UnitData)
    monkeypatch.setattr(abelian, "_unit_data", unit_data)
    monkeypatch.setattr(classnum, "_unit_data", unit_data)
    a, b = characters(1009)[1:3]
    data = unit_data(1009)
    assert "units" not in vars(data)
    b1_chi(a)
    units = vars(data)["units"]
    assert list(units) == [r for r, _ in odometer_values(a)]
    b1_chi(b)
    assert vars(data)["units"] is units


def test_unit_walk_is_built_only_for_character_values(monkeypatch, capsys):
    # subfield lattices, character groups and the audit read no character
    # value, so they build no walk of (Z/u)^*
    built = {}

    def unit_data(u):
        if u not in built:
            built[u] = abelian._UnitData(u)
        return built[u]

    monkeypatch.setattr(abelian, "_unit_data", unit_data)
    monkeypatch.setattr(classnum, "_unit_data", unit_data)
    subfields(480)
    characters(480)
    assert main(["verify-paper"]) == 0
    capsys.readouterr()
    assert {480, 9907} <= set(built)
    assert all("units" not in vars(data) for data in built.values())
    # B_1 of a character of conductor 5 walks (Z/5)^*, not (Z/480)^*
    chi = characters(480)[1]
    assert chi.conductor == 5
    b1_chi(chi)
    assert "units" in vars(built[5])
    assert "units" not in vars(built[480])


def test_primitive_root_is_the_smallest():
    for p in (q for q in range(3, 400) if factorize(q).factors == ((q, 1),)):
        g = abelian._primitive_root_mod_pk(p, 1)
        assert multiplicative_order(g, p) == p - 1, p
        assert all(multiplicative_order(h, p) < p - 1 for h in range(2, g)), p
        g2 = abelian._primitive_root_mod_pk(p, 2)
        assert g2 % p == g and multiplicative_order(g2, p * p) == p * (p - 1), p
    # no caller passes p = 2, but the search still ends there
    assert abelian._primitive_root_mod_pk(2, 1) % 2 == 1


def test_primitive_root_lifts_when_it_is_not_primitive_mod_p_squared():
    # 5 is the least primitive root mod 40487, but 5^40486 = 1 (mod 40487^2),
    # so mod 40487^2 the root is 5 + 40487
    p = 40487
    assert abelian._primitive_root_mod_pk(p, 1) == 5
    assert pow(5, p - 1, p * p) == 1
    assert abelian._primitive_root_mod_pk(p, 2) == 40492
    assert multiplicative_order(40492, p * p) == p * (p - 1)


def test_unit_data_refuses_generator_of_wrong_order(monkeypatch):
    # 2 has order 3 mod 7, not 6: the order check stands in for a span check
    monkeypatch.setattr(abelian, "_primitive_root_mod_pk", lambda p, e: 2)
    with pytest.raises(AssertionError, match="is not of order 6 mod 7"):
        abelian._UnitData(7)
    with pytest.raises(AssertionError, match="is not of order 6 mod 7"):
        abelian._UnitData(28)


def test_characters_match_the_constructor():
    # characters() sets order and parity from per-generator tables, the last
    # generator's inline, and skips the constructor; moduli with no generator
    # (1), one (1009: 1008 characters), two at 2^k, and six (27720, so five
    # head generators build rows)
    for u in (1, 3, 4, 5, 8, 16, 63, 80, 480, 572, 1009, 1680, 4620, 27720):
        exps = itertools.product(*map(range, _unit_data(u).orders))
        want = [DirichletCharacter(u, e) for e in exps]
        got = characters(u)
        assert len(got) == len(want) == euler_phi(u)
        for chi, ref in zip(got, want):
            assert type(chi) is DirichletCharacter
            assert (chi.modulus, chi.exponents, chi.order, chi.is_odd, chi.conductor) == (
                ref.modulus, ref.exponents, ref.order, ref.is_odd, ref.conductor
            ), (u, ref.exponents)
            assert chi == ref and hash(chi) == hash(ref) and repr(chi) == repr(ref)


def test_characters_build_no_list_besides_the_result():
    # the last generator's exponents go straight into the characters: the
    # peak while building characters(1009) stays within 5% of what the
    # returned list holds, so no phi(u)-long list is built besides it
    _unit_data(1009)
    tracemalloc.start()
    try:
        chars = characters(1009)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chars) == 1008
    assert peak <= 1.05 * held, (peak, held)


def test_character_order_against_scan():
    for u in (5, 8, 9, 12, 16, 21, 40, 63):
        for chi in characters(u):
            k = 1
            while not char_power(chi, k).is_trivial:
                k += 1
            assert k == chi.order


def test_character_parity_is_value_at_minus_one():
    for u in (5, 8, 9, 16, 35, 63, 80):
        for chi in characters(u):
            v = char_value(chi, u - 1)
            assert 2 * v in (0, chi.order)
            assert chi.is_odd == (v != 0)


def test_conductor_against_oracle():
    small = [u for u in MODULI if u <= 120]
    spot = [121, 128, 133, 144, 160, 168, 195, 200]
    for u in small + spot:
        for chi in characters(u):
            assert chi.conductor == _conductor_oracle(chi), (u, chi.exponents)


def test_conductor_discriminant_identity():
    # prod of conductors over all chars mod u = |disc Q(zeta_u)|
    #   = u^phi / prod_{p | u} p^(phi/(p-1)).
    for u in (u for u in MODULI if u <= 100):
        phi = euler_phi(u)
        expected = u**phi
        for p in factorize(u).primes():
            expected //= p ** (phi // (p - 1))
        assert math.prod(ch.conductor for ch in characters(u)) == expected


def test_primitive_character_iff_conductor_equals_modulus():
    # For prime u every nontrivial character is primitive.
    for u in (5, 7, 11, 13):
        for chi in characters(u):
            assert chi.conductor == (1 if chi.is_trivial else u)


def test_primitive_character_agrees_with_the_lift():
    # chi*(a) = chi(b) for every unit a mod f and a unit b = a (mod f) mod u,
    # against the discrete-log tables of both moduli; 2-adic conductors 4
    # and 8 under 2^e, e = 3..7, are among the cases
    two_adic = set()
    for u in MODULI + [572, 1680, 4620]:
        lifts = {}
        for chi in characters(u)[1:]:
            f, star = chi.conductor, chi.primitive
            assert (star.modulus, star.conductor, star.order) == (f, f, chi.order), (u, chi.exponents)
            # the order and parity carried over equal those the constructor reads
            assert DirichletCharacter(f, star.exponents) == star, (u, chi.exponents)
            if f == u:
                assert star == chi
            if f not in lifts:
                lifts[f] = {}
                for a in (a for a in range(1, f) if math.gcd(a, f) == 1):
                    lifts[f][a] = next(b for b in range(a, a + u, f) if math.gcd(b, u) == 1)
            for a, b in lifts[f].items():
                assert char_value(star, a) == char_value(chi, b), (u, chi.exponents, a)
            two_adic.add(((f & -f).bit_length() - 1, (u & -u).bit_length() - 1))
    assert {(j, e) for j in (2, 3) for e in range(3, 8)} <= two_adic


def test_galois_orbits_partition_and_invariants():
    # galois_orbits reads one representative; 1680 has five generators
    for u in (5, 16, 59, 63, 80, 401, 572, 1009, 1680):
        chars = characters(u)
        orbits = galois_orbits(chars)
        assert sum(ob.size for ob in orbits) == len(chars)
        seen = set()
        for ob in orbits:
            assert ob.size == euler_phi(ob.order)
            for m in ob.members:
                assert m.order == ob.order
                assert m.conductor == ob.conductor
                assert m.is_odd == ob.is_odd
                assert m.exponents not in seen
                seen.add(m.exponents)


def test_conductor_builds_one_field_spec_per_orbit(monkeypatch):
    # a conductor is a field spec built on first read: the parity filter
    # builds none, galois_orbits one per orbit, and orbit_norm no more
    built = []

    class Counting(AbelianFieldSpec):
        def __new__(cls, modulus, rows):
            built.append(modulus)
            return super().__new__(cls, modulus, rows)

    monkeypatch.setattr(abelian, "AbelianFieldSpec", Counting)
    odd = [c for c in characters(1009) if c.is_odd]
    assert built == []
    orbits = galois_orbits(odd)
    assert len(built) == len(orbits) == 6
    for ob in orbits:
        orbit_norm(ob)
    assert len(built) == 6


def test_galois_orbit_count_for_prime_modulus():
    # Cyclic dual: one orbit per divisor of u - 1.
    for u in (5, 7, 13, 59):
        assert len(galois_orbits(characters(u))) == len(divisors(u - 1))


def test_galois_orbits_reject_non_closed_input():
    chars = characters(7)
    some = [ch for ch in chars if ch.order == 6][:1] + [ch for ch in chars if ch.is_trivial]
    with pytest.raises(ValueError, match=r"^input not Galois-closed: power 5 of \(\d,\) is missing$"):
        galois_orbits(some)
    with pytest.raises(ValueError):
        galois_orbits(characters(5) + characters(8))
    chi = characters(7)[1]
    with pytest.raises(ValueError, match="^duplicate characters in input$"):
        galois_orbits(characters(7) + [chi])


def test_field_spec_basic():
    K = cyclotomic_field_spec(5)
    assert (K.degree, K.conductor, K.abs_discriminant) == (4, 5, 125)
    assert K.rows == ((1,),)
    _assert_subgroup(K)
    R = real_cyclotomic_field_spec(5)
    assert (R.degree, R.abs_discriminant) == (2, 5)
    assert R.rows == ((2,),)
    assert cyclotomic_field_spec(10) == cyclotomic_field_spec(5)


def test_field_spec_known_discriminants():
    # |disc Q(zeta_59)| = 59^57, real subfield 59^28.
    assert cyclotomic_field_spec(59).abs_discriminant == 59**57
    assert real_cyclotomic_field_spec(59).abs_discriminant == 59**28
    # Cubic field of conductor 7 inside Q(zeta_7) has disc 49.
    assert cyclic_subfield_spec(7, 3).abs_discriminant == 49


def test_cyclic_subfield_spec_errors():
    with pytest.raises(ValueError):
        cyclic_subfield_spec(63, 3)  # unit group not cyclic
    for n in (4, 0, -3):  # 4 does not divide 6; degrees are positive
        with pytest.raises(ValueError):
            cyclic_subfield_spec(7, n)


def test_subfields_prime_modulus():
    listing = subfields(59)
    assert isinstance(listing, tuple)
    degrees = sorted(F.degree for F in listing)
    assert degrees == sorted(divisors(58))
    for F in listing:
        _assert_subgroup(F)
        assert F.degree == 1 or F.conductor == 59
    quad = next(F for F in listing if F.degree == 2)
    assert quad.abs_discriminant == 59


def test_subfields_elementary_two_group():
    # (Z/24)^* = C2 x C2 x C2 has 16 subgroups.
    assert len(subfields(24)) == 16
    assert len(subfields(8)) == 5


def test_subfields_sorted_and_deterministic():
    a = subfields(63)
    b = subfields(63)
    assert [F.rows for F in a] == [F.rows for F in b]
    keys = [(F.degree, F.abs_discriminant) for F in a]
    assert keys == sorted(keys)


def test_subfields_against_oracle():
    for u in ORACLE_MODULI:
        orders = _unit_data(u).orders
        expect = sorted(tuple(sorted(S)) for S in _all_subgroups(orders, 10_000))
        got = sorted(tuple(sorted(_member_set(F))) for F in subfields(u))
        assert got == expect, u


def test_subfields_refuses_oversized_lattice(monkeypatch, capsys):
    monkeypatch.setattr(abelian, "_MAX_SUBGROUPS", 3)
    with pytest.raises(ValueError):
        subfields(24)
    assert main(["subfields", "24"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_subgroup_count_matches_enumeration():
    for u in [u for u in range(3, 301) if u % 4 != 2] + [480, 840, 1680]:
        orders = _unit_data(u).orders
        assert _count_subgroups(orders) == sum(1 for _ in _subgroups(orders)), u


def test_subfields_refuses_before_listing(monkeypatch, capsys):
    # 948024 subgroups: the count refuses, _subgroups is never entered
    monkeypatch.setattr(abelian, "_subgroups", None)
    t0 = time.perf_counter()
    assert main(["subfields", "65520"]) == EXIT_USAGE
    assert time.perf_counter() - t0 < 0.5
    assert "948024" in capsys.readouterr().err


def test_descent_subfield_refuses_before_searching(monkeypatch):
    # the same count as subfields refuses the lattice of 65520, and only
    # this refusal is a LatticeTooLarge
    monkeypatch.setattr(abelian, "_subgroups", None)
    t0 = time.perf_counter()
    with pytest.raises(LatticeTooLarge, match="948024 subfields"):
        descent_subfield(cyclotomic_field_spec(65520), 3)
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(LatticeTooLarge):
        subfields(65520)
    with pytest.raises(ValueError) as info:
        descent_subfield(cyclotomic_field_spec(65520), 2)
    assert not isinstance(info.value, LatticeTooLarge)


def test_enumerated_rows_are_fixed_points_of_hnf():
    # the HNF basis of a lattice is unique, so each row set _subgroups
    # yields, reduced again from plain tuples, comes back unchanged
    for u in ORACLE_MODULI + [480, 840, 1680]:
        orders = _unit_data(u).orders
        size = math.prod(orders)
        indices = (1, *factorize(size).primes())
        listed = [_subgroups(orders)] + [_subgroups(orders, size // n) for n in indices]
        for rows in itertools.chain(*listed):
            assert _hnf(tuple(map(tuple, rows)), orders) == rows, (u, rows)


def test_restricted_enumeration_is_the_filtered_full_one():
    # _subgroups(orders, order) skips the divisors whose size cannot divide
    # the order and tests tails on the tail columns alone: it lists the full
    # enumeration's subgroups of that order, in the same order
    for u in ORACLE_MODULI + [480, 840]:
        orders = _unit_data(u).orders
        size = math.prod(orders)
        full = list(_subgroups(orders))
        for n in (1, *factorize(size).primes()):
            expect = [rows for rows in full if _order(rows, orders) == size // n]
            assert list(_subgroups(orders, size // n)) == expect, (u, n)


def _count_hnf_calls(monkeypatch) -> list[int]:
    calls = [0]
    real = abelian._hnf

    def counted(gens, orders):
        calls[0] += 1
        return real(gens, orders)

    monkeypatch.setattr(abelian, "_hnf", counted)
    return calls


def test_enumerated_rows_are_not_reduced_again(monkeypatch):
    K = cyclotomic_field_spec(63)
    calls = _count_hnf_calls(monkeypatch)
    fields = subfields(480)
    descent_subfield.__wrapped__(K, 3)
    assert len(fields) == 380 and calls[0] == 0
    # rows given as plain tuples are reduced
    assert AbelianFieldSpec(480, tuple(map(tuple, fields[1].rows))) == fields[1]
    assert calls[0] == 1


def test_rows_canonical_for_other_orders_are_reduced(monkeypatch):
    # 63 and 91 both have two generators, of orders (6, 6) and (6, 12):
    # rows enumerated for one are reduced again for the other, and the
    # rows of order-12 pivots or tails are not canonical for 63
    calls = _count_hnf_calls(monkeypatch)
    for a, b in ((63, 91), (91, 63)):
        groups = list(_subgroups(_unit_data(a).orders))
        calls[0] = 0
        specs = [AbelianFieldSpec(b, rows) for rows in groups]
        assert calls[0] == len(groups), (a, b)
        for rows, F in zip(groups, specs):
            assert F == AbelianFieldSpec(b, tuple(map(tuple, rows))), (a, b, rows)
        assert (b == 63) == any(F.rows != rows for rows, F in zip(groups, specs)), (a, b)


def test_descent_subfield_prime_cyclic():
    K = cyclotomic_field_spec(59)
    F = descent_subfield(K, 29)
    assert F.degree == 2 and F.abs_discriminant == 59
    R = real_cyclotomic_field_spec(19)  # degree 9
    F3 = descent_subfield(R, 3)
    assert F3.degree == 3 and F3.abs_discriminant == 361


def test_descent_subfield_errors():
    K = cyclotomic_field_spec(59)
    with pytest.raises(ValueError):
        descent_subfield(K, 2)
    with pytest.raises(ValueError):
        descent_subfield(K, 5)


def test_descent_subfield_minimizes_disc():
    # u = 63: X = C6 x C6; four index-3 subgroups; pick the one of least |disc|.
    K = cyclotomic_field_spec(63)
    F = descent_subfield(K, 3)
    data = _unit_data(63)
    elements = list(_member_set(K))
    groups = _index_n_subgroups(elements, data.orders, 3)
    cands = [AbelianFieldSpec(63, tuple(g)) for g in groups]
    assert len(cands) == 4
    assert F.abs_discriminant == min(c.abs_discriminant for c in cands)
    for g, c in zip(groups, cands):
        assert _member_set(c) == set(g)
        assert c.degree == K.degree // 3


def test_descent_subfield_against_oracle():
    for u in ORACLE_MODULI:
        orders = _unit_data(u).orders
        for K in (cyclotomic_field_spec(u), real_cyclotomic_field_spec(u)):
            elements = list(_member_set(K))
            for n in factorize(K.degree).primes():
                if n == 2:
                    continue
                cands = [
                    AbelianFieldSpec(u, tuple(g))
                    for g in _index_n_subgroups(elements, orders, n)
                ]
                best = min(cands, key=AbelianFieldSpec._sort_key)
                assert descent_subfield(K, n) == best, (u, K.degree, n)


def test_index_n_subgroups_against_full_enumeration():
    data = _unit_data(63)
    elements = [ch.exponents for ch in characters(63)]
    all_subs = _all_subgroups(data.orders, 10_000)
    size = len(elements)
    for n in (2, 3):
        expect = {S for S in all_subs if len(S) == size // n}
        got = _index_n_subgroups(elements, data.orders, n)
        assert got == expect


def test_spec_invariants_match_character_route():
    # deg, conductor and |disc| from the levels of the HNF rows equal len,
    # lcm and product of the members' conductors by the oracle's local
    # orders, which share no conductor code with the levels; the rows come
    # back unchanged.  480 is the lattice the benchmark lists.
    for u in ORACLE_MODULI + [480]:
        for rows in _subgroups(_unit_data(u).orders):
            F = AbelianFieldSpec(u, rows)
            assert F.rows == rows, (u, rows)
            expect = oracle_field_invariants(u, rows)
            assert (F.degree, F.conductor, F.abs_discriminant) == expect, (u, rows)


def _level_sizes_by_hnf(data, rows) -> list[tuple[int, list[int]]]:
    """Per prime p | u, the size of X's image mod each level's m_i as the
    order of a fresh HNF of the rows projected to p's coordinates."""
    return [
        (p, [_order(_hnf([[r[i] for i in idx] for r in rows], ms), ms) for ms in levels])
        for p, idx, levels in data.components
    ]


def test_level_sizes_match_per_level_hnf():
    # column gcds and, at levels 0-1 of 2^e (e >= 3), the product of the two
    # pivots give every level the size an HNF of that level's projection
    # gives, hence the same conductor and |disc|; the pivot reading needs
    # canonical HNF rows, with 2 on columns 0 and 1 as u's least prime
    for u in ORACLE_MODULI + [480]:
        data = _unit_data(u)
        for rows in _subgroups(data.orders):
            F = AbelianFieldSpec(u, rows)
            expect = _level_sizes_by_hnf(data, rows)
            assert list(_level_sizes(data, F.rows)) == expect, (u, rows)
            n = F.degree
            cond = math.prod(p ** sum(s > 1 for s in sizes) for p, sizes in expect)
            disc = math.prod(p ** sum(n - n // s for s in sizes) for p, sizes in expect)
            assert (F.conductor, F.abs_discriminant) == (cond, disc), (u, rows)


def test_spec_invariants_at_the_modulus_cap():
    # closed forms: Q(zeta_p) has |disc| = p^(p-2), its real subfield
    # p^((p-3)/2), and Q(zeta_u) has u^phi / prod_{p | u} p^(phi/(p-1))
    p = 99991
    K = cyclotomic_field_spec(p)
    assert (K.degree, K.conductor, K.abs_discriminant) == (p - 1, p, p ** (p - 2))
    Kp = real_cyclotomic_field_spec(p)
    assert (Kp.degree, Kp.conductor, Kp.abs_discriminant) == ((p - 1) // 2, p, p ** ((p - 3) // 2))
    for u in (65536, 59049, 60060):
        phi, primes = euler_phi(u), factorize(u).primes()
        K = cyclotomic_field_spec(u)
        disc = u**phi // math.prod(q ** (phi // (q - 1)) for q in primes)
        assert (K.degree, K.conductor, K.abs_discriminant) == (phi, u, disc), u


def test_real_and_two_power_members_match_character_filters():
    for u in MODULI + [572, 4620]:
        chars = characters(u)
        even = {ch.exponents for ch in chars if not ch.is_odd}
        assert _member_set(real_cyclotomic_field_spec(u)) == even, u
        two = {ch.exponents for ch in chars if ch.order & (ch.order - 1) == 0}
        assert _member_set(two_power_subfield(cyclotomic_field_spec(u))) == two, u


def test_spec_is_canonical_under_generating_sets():
    rng = random.Random(7)
    for u in (63, 80, 105, 168):
        orders = _unit_data(u).orders
        for F in subfields(u):
            members = sorted(_member_set(F))
            rng.shuffle(members)
            a, b = rng.choice(members), rng.choice(members)
            redundant = [
                tuple(x + y for x, y in zip(a, b)),  # a product of members
                tuple(-x for x in a),  # an inverse, with negative exponents
                tuple(x + o for x, o in zip(b, orders)),  # unreduced exponents
            ] + list(F.rows)
            rng.shuffle(redundant)
            for gens in (members, redundant):
                G = AbelianFieldSpec(u, gens)
                assert G == F and hash(G) == hash(F) and G.rows == F.rows, u


def test_spec_rejects_wrong_length_generators():
    with pytest.raises(ValueError):
        AbelianFieldSpec(63, ((1,),))
    with pytest.raises(ValueError):
        AbelianFieldSpec(5, ((1,), (1, 0)))


def test_quadratic_signed_discriminant():
    for p in (3, 5, 7, 11, 13, 59, 103, 199):
        expect = p if p % 4 == 1 else -p
        assert quadratic_signed_discriminant(cyclic_subfield_spec(p, 2)) == expect
    assert quadratic_signed_discriminant(cyclotomic_field_spec(4)) == -4
    for u, expect in ((8, [-8, -4, 8]), (12, [-4, -3, 12]), (24, [-24, -8, -4, -3, 8, 12, 24])):
        quads = [F for F in subfields(u) if F.degree == 2]
        assert sorted(map(quadratic_signed_discriminant, quads)) == expect, u
    with pytest.raises(ValueError, match="^need a quadratic field, got degree 4$"):
        quadratic_signed_discriminant(cyclotomic_field_spec(5))
