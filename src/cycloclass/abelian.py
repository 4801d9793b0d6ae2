"""Dirichlet characters, Galois orbits, and the subfield lattice of Q(zeta_u).

Characters mod u are stored as exponent tuples against a fixed generating set
of (Z/u)^*; values are integer root-of-unity exponents k mod d (chi(a) = e(k/d),
d the order of chi), so all downstream arithmetic stays exact in Q(zeta_d).

A subfield of Q(zeta_u) is its character group X < prod Z/o_i, held as the
Hermite-normal-form rows of its preimage lattice in Z^k.  Its invariants come
from the rows without listing X: the size of X's image at every level of
_UnitData is read from the column gcds of the rows, and, for the two
coordinates of 2^e (e >= 3), from the product of the two pivots there: the
rows are canonical HNF, and 2, as u's least prime, holds columns 0 and 1.
A character's conductor is that of the cyclic field it cuts out
(conductor-discriminant), read on first use: once per Galois orbit.
DirichletCharacter objects are built only where character values are needed
(B_1 and Galois orbits).
characters(u) builds them in one pass over the last generator's exponents:
each head generator has a table of o_i/gcd(e, o_i) and of the parity of e
against -1 over its exponents e, combined into one row per exponent tuple of
the head, and every exponent of the last generator goes straight into its
character, its entry combined with the row inline.  A character's
primitive character chi* mod its conductor f is read from its exponents
alone (DirichletCharacter.primitive), and B_1 sums chi* over one
walk of the units mod f, _UnitData.units, built on the first b1_chi of
conductor f (never for subfields or the audit) and shared by every character
of that conductor, whatever its modulus; a unit's position in the walk gives
its exponents against the g_i.

AbelianFieldSpec(u, rows) reduces its rows by _hnf.  The HNF basis is
unique (Cohen, GTM 138, 2.4), so the rows _subgroups lists for u's orders
o_i would come back unchanged: subfields and descent_subfield build their
specs from them by _field_spec, which trusts its rows.  The size of the
lattice is counted from the o_i (Birkhoff) before subfields lists it.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache
from typing import NamedTuple

from .arith import _has_order, euler_phi, factorize, is_prime


def normalize_conductor(u: int) -> int:
    """Collapse u = 2 mod 4 to u/2: both index the same cyclotomic field."""
    if u >= 2 and u % 4 == 2:
        return u // 2
    return u


def _primitive_root_mod_pk(p: int, e: int) -> int:
    """Smallest primitive root mod p, lifted so it stays primitive mod p^e."""
    g = next(g for g in itertools.count(2) if _has_order(g, p - 1, p))
    if e >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(r: int, q: int, u: int) -> int:
    """The residue mod u that is r mod q and 1 mod u/q (q, u/q coprime)."""
    m = u // q
    if m == 1:
        return r % u
    return (r * m * pow(m, -1, q) + q * pow(q, -1, m)) % u


# characters(u) builds phi(u) characters and B_1 walks phi(u) units, so both
# take time in proportion to u
_MAX_CONDUCTOR = 100_000


class _UnitData:
    """(Z/u)^* as generators g_i of orders o_i, the exponents of -1 against
    them, and per p | u a component (p, generator indices, levels).  Each g_i
    has exact order o_i mod its prime power and is 1 mod the rest of u, so the
    g_i span the units.  For j < e, levels[j] holds the m_i with
    v_p(f_chi) <= j exactly when chi's exponents there are 0 mod m_i.  For
    u = 1, Q(zeta_1) = Q, the group is trivial: no generators."""

    def __init__(self, u: int):
        if u < 1:
            raise ValueError(f"modulus must be >= 1, got {u}")
        if u > _MAX_CONDUCTOR:
            raise ValueError(f"modulus {u} exceeds the largest modulus, {_MAX_CONDUCTOR}")
        if u % 4 == 2:
            raise ValueError(
                f"modulus {u} = 2 mod 4; normalize to {u // 2} first (same field)"
            )
        self.modulus = u
        units: list[tuple[int, int, int]] = []  # (g_i, o_i, exponent of -1)
        comps = []
        for p, e in factorize(u).factors:
            q, start = p**e, len(units)
            if p == 2:
                # 3 = -1 mod 4; for e >= 3, (Z/2^e)^* = <-1> x <5>
                local = [(3, 2, 1)] if e == 2 else [(-1, 2, 1), (5, 2 ** (e - 2), 0)]
                # no conductor 2; units = 1 mod 2^j (j >= 2) are <5^(2^(j-2))>
                orders = tuple(o for _, o, _ in local)
                levels = [orders] * 2 + [(1, 2 ** (e - j)) for j in range(2, e)]
            else:
                o = euler_phi(q)
                local = [(_primitive_root_mod_pk(p, e), o, o // 2)]
                # units = 1 mod p^j are <g^phi(p^j)>
                levels = [(o // euler_phi(p**j),) for j in range(e)]
            for g, o, m in local:
                g = _crt_lift(g, q, u)
                if (g - 1) % (u // q) or not _has_order(g, o, q):
                    raise AssertionError(f"generator {g} mod {u} is not of order {o} mod {q}")
                units.append((g, o, m))
            comps.append((p, range(start, len(units)), levels))
        self.generators = tuple((g, o) for g, o, _ in units)
        self.orders = tuple(o for _, o, _ in units)
        self.minus_one = tuple(m for _, _, m in units)
        self.components = tuple(comps)

    @cached_property
    def units(self) -> tuple[int, ...]:
        """Every unit r = prod g_i^t_i mod u, the t_i run like an odometer
        (last digit fastest), so r's position, split into digits, is the t_i;
        built on the first b1_chi of a character of conductor u."""
        u, walk = self.modulus, [1]

        def mul(a: int, b: int) -> int:
            return a * b % u

        for g, o in self.generators:
            powers = list(itertools.accumulate(itertools.repeat(g, o - 1), mul, initial=1))
            walk = [r * x % u for r in walk for x in powers]
        return tuple(walk)


@lru_cache(maxsize=None)
def _unit_data(u: int) -> _UnitData:
    return _UnitData(u)


class _Character(NamedTuple):
    modulus: int
    exponents: tuple[int, ...]
    order: int
    is_odd: bool


class DirichletCharacter(_Character):
    """Character mod u given by exponents against the fixed unit-group generators.

    chi(g_i) = e(exponents[i] / o_i) with e(x) = exp(2*pi*i*x).  The order
    and parity are set when the character is built, the conductor on first
    read.
    """

    def __new__(cls, modulus: int, exponents: tuple[int, ...]):
        data = _unit_data(modulus)
        if len(exponents) != len(data.orders):
            raise ValueError(f"expected {len(data.orders)} exponents for modulus {modulus}")
        exps = tuple(map(operator.mod, exponents, data.orders))
        order = math.lcm(*map(operator.floordiv, data.orders, map(math.gcd, exps, data.orders)))
        # -1 has order 2: its exponents are 0 or o_i/2, so chi(-1) = (-1)^(sum e_i)
        is_odd = sum(itertools.compress(exps, data.minus_one)) % 2 == 1
        return tuple.__new__(cls, (modulus, exps, order, is_odd))

    def __getnewargs__(self):  # pickle and copy rebuild from the constructor's arguments
        return self[:2]

    @cached_property
    def conductor(self) -> int:
        return AbelianFieldSpec(self.modulus, (self.exponents,)).conductor

    @cached_property
    def primitive(self) -> DirichletCharacter:
        """chi* mod f, f the conductor, from the exponents alone: at p | f, u's
        generators reduced mod f are f's (_primitive_root_mod_pk, _crt_lift;
        -1 = 3 mod 4 when f_2 = 4 under 2^e, e >= 3, and chi(5) = 1), so chi*'s
        exponent is e_i o_i'/o_i, exact as f_chi = f; its values are chi's."""
        data, low = _unit_data(self.modulus), _unit_data(self.conductor)
        at = {p: idx for p, idx, _ in data.components}
        exps = (self.exponents[i] * low.orders[j] // data.orders[i]
                for p, idx, _ in low.components for i, j in zip(at[p], idx))
        return tuple.__new__(DirichletCharacter, (low.modulus, tuple(exps), self.order, self.is_odd))

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)


def characters(u: int) -> list[DirichletCharacter]:
    """All phi(u) Dirichlet characters mod u, in lexicographic exponent order.

    Generator i contributes, for each exponent e < o_i, the order
    o_i/gcd(e, o_i) of chi(g_i) and whether chi(-1) gains a sign (e odd where
    -1 has exponent o_i/2); a character's order is the lcm and its parity the
    sum of its entries.  The head generators combine their tables into rows;
    the last generator's exponents go straight into the characters, each
    entry computed inline, so no phi(u)-long list is built besides the
    result.  The exponents are in range by construction, so each character is
    set up directly, without DirichletCharacter's checks."""
    data = _unit_data(u)
    new = tuple.__new__
    if not data.orders:  # u = 1: the trivial character alone
        return [new(DirichletCharacter, (u, (), 1, False))]
    *head, (o, m) = zip(data.orders, data.minus_one)
    rows = [((), 1, False)]  # (exponents, order, is_odd) on the head generators
    for oh, mh in head:
        table = [(e, oh // math.gcd(e, oh), mh > 0 and e % 2 == 1) for e in range(oh)]
        rows = [
            (exps + (e,), math.lcm(d, de), odd != flips)
            for exps, d, odd in rows
            for e, de, flips in table
        ]
    flips = m > 0
    return [
        new(DirichletCharacter,
            (u, exps + (e,), math.lcm(d, o // math.gcd(e, o)), odd != (flips and e % 2 == 1)))
        for exps, d, odd in rows
        for e in range(o)
    ]


class CharacterOrbit(NamedTuple):
    """A Galois orbit {chi^k : gcd(k, d) = 1}; members share order/conductor/parity."""

    members: tuple[DirichletCharacter, ...]
    order: int
    conductor: int
    is_odd: bool

    @property
    def size(self) -> int:
        return len(self.members)


def galois_orbits(chars: list[DirichletCharacter]) -> list[CharacterOrbit]:
    """Galois orbits of characters of one modulus, closed under chi -> chi^k."""
    if len({ch.modulus for ch in chars}) > 1:
        raise ValueError("characters of different moduli in input")
    pool = {ch.exponents: ch for ch in chars}
    if len(pool) != len(chars):
        raise ValueError("duplicate characters in input")
    remaining = set(pool)
    orbits = []
    for exps in sorted(pool):
        if exps not in remaining:
            continue
        chi = pool[exps]
        d, orders = chi.order, _unit_data(chi.modulus).orders
        ks = [k for k in range(1, d + 1) if math.gcd(k, d) == 1]
        # One row of k * e mod o per generator, read across: the power chi^k.
        powers = list(zip(*[[k * e % o for k in ks] for e, o in zip(exps, orders)]))
        if not remaining.issuperset(powers):
            k = next(k for k, power in zip(ks, powers) if power not in remaining)
            raise ValueError(f"input not Galois-closed: power {k} of {exps} is missing")
        remaining.difference_update(powers)
        members = tuple(pool[e] for e in sorted(powers))
        orbits.append(CharacterOrbit(members, d, chi.conductor, chi.is_odd))
    orbits.sort(key=lambda ob: (ob.order, ob.conductor, ob.members[0].exponents))
    return orbits


class _FieldSpec(NamedTuple):
    modulus: int
    rows: tuple[tuple[int, ...], ...]
    degree: int
    conductor: int
    abs_discriminant: int


class AbelianFieldSpec(_FieldSpec):
    """An abelian field presented by its group X of Dirichlet characters mod u.

    Built from any exponent tuples generating X; `rows` holds the canonical
    HNF rows (as _subgroups yields them), reduced by _hnf from the input.
    Degree n = |X| = prod o_i/d_i.  At each level of each prime p, with s the
    size of X's image mod the level's m_i, n - n/s characters have v_p(f_chi)
    above that level: so |disc| = prod f_chi (conductor-discriminant) gains
    p^(n - n/s), and the conductor (lcm of the f_chi) gains p when s > 1.
    Every s is read from a column gcd of the rows or, at levels 0-1 of 2^e
    (e >= 3), from the product of the two pivots there: 2, as u's least
    prime, holds columns 0 and 1 of the canonical HNF rows (_level_sizes).
    """

    __slots__ = ()

    def __new__(cls, modulus: int, rows: tuple[tuple[int, ...], ...]):
        return _field_spec(modulus, _hnf(rows, _unit_data(modulus).orders))

    def __getnewargs__(self):
        return self[:2]

    def _sort_key(self):
        return (self.degree, self.abs_discriminant, self.conductor, self.rows)


def _field_spec(modulus: int, rows: tuple[tuple[int, ...], ...]) -> AbelianFieldSpec:
    """The spec of the canonical HNF rows `rows` for modulus's orders, taken
    as they are."""
    data = _unit_data(modulus)
    n, cond, disc = _order(rows, data.orders), 1, 1
    for p, sizes in _level_sizes(data, rows):
        cond *= p ** sum(s > 1 for s in sizes)
        disc *= p ** sum(n - n // s for s in sizes)
    return tuple.__new__(AbelianFieldSpec, (modulus, rows, n, cond, disc))


def cyclotomic_field_spec(u: int) -> AbelianFieldSpec:
    """Q(zeta_u) as a field spec (the full character group mod u)."""
    u = normalize_conductor(u)
    k = len(_unit_data(u).orders)
    return AbelianFieldSpec(u, tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))


def real_cyclotomic_field_spec(u: int) -> AbelianFieldSpec:
    """The maximal real subfield Q(zeta_u)^+: the even characters mod u,
    generated by e_i where -1 has exponent 0 and by e_s + e_i where it has
    exponent o_i/2 (s the first such i, so 2e_s is among them). For u <= 2,
    -1 = 1 and Q(zeta_u)^+ = Q(zeta_u) = Q."""
    u = normalize_conductor(u)
    m = _unit_data(u).minus_one
    s = next((i for i, k in enumerate(m) if k), None)
    gens = [[(j == i) + (j == s) * (k > 0) for j in range(len(m))] for i, k in enumerate(m)]
    return AbelianFieldSpec(u, gens)


def cyclic_subfield_spec(u: int, n: int) -> AbelianFieldSpec:
    """The unique degree-n subfield of Q(zeta_u) when (Z/u)^* is cyclic."""
    u = normalize_conductor(u)
    data = _unit_data(u)
    if len(data.orders) != 1:
        raise ValueError(f"(Z/{u})^* is not cyclic")
    m = data.orders[0]
    if n < 1 or m % n != 0:
        raise ValueError(f"no degree-{n} subfield: the degrees are the divisors of {m}")
    return AbelianFieldSpec(u, ((m // n,),))


# subfields() and descent_subfield() refuse lattices with more subgroups than this
_MAX_SUBGROUPS = 100_000


class LatticeTooLarge(ValueError):
    """The subgroup lattice of (Z/u)^* has more than _MAX_SUBGROUPS members;
    raised before any subgroup is listed."""


def _gaussian(n: int, k: int, p: int) -> int:
    """The Gaussian binomial [n choose k]_p: the number of k-dimensional
    subspaces of F_p^n."""
    num = math.prod(p ** (n - j) - 1 for j in range(k))
    return num // math.prod(p**j - 1 for j in range(1, k + 1))


@lru_cache(maxsize=None)
def _count_subgroups(orders: tuple[int, ...]) -> int:
    """The number of subgroups of prod Z/o_i, without listing them: the
    product over p of the count for the Sylow p-subgroup, of type lam (the
    v_p(o_i) > 0).  Its subgroups of type mu number prod_{i>=1}
    p^(mu'_{i+1}(lam'_i - mu'_i)) [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p,
    ' the conjugate partition (Birkhoff; Butler, Mem. AMS 1994).  The sum over
    mu runs over mu' last part first: f[a] totals the choices of the parts
    after a part equal to a."""
    lam: dict[int, list[int]] = {}
    for o in orders:
        for p, e in factorize(o).factors:
            lam.setdefault(p, []).append(e)
    total = 1
    for p, es in lam.items():
        if len(es) == 1:  # a cyclic p-group of order p^e has e + 1 subgroups
            total *= es[0] + 1
            continue
        f = {0: 1}
        for i in range(max(es), 0, -1):
            n = sum(e >= i for e in es)
            f = {
                a: sum(p ** (b * (n - a)) * _gaussian(n - b, a - b, p) * c
                       for b, c in f.items() if b <= a)
                for a in range(n + 1)
            }
        total *= sum(f.values())
    return total


def _in_span(v: list[int], rows: list[tuple[int, ...]]) -> bool:
    """Whether v is an integer combination of the echelon rows, row i with
    its pivot on column i (HNF rows, or their tails past a column)."""
    for i, row in enumerate(rows):
        q, rem = divmod(v[i], row[i])
        if rem:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return True


def _subgroups(orders: tuple[int, ...], order: int | None = None):
    """Every subgroup of prod Z/o_i (only those of the given order, if any),
    as the Hermite-normal-form rows of its preimage lattice in Z^k.

    Row i is (0, ..., 0, d_i, t_{i+1}, ..., t_{k-1}) with d_i | o_i and
    0 <= t_j < d_j; the subgroup has order prod(o_i / d_i).  A lattice between
    (+) o_i Z and Z^k has exactly one such basis (Cohen, GTM 138, 2.4), so
    each subgroup is yielded once.  Rows are chosen last-first; row i is kept
    only if o_i e_i lies in the lattice, i.e. (o_i/d_i) * tail is in the span
    of the rows below it.  That vector and those rows are zero before column
    i + 1, so the test runs on the tails alone: the rows' tails and the
    candidate tails are built once per level, for every d_i.
    """

    divisors = [[1] for _ in orders]
    for ds, o in zip(divisors, orders):
        for p, e in factorize(o).factors:
            ds[:] = sorted(d * p**j for d in ds for j in range(e + 1))

    def extend(i: int, below: list[tuple[int, ...]], size: int):
        if i < 0:
            if order is None or size == order:
                yield tuple(below)
            return
        o = orders[i]
        pivots = [r[j] for j, r in enumerate(below, i + 1)]
        tails = list(itertools.product(*map(range, pivots)))
        rows = [r[i + 1:] for r in below]
        for d in divisors[i]:
            m = o // d
            if order is not None and order % (size * m):
                continue
            for tail in tails:
                if _in_span([m * t for t in tail], rows):
                    yield from extend(i - 1, [(0,) * i + (d,) + tail] + below, size * m)

    yield from extend(len(orders) - 1, [], 1)


def _hnf(gens, orders: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The rows _subgroups yields for the subgroup generated by the exponent
    tuples gens: Euclid down each column, starting from o_i e_i, then each
    tail reduced by the pivots below it."""
    k, gens = len(orders), list(gens)
    if any(len(g) != k for g in gens):
        raise ValueError(f"expected {k} exponents per generator")
    pool = [[e % o for e, o in zip(g, orders)] for g in gens]
    rows = []
    for i, o in enumerate(orders):
        piv = [o * (j == i) for j in range(k)]
        for n, v in enumerate(pool):
            while v[i]:
                q = piv[i] // v[i]
                piv, v = v, [(a - q * b) % m for a, b, m in zip(piv, v, orders)]
            pool[n] = v
        rows.append(piv)
    for i, row in enumerate(rows):
        for j in range(i + 1, k):
            q = row[j] // rows[j][j]
            row[:] = [a - q * b for a, b in zip(row, rows[j])]
    return tuple(map(tuple, rows))


def _order(rows: tuple[tuple[int, ...], ...], orders: tuple[int, ...]) -> int:
    """Size of the subgroup with the given HNF rows: prod o_i / d_i."""
    return math.prod(o // row[i] for i, (o, row) in enumerate(zip(orders, rows)))


def _level_sizes(data: _UnitData, rows: tuple[tuple[int, ...], ...]):
    """Yield (p, sizes) for each p | u: the size s of X's image mod the m_i of
    each level of p, read from the canonical HNF rows of X's preimage lattice
    L (as _subgroups yields them and _hnf returns them).

    A level with one m > 1, at coordinate i, sees L's projection g_i Z, g_i
    the gcd of o_i and column i: s = m / gcd(m, g_i).  Only levels 0-1 of 2^e
    (e >= 3) see two coordinates, both with ms = (o_0, o_1): 2 is u's least
    prime, so they are columns 0 and 1, where only the HNF rows 0 and 1 have
    entries, (d_0, t) and (0, d_1).  L's projection there is the lattice they
    span (it holds (o_0, 0) and (0, o_1), as L holds o_i e_i), of determinant
    d_0 d_1, the product of the two pivots: s = o_0 o_1 / (d_0 d_1)."""
    g = [math.gcd(o, *col) for o, col in zip(data.orders, zip(*rows))]
    for p, idx, levels in data.components:
        if len(idx) == 2:
            o0, o1 = levels[0]
            both = o0 * o1 // (rows[0][0] * rows[1][1])
            yield p, [both, both] + [m // math.gcd(m, g[1]) for _, m in levels[2:]]
        else:
            (i,) = idx
            yield p, [m // math.gcd(m, g[i]) for (m,) in levels]


def subfields(u: int) -> tuple[AbelianFieldSpec, ...]:
    """All subfields of Q(zeta_u) (as field specs), sorted by degree then |disc|.

    Raises LatticeTooLarge, before listing any, when the subgroup lattice
    has more than _MAX_SUBGROUPS members.
    """
    u = normalize_conductor(u)
    specs = [_field_spec(u, rows) for rows in _subgroups(_searchable_orders(u))]
    return tuple(sorted(specs, key=AbelianFieldSpec._sort_key))


def _searchable_orders(u: int) -> tuple[int, ...]:
    """The orders o_i of (Z/u)^*, or LatticeTooLarge when its subgroup
    lattice has more than _MAX_SUBGROUPS members."""
    orders = _unit_data(u).orders
    count = _count_subgroups(orders)
    if count > _MAX_SUBGROUPS:
        raise LatticeTooLarge(
            f"Q(zeta_{u}) has {count} subfields, more than {_MAX_SUBGROUPS}; refusing to list them"
        )
    return orders


@lru_cache(maxsize=None)
def descent_subfield(K: AbelianFieldSpec, n: int) -> AbelianFieldSpec:
    """The degree-N/n subfield F of K (index-n character subgroup) minimizing
    |disc(F)|; ties broken by conductor, then by HNF rows.  Raises
    LatticeTooLarge, as subfields does, before searching a lattice of more
    than _MAX_SUBGROUPS members."""
    if not is_prime(n) or n == 2:
        raise ValueError(f"descent degree must be an odd prime, got {n}")
    if K.degree % n != 0:
        raise ValueError(f"{n} does not divide the degree {K.degree}")
    specs = [
        _field_spec(K.modulus, rows)
        for rows in _subgroups(_searchable_orders(K.modulus), K.degree // n)
        if all(_in_span(row, K.rows) for row in rows)
    ]
    return min(specs, key=AbelianFieldSpec._sort_key)


def two_power_subfield(K: AbelianFieldSpec) -> AbelianFieldSpec:
    """The unique subfield of K of degree 2^a where 2^a || [K:Q]: the fixed
    field of the odd part of Gal(K/Q): X^odd, odd the odd part of [K:Q]."""
    odd = K.degree // (K.degree & -K.degree)
    return AbelianFieldSpec(K.modulus, tuple(tuple(odd * e for e in row) for row in K.rows))


def quadratic_signed_discriminant(F: AbelianFieldSpec) -> int:
    """Signed discriminant of a degree-2 field spec: -conductor when the
    nontrivial character is odd (imaginary field), +conductor when even."""
    if F.degree != 2:
        raise ValueError(f"need a quadratic field, got degree {F.degree}")
    odd = any(DirichletCharacter(F.modulus, row).is_odd for row in F.rows)
    return -F.conductor if odd else F.conductor
