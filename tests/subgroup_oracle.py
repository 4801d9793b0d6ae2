"""Element-set subgroup enumeration and member-by-member field invariants:
the references the Hermite-normal-form routes in cycloclass.abelian are
tested against.

Subgroups of prod Z/o_i are built as explicit frozensets of exponent tuples,
by closing cyclic subgroups under pairwise sums (_all_subgroups) or as
hyperplanes of X/X^n over F_n (_index_n_subgroups).  _members lists the
subgroup with given HNF rows, and oracle_field_invariants takes the degree,
conductor and |disc| of a field spec as the count, lcm and product of its
members' conductors, each from the local orders of _local_conductor.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

from cycloclass.abelian import _unit_data
from cycloclass.arith import factorize


class SubfieldLimitExceeded(Exception):
    pass


def _tuple_order(t: tuple[int, ...], orders: tuple[int, ...]) -> int:
    return reduce(math.lcm, (o // math.gcd(e, o) for e, o in zip(t, orders)), 1)


def _all_subgroups(orders: tuple[int, ...], limit: int) -> set[frozenset]:
    """Every subgroup of prod Z/o_i as a frozenset of tuples; caps at `limit`."""
    elements = list(itertools.product(*(range(o) for o in orders)))
    triv = (0,) * len(orders)

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    cyclics: set[frozenset] = set()
    by_order: dict[int, list[frozenset]] = {}
    for g in elements:
        og = _tuple_order(g, orders)
        # g inside a known cyclic subgroup of size ord(g) already generates it.
        if any(g in S for S in by_order.get(og, ())):
            continue
        cur, S = g, {triv}
        while cur != triv:
            S.add(cur)
            cur = add(cur, g)
        fs = frozenset(S)
        if fs not in cyclics:
            cyclics.add(fs)
            by_order.setdefault(og, []).append(fs)
    subs: set[frozenset] = {frozenset({triv})} | cyclics
    frontier = list(subs)
    while frontier:
        S = frontier.pop()
        for C in cyclics:
            if C <= S:
                continue
            T = frozenset(add(a, b) for a in S for b in C)
            if T not in subs:
                subs.add(T)
                frontier.append(T)
                if len(subs) > limit:
                    raise SubfieldLimitExceeded(
                        f"more than {limit} subgroups; refusing to enumerate"
                    )
    return subs


def _index_n_subgroups(elements, orders, n: int) -> set[frozenset]:
    """All index-n subgroups (n prime) of X, via hyperplanes of X/X^n over F_n."""

    def add(a, b):
        return tuple((x + y) % o for x, y, o in zip(a, b, orders))

    def scale(a, k):
        return tuple((x * k) % o for x, o in zip(a, orders))

    Xn = frozenset(scale(x, n) for x in elements)
    basis: list[tuple[int, ...]] = []
    span = set(Xn)
    for x in sorted(elements):
        if len(span) == len(elements):
            break
        if x in span:
            continue
        basis.append(x)
        span = {add(s, scale(x, k)) for s in span for k in range(n)}
    r = len(basis)
    if r == 0:
        return set()
    out = set()
    for a in itertools.product(range(n), repeat=r):
        # One functional per hyperplane: first nonzero coefficient scaled to 1.
        nz = next((i for i, c in enumerate(a) if c), None)
        if nz is None or a[nz] != 1 or any(a[i] for i in range(nz)):
            continue
        kernel_coords = [
            ks
            for ks in itertools.product(range(n), repeat=r)
            if sum(c * k for c, k in zip(a, ks)) % n == 0
        ]
        sub = set()
        for ks in kernel_coords:
            shift = triv = (0,) * len(orders)
            for b, k in zip(basis, ks):
                shift = add(shift, scale(b, k))
            for s in Xn:
                sub.add(add(s, shift))
        out.add(frozenset(sub))
    return out


def _members(rows: tuple[tuple[int, ...], ...], orders: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The exponent tuples of the subgroup with the given HNF rows."""
    elements = [(0,) * len(orders)]
    for i, row in enumerate(rows):
        gen = tuple(r % o for r, o in zip(row, orders))
        elements = [
            tuple((e + c * g) % o for e, g, o in zip(el, gen, orders))
            for el in elements
            for c in range(orders[i] // row[i])
        ]
    return elements


def _local_conductor(p: int, e: int, exps: tuple[int, ...], orders: tuple[int, ...]) -> int:
    """Conductor of the p-part of a character given its local exponents."""
    if p == 2:
        if e == 2:
            return 1 if exps[0] % 2 == 0 else 4
        s, t = exps[0] % 2, exps[1] % orders[1]
        if t == 0:
            return 1 if s == 0 else 4
        return 4 * (orders[1] // math.gcd(t, orders[1]))
    t, m = exps[0] % orders[0], orders[0]
    if t == 0:
        return 1
    d = m // math.gcd(t, m)
    for j in range(1, e + 1):
        if (p ** (j - 1) * (p - 1)) % d == 0:
            return p**j
    raise AssertionError("unreachable: local order always divides phi(p^e)")


def oracle_conductor(u: int, exps: tuple[int, ...]) -> int:
    """Conductor of the character mod u with the given exponents, prime by
    prime; the generators of p's component are consecutive, one for odd p and
    for 4, two for 2^e with e >= 3."""
    orders, cond, i = _unit_data(u).orders, 1, 0
    for p, e in factorize(u).factors:
        k = 2 if p == 2 and e >= 3 else 1
        cond *= _local_conductor(p, e, exps[i:i + k], orders[i:i + k])
        i += k
    return cond


def oracle_field_invariants(u: int, rows) -> tuple[int, int, int]:
    """(degree, conductor, |disc|) of the subgroup with HNF rows mod u, member
    by member: count, lcm and product of the conductors."""
    conds = [oracle_conductor(u, t) for t in _members(rows, _unit_data(u).orders)]
    return len(conds), math.lcm(*conds), math.prod(conds)
