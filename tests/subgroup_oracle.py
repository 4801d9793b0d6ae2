"""Element-set subgroup enumeration: the reference the Hermite-normal-form
enumerator in cycloclass.abelian is tested against.

Subgroups of prod Z/o_i are built as explicit frozensets of exponent tuples,
by closing cyclic subgroups under pairwise sums (_all_subgroups) or as
hyperplanes of X/X^n over F_n (_index_n_subgroups).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce


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
