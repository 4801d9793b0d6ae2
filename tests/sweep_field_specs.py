"""Equality sweep: (degree, conductor, |disc|) of every subgroup of every
conductor 3 <= u <= N with u != 2 (mod 4), by cycloclass.abelian._field_spec
(level sizes from the column gcds of the HNF rows and, for 2^e with e >= 3,
from the product of the two pivots on columns 0 and 1, which the canonical
HNF rows give 2 as u's least prime) against
subgroup_oracle.oracle_field_invariants (member by member, local orders),
and each enumerated row set against cycloclass.abelian._hnf of it as plain
tuples, which must return it unchanged (subfields and descent_subfield take
enumerated rows as canonical, through _field_spec). Not collected by pytest.

    PYTHONPATH=src:tests python tests/sweep_field_specs.py 300

Prints each mismatch, then the number of subgroups compared, the number of
mismatches, the number of row sets that are not fixed points of _hnf and the
total times of the _subgroups enumeration, of _field_spec and of the oracle;
exits 1 on any mismatch or moved row set. The oracle lists every member of
every subgroup, so its cost grows with the lattices and it takes most of the
time: on one core of a 2-core x86-64 machine, u <= 300 (6716 subgroups)
takes about 1 s and u <= 600 (21679 subgroups) about 3 s, of which the
enumeration takes about 0.2 s and _field_spec about 0.25 s.
"""

from __future__ import annotations

import sys
import time

from cycloclass.abelian import _field_spec, _hnf, _subgroups, _unit_data
from subgroup_oracle import oracle_field_invariants


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 300
    count = mismatches = moved = 0
    enum_s = spec_s = oracle_s = 0.0
    for u in range(3, n + 1):
        if u % 4 == 2:
            continue
        orders = _unit_data(u).orders
        t0 = time.perf_counter()
        groups = list(_subgroups(orders))
        enum_s += time.perf_counter() - t0
        for rows in groups:
            t0 = time.perf_counter()
            F = _field_spec(u, rows)
            t1 = time.perf_counter()
            expect = oracle_field_invariants(u, rows)
            t2 = time.perf_counter()
            spec_s += t1 - t0
            oracle_s += t2 - t1
            count += 1
            if (F.degree, F.conductor, F.abs_discriminant) != expect or F.rows != rows:
                mismatches += 1
                print(f"MISMATCH u={u} rows={rows}")
            if _hnf(tuple(map(tuple, rows)), orders) != rows:
                moved += 1
                print(f"NOT CANONICAL u={u} rows={rows}")
    print(
        f"u <= {n}: {count} subgroups, {mismatches} mismatches, "
        f"{moved} not fixed points of _hnf; _subgroups {enum_s:.2f} s, "
        f"_field_spec {spec_s:.2f} s, oracle_field_invariants {oracle_s:.1f} s"
    )
    return 1 if mismatches or moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
