"""Span tracer for one benchmark sample.

The tracer wraps public cycloclass functions in every module namespace that
binds them, so calls made inside the library (relative_class_number ->
orbit_norm, audit_records -> theorem2_audit -> descent_subfield) are captured
as well as calls made by the benchmark. It changes no program file: the
wrappers are installed at run time into one fresh interpreter and die with it.

Each call is one span: (name, parent span, start, end). A span's self time is
its duration minus the durations of its direct child spans, so the self times
of all spans add up to the time spent under the outermost spans.
"""

from __future__ import annotations

import sys
import time

# (span name, module of cycloclass, functions that report under that name)
SPANS = (
    ("arith.factorize", "arith", ("factorize",)),
    ("arith.is_prime", "arith", ("is_prime",)),
    ("classnum.relative_class_number", "classnum", ("relative_class_number",)),
    ("classnum.orbit_norm", "classnum", ("orbit_norm",)),
    ("classnum.b1_chi", "classnum", ("b1_chi",)),
    ("abelian.characters", "abelian", ("characters",)),
    ("abelian.galois_orbits", "abelian", ("galois_orbits",)),
    (
        "abelian.field_spec",
        "abelian",
        ("cyclotomic_field_spec", "real_cyclotomic_field_spec", "cyclic_subfield_spec"),
    ),
    ("abelian.descent_subfield", "abelian", ("descent_subfield",)),
    ("abelian.subfields", "abelian", ("subfields",)),
    ("bounds.class_number_bound", "bounds", ("class_number_bound",)),
    ("congruence.theorem1_audit", "congruence", ("theorem1_audit",)),
    ("congruence.theorem2_audit", "congruence", ("theorem2_audit",)),
    ("congruence.corollary1_verdict", "congruence", ("corollary1_verdict",)),
    ("tables.parse_records", "tables", ("parse_records",)),
    ("tables.audit_records", "tables", ("audit_records",)),
    ("cli.main", "cli", ("main",)),
)

# Spans whose function is an lru_cache; their hit ratio comes from cache_info().
CACHED = ("arith.factorize", "abelian.descent_subfield", "bounds.class_number_bound")


def _maximum(key, value_of):
    def observe(counters, args, result):
        counters[key] = max(counters.get(key, 0), value_of(args, result))

    return observe


def _total(key, value_of):
    def observe(counters, args, result):
        counters[key] = counters.get(key, 0) + value_of(args, result)

    return observe


def _verdicts(counters, args, result):
    for status, n in result.counts.items():
        key = f"tables.verdicts.{status.lower()}"
        counters[key] = counters.get(key, 0) + n


# Work counters, read from the arguments or the result of a span's call.
OBSERVERS = {
    "arith.factorize": _maximum("arith.factorize.max_bits", lambda a, r: a[0].bit_length()),
    "classnum.orbit_norm": _maximum("classnum.orbit_norm.max_order", lambda a, r: a[0].order),
    "abelian.characters": _total("abelian.characters.built", lambda a, r: len(r)),
    "abelian.galois_orbits": _total("abelian.galois_orbits.orbits", lambda a, r: len(r)),
    "abelian.subfields": _total("abelian.subfields.fields", lambda a, r: len(r)),
    "bounds.class_number_bound": _maximum(
        "bounds.class_number_bound.max_precision_bits", lambda a, r: r.precision_bits
    ),
    "tables.audit_records": _verdicts,
}

# Counters that read 0 when their function is never called.
COUNTERS = (
    "arith.factorize.max_bits",
    "classnum.orbit_norm.max_order",
    "abelian.characters.built",
    "abelian.galois_orbits.orbits",
    "abelian.subfields.fields",
    "bounds.class_number_bound.max_precision_bits",
    "tables.verdicts.consistent",
    "tables.verdicts.inconclusive",
    "tables.verdicts.violation",
)


class Tracer:
    """Records one span per wrapped call and the counters its observer reads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds), over finished spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            if end is not None:
                calls, total = out.get(name, (0, 0.0))
                out[name] = (calls + 1, total + (end - start - inner))
        return out

    def edges(self) -> dict[str, int]:
        """'parent>child' span-name pairs -> number of calls on that edge."""
        out: dict[str, int] = {}
        for name, parent, _, _ in self.spans:
            if parent >= 0:
                key = f"{self.spans[parent][0]}>{name}"
                out[key] = out.get(key, 0) + 1
        return out


def install(tracer: Tracer) -> dict:
    """Wrap each function of SPANS in every loaded cycloclass module that
    binds it. Returns span name -> one original function (for cache_info)."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "cycloclass" or n.startswith("cycloclass."))
    ]
    originals = {}
    for name, module, attrs in SPANS:
        for attr in attrs:
            fn = getattr(sys.modules[f"cycloclass.{module}"], attr)
            originals.setdefault(name, fn)
            traced = tracer.wrap(name, fn, OBSERVERS.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
    return originals


def cache_counts(originals: dict) -> dict[str, tuple[int, int]]:
    """Span name -> (hits, misses) of the cached functions."""
    return {name: tuple(originals[name].cache_info()[:2]) for name in CACHED}


def layer_metrics(tracer: Tracer, cache_before: dict, cache_after: dict) -> dict:
    """Every per-layer metric of one traced sample: calls and self seconds per
    span name, work counters, and cache hit ratios over the sample."""
    out: dict[str, float] = {}
    times = tracer.self_times()
    for name, _, _ in SPANS:
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0)
    for name in CACHED:
        hits = cache_after[name][0] - cache_before[name][0]
        lookups = hits + cache_after[name][1] - cache_before[name][1]
        out[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
    return out
