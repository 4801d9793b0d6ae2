"""One benchmark sample, run in a fresh interpreter.

    python3 benchmark/sample.py <workload> <trace 0|1> <input>...

Imports cycloclass from the checkout's src/ with every cache cold, as a CLI
call would, runs the inputs one after another in the given order, timing each,
then checks every output. Prints two JSON lines: the set-up line as soon as
the package is imported, and the result line at the end. With trace 1 the
library functions are wrapped (see tracer.py) and the result carries the
per-layer metrics of the sample.

Only os, sys and time are imported at module level: set-up time runs to the
end of the package import, so the harness's own imports come after it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    workload, trace, inputs = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, SRC)
    import cycloclass.cli

    setup_end = now()

    import contextlib
    import hashlib
    import io
    import json
    import math
    import platform
    import resource
    from fractions import Fraction

    import mpmath

    import tracer as tracing
    import workloads
    from reference import reference_seconds

    from cycloclass import abelian, arith, classnum, cli, tables

    if not os.path.abspath(cycloclass.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported cycloclass from {cycloclass.__file__}, not {SRC}")
    print(json.dumps({
        "setup_end": setup_end,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
    }), flush=True)

    def run_cli(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(args)
        return code, buf.getvalue()

    def hminus_norms(u):
        # h-(u) = Q * w * prod of orbit norms, the route relative_class_number
        # takes before it factors the value.
        odd = [ch for ch in abelian.characters(u) if ch.is_odd]
        norms = [classnum.orbit_norm(ob) for ob in abelian.galois_orbits(odd)]
        q = 1 if len(arith.factorize(u).factors) == 1 else 2
        w = 2 * u if u % 2 else u
        return q * w * math.prod(norms, start=Fraction(1))

    operations = {
        "hminus-table": lambda x: classnum.relative_class_number(int(x)),
        "hminus-norms": lambda x: hminus_norms(int(x)),
        "audit-paper": lambda x: run_cli([x, "--format", "structured"]),
        "subfields-lattice": lambda x: run_cli(["subfields", x]),
    }
    operation = operations[workload]

    if trace:
        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
        cache_before = tracing.cache_counts(originals)

    reference = [reference_seconds()]
    ops, outputs = [], []
    for x in inputs:
        error, output = None, None
        start = time.perf_counter()
        try:
            output = operation(x)
        except Exception as exc:  # a failing input is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ops.append({"input": x, "seconds": seconds, "error": error})
        outputs.append(output)
    reference.append(reference_seconds())

    layers = None
    if trace:
        layers = {
            "metrics": tracing.layer_metrics(
                tracer, cache_before, tracing.cache_counts(originals)
            ),
            "edges": tracer.edges(),
            "self_total_s": sum(t for _, t in tracer.self_times().values()),
        }
        tracer.spans.clear()

    # Checks run after the timed loop: loading the dataset primality-tests
    # its primes, which would warm the caches of the h- workload.
    check = checker(workload, tables, workloads)
    for op, output in zip(ops, outputs):
        if op["error"] is None:
            op["error"] = check(op["input"], output)
            op["digest"] = hashlib.sha256(canonical(output).encode()).hexdigest()
    print(json.dumps({
        "ops": ops,
        "reference_s": reference,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": layers,
    }))
    return 0


def canonical(output) -> str:
    """A stable text form of an operation's output, for digests."""
    if hasattr(output, "factorization"):
        return f"{output.modulus} {output.value} {output.factorization.factors}"
    return repr(output)


def subfield_rows(text: str) -> list[str]:
    """The degree, conductor and |disc| columns of a `subfields` listing."""
    return [" ".join(line.split()[:3]) for line in text.splitlines()[2:]]


def checker(workload, tables, workloads):
    """A function (input, output) -> None when correct, else a message."""
    import hashlib
    import json
    import math

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    if workload == "hminus-table":
        dataset = {
            r.modulus: r for r in tables.builtin_paper_dataset() if r.kind == "cyclotomic"
        }

        def check(x, result):
            expected = dataset[int(x)].h_minus
            if result.factorization.factors != expected:
                return f"h-({x}) factors {result.factorization.factors} != {expected}"
            if result.value != math.prod(p**e for p, e in expected):
                return f"h-({x}) value {result.value} does not match its factors"
            return None

    elif workload == "hminus-norms":

        def check(x, h):
            digits, digest = workloads.HMINUS_DIGESTS[x]
            if h.denominator != 1 or len(str(h.numerator)) != digits or sha(str(h)) != digest:
                return f"h-({x}) does not match the recorded value"
            return None

    elif workload == "audit-paper":

        def check(x, output):
            code, text = output
            lines = [json.loads(line) for line in text.splitlines()]
            summary = lines[-1].get("summary", {})
            statuses = [line["status"] for line in lines[:-1]]
            expected = workloads.AUDIT_SUMMARY
            tally = {
                "entries": len(statuses),
                "consistent": statuses.count("CONSISTENT"),
                "inconclusive": statuses.count("INCONCLUSIVE"),
                "violations": statuses.count("VIOLATION"),
            }
            if code != 0:
                return f"verify-paper exited {code}"
            if tally != expected or any(summary.get(k) != v for k, v in expected.items()):
                return f"verdicts {tally}, summary {summary} != {expected}"
            return None

    else:

        def check(x, output):
            code, text = output
            count, digest = workloads.SUBFIELD_DIGESTS[x]
            rows = subfield_rows(text)
            if code != 0:
                return f"subfields {x} exited {code}"
            if not text.startswith(f"subfields of Q(zeta_{x})\n"):
                return f"subfields {x}: unexpected header"
            if len(rows) != count or sha("\n".join(rows)) != digest:
                return f"subfields {x}: {len(rows)} rows not matching the recorded listing"
            return None

    return check


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
