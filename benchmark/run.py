"""cycloclass benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client runs the workload's fixed set of
inputs again and again, one after another (closed loop, one process at a
time, no threads). Each pass is a sample in a fresh interpreter, so every
cache of the package starts cold, as it does for each CLI call. The seed sets
the order of the inputs. Samples are taken until --seconds is used up.

With --trace 0 the last line of standard output is a JSON object with every
end-to-end metric of BENCHMARK.json, each the median over the run's samples,
times at reference speed (see REFERENCE_S).
With --trace 1 it holds every per-layer metric instead: traced and untraced
samples alternate, the per-layer values are medians over the traced ones, and
trace.overhead_s is the difference of the two wall-time medians; the
workload's hang probes also run, each in its own interpreter, and
probe.killed counts those still running when their budget ran out.

Every output is checked. A wrong output, an exception or a crashed sample is
a failed operation. Exits non-zero, printing no result, when the program
cannot be imported or BENCHMARK.json is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from sample import now  # noqa: E402
from workloads import PROBE_BUDGET_S, WORKLOADS  # noqa: E402

# A sample that runs this long is killed and its operations count as failed.
SAMPLE_TIMEOUT_S = 60.0

# Times are reported at reference speed: a sample's seconds are scaled by
# REFERENCE_S over the mean time of the reference loop (reference.py) that it
# ran before and after its inputs. The shared host's speed for this code
# drifts by a third within minutes; the scaling takes most of that out.
REFERENCE_S = 0.1


class HarnessError(Exception):
    """The benchmark cannot measure in this checkout."""


def run_sample(workload: str, order: list[str], traced: bool) -> dict:
    """One pass over `order` in a fresh interpreter: set-up seconds, one entry
    per operation, peak RSS and, when traced, the per-layer metrics."""
    args = [sys.executable, os.path.join(BENCH_DIR, "sample.py"), workload, str(int(traced))]
    spawn = now()
    proc = subprocess.Popen(
        args + order, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = out.splitlines()
    if not lines:
        raise HarnessError(f"sample did not import cycloclass:\n{err.strip()}")
    head = json.loads(lines[0])
    sample = {"setup_s": head["setup_end"] - spawn, "env": head, "complete": True}
    try:
        result = json.loads(lines[1])
    except (IndexError, json.JSONDecodeError):
        sample["complete"] = False
        detail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        result = {
            "ops": [{"input": x, "seconds": 0.0, "error": detail[0]} for x in order],
            "reference_s": [REFERENCE_S],
            "rss_kb": 0,
            "trace": None,
        }
    sample.update(result)
    return sample


def run_probe(argv: list[str]) -> bool:
    """Runs `cycloclass <argv>` in its own interpreter; True if it had to be
    killed at the budget."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycloclass.cli", *argv], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        proc.wait(timeout=PROBE_BUDGET_S)
        return False
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return True


def collect(workload: str, order: list[str], seconds: float, trace: bool) -> list[dict]:
    """Samples until the time is used up: a new sample starts only when one of
    median length still fits. At least one of each kind is taken."""
    start = now()
    samples, lengths = [], []
    while True:
        traced = trace and len(samples) % 2 == 1
        began = now()
        sample = run_sample(workload, order, traced)
        sample["traced"] = traced
        samples.append(sample)
        lengths.append(now() - began)
        enough = len(samples) >= (2 if trace else 1)
        if enough and now() + statistics.median(lengths) > start + seconds:
            return samples


def wall(sample: dict) -> float:
    """Measured seconds of the sample's operations."""
    return sum(op["seconds"] for op in sample["ops"])


def speed(sample: dict) -> float:
    """Factor that scales the sample's measured seconds to reference speed."""
    return REFERENCE_S / statistics.fmean(sample["reference_s"])


def end_to_end(samples: list[dict]) -> dict[str, float]:
    # A crashed sample has no timings; it counts only as failed operations.
    samples = [s for s in samples if s["complete"]] or samples
    med = statistics.median
    return {
        "setup_s": med(s["setup_s"] * speed(s) for s in samples),
        "wall_s": med(wall(s) * speed(s) for s in samples),
        "slowest_op_s": med(max(op["seconds"] for op in s["ops"]) * speed(s) for s in samples),
        "peak_rss_mb": med(s["rss_kb"] / 1024 for s in samples),
    }


def per_layer(samples: list[dict], probes: list[list[str]]) -> dict[str, float]:
    traced = [s for s in samples if s["traced"] and s["trace"]]
    plain = [s for s in samples if not s["traced"]]
    if not traced:
        raise HarnessError("no traced sample finished")

    def value(sample, key):
        v = sample["trace"]["metrics"][key]
        return v * speed(sample) if key.endswith("_s") else v

    out = {
        key: statistics.median(value(s, key) for s in traced)
        for key in traced[0]["trace"]["metrics"]
    }
    out["trace.overhead_s"] = statistics.median(
        wall(s) * speed(s) for s in traced
    ) - statistics.median(wall(s) * speed(s) for s in plain)
    out["probe.killed"] = sum(run_probe(argv) for argv in probes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(ROOT, "src", "cycloclass", "__init__.py")):
            raise HarnessError(f"no cycloclass package under {os.path.join(ROOT, 'src')}")
        order = list(WORKLOADS[args.workload]["inputs"])
        random.Random(args.seed).shuffle(order)
        samples = collect(args.workload, order, args.seconds, bool(args.trace))
        if args.trace:
            declared = spec["per_layer"]
            values = per_layer(samples, WORKLOADS[args.workload]["probes"])
        else:
            declared = spec["end_to_end"]
            values = end_to_end(samples)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise HarnessError(f"metrics not measured: {missing}")
    except (OSError, HarnessError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    ops = [op for s in samples for op in s["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    for op in failed[:5]:
        print(f"failed: {args.workload} {op['input']}: {op['error']}", file=sys.stderr)
    print(json.dumps({
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": samples[0]["env"]["python"],
            "mpmath": samples[0]["env"]["mpmath"],
            "platform": sys.platform,
        },
        "workload": args.workload,
        "seed": args.seed,
        "order": order,
        "samples": len(samples),
        "traced_samples": sum(s["traced"] for s in samples),
        "sample_wall_s": [round(wall(s), 4) for s in samples],
        "sample_setup_s": [round(s["setup_s"], 4) for s in samples],
        "sample_reference_s": [s["reference_s"] for s in samples],
    }))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
