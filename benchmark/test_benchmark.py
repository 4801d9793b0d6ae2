"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import sample  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# A small input subset per workload, so that each sample takes about a second.
SMALL = {
    "hminus-table": ["59", "71", "572"],
    "hminus-norms": ["401"],
    "audit-paper": ["verify-paper"],
    "subfields-lattice": ["571"],
}


def test_self_time_is_duration_minus_child_spans():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: [inner(), inner()])
    outer()
    # outer runs from tick 0 to 5; the inner calls cover ticks 1-2 and 3-4.
    assert t.self_times() == {"outer": (1, 3), "inner": (2, 2)}
    assert t.edges() == {"outer>inner": 2}


def test_wrappers_see_nested_library_calls():
    s = run.run_sample("hminus-table", SMALL["hminus-table"], traced=True)
    edges = s["trace"]["edges"]
    assert edges["classnum.relative_class_number>classnum.orbit_norm"] > 0
    assert edges["classnum.orbit_norm>classnum.b1_chi"] > 0
    assert edges["classnum.relative_class_number>arith.factorize"] > 0


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_and_untraced_samples_agree(workload):
    plain = run.run_sample(workload, SMALL[workload], traced=False)
    traced = run.run_sample(workload, SMALL[workload], traced=True)
    for s in (plain, traced):
        assert [op["error"] for op in s["ops"]] == [None] * len(SMALL[workload])
    assert [op["digest"] for op in plain["ops"]] == [op["digest"] for op in traced["ops"]]
    # Self times add up to the time under the outermost spans, which lie
    # inside the timed operations.
    wall = run.wall(traced)
    assert 0.9 * wall < traced["trace"]["self_total_s"] <= wall


def test_checks_reject_wrong_outputs():
    norms = sample.checker("hminus-norms", None, workloads)
    assert norms("401", Fraction(5)) is not None
    subfields = sample.checker("subfields-lattice", None, workloads)
    assert subfields("571", (2, "")) is not None
    assert subfields("571", (0, "subfields of Q(zeta_571)\n")) is not None
    audit = sample.checker("audit-paper", None, workloads)
    summary = {"summary": dict(workloads.AUDIT_SUMMARY, consistent=156)}
    assert audit("verify-paper", (0, json.dumps(summary) + "\n")) is not None


def test_traced_run_reports_every_declared_layer_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "audit-paper",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == declared
    assert result["metrics"]["tables.verdicts.consistent"]["value"] == 157


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "benchmark")
    for name in os.listdir(BENCH_DIR):
        if os.path.isfile(os.path.join(BENCH_DIR, name)):
            shutil.copy(os.path.join(BENCH_DIR, name), tmp_path / "benchmark")
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "hminus-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
