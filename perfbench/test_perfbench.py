"""The benchmark's own test, at reduced size.

Every workload must emit every metric BENCHMARK.json names, untraced and
traced, with all outputs correct; and a wrong reference count must show up
as a failed process, for an exact count and for an estimate's reference.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--small"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload, inputs, wrong, failing, per_pass", [
    ("exact-n18", ["d10.txt"], lambda count: count + 1, "exact:dp: count", 1),
    ("estimate-n20", ["g10.txt", "g10.json"], lambda count: count // 10, "estimate:", 3),
])
def test_wrong_expected_count_sets_fail_frac(workload, inputs, wrong, failing, per_pass):
    wl = workloads.build(workload, 5, run.WORK / f"test-wrong-{workload}", small=True)
    for name in inputs:
        wl.expected[name] = wrong(wl.expected[name])
    out = run.measure(wl, seconds=0)
    assert out.failed == per_pass * wl.min_passes
    assert out.metrics["fail_frac"] > 0
    assert all(p.startswith(failing) for p in out.problems)
