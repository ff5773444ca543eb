"""Smoke test of the benchmark at its smallest size.

Run from the root of a checkout: python3 -m pytest -q bench/test_smoke.py
(about three minutes).  Each workload runs untraced once and traced twice: every
metric of BENCHMARK.json must be printed with its unit, no operation may
fail, and the traced counts must repeat exactly.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_UNITS = ("count", "B")

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402


def bench(workload, trace):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_metrics(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    assert_metrics(bench(workload, 0), SPEC["end_to_end"])
    first, second = bench(workload, 1), bench(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}


def test_check_rejects_perturbed_reference():
    cases = check.load_reference()
    ref = cases["ei-validate/smoke"]
    assert check.compare(ref, ref) == ([], True)
    for key, bump in (
        ("period", lambda r: r.__setitem__("period", r["period"] * (1 + 1e-7))),
        ("exponents", lambda r: r["exponents"][1].__setitem__(0, r["exponents"][1][0] + 1e-6)),
        ("classes", lambda r: r["classes"].reverse()),
        ("manifold_order", lambda r: r.__setitem__("manifold_order", r["manifold_order"] + 1)),
        ("domain", lambda r: r["domain_min_width"].update({k: 2 * v for k, v in r["domain_min_width"].items()})),
    ):
        perturbed = copy.deepcopy(ref)
        bump(perturbed)
        failures, _ = check.compare(ref, perturbed)
        assert failures, key
    perturbed = copy.deepcopy(ref)
    perturbed["coefficients"] = dict.fromkeys(ref["coefficients"], "0")
    assert check.compare(ref, perturbed) == ([], False)
