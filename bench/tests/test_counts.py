"""Determinism of the benchmark's counts, and agreement with BENCHMARK.json.

Run from the repository root: ``python3 -m pytest bench/tests -q``. The
count test runs each workload traced, twice, for about a minute in total.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import run  # noqa: E402


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return info, result


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    counted = [name for name, unit in layers.metric_units().items() if unit != "s"]
    runs = [_run(workload, 7, trace=1) for _ in range(2)]
    for info, result in runs:
        assert result["correct"] and result["failed"] == 0, info["failures"]
        assert set(result["metrics"]) == set(layers.metric_units())
    (info_a, a), (info_b, b) = runs
    assert {n: a["metrics"][n]["value"] for n in counted} == {
        n: b["metrics"][n]["value"] for n in counted}
    assert info_a["outputs_sha256"] == info_b["outputs_sha256"]
