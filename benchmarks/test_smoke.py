"""Smoke test of the benchmark harness itself (not part of the tier-1 suite).

    python -m pytest -q benchmarks/test_smoke.py

Runs one tiny pass of each workload, untraced and traced, and checks that
the last line is the result object, that every metric BENCHMARK.json names
is emitted with its unit, and that the correctness gates ran and passed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert f"metric {name} = " in proc.stdout

    gates = re.findall(r"^gate (\S+): (\d+) checked, (\d+) failed", proc.stdout, re.M)
    assert gates, "no correctness gate ran"
    assert all(int(checked) >= 1 for _, checked, _ in gates)
    assert "metric failed_share = " in proc.stdout
    assert "machine blas_threads_runtime: " in proc.stdout


def test_refuses_without_sources(tmp_path):
    """With only the benchmark present, the harness fails without a result."""
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for source in (ROOT / "benchmarks").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
