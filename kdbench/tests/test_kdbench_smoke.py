"""Smoke test of the benchmark at tiny size: every metric is printed with its
unit, both in the human-readable lines and in the final JSON line, and no
job fails.

    python -m pytest -q kdbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_spec_names_every_metric_and_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[1] for line in lines if " = " in line}
    assert printed["failed_share"] == "share"
    assert "failed_share = 0 share" in lines
    for name, unit in units.items():
        assert printed[name] == unit
    record = json.loads(next(line for line in lines if line.startswith("run_record "))[11:])
    assert record["wall_clock_percentiles"]["samples"] == record["jobs"]
