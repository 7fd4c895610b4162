"""Smoke test of the benchmark on the tiny venues: every workload runs,
checks its answers and prints every metric ``BENCHMARK.json`` names,
with its unit, as the last line of standard output.

    python -m pytest perfbench/
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(script: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_metric_catalog_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    try:
        from metrics import END_TO_END, PER_LAYER
    finally:
        sys.path.remove(str(HERE))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(tmp_path, workload, trace):
    proc = _run(HERE / "run.py", tmp_path, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / ".perfbench_work").exists()


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "perfbench" / "run.py", tmp_path, "--workload",
                WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
