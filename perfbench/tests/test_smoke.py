"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=root, check=False,
    )


def tiny(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--sizes", "tiny"]


def copy_checkout(target: Path, with_sources: bool = True) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, target / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src" / "romik", target / "src" / "romik", ignore=skip)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_named_metric(workload, trace):
    proc = run_bench(ROOT, *tiny(workload, trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONFIG["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line.strip()}
    assert set(declared) <= printed
    assert "fail_ratio" in printed


def test_row_counter_sees_every_rebuild():
    proc = run_bench(ROOT, *tiny("grow-session", 1))
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    # Bounds 20, 25, 30: each step rebuilds its whole table, 30 rows are kept.
    assert metrics["core.s_rows_built"]["value"] == 75
    assert metrics["core.s_rows_useful_ratio"]["value"] == pytest.approx(30 / 75)
    assert metrics["core.build_s_table.calls"]["value"] == 3


def test_digest_gate_trips_on_wrong_expected_digest(tmp_path):
    copy_checkout(tmp_path)
    spec_path = tmp_path / "perfbench" / "spec.json"
    spec = json.loads(spec_path.read_text())
    spec["digests"]["tiny"]["grid5_csv"] = "0" * 64
    spec_path.write_text(json.dumps(spec))
    proc = run_bench(tmp_path, *tiny("cache-warm", 0))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert "grid5_csv" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, *tiny("verify-cold", 0))
    assert proc.returncode == 2
    assert proc.stdout == ""
