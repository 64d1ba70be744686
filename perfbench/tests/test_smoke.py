"""Harness self-test: every workload at tiny sizes emits every metric of
BENCHMARK.json with its unit and fails no operation.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "5", "--seconds", "0",
           "--profile", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, float) and v == v for v in values)


def test_all_workloads_report_end_to_end_metrics():
    proc = _run("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(WORKLOADS)
    for result in results.values():
        _check_result(result, "end_to_end")
        assert result["metrics"]["label_match"]["value"] == 1.0
    assert len(re.findall(r"failed_frac +0 ratio", proc.stderr)) == len(WORKLOADS)
    assert re.search(r"train_acc +[0-9.]+ ratio", proc.stderr)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload):
    proc = _run("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    _check_result(json.loads(proc.stdout.strip().splitlines()[-1]), "per_layer")
    assert "MAC cross-check mismatches" not in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
