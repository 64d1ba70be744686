"""tools/abbench.py: its statistics and its refusal, on fixed inputs,
without running the benchmark."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("abbench", ROOT / "tools" / "abbench.py")
abbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abbench)


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024),
    (0, 10, 2 / 1024),
    (9, 1, 22 / 1024),
    (8, 2, 112 / 1024),
    (5, 5, 1.0),
    (3, 0, 0.25),
    (1, 0, 1.0),
    (0, 0, 1.0),
])
def test_sign_test_p_is_exact(wins, losses, p):
    assert abbench.sign_test_p(wins, losses) == pytest.approx(p, rel=1e-15)


def test_sign_test_p_sums_both_tails():
    # n = 7, a 6-1 split: P(X <= 1) + P(X >= 6) = 2 * (1 + 7) / 128
    assert abbench.sign_test_p(6, 1) == 16 / 128
    assert abbench.sign_test_p(4, 3) == 1.0


def test_quartiles_interpolate_like_numpy_linear():
    assert abbench.quartiles([4, 1, 3, 2, 5]) == (2.0, 4.0)
    assert abbench.quartiles([1, 2, 3, 4]) == (1.75, 3.25)
    assert abbench.quartiles([7.5]) == (7.5, 7.5)


def test_summarize_counts_wins_by_the_better_direction():
    parent = [100.0, 110.0, 90.0, 105.0]
    change = [104.0, 110.0, 95.0, 100.0]
    higher = abbench.summarize("higher", parent, change)
    assert (higher["wins"], higher["losses"], higher["pairs"]) == (2, 1, 4)
    assert higher["parent_median"] == 102.5 and higher["change_median"] == 102.0
    assert higher["ratio"] == 102.0 / 102.5
    assert (higher["parent_q1"], higher["parent_q3"]) == (97.5, 106.25)
    assert higher["p"] == 1.0
    lower = abbench.summarize("lower", parent, change)
    assert (lower["wins"], lower["losses"]) == (1, 2)


def test_summarize_rejects_unpaired_or_unknown_direction():
    with pytest.raises(ValueError, match="pair counts"):
        abbench.summarize("higher", [1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="pair counts"):
        abbench.summarize("higher", [], [])
    with pytest.raises(ValueError, match="better"):
        abbench.summarize("up", [1.0], [2.0])
    assert math.isnan(abbench.summarize("higher", [0.0], [1.0])["ratio"])


def _result(fps, match=1.0, failed=0, attempted=40):
    metrics = {"frames_per_s": fps, "file_s_p50": 1 / fps, "label_match": match}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def test_report_prints_each_metric_and_each_sides_failures():
    metrics = [{"name": "frames_per_s", "unit": "frames/s", "better": "higher"},
               {"name": "file_s_p50", "unit": "s", "better": "lower"},
               {"name": "label_match", "unit": "ratio", "better": "higher"}]
    runs = {"parent": [_result(100.0), _result(98.0), _result(102.0, failed=1)],
            "change": [_result(110.0), _result(108.0, match=0.5), _result(99.0)]}
    lines = abbench.report(metrics, runs)
    assert lines[1].split() == ["frames_per_s", "frames/s", "100", "108", "99", "101",
                                "1.0800", "2/3", "1"]
    assert lines[2].split()[7] == "2/3"
    assert lines[3].split()[7] == "0/3"
    assert lines[4:] == ["parent: lowest label_match 1.0000, failed operations 1 of 120",
                         "change: lowest label_match 0.5000, failed operations 0 of 120"]


def _checkout(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


HARNESS = {"BENCHMARK.json": json.dumps({"run_seconds": 10}),
           "perfbench/run.py": "print(1)\n",
           "perfbench/tests/test_smoke.py": "def test(): pass\n"}


def test_identical_harnesses_show_no_difference(tmp_path):
    a = _checkout(tmp_path / "a", HARNESS)
    b = _checkout(tmp_path / "b", {**HARNESS, "src/tempseg/cli.py": "# differs\n",
                                   "perfbench/__pycache__/run.cpython-311.pyc": "x"})
    assert abbench.harness_differences(a, b) == []


def test_refuses_naming_every_harness_file_that_differs(tmp_path, capsys, monkeypatch):
    a = _checkout(tmp_path / "a", HARNESS)
    b = _checkout(tmp_path / "b", {**HARNESS, "BENCHMARK.json": "{}",
                                   "perfbench/run.py": "print(2)\n",
                                   "perfbench/extra.py": ""})
    (b / "perfbench/tests/test_smoke.py").unlink()
    expected = ["BENCHMARK.json", "perfbench/extra.py", "perfbench/run.py",
                "perfbench/tests/test_smoke.py"]
    assert abbench.harness_differences(a, b) == expected

    monkeypatch.setattr(abbench, "ROOT", b)
    monkeypatch.setattr(abbench, "run_once", lambda *a: pytest.fail("ran the benchmark"))
    bench = {"run_seconds": 10, "workloads": [{"name": "infer_cli"}], "end_to_end": []}
    (b / "BENCHMARK.json").write_text(json.dumps(bench))
    code = abbench.main(["--repo", str(a), "--workload", "infer_cli", "--pairs", "2",
                         "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert all(name in err for name in expected), err
