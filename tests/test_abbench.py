"""tools/abbench.py: its statistics and its refusal, on fixed inputs,
without running the benchmark."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
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


def test_json_record_holds_every_pair_and_both_trees(tmp_path, monkeypatch):
    # a paired run with --json writes one object: the trees, the workload,
    # the seeds and pair count, per metric each pair's values beside the
    # printed summary, per side the lowest label_match and the failures, and
    # the host's CPU count and numpy version
    parent, change = (_checkout(tmp_path / side, HARNESS) for side in ("parent", "change"))
    bench = {"run_seconds": 10, "workloads": [{"name": "infer_long"}],
             "end_to_end": [{"name": "frames_per_s", "unit": "frames/s", "better": "higher"},
                            {"name": "label_match", "unit": "ratio", "better": "higher"}]}
    for root in (parent, change):
        (root / "BENCHMARK.json").write_text(json.dumps(bench))
    results = {(parent, 5): _result(100.0), (change, 5): _result(110.0),
               (parent, 6): _result(102.0, failed=1), (change, 6): _result(101.0, match=0.5)}
    monkeypatch.setattr(abbench, "ROOT", change)
    monkeypatch.setattr(abbench, "run_once", lambda repo, workload, seed, seconds:
                        results[repo, seed])
    out = tmp_path / "BENCH_x_infer_long.json"
    assert abbench.main(["--repo", str(parent), "--workload", "infer_long", "--pairs", "2",
                         "--seed", "5", "--json", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert set(rec) == {"workload", "pairs", "seeds", "run_seconds", "trees", "metrics",
                        "lowest_label_match", "failed_operations", "nproc", "numpy"}
    assert (rec["workload"], rec["pairs"], rec["seeds"], rec["run_seconds"]) == (
        "infer_long", 2, [5, 6], 10)
    # neither checkout is a git tree here
    assert rec["trees"] == {side: {"path": str(root), "commit": None, "dirty": None}
                            for side, root in (("parent", parent), ("change", change))}
    fps = rec["metrics"]["frames_per_s"]
    assert (fps["parent"], fps["change"]) == ([100.0, 102.0], [110.0, 101.0])
    assert fps == {"unit": "frames/s", "better": "higher", "parent": [100.0, 102.0],
                   "change": [110.0, 101.0],
                   **abbench.summarize("higher", [100.0, 102.0], [110.0, 101.0])}
    assert set(fps) >= {"parent_median", "change_median", "parent_q1", "parent_q3", "ratio",
                        "wins", "losses", "pairs", "p"}
    assert rec["lowest_label_match"] == {"parent": 1.0, "change": 0.5}
    assert rec["failed_operations"] == {"parent": {"failed": 1, "attempted": 80},
                                        "change": {"failed": 0, "attempted": 80}}
    assert isinstance(rec["nproc"], int) and rec["nproc"] >= 1
    assert rec["numpy"] == np.__version__


def test_git_tree_names_the_commit_and_whether_tracked_files_moved(tmp_path):
    import subprocess
    repo = _checkout(tmp_path / "repo", {"a.txt": "1\n"})
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "a.txt"], ["commit", "-q", "-m", "a"]):
        subprocess.run(git + args, check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    assert abbench.git_tree(repo) == {"path": str(repo), "commit": head, "dirty": False}
    (repo / "a.txt").write_text("2\n")
    assert abbench.git_tree(repo)["dirty"] is True
