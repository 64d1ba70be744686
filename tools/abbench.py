"""Paired benchmark runs of this checkout (the change) against another (the
parent), with a sign test per end-to-end metric.

Each pair runs each tree's own `perfbench/run.py --trace 0` in a fresh
process, on the same seed (pair i uses seed S + i) and for BENCHMARK.json's
`run_seconds`. The side that runs first alternates from pair to pair, so
host drift falls on both sides alike. For every end-to-end metric in
BENCHMARK.json it prints:

- the parent's and the change's median, and the parent's quartiles;
- the ratio of the medians, change / parent;
- the pairs the change wins, by the metric's `better` direction, out of
  all pairs (ties count as neither);
- the exact two-sided sign-test p-value over the pairs that are not tied.

It then prints each side's lowest `label_match` and its failed operations.
With `--json PATH` it also writes all of this to PATH as one JSON object
(see `record`): both trees' commits, the workload, the seeds, the pair
count, `run_seconds`, each metric's pair values and summary, the lowest
`label_match` and the failed operations per side, the host's CPU count
and the numpy version. It refuses to run, exiting 2 and naming the files,
when the two checkouts' `perfbench/` trees or `BENCHMARK.json` differ: then
the two sides would not be measured by one harness. A run that exits
nonzero or prints no result stops the tool with exit code 1.

    python3 tools/abbench.py --repo ../parent-checkout --workload infer_cli --pairs 10 --seed 61
    python3 tools/abbench.py --repo ../parent-checkout --workload infer_long --pairs 10 \
        --seed 61 --json BENCH_change_infer_long.json
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# written by Python or pytest inside perfbench/, not part of the harness
IGNORED_PARTS = ("__pycache__", ".pytest_cache")


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of `wins` against `losses` (ties
    left out): the chance, under a fair coin, of a split at least as
    uneven. 1.0 when there is no untied pair."""
    n, k = wins + losses, min(wins, losses)
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(k + 1))
    return min(1.0, 2 * tail / 2**n)


def quartiles(values) -> tuple[float, float]:
    """First and third quartiles, interpolated between order statistics
    (numpy's default `linear` rule)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(better: str, parent, change) -> dict:
    """Paired statistics of one metric: `parent[i]` and `change[i]` come
    from pair i; `better` is "higher" or "lower"."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonzero pair counts, got {len(parent)} and {len(change)}")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_q1": q1,
        "parent_q3": q3,
        "ratio": change_median / parent_median if parent_median else math.nan,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "p": sign_test_p(wins, losses),
    }


def _harness_files(repo: Path) -> dict[str, bytes]:
    """BENCHMARK.json and every file under perfbench/, by relative path."""
    files = {}
    if (repo / "BENCHMARK.json").is_file():
        files["BENCHMARK.json"] = (repo / "BENCHMARK.json").read_bytes()
    for path in sorted((repo / "perfbench").rglob("*")):
        rel = path.relative_to(repo)
        if path.is_file() and not any(part in IGNORED_PARTS for part in rel.parts):
            files[rel.as_posix()] = path.read_bytes()
    return files


def harness_differences(a: Path, b: Path) -> list[str]:
    """Relative paths of the harness files that differ between checkouts
    `a` and `b`, or that only one of them has."""
    fa, fb = _harness_files(a), _harness_files(b)
    return sorted(name for name in fa.keys() | fb.keys() if fa.get(name) != fb.get(name))


def run_once(repo: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `repo`: its last stdout line."""
    cmd = [sys.executable, str(repo / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=repo, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{repo}: perfbench/run.py --workload {workload} --seed {seed} "
                           f"exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """The printed table and the label-match and failure lines; `runs`
    maps "parent" and "change" to their results in pair order."""
    lines = [f"{'metric':14s} {'unit':9s} {'parent':>11s} {'change':>11s} {'parent q1':>11s} "
             f"{'parent q3':>11s} {'ratio':>7s} {'wins':>6s} {'p':>8s}"]
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs] for side, rs in runs.items()}
        s = summarize(m["better"], values["parent"], values["change"])
        lines.append(
            f"{m['name']:14s} {m['unit']:9s} {s['parent_median']:11.5g} {s['change_median']:11.5g} "
            f"{s['parent_q1']:11.5g} {s['parent_q3']:11.5g} {s['ratio']:7.4f} "
            f"{s['wins']:>3d}/{s['pairs']:<2d} {s['p']:8.4g}")
    for side, rs in runs.items():
        match = min(r["metrics"]["label_match"]["value"] for r in rs)
        failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
        lines.append(f"{side}: lowest label_match {match:.4f}, "
                     f"failed operations {failed} of {attempted}")
    return lines


def git_tree(repo: Path) -> dict:
    """`repo`'s path, its HEAD commit and whether its tracked files differ
    from that commit; commit and dirty are None where `repo` is no git tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(repo), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"path": str(repo), "commit": commit, "dirty": None if commit is None else bool(status)}


def record(bench: dict, workload: str, seeds: list, trees: dict,
           runs: dict[str, list[dict]]) -> dict:
    """The JSON record of one paired run: `trees` maps "parent" and "change"
    to `git_tree` results and `runs` to their results in pair order. Per
    end-to-end metric it holds each side's value per pair and the
    `summarize` statistics; per side the lowest label_match and the failed
    and attempted operations."""
    metrics = {}
    for m in bench["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs] for side, rs in runs.items()}
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], **values,
                              **summarize(m["better"], values["parent"], values["change"])}
    return {
        "workload": workload,
        "pairs": len(seeds),
        "seeds": list(seeds),
        "run_seconds": bench["run_seconds"],
        "trees": trees,
        "metrics": metrics,
        "lowest_label_match": {side: min(r["metrics"]["label_match"]["value"] for r in rs)
                               for side, rs in runs.items()},
        "failed_operations": {side: {"failed": sum(r["failed"] for r in rs),
                                     "attempted": sum(r["attempted"] for r in rs)}
                              for side, rs in runs.items()},
        "nproc": os.cpu_count(),
        "numpy": importlib.metadata.version("numpy"),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repo", type=Path, required=True, help="the parent checkout")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--json", type=Path, metavar="PATH", help="also write the record to PATH")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        p.error("--pairs must be >= 1 and --seed >= 0")
    parent = args.repo.resolve()
    differ = harness_differences(parent, ROOT)
    if differ:
        print(f"error: the benchmark harness differs between {parent} and {ROOT}: "
              f"{', '.join(differ)}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = run_once(parent if side == "parent" else ROOT, args.workload, seed,
                                  seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: frames_per_s "
                  f"{result['metrics']['frames_per_s']['value']:.1f}", file=sys.stderr)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"{seconds} s per run; parent {parent}, change {ROOT}")
    print("\n".join(report(bench["end_to_end"], runs)))
    if args.json:
        seeds = [args.seed + i for i in range(args.pairs)]
        trees = {"parent": git_tree(parent), "change": git_tree(ROOT)}
        args.json.write_text(json.dumps(record(bench, args.workload, seeds, trees, runs),
                                        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
