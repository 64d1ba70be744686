"""tempseg benchmark: runs one workload, or all three, each in its own
child process, and prints the result as the last line of stdout.

    python3 perfbench/run.py --workload infer_cli --seed 11 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced pass and the tracing overhead. A readable
report, with failed_frac and (for train_small) train_acc, goes to stderr.
Workloads, metrics and predictions are described in perfbench/README.md.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_small", "infer_long", "infer_cli")
CHILD_TIMEOUT_S = 175


def run_child(workload, args) -> dict | None:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--profile", args.profile]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full",
                   help="tiny: small models and inputs, for the harness self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "tempseg" / "__init__.py").is_file():
        print(f"error: no tempseg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
