"""Acceptance criterion 6's attention time exponent over fresh processes.

Runs tests/test_acceptance.py::test_criterion_6_sparsity_and_scaling in N
fresh pytest processes, one after another, reads the `time exponent` each
run prints, and reports the median, the interquartile range and how many
runs read 1.3 or more (the criterion's bound). The timing loop is the
test's own, so there is one copy of it.

    python3 tools/criterion6.py --runs 20
    python3 tools/criterion6.py --runs 1 --repo ../other-checkout
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TEST = "tests/test_acceptance.py::test_criterion_6_sparsity_and_scaling"
BOUND = 1.3


def exponent(repo: Path) -> float:
    """The time exponent one fresh pytest process prints for `repo`."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(repo / "src") + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", TEST],
                         cwd=repo, env=env, capture_output=True, text=True)
    found = re.search(r"time exponent (-?\d+(?:\.\d+)?)", run.stdout)
    if found is None:
        sys.exit(f"no time exponent in the output of {TEST}:\n{run.stdout}{run.stderr}")
    return float(found.group(1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, required=True, help="fresh pytest processes to run")
    p.add_argument("--repo", type=Path, default=ROOT, help="checkout to test (default: this one)")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be >= 1")
    values = []
    for i in range(args.runs):
        values.append(exponent(args.repo.resolve()))
        print(f"run {i + 1}: time exponent {values[-1]:.2f}", flush=True)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    over = sum(v >= BOUND for v in values)
    print(f"median {median:.3f}, IQR {q3 - q1:.3f} [{q1:.3f}, {q3:.3f}], "
          f"{over} of {len(values)} runs >= {BOUND}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
