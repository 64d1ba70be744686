"""Interleaved timing of `window_attention` in two checkouts, in one process.

Loads src/tempseg/seqcore.py from this checkout and from DIR as two
separate modules (seqcore imports nothing from the package), and times
`window_attention` at the attention calls of the three perfbench
workloads, in float32 as they run: of one forward of the train_small model
at T = 512 and of the default config at T = 2048 (infer_long) and T = 160
(infer_cli), every DSWA call as the row `<workload>.dswa` and every HTA
call as `<workload>.hta` (infer_cli's HTA has one level). Then fixed rows:
`hta5`, `hta8` and `hta10`, one HTA call of 5, 8 and 10 levels at
T = 2048 (A 64, 8 heads, window 8; 5 is the paper's uncapped count at
T = 2048, beyond the default cap of 4), and `crit6_T512` and
`crit6_T4096`, the float64 calls that acceptance criterion 6 times at both
ends of its fit (4 heads, A = 16, layer 4's DSWA windows and
`ScaleSet.build(T)`'s HTA ladder), so one interleaved run shows a change
at both ends. Each row is timed forward only (under the module's
`no_grad`) and forward + backward (through a scalar projection). The two
sides take turns pass by pass, the first side alternating, so host drift
that swamps separate runs cancels. It prints each side's median seconds
per pass and the ratio DIR / this checkout (above 1: this checkout is
faster).

    python3 tools/attnbench.py --repo ../parent-checkout
    python3 tools/attnbench.py --repo ../parent-checkout --reps 12
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tempseg.attention import ScaleSet, build_window_schedule  # noqa: E402
from tempseg.network import ModelConfig  # noqa: E402

SEED = 0  # of the random q, k and v
# (name, model config, T), as perfbench/workloads.py sizes them
WORKLOADS = (
    ("train_small", ModelConfig(n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2,
                                heads=8), 512),
    ("infer_long", ModelConfig(), 2048),
    ("infer_cli", ModelConfig(), 160),
)
# the sequence lengths at the two ends of criterion 6's time-exponent fit
CRIT6_T = (512, 4096)


def load_seqcore(repo: Path, name: str):
    """`repo`'s src/tempseg/seqcore.py as a module called `name`."""
    spec = importlib.util.spec_from_file_location(name, repo / "src" / "tempseg" / "seqcore.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def calls(cfg: ModelConfig, T: int) -> tuple[list, list]:
    """(levels, windows) of the DSWA calls and of the HTA calls of one
    forward: each encoder layer's DSWA pair and its HTA ladder."""
    scales = cfg.scale_set(T)
    dswa = [(1, [(s.one_sided_width, s.step) for s in pair]) for pair in cfg.window_pairs()]
    return dswa, [(scales.levels, [(scales.window, 1)])] * len(dswa)


def rows():
    """(name, heads, A, T, dtype, calls) of every timed row: the
    workloads' DSWA and HTA calls, the long ladders, then criterion 6's two
    ends."""
    for name, cfg, T in WORKLOADS:
        for kind, ops in zip(("dswa", "hta"), calls(cfg, T)):
            yield f"{name}.{kind}", cfg.heads, cfg.attn_dim, T, np.float32, ops
    for levels in (5, 8, 10):
        yield f"hta{levels}", 8, 64, 2048, np.float32, [(levels, [(8, 1)])]
    pair = build_window_schedule(10)[4]  # as tests/test_acceptance.py's criterion 6
    for T in CRIT6_T:
        scales = ScaleSet.build(T)
        dswa = (1, [(s.one_sided_width, s.step) for s in pair])
        yield f"crit6_T{T}", 4, 16, T, np.float64, [dswa, (scales.levels, [(scales.window, 1)])]


def one_pass(sc, heads, ops, arrays, backward: bool) -> float:
    """Seconds for every call in `ops` on module `sc`, forward only or
    forward + backward."""
    start = time.perf_counter()
    for (levels, windows), (q, k, v, g) in zip(ops, arrays):
        if not backward:
            with sc.no_grad():
                sc.window_attention(sc.Tensor(q), sc.Tensor(k), sc.Tensor(v), heads, levels,
                                    windows)
            continue
        xs = [sc.Tensor(a, requires_grad=True) for a in (q, k, v)]
        y = sc.window_attention(*xs, heads, levels, windows)
        loss = sc.linear(y.reshape(1, y.size), sc.Tensor(g), sc.Tensor(np.zeros(1, g.dtype)))
        loss.backward()
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", type=Path, required=True, help="checkout to compare against")
    p.add_argument("--reps", type=int, default=8, help="timed passes per side (default 8)")
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be >= 1")
    sides = (load_seqcore(ROOT, "seqcore_this"), load_seqcore(args.repo.resolve(), "seqcore_other"))
    rng = np.random.default_rng(SEED)
    print(f"{'row':<17} {'pass':<9} {'this s':>9} {'other s':>9} {'other/this':>10}")
    for name, heads, A, T, dtype, ops in rows():
        arrays = [[rng.normal(size=shape).astype(dtype)
                   for shape in ((T, A),) * 3 + ((T * A, 1),)] for _ in ops]
        for backward in (False, True):
            for sc in sides:  # untimed: each side builds what it caches
                one_pass(sc, heads, ops, arrays, backward)
            times = [[], []]
            for rep in range(args.reps):
                order = (0, 1) if rep % 2 == 0 else (1, 0)
                for i in order:
                    times[i].append(one_pass(sides[i], heads, ops, arrays, backward))
            this, other = (float(np.median(t)) for t in times)
            kind = "fwd+bwd" if backward else "fwd"
            print(f"{name:<17} {kind:<9} {this:9.4f} {other:9.4f} {other / this:10.3f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
