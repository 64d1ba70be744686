"""Per-frame cost of default-config inference as the sequence grows.

Runs fresh Python processes against DIR/src. The first one saves the
default-config model with `save_checkpoint`, so its parameters are float32
and its conv kernels tap-major, as a version-2 checkpoint holds them. Then
one process per length T loads that checkpoint, draws one synthetic
[T, d_in] float32 sequence of standard-normal features, and times one
`infer` call (refined, so it includes boundary detection) and one
`detect_boundaries` call on that call's final-stage boundary scores. It
prints one line per T: `infer` microseconds per frame, the
`detect_boundaries` seconds and their share of the `infer` call, the number
of boundaries kept, and the process's peak RSS after setup (checkpoint and
features) and after the whole run.

    python3 tools/scaling.py
    python3 tools/scaling.py --repo ../parent-checkout --T 2048,8192,32768

The model's parameters and the features come from fixed seeds, so two
checkouts run the same model on the same input.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_T = "2048,8192,32768"
FEATURE_SEED = 5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def _save(ckpt: str):
    """The default-config model as a checkpoint, in its own process."""
    from tempseg.network import ModelConfig, SegmentationModel, save_checkpoint

    model = SegmentationModel(ModelConfig())
    save_checkpoint(ckpt, model.cfg, model.params)


def _worker(T: int, ckpt: str):
    """One length, in a fresh process."""
    from tempseg.network import SegmentationModel, load_checkpoint
    from tempseg.pipeline import infer
    from tempseg.segments import detect_boundaries

    cfg, params, _ = load_checkpoint(ckpt)
    model = SegmentationModel(cfg, params)
    feats = np.random.default_rng(FEATURE_SEED).standard_normal((T, cfg.d_in), np.float32)
    setup_mb = _peak_rss_mb()
    start = time.perf_counter()
    result = infer(model, feats, refine=True)
    infer_s = time.perf_counter() - start
    scores = result.output.stages[-1].boundary_scores.data
    start = time.perf_counter()
    kept = detect_boundaries(scores, cfg.boundary_theta, cfg.boundary_min_distance)
    detect_s = time.perf_counter() - start
    print(f"{T:>7}  {infer_s / T * 1e6:>14.1f}  {detect_s:>8.4f}  {detect_s / infer_s:>6.1%}  "
          f"{len(kept):>10}  {setup_mb:>8.1f}  {_peak_rss_mb():>7.1f}", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", type=Path, default=ROOT, help="checkout to run (default: this one)")
    p.add_argument("--T", default=DEFAULT_T,
                   help=f"comma-separated sequence lengths (default: {DEFAULT_T})")
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    p.add_argument("--ckpt", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        _worker(args.worker, args.ckpt)
        return 0
    if args.ckpt is not None:
        _save(args.ckpt)
        return 0
    try:
        lengths = [int(t) for t in args.T.split(",")]
    except ValueError:
        p.error(f"--T must be comma-separated integers, got {args.T!r}")
    if any(t < 1 for t in lengths):
        p.error(f"every --T must be >= 1, got {args.T!r}")
    src = args.repo.resolve() / "src"
    if not (src / "tempseg").is_dir():
        p.error(f"no package at {src / 'tempseg'}")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    print(f"checking {src / 'tempseg'}", file=sys.stderr, flush=True)
    print(f"{'T':>7}  {'infer_us/frame':>14}  {'detect_s':>8}  {'share':>6}  "
          f"{'boundaries':>10}  {'setup_mb':>8}  {'peak_mb':>7}", flush=True)
    with tempfile.TemporaryDirectory() as work:
        ckpt = os.path.join(work, "default.ckpt")
        runs = [["--ckpt", ckpt]] + [["--worker", str(T), "--ckpt", ckpt] for T in lengths]
        for run in runs:
            code = subprocess.run([sys.executable, __file__, *run], env=env).returncode
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
