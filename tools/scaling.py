"""Per-frame cost of default-config inference, or of a default-config
training step, as the sequence grows.

Runs fresh Python processes against DIR/src. For inference, the first one
saves the default-config model with `save_checkpoint`, so its parameters
are float32 and its conv kernels tap-major, as a version-2 checkpoint
holds them. Then
one process per length T loads that checkpoint, draws one synthetic
[T, d_in] float32 sequence of standard-normal features, and times one
`infer` call (refined, so it includes boundary detection) and one
`detect_boundaries` call on that call's final-stage boundary scores. It
prints one line per T: `infer` microseconds per frame, the
`detect_boundaries` seconds and their share of the `infer` call, the number
of boundaries kept, and the process's peak RSS after setup (checkpoint and
features) and after the whole run.

With --train, one process per length T builds the default-config model
from its seed, draws one synthetic sequence of T frames from
`SynthSpec(n_classes=8, d_features=2048, fps=15, seed=3)` and runs
TRAIN_STEPS training steps on it (forward, `combined_temporal_loss`,
backward and an Adam step at `RunConfig`'s learning rate). It prints one
line per T: the median seconds of the forward plus loss, of the backward
and of Adam, the process's peak RSS, and the MiB that the backward
closures hold after the first step's forward, followed by that figure by
op kind. Each array is counted once, by the base at the bottom of its view
chain, under the first op kind whose closure the walk reaches it from;
parameter arrays, which live without a tape, are left out. The tape grows
with T (about 350 MiB at T = 2048, so about 5.5 GiB at T = 32768), so
--train's lengths default to TRAIN_T rather than the inference lengths.

    python3 tools/scaling.py
    python3 tools/scaling.py --repo ../parent-checkout --T 2048,8192,32768
    python3 tools/scaling.py --train --repo ../parent-checkout

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
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_T = "2048,8192,32768"
FEATURE_SEED = 5
TRAIN_T = "512,2048"
TRAIN_STEPS = 3


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


def _held_arrays(fn):
    """Every array a closure holds, through nested functions, tuples and
    lists."""
    seen, stack = set(), [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, types.FunctionType):
            stack.extend(c.cell_contents for c in v.__closure__ or ())
        elif isinstance(v, (tuple, list)):
            stack.extend(v)


def _tape_bytes(loss, params) -> dict:
    """Bytes the backward closures reachable from `loss` hold, by op kind;
    each base array once, and no parameter's array."""
    counted = {id(p.data) for p in params}
    by_kind, seen, stack = {}, set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._prev:
            continue  # a leaf, or a node already walked
        seen.add(id(node))
        kind = node._backward.__qualname__.split(".<locals>")[0]
        for a in _held_arrays(node._backward):
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in counted:
                counted.add(id(a))
                by_kind[kind] = by_kind.get(kind, 0) + a.nbytes
        stack.extend(node._prev)
    return by_kind


def _train_worker(T: int):
    """TRAIN_STEPS default-config training steps at one length, in a fresh
    process."""
    from tempseg.losses import combined_temporal_loss
    from tempseg.network import ModelConfig, SegmentationModel
    from tempseg.pipeline import RunConfig, SynthSpec, synth_dataset
    from tempseg.seqcore import Adam, Tensor

    spec = SynthSpec(n_classes=8, d_features=2048, fps=15, seed=3)
    [(feats, labels, _)] = synth_dataset(spec, 1, T)
    feats = feats.astype(np.float32)
    model = SegmentationModel(ModelConfig())
    opt = Adam(model.parameters(), lr=RunConfig().lr)
    times, held = [], None
    for _ in range(TRAIN_STEPS):
        start = time.perf_counter()
        out = model.forward(Tensor(feats), training=True)
        loss, _ = combined_temporal_loss(out, labels, model.cfg)
        forward_s = time.perf_counter() - start
        if held is None:
            held = _tape_bytes(loss, model.parameters())
        start = time.perf_counter()
        loss.backward()
        backward_s = time.perf_counter() - start
        start = time.perf_counter()
        opt.step()
        opt.zero_grad()
        times.append((forward_s, backward_s, time.perf_counter() - start))
        del out, loss
    forward_s, backward_s, adam_s = np.median(times, axis=0)
    mib = 1 << 20
    print(f"{T:>7}  {forward_s:>10.3f}  {backward_s:>10.3f}  {adam_s:>6.3f}  "
          f"{_peak_rss_mb():>7.1f}  {sum(held.values()) / mib:>8.1f}", flush=True)
    kinds = sorted(held.items(), key=lambda kv: -kv[1])
    print("         tape MiB by op: " + ", ".join(f"{k} {n / mib:.1f}" for k, n in kinds),
          flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", type=Path, default=ROOT, help="checkout to run (default: this one)")
    p.add_argument("--train", action="store_true",
                   help="time default-config training steps instead of inference")
    p.add_argument("--T", help=f"comma-separated sequence lengths (default: {DEFAULT_T}, "
                               f"or {TRAIN_T} with --train)")
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    p.add_argument("--ckpt", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is not None:
        if args.train:
            _train_worker(args.worker)
        else:
            _worker(args.worker, args.ckpt)
        return 0
    if args.ckpt is not None:
        _save(args.ckpt)
        return 0
    if args.T is None:
        args.T = TRAIN_T if args.train else DEFAULT_T
    try:
        lengths = [int(t) for t in args.T.split(",")]
    except ValueError:
        p.error(f"--T must be comma-separated integers, got {args.T!r}")
    least = 2 if args.train else 1  # the similarity loss pairs consecutive frames
    if any(t < least for t in lengths):
        p.error(f"every --T must be >= {least}, got {args.T!r}")
    src = args.repo.resolve() / "src"
    if not (src / "tempseg").is_dir():
        p.error(f"no package at {src / 'tempseg'}")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    print(f"checking {src / 'tempseg'}", file=sys.stderr, flush=True)
    if args.train:
        print(f"{'T':>7}  {'fwd_loss_s':>10}  {'backward_s':>10}  {'adam_s':>6}  "
              f"{'peak_mb':>7}  {'tape_mib':>8}", flush=True)
        for T in lengths:
            code = subprocess.run([sys.executable, __file__, "--train", "--worker", str(T)],
                                  env=env).returncode
            if code != 0:
                return code
        return 0
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
