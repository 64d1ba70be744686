"""Bit-identity digests of the package's outputs, one sha256 line per item.

Runs in a fresh Python process against DIR/src and prints, one line each:

- the acceptance criterion-4 training run: its epoch losses, its final
  training accuracy, the bytes of the checkpoint it writes, and, each on
  its own line, the checkpoint's parameters as loaded (each one's name,
  shape and bytes) and its config text, so a change of the config format
  shows as a config change with identical parameters;
- the train_small benchmark's run: criterion 4's model and data trained
  for 2 epochs with no target accuracy, so the eval pass runs only after
  the last epoch: its epoch losses, final training accuracy and checkpoint
  bytes;
- default-config `infer` on a T = 2048 synthetic sequence for data seeds
  5 and 11: every stage's action logits, every stage's boundary scores,
  the raw labels, the refined labels and the boundaries, and the
  `evaluate_all` report lines of the raw and of the refined labels against
  the sequence's synthetic ground truth;
- `tempseg infer` from a default-config checkpoint written by
  `save_checkpoint`, on a synthetic feature file at T = 64 and at
  T = 256: the four label and segment files it writes and its stdout, so
  a change of the checkpoint format alone leaves these lines as they were;
- every `attention.dswa_forward` and `attention.hta_forward` call of a
  training forward of the train_small benchmark model (T = 512) and of a
  default-config inference forward (T = 2048), each replayed in float32
  and in float64 with a tape: the output and the gradients of the input
  and of every projection parameter, one line per workload, op and dtype;
- one 10-level HTA `window_attention` call at T = 2048 (A 64, 8 heads,
  window 8, fixed random q, k and v), forward and backward with a tape,
  in float32 and in float64: the output and the q, k and v gradients, one
  line per dtype; the default config runs at most 4 levels;
- one default-width TCN block at T = 2048, run through
  `network.tcn_block_forward` with a tape at each dilation in
  TCN_DILATIONS: its output and the gradients of its input and of its four
  parameters, one line per mode and dtype;
- `tempseg inspect-mask` output (stdout and exit code) at a few (T, layer);
- `tempseg flops` output (stdout and exit code) at a few T, for the
  default config and for the train_small benchmark model's config file,
  which the tool writes;
- `combined_temporal_loss` on a fixed float64 three-stage output with a
  saturated frame, at each focal gamma in LOSS_GAMMAS: its value and
  parts on one line, the gradients of every stage's logits, boundary
  scores and features on another.

Two checkouts whose outputs agree bit for bit print the same lines:

    python3 tools/bitcheck.py > change.txt
    python3 tools/bitcheck.py --repo ../parent-checkout > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
INFER_T = 2048
INFER_SEEDS = (5, 11)
CLI_INFER_T = (64, 256)
MASK_CASES = ((64, 2), (37, 0), (300, 9), (1, 4))
FLOPS_T = (1, 37, 512, 2048, 65536)
LOSS_GAMMAS = (0.0, 0.5, 2.0)
# every tap inside the sequence; the outer taps of a quarter of it
TCN_DILATIONS = (4, 512)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            part = a.tobytes()
        h.update(part)
    return h.hexdigest()


def _line(item: str, *parts, note: str = ""):
    print(f"{_digest(*parts)}  {item}" + (f"  ({note})" if note else ""), flush=True)


def _train_lines(item: str, work: Path, **run_kw) -> bytes:
    """Criterion 4's model trained on its 5 sequences of T = 512 (data seed
    11) with a checkpoint: the epoch losses, final training accuracy and
    checkpoint lines under `item`. Returns the checkpoint's bytes."""
    from tempseg.network import ModelConfig
    from tempseg.pipeline import RunConfig, SynthSpec, synth_dataset, train

    model = ModelConfig(n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2, heads=8,
                        temporal_dropout=0.3, seed=0)
    spec = SynthSpec(n_classes=4, durations=((60.0, 15.0),) * 4, d_features=64, seed=11)
    ckpt = work / f"{item}.ckpt"
    result = train(RunConfig(model=model, lr=5e-4, **run_kw), synth_dataset(spec, 5, 512),
                   ckpt_path=ckpt)
    acc = result.final_train_accuracy
    _line(f"{item}.epoch_losses", repr(result.epoch_losses),
          note=f"{len(result.epoch_losses)} epochs")
    _line(f"{item}.accuracy", repr(acc), note=repr(acc))
    data = ckpt.read_bytes()
    _line(f"{item}.checkpoint", data)
    return data


def _criterion4(work: Path):
    """Acceptance criterion 4's training run, configured as its test is."""
    from tempseg.network import load_checkpoint

    data = _train_lines("criterion4", work, max_epochs=120, patience=120, target_accuracy=0.95)
    ckpt = work / "criterion4.ckpt"
    params = load_checkpoint(ckpt)[1]
    _line("criterion4.params", *(part for name in sorted(params)
                                 for part in (name, params[name].data)),
          note=f"{len(params)} parameters")
    # magic, u32 version, u32 length, then the config text
    (n,) = struct.unpack_from("<I", data, 8)
    config = data[12 : 12 + n]
    _line("criterion4.config", config, note=f"{len(config.splitlines())} lines")


def _train_small(work: Path):
    """The train_small benchmark's own run: 2 epochs, no target accuracy."""
    _train_lines("train_small.no_target", work, max_epochs=2)


def _infer_inputs(seed: int):
    """The default-config model and one synthetic T = 2048 sequence's
    features and labels."""
    from tempseg.network import ModelConfig, SegmentationModel
    from tempseg.pipeline import SynthSpec, synth_dataset

    cfg = ModelConfig()
    spec = SynthSpec(n_classes=cfg.n_classes, d_features=cfg.d_in, seed=seed)
    feats, labels, _ = synth_dataset(spec, 1, INFER_T)[0]
    return SegmentationModel(cfg), feats, labels


def _infer():
    """Default-config inference at T = 2048, refined, per data seed."""
    from tempseg.metrics import evaluate_all
    from tempseg.pipeline import infer

    for seed in INFER_SEEDS:
        model, feats, labels = _infer_inputs(seed)
        result = infer(model, feats, refine=True)
        stages = result.output.stages
        item = f"infer.T{INFER_T}.seed{seed}"
        _line(f"{item}.logits", *(s.action_logits.data for s in stages))
        _line(f"{item}.boundary_scores", *(s.boundary_scores.data for s in stages))
        _line(f"{item}.raw_labels", result.raw_labels)
        _line(f"{item}.refined_labels", result.refined_labels)
        _line(f"{item}.boundaries", repr(list(result.boundaries)),
              note=f"{len(result.boundaries)} boundaries")
        for kind in ("raw", "refined"):
            lines = evaluate_all(getattr(result, f"{kind}_labels"), labels).lines()
            _line(f"{item}.{kind}_eval", "\n".join(lines))


def _cli_infer(work: Path):
    """In-process `tempseg infer` from a saved default-config checkpoint,
    per length in CLI_INFER_T."""
    from tempseg import cli
    from tempseg.network import save_checkpoint
    from tempseg.pipeline import save_features

    model, feats, _ = _infer_inputs(INFER_SEEDS[0])
    ckpt = work / "model.ckpt"
    save_checkpoint(ckpt, model.cfg, model.params)
    for T in CLI_INFER_T:
        feat, out_dir = work / f"x{T}.feat", work / f"out{T}"
        save_features(feats[:T], feat)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["infer", "--ckpt", str(ckpt), "--features", str(feat),
                             "--out", str(out_dir)])
        names = sorted(os.listdir(out_dir))
        _line(f"cli.infer.T{T}", *(part for name in names
                                   for part in (name, (out_dir / name).read_bytes())),
              out.getvalue().replace(str(work), "WORK"), f"exit {code}",
              note=f"{len(names)} files")


@contextlib.contextmanager
def _recorded(calls: list):
    """Record the arguments of every dswa_forward and hta_forward call."""
    from tempseg import attention

    saved = attention.dswa_forward, attention.hta_forward

    def wrap(name, fn):
        def recording(x, *rest):
            calls.append((name, x.data.copy(), rest))
            return fn(x, *rest)
        return recording

    attention.dswa_forward = wrap("dswa", saved[0])
    attention.hta_forward = wrap("hta", saved[1])
    try:
        yield
    finally:
        attention.dswa_forward, attention.hta_forward = saved


def _replay(name, x, rest, dtype, seed):
    """The output and the input and parameter gradients of one recorded
    call, replayed with a tape on `x` in `dtype`."""
    from tempseg import attention
    from tempseg.seqcore import Tensor, linear

    *masks, params = rest
    fields = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
    ps = {f: Tensor(np.array(getattr(params, f).data), requires_grad=True) for f in fields}
    params = attention.AttentionParams(**ps, heads=params.heads)
    xt = Tensor(x.astype(dtype), requires_grad=True)
    fn = attention.dswa_forward if name == "dswa" else attention.hta_forward
    y = fn(xt, *masks, params)
    g = np.random.default_rng(seed).normal(size=y.shape).astype(dtype)
    # sum(y * g) as one linear, so y's gradient is exactly g
    linear(y.reshape(1, -1), Tensor(g.reshape(-1, 1)), Tensor(np.zeros(1, dtype))).backward()
    return [y.data, xt.grad] + [ps[f].grad for f in fields]


def _attention_calls():
    """Replays of every attention call of a train_small training forward
    and a default-config inference forward."""
    from tempseg.network import ModelConfig, SegmentationModel
    from tempseg.pipeline import SynthSpec, synth_dataset
    from tempseg.seqcore import Tensor, no_grad

    cfg = ModelConfig(n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2, heads=8,
                      temporal_dropout=0.3)
    spec = SynthSpec(n_classes=4, durations=((60.0, 15.0),) * 4, d_features=64, seed=11)
    feats = synth_dataset(spec, 1, 512)[0][0].astype(np.float32)
    train_calls, infer_calls = [], []
    with _recorded(train_calls):
        SegmentationModel(cfg).forward(Tensor(feats), training=True)
    model, feats, _ = _infer_inputs(INFER_SEEDS[0])
    with _recorded(infer_calls), no_grad():
        model.forward(Tensor(feats.astype(np.float32)), training=False)
    for workload, calls in (("train_small", train_calls), (f"infer_T{INFER_T}", infer_calls)):
        for op in ("dswa", "hta"):
            mine = [(i, c) for i, c in enumerate(calls) if c[0] == op]
            for dtype in (np.float32, np.float64):
                parts = [a for i, (name, x, rest) in mine
                         for a in _replay(name, x, rest, dtype, seed=i)]
                _line(f"attention.{workload}.{op}.{np.dtype(dtype).name}", *parts,
                      note=f"{len(mine)} calls")


def _hta_ladder():
    """A 10-level HTA call at T = INFER_T, per dtype: the output and the
    gradients of q, k and v, for fixed random inputs and output gradient."""
    from tempseg.seqcore import Tensor, linear, window_attention

    levels, heads, A, window = 10, 8, 64, 8
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(levels)
        qkv = [Tensor(rng.normal(size=(INFER_T, A)).astype(dtype), requires_grad=True)
               for _ in range(3)]
        y = window_attention(*qkv, heads, levels, [(window, 1)])
        g = rng.normal(size=y.shape).astype(dtype)
        # sum(y * g) as one linear, so y's gradient is exactly g
        linear(y.reshape(1, -1), Tensor(g.reshape(-1, 1)), Tensor(np.zeros(1, dtype))).backward()
        _line(f"attention.hta{levels}.T{INFER_T}.{np.dtype(dtype).name}", y.data,
              *(x.grad for x in qkv), note=f"A {A}, {heads} heads, window {window}")


def _tcn():
    """A default-config TCN block at T = INFER_T and each dilation in
    TCN_DILATIONS, per mode and dtype: the input in that dtype, the
    parameters float64 as `train` keeps them, and the output's gradient a
    fixed random array."""
    from tempseg.network import ModelConfig, tcn_block_forward
    from tempseg.seqcore import Tensor, linear

    cfg = ModelConfig()
    d, k = cfg.d_model, cfg.kernel_size
    shapes = ((d, d, k), (d,), (d, d, 1), (d,))
    scales = (1 / np.sqrt(d * k), 0.1, 1 / np.sqrt(d), 0.1)
    for mode in ("acausal", "causal"):
        for dtype in (np.float32, np.float64):
            parts = []
            for dilation in TCN_DILATIONS:
                rng = np.random.default_rng(dilation)
                x = Tensor(rng.normal(size=(INFER_T, d)).astype(dtype), requires_grad=True)
                ps = [Tensor(rng.normal(size=s) * c, requires_grad=True)
                      for s, c in zip(shapes, scales)]
                y = tcn_block_forward(x, *ps, dilation=dilation, mode=mode)
                g = rng.normal(size=y.shape).astype(dtype)
                # sum(y * g) as one linear, so y's gradient is exactly g
                linear(y.reshape(1, -1), Tensor(g.reshape(-1, 1)),
                       Tensor(np.zeros(1, dtype))).backward()
                parts += [y.data, x.grad, *(p.grad for p in ps)]
            _line(f"tcn.{mode}.{np.dtype(dtype).name}", *parts,
                  note=f"dilations {', '.join(map(str, TCN_DILATIONS))}")


def _inspect_mask():
    from tempseg import cli

    for T, layer in MASK_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["inspect-mask", "--T", str(T), "--layer", str(layer)])
        _line(f"inspect_mask.T{T}.layer{layer}", out.getvalue(), f"exit {code}")


# the train_small benchmark model as a config file, for `tempseg flops --config`
TRAIN_SMALL_CONFIG = """[model]
n_classes = 4
d_in = 64
d_model = 64
n_blocks = 4
n_decoders = 2
heads = 8
temporal_dropout = 0.3
"""


def _flops(work: Path):
    """`tempseg flops` at each T in FLOPS_T for the default config, then for
    the train_small config file."""
    from tempseg import cli

    config = work / "train_small.cfg"
    config.write_text(TRAIN_SMALL_CONFIG)
    for item, extra in (("flops", []), ("flops.train_small", ["--config", str(config)])):
        for T in FLOPS_T:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["flops", "--T", str(T), *extra])
            _line(f"{item}.T{T}", out.getvalue(), f"exit {code}")


def _loss_case(gamma: float):
    """The loss value, its parts in name order and the gradients of each
    stage's logits, boundary scores and features, on a fixed float64
    three-stage output of T = 64 frames, 5 classes and 16 features."""
    from tempseg.losses import combined_temporal_loss
    from tempseg.network import ModelConfig, ModelOutput, StagePrediction
    from tempseg.seqcore import Tensor

    rng = np.random.default_rng(22)
    labels = np.repeat([3, 0, 4, 1, 0, 2], [9, 14, 6, 17, 11, 7])
    stages = []
    for _ in range(3):
        logits = rng.normal(size=(64, 5)) * 3.0
        logits[20, 0] = 60.0  # a saturated frame at its label
        stages.append(StagePrediction(Tensor(logits, requires_grad=True),
                                      Tensor(rng.uniform(0, 1, 64), requires_grad=True),
                                      Tensor(rng.normal(size=(64, 16)), requires_grad=True)))
    cfg = ModelConfig(n_classes=5, focal_gamma=gamma)
    loss, parts = combined_temporal_loss(ModelOutput(stages), labels, cfg)
    loss.backward()
    grads = [t.grad for s in stages for t in (s.action_logits, s.boundary_scores, s.features)]
    return loss.data, np.array([parts[k] for k in sorted(parts)]), grads


def _loss():
    for gamma in LOSS_GAMMAS:
        value, parts, grads = _loss_case(gamma)
        _line(f"loss.focal_gamma{gamma}.value", value, parts, note=repr(float(value)))
        _line(f"loss.focal_gamma{gamma}.grads", *grads)


def _worker():
    """Every item, in the fresh process. Each function imports tempseg
    itself, so only this process, whose PYTHONPATH points at the checkout
    under test, ever imports it."""
    import tempseg

    print(f"checking {Path(tempseg.__file__).parent}", file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory() as work:
        _criterion4(Path(work))
        _train_small(Path(work))
    _infer()
    with tempfile.TemporaryDirectory() as work:
        _cli_infer(Path(work))
    _attention_calls()
    _hta_ladder()
    _tcn()
    _inspect_mask()
    with tempfile.TemporaryDirectory() as work:
        _flops(Path(work))
    _loss()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repo", type=Path, default=ROOT, help="checkout to check (default: this one)")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        _worker()
        return 0
    src = args.repo.resolve() / "src"
    if not (src / "tempseg").is_dir():
        p.error(f"no package at {src / 'tempseg'}")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, __file__, "--worker"], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
