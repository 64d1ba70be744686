"""Command line interface.

Exit codes: 0 success, 2 validation error (bad inputs/files/arguments),
1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import attention, pipeline
from .binio import replacing
from .metrics import DEFAULT_THRESHOLDS, evaluate_all
from .network import ModelConfig, SegmentationModel, count_params_flops, load_checkpoint
from .segments import frames_to_segments, refine_prediction, save_segment_file


def _at_least_one(**flags):
    """ValueError naming the first flag whose value is below 1."""
    for flag, value in flags.items():
        if value < 1:
            raise ValueError(f"--{flag} must be >= 1, got {value}")


def _cmd_synth(args):
    _at_least_one(n=args.n, frames=args.frames)
    spec = pipeline.load_synth_spec(args.spec) if args.spec else pipeline.SynthSpec()
    os.makedirs(args.out, exist_ok=True)
    data = pipeline.synth_dataset(spec, args.n, args.frames)
    for i, (feats, labels, segs) in enumerate(data):
        stem = os.path.join(args.out, f"seq_{i:03d}")
        pipeline.save_features(feats, stem + ".feat")
        pipeline.save_labels(labels, stem + ".labels")
        save_segment_file(stem + ".segments", segs)
    print(f"wrote {len(data)} sequences of {args.frames} frames to {args.out}")


def _load_dataset(data_dir, n_classes: int):
    """(features, labels, .feat path) of every .feat/.labels pair in
    data_dir, in name order."""
    stems = sorted(
        f[: -len(".feat")] for f in os.listdir(data_dir) if f.endswith(".feat")
    )
    if not stems:
        raise ValueError(f"no .feat files in {data_dir}")
    dataset, first = [], os.path.join(data_dir, stems[0] + ".feat")
    for stem in stems:
        feat_path = os.path.join(data_dir, stem + ".feat")
        feats = pipeline.load_features(feat_path)
        if feats.shape[0] < 2:
            raise ValueError(
                f"{feat_path}: training needs at least 2 frames, found {feats.shape[0]}")
        if dataset and feats.shape[1] != dataset[0][0].shape[1]:
            raise ValueError(f"{feat_path}: {feats.shape[1]} feature columns, "
                             f"but {first} has {dataset[0][0].shape[1]}")
        label_path = os.path.join(data_dir, stem + ".labels")
        labels = pipeline.load_labels(label_path)
        if labels.max() >= n_classes:
            raise ValueError(
                f"{label_path}: label {labels.max()} is not below n_classes = {n_classes}"
            )
        if feats.shape[0] != labels.size:
            raise ValueError(f"{stem}: {feats.shape[0]} frames but {labels.size} labels")
        dataset.append((feats, labels, feat_path))
    return dataset


def _cmd_train(args):
    run = pipeline.load_run_config(args.config) if args.config else pipeline.RunConfig()
    # checked first: the first checkpoint is written only after epoch 1
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out {args.out}: its directory does not exist")
    dataset = _load_dataset(args.data, run.model.n_classes)
    d_in = dataset[0][0].shape[1]
    if run.model.d_in != d_in:
        raise ValueError(
            f"{args.data}: {d_in} feature columns, but the config's d_in is {run.model.d_in}")
    try:
        result = pipeline.train(run, dataset, ckpt_path=args.out, log_fn=print)
    except pipeline.TrainingError as exc:
        raise pipeline.TrainingError(f"{dataset[exc.sequence][2]}: {exc}", exc.sequence) from None
    print(f"best epoch {result.best_epoch} loss {result.best_loss:.6f} "
          f"train_acc {result.final_train_accuracy:.4f}")


def _cmd_infer(args):
    cfg, params, _ = load_checkpoint(args.ckpt)
    model = SegmentationModel(cfg, params)
    feats = pipeline.load_features(args.features)
    if feats.shape[1] != cfg.d_in:
        raise ValueError(f"{args.features}: {feats.shape[1]} feature columns, "
                         f"but {args.ckpt} has d_in {cfg.d_in}")
    try:
        result = pipeline.infer(model, feats, refine=not args.no_refine)
    except ValueError as exc:
        source = args.ckpt if isinstance(exc, pipeline.ParameterError) else args.features
        raise ValueError(f"{source}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, os.path.splitext(os.path.basename(args.features))[0])
    pipeline.save_labels(result.raw_labels, stem + ".raw.labels")
    save_segment_file(stem + ".raw.segments", frames_to_segments(result.raw_labels))
    pipeline.save_labels(result.refined_labels, stem + ".refined.labels")
    save_segment_file(stem + ".refined.segments", frames_to_segments(result.refined_labels))
    print(f"{len(result.boundaries)} boundaries detected; outputs under {stem}.*")


def _thresholds(text: str) -> tuple:
    """The --thresholds value: comma-separated numbers, each in (0, 1)."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--thresholds: expected comma-separated numbers, got {text!r}") from None
    bad = [v for v in values if not 0.0 < v < 1.0]
    if bad:
        raise ValueError(f"--thresholds: {bad[0]} is not in (0, 1)")
    return values


def _cmd_eval(args):
    thresholds = _thresholds(args.thresholds)
    pred = pipeline.load_labels(args.pred)
    gt = pipeline.load_labels(args.gt)
    if pred.size != gt.size:
        raise ValueError(f"{args.pred} has {pred.size} labels, but {args.gt} has {gt.size}")
    report = evaluate_all(pred, gt, thresholds)
    for line in report.lines(x100=args.x100):
        print(line)
    if args.report:
        with replacing(args.report, "w") as f:
            f.write("\n".join(report.lines(x100=args.x100)) + "\n")


def _cmd_refine(args):
    probs = pipeline.load_features(args.probs).astype(np.float64)
    bounds = []
    for ln, line in enumerate(pipeline.read_lines(args.boundaries), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            bounds.append(pipeline.parse_int(line))
        except ValueError:
            raise ValueError(
                f"{args.boundaries}:{ln}: not an integer frame index: {line!r}"
            ) from None
    try:
        labels = refine_prediction(probs, bounds)
    except ValueError as exc:
        raise ValueError(f"{args.boundaries}: {exc}") from None
    for v in labels:
        print(v)


def _cmd_inspect_mask(args):
    _at_least_one(T=args.T)
    cfg = _read_model(args.config) if args.config else ModelConfig()
    pairs = cfg.window_pairs()
    if not 0 <= args.layer < len(pairs):
        raise ValueError(f"layer must be in [0, {len(pairs)}), got {args.layer}")
    for role, spec in zip(("expanding", "shrinking"), pairs[args.layer]):
        mask = attention.build_sparse_mask(args.T, spec)
        print(f"# {role}: width {spec.one_sided_width}, rate {spec.dilation_rate}, "
              f"pairs {attention.attended_pairs_count(mask)}")
        for q in range(args.T):  # one query at a time: no per-sequence array
            keys = q + spec.offsets
            print(f"{q}: {' '.join(str(k) for k in keys[(keys >= 0) & (keys < args.T)])}")


def _read_model(path) -> ModelConfig:
    return pipeline.load_run_config(path).model


def _cmd_flops(args):
    _at_least_one(T=args.T)
    cfg = _read_model(args.config) if args.config else ModelConfig()
    n_params, macs = count_params_flops(cfg, args.T)
    print(f"parameters = {n_params} ({n_params / 1e6:.4f} M)")
    print(f"macs = {macs} ({macs / 1e9:.4f} G at T={args.T})")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tempseg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    s.add_argument("--spec", help="synth spec file ([synth] section)")
    s.add_argument("--out", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--frames", type=int, required=True)
    s.set_defaults(fn=_cmd_synth)

    s = sub.add_parser("train", help="train on a directory of .feat/.labels pairs")
    s.add_argument("--config", help="run config file ([model]/[train] sections)")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True, help="checkpoint path")
    s.set_defaults(fn=_cmd_train)

    s = sub.add_parser("infer", help="run a checkpoint over a feature file")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--features", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--no-refine", action="store_true")
    s.set_defaults(fn=_cmd_infer)

    s = sub.add_parser("eval", help="score predicted labels against ground truth")
    s.add_argument("--pred", required=True)
    s.add_argument("--gt", required=True)
    s.add_argument("--thresholds", default=",".join(str(t) for t in DEFAULT_THRESHOLDS))
    s.add_argument("--x100", action="store_true", help="report scores scaled by 100")
    s.add_argument("--report", help="also write a metric=value file")
    s.set_defaults(fn=_cmd_eval)

    s = sub.add_parser("refine", help="center-weighted relabel of probability tracks")
    s.add_argument("--probs", required=True, help="probabilities as a feature file [T, C]")
    s.add_argument("--boundaries", required=True, help="text file, one frame index per line")
    s.set_defaults(fn=_cmd_refine)

    s = sub.add_parser("inspect-mask", help="dump a layer's sparse masks as text")
    s.add_argument("--T", type=int, required=True)
    s.add_argument("--layer", type=int, required=True)
    s.add_argument("--config")
    s.set_defaults(fn=_cmd_inspect_mask)

    s = sub.add_parser("flops", help="parameter and multiply-accumulate counts")
    s.add_argument("--config")
    s.add_argument("--T", type=int, default=2048)
    s.set_defaults(fn=_cmd_flops)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process, built at the first.
    `parse_args` returns a new namespace each call and leaves the parser as
    it was, so repeated in-process calls (tests, scripts, benchmarks) pay
    only their per-file work."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "".join(f"{n}: " for n in (exc.filename, exc.filename2) if n is not None)
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except pipeline.TrainingError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
