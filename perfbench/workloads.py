"""One benchmark workload, run in its own process so that its peak RSS is
its own: repeated set-up, a canary pass that doubles as warm-up, a timed
closed loop (one client, the next operation starts when the last one ends),
output checks and metrics.

    python3 perfbench/workloads.py --workload infer_cli --seed 11 --seconds 10 --trace 0 --profile full

run.py starts this script; it prints a readable report on stderr and one
JSON result as the last line of stdout.

The canary is a small copy of the workload whose inputs always come from
DEFAULT_SEED, whatever --seed is. Its refined labels are compared with
reference.json (recorded by record_reference.py), which gives label_match
on every seed. It runs before timing, so it is also the warm-up: the first
tape-mode call pays fresh page faults that later calls do not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tempseg import cli, network, pipeline  # noqa: E402
from tempseg.network import ModelConfig, SegmentationModel  # noqa: E402
from tempseg.pipeline import RunConfig, SynthSpec  # noqa: E402
from tempseg.seqcore import Tensor  # noqa: E402

import tracing  # noqa: E402

DEFAULT_SEED = 11  # the data seed of acceptance criterion 4
SETUP_REPEATS = 5
LABEL_MATCH_MIN = 0.99
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# name -> unit of every end-to-end metric, in report order
E2E_METRICS = {
    "frames_per_s": "frames/s",
    "file_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "label_match": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; `full` is the benchmark, `tiny` the harness self-test."""

    train_model: ModelConfig
    train_seqs: int
    train_T: int
    canary_train_seqs: int
    infer_model: ModelConfig
    long_T: int
    canary_long_T: int
    cli_files: int
    cli_T: tuple  # (shortest, longest) file length


PROFILES = {
    "full": Sizes(
        train_model=ModelConfig(n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2,
                                heads=8, temporal_dropout=0.3),
        train_seqs=5, train_T=512, canary_train_seqs=2,
        infer_model=ModelConfig(), long_T=2048, canary_long_T=512,
        cli_files=8, cli_T=(64, 256),
    ),
    "tiny": Sizes(
        train_model=ModelConfig(n_classes=4, d_in=16, d_model=16, n_blocks=2, n_decoders=1,
                                heads=4, temporal_dropout=0.3),
        train_seqs=2, train_T=64, canary_train_seqs=1,
        infer_model=ModelConfig(d_in=32, d_model=32, n_blocks=3, n_decoders=1, heads=4,
                                w_max=64),
        long_T=192, canary_long_T=96,
        cli_files=3, cli_T=(24, 64),
    ),
}
TRAIN_EPOCHS = 2


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _check_labels(labels, T, n_classes, what):
    labels = np.asarray(labels)
    if labels.shape != (T,):
        raise CheckFailed(f"{what}: {labels.shape} labels for {T} frames")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise CheckFailed(f"{what}: label out of range [0, {n_classes})")


def _check_inference(result, T, n_classes, what):
    for j, stage in enumerate(result.output.stages):
        if not (np.isfinite(stage.action_logits.data).all()
                and np.isfinite(stage.boundary_scores.data).all()):
            raise CheckFailed(f"{what}: non-finite output in stage {j}")
    _check_labels(result.refined_labels, T, n_classes, what)


def _frozen(params: dict) -> dict:
    return {k: Tensor(v.data) for k, v in params.items()}


def _read_label_file(path) -> np.ndarray:
    with open(path) as f:
        return np.array([int(line) for line in f if line.strip()], dtype=np.int64)


# -- workloads -------------------------------------------------------------


class TrainSmall:
    """Criterion-4 model, 5 sequences of T = 512, exactly 2 epochs with a
    checkpoint path: forward, loss, backward, Adam and checkpoint writes."""

    name = "train_small"
    warmup_passes = 0

    def __init__(self, sizes: Sizes, work: Path):
        self.sizes, self.work = sizes, work
        self.run_cfg = RunConfig(model=sizes.train_model, lr=5e-4, max_epochs=TRAIN_EPOCHS,
                                 target_accuracy=0.0)
        self.train_acc = float("nan")

    def _data(self, seed, n):
        cfg = self.sizes.train_model
        spec = SynthSpec(n_classes=cfg.n_classes, durations=((60.0, 15.0),) * cfg.n_classes,
                         d_features=cfg.d_in, seed=seed)
        return pipeline.synth_dataset(spec, n, self.sizes.train_T)

    def setup(self, seed):
        self.data = self._data(seed, self.sizes.train_seqs)
        self.canary_data = self._data(DEFAULT_SEED, self.sizes.canary_train_seqs)
        self.ckpt = self.work / "train.ckpt"

    def ops_per_pass(self):
        return 1

    def run(self, i):
        return pipeline.train(self.run_cfg, self.data, ckpt_path=self.ckpt)

    def check(self, result):
        losses = result.epoch_losses
        if len(losses) != TRAIN_EPOCHS or not all(math.isfinite(v) for v in losses):
            raise CheckFailed(f"epoch losses {losses}")
        acc = result.final_train_accuracy
        if not 0.0 <= acc <= 1.0:
            raise CheckFailed(f"train accuracy {acc}")
        cfg, params, _ = network.load_checkpoint(self.ckpt)
        if cfg.to_dict() != self.run_cfg.model.to_dict():
            raise CheckFailed("checkpoint config differs from the trained config")
        if result.best_epoch == TRAIN_EPOCHS:
            # the checkpoint holds the final parameters: it must reproduce the accuracy
            model = SegmentationModel(cfg, _frozen(params))
            correct = total = 0
            for feats, labels, _ in self.data:
                raw = pipeline.infer(model, feats, refine=False).raw_labels
                correct += int((raw == labels).sum())
                total += labels.size
            if correct / total != acc:
                raise CheckFailed(f"checkpoint accuracy {correct / total} != reported {acc}")
        self.train_acc = acc
        return self.sizes.train_seqs * self.sizes.train_T * TRAIN_EPOCHS

    def canary(self):
        """One epoch on DEFAULT_SEED data, then refined labels from the
        checkpoint it wrote."""
        run = RunConfig(model=self.sizes.train_model, lr=5e-4, max_epochs=1)
        ckpt = self.work / "canary.ckpt"
        pipeline.train(run, self.canary_data, ckpt_path=ckpt)
        cfg, params, _ = network.load_checkpoint(ckpt)
        model = SegmentationModel(cfg, _frozen(params))
        out = []
        for feats, _, _ in self.canary_data:
            result = pipeline.infer(model, feats, refine=True)
            _check_inference(result, feats.shape[0], cfg.n_classes, "canary")
            out.append(result.refined_labels)
        return out


class InferLong:
    """Default config with frozen parameters, one T = 2048 sequence through
    pipeline.infer(refine=True): no tape, widest windows fit."""

    name = "infer_long"
    warmup_passes = 0

    def __init__(self, sizes: Sizes, work: Path):
        self.sizes, self.work = sizes, work
        self.cfg = sizes.infer_model

    def setup(self, seed):
        self.params = _frozen(SegmentationModel(self.cfg).params)
        spec = SynthSpec(n_classes=self.cfg.n_classes, d_features=self.cfg.d_in, seed=seed)
        self.features = pipeline.synth_dataset(spec, 1, self.sizes.long_T)[0][0]
        canary = SynthSpec(n_classes=self.cfg.n_classes, d_features=self.cfg.d_in,
                           seed=DEFAULT_SEED)
        self.canary_features = pipeline.synth_dataset(canary, 1, self.sizes.canary_long_T)[0][0]

    def ops_per_pass(self):
        return 1

    def _infer(self, features):
        # a fresh model per sequence: a user process pays the mask build
        return pipeline.infer(SegmentationModel(self.cfg, self.params), features, refine=True)

    def run(self, i):
        return self._infer(self.features)

    def check(self, result):
        _check_inference(result, self.sizes.long_T, self.cfg.n_classes, "infer")
        return self.sizes.long_T

    def canary(self):
        result = self._infer(self.canary_features)
        _check_inference(result, self.sizes.canary_long_T, self.cfg.n_classes, "canary")
        return [result.refined_labels]


@dataclass
class CliFile:
    stem: str
    T: int
    feat: str
    labels: str
    gt: np.ndarray


class InferCli:
    """The user path: per file, in-process `tempseg infer` (checkpoint load
    with requires_grad, so the tape is kept) then `tempseg eval`."""

    name = "infer_cli"
    # The first pass over a file set runs about 10% slower than later ones
    # even after the canary, so one untimed pass goes before the timed loop.
    warmup_passes = 1

    def __init__(self, sizes: Sizes, work: Path):
        self.sizes, self.work = sizes, work
        self.cfg = sizes.infer_model
        self.out_dir = str(work / "pred")

    def lengths(self, seed):
        """Both ends of the length range, and one length drawn from each
        equal stratum between them, in seeded order. The strata keep the
        median file length, and so file_s_p50, steady across seeds."""
        lo, hi = self.sizes.cli_T
        n = self.sizes.cli_files
        rng = np.random.default_rng([seed, 1])
        edges = np.linspace(lo, hi, n - 1).round().astype(int)
        inner = [int(rng.integers(a, b, endpoint=True)) for a, b in zip(edges[:-1], edges[1:])]
        return [int(v) for v in rng.permutation([lo, *inner, hi])]

    def _files(self, seed, lengths, tag):
        spec = SynthSpec(n_classes=self.cfg.n_classes, d_features=self.cfg.d_in, seed=seed)
        files = []
        data = pipeline.synth_dataset(spec, len(lengths), max(lengths))
        for i, (T, (feats, labels, _)) in enumerate(zip(lengths, data)):
            stem = f"{tag}_{i:02d}"
            f = CliFile(stem, T, str(self.work / f"{stem}.feat"), str(self.work / f"{stem}.labels"),
                        labels[:T])
            pipeline.save_features(feats[:T], f.feat)
            pipeline.save_labels(f.gt, f.labels)
            files.append(f)
        return files

    def setup(self, seed):
        self.ckpt = str(self.work / "model.ckpt")
        network.save_checkpoint(self.ckpt, self.cfg, SegmentationModel(self.cfg).params)
        self.files = self._files(seed, self.lengths(seed), "seq")
        self.canary_files = self._files(DEFAULT_SEED, list(self.sizes.cli_T), "canary")

    def ops_per_pass(self):
        return len(self.files)

    def _run_file(self, f: CliFile):
        pred = os.path.join(self.out_dir, f.stem + ".refined.labels")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc_infer = cli.main(["infer", "--ckpt", self.ckpt, "--features", f.feat,
                                 "--out", self.out_dir])
            rc_eval = None
            if rc_infer == 0:
                rc_eval = cli.main(["eval", "--pred", pred, "--gt", f.labels])
        return f, pred, rc_infer, rc_eval, out.getvalue(), err.getvalue()

    def run(self, i):
        return self._run_file(self.files[i % len(self.files)])

    def check(self, result):
        f, pred_path, rc_infer, rc_eval, out, err = result
        if rc_infer != 0 or rc_eval != 0:
            raise CheckFailed(f"{f.stem}: exit codes infer {rc_infer}, eval {rc_eval}: {err.strip()}")
        pred = _read_label_file(pred_path)
        _check_labels(pred, f.T, self.cfg.n_classes, f.stem)
        report = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        expected = f"{np.mean(pred == f.gt):.4f}"
        if report.get("accuracy") != expected:
            raise CheckFailed(f"{f.stem}: eval accuracy {report.get('accuracy')} != {expected}")
        return f.T

    def canary(self):
        out = []
        for f in self.canary_files:
            result = self._run_file(f)
            self.check(result)
            out.append(_read_label_file(result[1]))
        return out


WORKLOADS = {w.name: w for w in (TrainSmall, InferLong, InferCli)}


# -- runner ------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed; one operation is a run plus its check."""

    attempted: int = 0
    failed: int = 0

    def count(self, ok: bool):
        self.attempted += 1
        self.failed += not ok


def attempt(fn, *args):
    """Run `fn`. An exception is printed and returned as a failure, and the
    run goes on: a failed operation is counted, never fatal."""
    try:
        return True, fn(*args)
    except Exception:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        return False, None


def timed_loop(wl, tally: Tally, seconds: float, n_ops: int | None = None, recorder=None):
    """Closed loop of whole passes until `seconds` have elapsed, or of
    exactly `n_ops` operations. Only the run is timed, not its check.
    Returns (seconds, frames) per operation; a failed one has 0 frames."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if recorder is not None:
            recorder.install()
        t0 = time.perf_counter()
        ok, result = attempt(wl.run, i)
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.uninstall()
        if ok:
            ok, frames = attempt(wl.check, result)
        tally.count(ok)
        records.append((dt, frames if ok else 0))
        i += 1
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % wl.ops_per_pass() == 0 and time.perf_counter() - start >= seconds:
            break
    return records


def frames_per_s(records) -> float:
    seconds = sum(dt for dt, _ in records)
    return sum(fr for _, fr in records) / seconds if seconds > 0 else 0.0


def label_match(reference, labels) -> float:
    matched = total = 0
    for i, ref in enumerate(reference):
        ref = np.array([int(c) for c in ref])
        total += ref.size
        if labels is not None and i < len(labels) and labels[i].shape == ref.shape:
            matched += int((labels[i] == ref).sum())
    return matched / total if total else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    sizes = PROFILES[profile]
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](sizes, work)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)

        tally = Tally()
        ok, canary = attempt(wl.canary)
        tally.count(ok)
        reference = json.loads(REFERENCE.read_text())[profile][workload]
        match = label_match(reference, canary if ok else None)

        for _ in range(wl.warmup_passes):
            timed_loop(wl, tally, 0.0, n_ops=wl.ops_per_pass())
        records = timed_loop(wl, tally, seconds)
        metrics = {
            "frames_per_s": frames_per_s(records),
            "file_s_p50": statistics.median(dt for dt, _ in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
            "label_match": match,
        }
        layer = None
        if trace:
            recorder = tracing.Recorder()
            traced = timed_loop(wl, tally, seconds, n_ops=len(records), recorder=recorder)
            layer, check = recorder.layer_metrics(len(traced))
            layer["trace.frames_per_s"] = frames_per_s(traced)
            layer["trace.overhead_frames_per_s"] = metrics["frames_per_s"] - frames_per_s(traced)
            _write_trace(workload, seed, recorder, len(traced), check)
            if check["mismatches"]:
                print(f"MAC cross-check mismatches: {check['mismatches']}", file=sys.stderr)

        extra = {"failed_frac": tally.failed / tally.attempted}
        if workload == "train_small":
            extra["train_acc"] = wl.train_acc
        _print_report(workload, seed, records, {**metrics, **extra}, layer)
        units, reported = (tracing.LAYER_METRICS, layer) if trace else (E2E_METRICS, metrics)
        return {
            "correct": tally.failed == 0 and match >= LABEL_MATCH_MIN,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": float(reported[k]), "unit": u} for k, u in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write_trace(workload, seed, recorder, n_ops, check):
    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "ops": n_ops,
        "by_name": recorder.totals(),
        "macs_check": check,
        "spans": [[s.name, s.start, s.end, s.parent] for s in recorder.spans],
    }
    (out / f"{workload}-seed{seed}.json").write_text(json.dumps(doc))


def _print_report(workload, seed, records, metrics, layer):
    units = {**E2E_METRICS, "failed_frac": "ratio", "train_acc": "ratio"}
    lines = [f"{workload}: seed {seed}, {len(records)} timed operations, "
             f"{sum(dt for dt, _ in records):.2f} s"]
    lines += [f"  {k:34s} {v:14.6g} {units[k]}" for k, v in metrics.items()]
    if layer is not None:
        lines.append(f"{workload}: per layer, traced, seconds and counts per operation")
        lines += [f"  {k:34s} {v:14.6g} {tracing.LAYER_METRICS[k]}" for k, v in layer.items()]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--profile", choices=sorted(PROFILES), required=True)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.profile)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
