"""Data files, synthetic dataset generation, and the training and
inference loops."""

from __future__ import annotations

import configparser
import io
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .binio import FormatError, Reader, map_file, replacing
from .losses import combined_temporal_loss
from .network import (
    ModelConfig,
    SegmentationModel,
    _check_ranges,
    build_config,
    parse_ini,
    save_checkpoint,
)
from .segments import (
    Segment,
    SegmentList,
    detect_boundaries,
    refine_prediction,
    segments_to_frames,
)
from .seqcore import Adam, Tensor, no_grad, softmax

__all__ = [
    "FEATURE_MAGIC",
    "SynthSpec",
    "RunConfig",
    "RETIRED_TRAIN_KEYS",
    "TrainingError",
    "ParameterError",
    "save_features",
    "load_features",
    "load_labels",
    "save_labels",
    "synth_sequence",
    "synth_dataset",
    "train",
    "infer",
]

FEATURE_MAGIC = b"MSBF"
FEATURE_VERSION = 1
# a segment label file expands to one label per frame; a line is a few bytes
# whatever its length, so its frame count is bounded here (about 26 days at
# 30 fps), not by the file size
MAX_SEGMENT_FRAMES = 1 << 26
# frames per block of synthetic noise
NOISE_BLOCK_ROWS = 64
# [train] keys of removed RunConfig fields, each with the only value it may
# still hold (see network.RETIRED_KEYS)
RETIRED_TRAIN_KEYS = {"val_fraction": 0.0}

# typical surgical suturing gesture durations, mean/std seconds per class id 0..7
DEFAULT_GESTURE_DURATIONS = (
    (12.4, 17.2),
    (3.84, 2.66),
    (6.83, 5.65),
    (7.51, 3.79),
    (6.77, 3.73),
    (26.0, 7.65),
    (6.89, 5.31),
    (6.91, 5.41),
)


class TrainingError(RuntimeError):
    """Training met a non-finite loss or gradient on the dataset's
    sequence number `sequence`, counted from 0."""

    def __init__(self, message: str, sequence: int):
        super().__init__(message)
        self.sequence = sequence


class ParameterError(ValueError):
    """A model parameter is not finite; the message names it."""


# -- feature files --------------------------------------------------------


def save_features(seq: np.ndarray, path):
    """Frame-major float32 little-endian payload behind an MSBF header. The
    values are checked as given, then cast (a float32 input is not copied);
    one beyond the float32 range raises ValueError before the file opens.
    The file is written beside `path` and renamed onto it, so a failed
    write leaves the old file whole."""
    seq = np.asarray(seq)
    if seq.ndim != 2 or seq.size < 1:
        raise ValueError(f"features must be a non-empty [T, D] matrix, got shape {seq.shape}")
    if not np.isfinite(seq).all():
        raise ValueError("refusing to write non-finite feature values")
    try:
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(seq, "<f4")
    except FloatingPointError:
        raise ValueError("refusing to write feature values beyond the float32 range") from None
    with replacing(path) as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<I", FEATURE_VERSION))
        f.write(struct.pack("<QQ", seq.shape[0], seq.shape[1]))
        f.write(payload)


def load_features(path) -> np.ndarray:
    """The [T, D] float32 payload of an MSBF file. The header is walked
    over the file's mapping, and the payload, once checked against the
    mapping's length, is read straight into a new array, so no page of it
    is mapped in; callers that need float64 cast it."""
    with open(path, "rb") as f:
        r = Reader(map_file(f), f.name)
        magic = r.read_exact(4, "feature magic")
        if magic != FEATURE_MAGIC:
            raise FormatError(
                f"{path}: bad feature magic: expected {FEATURE_MAGIC!r}, found {magic!r}"
            )
        (version,) = r.read_struct("<I", "feature version")
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported feature file version {version}")
        t, d = r.read_struct("<QQ", "feature shape")
        if t < 1:
            raise FormatError(f"{path}: feature file contains an empty sequence")
        if d < 1:
            raise FormatError(f"{path}: feature file has no feature columns")
        at = r.skip(4 * t * d, "feature payload")
        data = np.empty((t, d), "<f4")
        f.seek(at)
        if f.readinto(memoryview(data).cast("B")) != data.nbytes:
            raise FormatError(f"{path}: feature payload changed size while it was read")
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: feature file contains non-finite values")
    return data


# -- label files ----------------------------------------------------------


def parse_int(text: str) -> int:
    """The integer written as ASCII `[+-]?[0-9]+` in `text`. ValueError for
    anything else: `int()` alone also reads `1_0` as 10 and non-ASCII
    decimal digits such as `３` as 3."""
    if not (text.isascii() and (text.isdigit() or text[1:].isdigit() and text[0] in "+-")):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _label_int(text: str) -> int:
    """parse_int(text), which must fit in an int64."""
    value = parse_int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {value} does not fit in 64 bits")
    return value


def read_lines(path):
    """The lines of the UTF-8 text file at `path`, as iterating the open
    file gives them. A byte that is not UTF-8 raises ValueError naming the
    file, the line that holds the byte and its offset in the file, before
    any line is read: a line the decoder had already given out would
    otherwise fail its own check first."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ValueError(f"{path}:{line}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                         f"at offset {exc.start}") from None
    return iter(io.StringIO(text, newline=None))


def load_labels(path) -> np.ndarray:
    """One integer per line (frame format) or `start,end,class` lines
    (segment format), auto-detected."""
    frame_vals, seg_vals = [], []
    for ln, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 'start,end,class', got {line!r}")
            try:
                seg = Segment(*(_label_int(p.strip()) for p in parts))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
            if seg.label < 0:
                raise ValueError(f"{path}:{ln}: negative label {seg.label}")
            if seg.end >= MAX_SEGMENT_FRAMES:
                raise ValueError(
                    f"{path}:{ln}: segment end {seg.end} is beyond the "
                    f"{MAX_SEGMENT_FRAMES}-frame limit of a segment label file"
                )
            seg_vals.append(seg)
        else:
            try:
                value = _label_int(line)
            except ValueError:
                raise ValueError(f"{path}:{ln}: not an integer label: {line!r}") from None
            if value < 0:
                raise ValueError(f"{path}:{ln}: negative label {value}")
            frame_vals.append(value)
    if seg_vals and frame_vals:
        raise ValueError(f"{path}: mixes frame and segment label formats")
    if seg_vals:
        try:
            segs = SegmentList(seg_vals).validate()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return segments_to_frames(segs, segs.T)
    if not frame_vals:
        raise ValueError(f"{path}: no labels found")
    return np.asarray(frame_vals, dtype=np.int64)


def save_labels(labels, path):
    """One label per line, written beside `path` and renamed onto it."""
    text = "".join([f"{v}\n" for v in np.asarray(labels, dtype=np.int64).tolist()])
    with replacing(path, "w") as f:
        f.write(text)


# -- synthetic data -------------------------------------------------------


@dataclass
class SynthSpec:
    """Generator settings for prototype-plus-noise labelled sequences."""

    n_classes: int = 8
    durations: tuple = DEFAULT_GESTURE_DURATIONS  # per-class (mean, std) seconds
    fps: float = 1.0
    d_features: int = 64
    prototype_spread: float = 1.0
    transition_fraction: float = 0.05
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_ranges(self, [
            ("n_classes", self.n_classes >= 2, ">= 2"),
            ("fps", self.fps > 0, "> 0"),
            ("d_features", self.d_features >= 1, ">= 1"),
            ("prototype_spread", self.prototype_spread >= 0, ">= 0"),
            ("transition_fraction", 0.0 <= self.transition_fraction < 0.5, "in [0, 0.5)"),
            ("noise", self.noise >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
        ])
        for pair in self.durations:
            if len(pair) != 2 or not all(map(math.isfinite, pair)) or pair[0] <= 0 or pair[1] < 0:
                raise ValueError(
                    f"durations must be finite (mean > 0, std >= 0) pairs, got {pair}")
        if len(self.durations) < self.n_classes:
            raise ValueError(
                f"durations has {len(self.durations)} entries for {self.n_classes} classes"
            )


def _draw_duration(spec: SynthSpec, cls: int, rng, left: int) -> int:
    """A segment length: a normal draw of the class's duration in frames,
    clamped to [1, left] before it is rounded, so an overflowing draw
    (infinite at a huge fps or duration) gives `left`."""
    mean, std = spec.durations[cls]
    frames = rng.normal(mean, std) * spec.fps
    return round(min(max(frames, 1.0), left))


def synth_sequence(spec: SynthSpec, T_target: int, rng, prototypes: np.ndarray):
    """One (features, labels, segments) triple of exactly T_target frames."""
    if T_target < 1:
        raise ValueError(f"T_target must be >= 1, got {T_target}")
    segs = []
    t = 0
    prev = -1
    while t < T_target:
        choices = [c for c in range(spec.n_classes) if c != prev]
        cls = int(rng.choice(choices))
        length = _draw_duration(spec, cls, rng, T_target - t)
        segs.append(Segment(t, t + length - 1, cls))
        t += length
        prev = cls
    if len(segs) >= 2 and segs[-1].label == segs[-2].label:
        # trimming can butt two same-class segments together; merge them
        a, b = segs[-2], segs[-1]
        segs[-2:] = [Segment(a.start, b.end, a.label)]
    segments = SegmentList(segs).validate(T_target)
    labels = segments_to_frames(segments, T_target)
    features = prototypes[labels]  # fancy indexing already copies
    # smooth transitions: blend adjacent prototypes inside the buffer zones
    for left, right in zip(segments[:-1], segments[1:]):
        bl = int(round(spec.transition_fraction * left.length))
        for k in range(bl):
            t_idx = right.start - 1 - k
            w = 0.5 * (1.0 - k / max(bl, 1))
            features[t_idx] = (1 - w) * prototypes[left.label] + w * prototypes[right.label]
        br = int(round(spec.transition_fraction * right.length))
        for k in range(br):
            t_idx = right.start + k
            w = 0.5 * (1.0 - k / max(br, 1))
            features[t_idx] = (1 - w) * prototypes[right.label] + w * prototypes[left.label]
    if spec.noise > 0:
        # row blocks draw the same stream as one call without a second
        # [T, D] array
        for lo in range(0, T_target, NOISE_BLOCK_ROWS):
            block = features[lo : lo + NOISE_BLOCK_ROWS]
            block += rng.normal(0.0, spec.noise, block.shape)
    return features, labels, segments


def synth_dataset(spec: SynthSpec, n_sequences: int, T_target: int):
    """Deterministic dataset of (features, labels, segments) triples."""
    rng = np.random.default_rng(spec.seed)
    prototypes = rng.normal(0.0, spec.prototype_spread, (spec.n_classes, spec.d_features))
    return [synth_sequence(spec, T_target, rng, prototypes) for _ in range(n_sequences)]


# -- training -------------------------------------------------------------


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 5e-4
    max_epochs: int = 120
    patience: int = 20
    target_accuracy: float = 0.0  # early exit once train accuracy reaches this

    def __post_init__(self):
        _check_ranges(self, [
            ("lr", self.lr > 0, "> 0"),
            ("max_epochs", self.max_epochs >= 1, ">= 1"),
            ("patience", self.patience >= 0, ">= 0"),
            ("target_accuracy", 0.0 <= self.target_accuracy <= 1.0, "in [0, 1]"),
        ])


@dataclass
class TrainResult:
    log: list
    best_epoch: int
    best_loss: float
    final_train_accuracy: float
    epoch_losses: list


def _sequence_loss(model: SegmentationModel, feats, labels, training: bool):
    x = Tensor(feats)
    out = model.forward(x, training=training)
    loss, parts = combined_temporal_loss(out, labels, model.cfg)
    return out, loss, parts


def _train_accuracy(model: SegmentationModel, dataset) -> float:
    """Frame accuracy of `infer`'s raw labels, as a saved checkpoint gives them."""
    correct = total = 0
    for feats, labels, *_ in dataset:
        correct += int((infer(model, feats, refine=False).raw_labels == labels).sum())
        total += labels.size
    return correct / total


def _first_nonfinite(params: dict, attr: str):
    """Name of the first parameter whose `attr` ("data", "grad") is not finite, else None."""
    for name, p in params.items():
        a = getattr(p, attr)
        if a is not None and not np.isfinite(a).all():
            return name
    return None


def train(run: RunConfig, dataset, ckpt_path=None, log_fn=None) -> TrainResult:
    """Full-sequence Adam training with early stopping on the epoch's mean
    training loss; persists the best parameters when ckpt_path is given.

    Only the first two entries of each dataset item are read, a sequence's
    features and frame labels: the loss derives the segments from the labels.

    Each log line (one per epoch, then the reason for stopping early, if
    any) goes to the result's log and, when given, to log_fn. An epoch's
    line holds its mean loss and loss parts and `fit_acc`, the final
    stage's frame accuracy over the epoch's training forwards (dropout on,
    parameters changing between sequences), read from logits those
    forwards already made. `train_acc`, the accuracy of `infer`'s raw
    labels over the whole dataset after the epoch, costs one more forward
    per sequence, so it is computed, and logged, only where something reads
    it: after every epoch when target_accuracy is set, else after the last
    epoch only, for final_train_accuracy. Every forward
    and backward runs on the features cast to float32; the parameters,
    their gradients and the Adam state stay float64. A non-finite loss, or a
    non-finite parameter gradient before the optimizer step, raises
    TrainingError naming the epoch, the sequence and the loss component or
    the parameter; its `sequence` is that sequence's index in dataset."""
    if not dataset:
        raise ValueError("need at least one training sequence")
    model = SegmentationModel(run.model)
    opt = Adam(model.parameters(), lr=run.lr)

    log: list[str] = []

    def emit(line: str):
        log.append(line)
        if log_fn:
            log_fn(line)

    epoch_losses: list[float] = []
    best_loss = math.inf
    best_epoch = 0
    bad_epochs = 0
    acc = 0.0
    for epoch in range(1, run.max_epochs + 1):
        running = 0.0
        comp = {"focal": 0.0, "dice": 0.0, "sim": 0.0, "boundary": 0.0}
        hits = frames = 0
        for si, (feats, labels, *_) in enumerate(dataset):
            feats = np.asarray(feats, np.float32)
            out, loss, parts = _sequence_loss(model, feats, labels, training=True)
            hits += int((out.stages[-1].action_logits.data.argmax(axis=1) == labels).sum())
            frames += labels.size
            value = loss.item()
            if not math.isfinite(value):
                bad = max(parts, key=lambda k: 0.0 if math.isfinite(parts[k]) else 1.0)
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, component {bad}, sequence {si}", si
                )
            loss.backward()
            bad = _first_nonfinite(model.params, "grad")
            if bad is not None:
                raise TrainingError(
                    f"non-finite gradient at epoch {epoch}, sequence {si}, parameter {bad}", si
                )
            opt.step()
            opt.zero_grad()
            running += value
            for k in comp:
                comp[k] += parts[k]
        n = len(dataset)
        epoch_loss = running / n
        epoch_losses.append(epoch_loss)
        improved = epoch_loss < best_loss
        if improved:
            best_loss = epoch_loss
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
        stop = not improved and bad_epochs > run.patience
        line = (
            f"epoch {epoch} loss {epoch_loss:.6f}"
            f" focal {comp['focal'] / n:.6f} dice {comp['dice'] / n:.6f}"
            f" sim {comp['sim'] / n:.6f} boundary {comp['boundary'] / n:.6f}"
            f" fit_acc {hits / frames:.4f}"
        )
        if run.target_accuracy or stop or epoch == run.max_epochs:
            acc = _train_accuracy(model, dataset)
            line += f" train_acc {acc:.4f}"
        emit(line)
        reached = not stop and bool(run.target_accuracy) and acc >= run.target_accuracy
        if ckpt_path is not None and (improved or reached):
            save_checkpoint(ckpt_path, run.model, model.params)
        if stop:
            emit(f"early stop at epoch {epoch} (best {best_epoch})")
            break
        if reached:
            emit(f"target accuracy {run.target_accuracy} reached at epoch {epoch}")
            break
    return TrainResult(log, best_epoch, best_loss, acc, epoch_losses)


# -- inference ------------------------------------------------------------


@dataclass
class InferenceResult:
    output: object               # ModelOutput
    raw_labels: np.ndarray
    refined_labels: np.ndarray
    boundaries: list


def infer(model: SegmentationModel, features: np.ndarray, refine: bool = True) -> InferenceResult:
    """Labels for one [T, d_in] sequence. The network runs on the features
    in float32 under no_grad(); the boundary sigmoid, boundary detection,
    refinement and the class probabilities it reads (computed only when
    refining) run in float64. A stage whose action logits or boundary
    scores are not finite raises ValueError naming it and the cause that a
    failed stage looks for: a parameter that is not finite (ParameterError),
    else a frame of features that is not, else float32 overflow; an
    overflow the network absorbs warns nothing."""
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        out = model.forward(Tensor(features.astype(np.float32, copy=False)), training=False)
    for i, stage in enumerate(out.stages):
        for name in ("action_logits", "boundary_scores"):
            if not np.isfinite(getattr(stage, name).data).all():
                what = f"stage {i} ({'decoder' if i else 'encoder'}): {name} not finite"
                bad = _first_nonfinite(model.params, "data")
                if bad is not None:
                    raise ParameterError(f"{what}, parameter {bad} is not finite")
                frames = np.flatnonzero(~np.isfinite(features).all(axis=1))
                if frames.size:
                    raise ValueError(f"{what}, the features are not finite at frame {frames[0]}")
                raise ValueError(f"{what}, the features overflow float32 arithmetic")
    final = out.stages[-1]
    logits = final.action_logits.data.astype(np.float64)
    raw = np.argmax(logits, axis=1)
    if refine:
        bounds = detect_boundaries(
            final.boundary_scores.data,
            model.cfg.boundary_theta,
            model.cfg.boundary_min_distance,
        )
        refined = refine_prediction(softmax(Tensor(logits)).data, bounds)
    else:
        bounds = []
        refined = raw.copy()
    return InferenceResult(out, raw, refined, bounds)


# -- config files ---------------------------------------------------------


def _read_ini(path, sections: tuple) -> configparser.ConfigParser:
    """The INI file at `path`, parsed by `parse_ini`; an error names the file."""
    try:
        return parse_ini(read_lines(path), os.fspath(path), sections)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from None


def load_run_config(path) -> RunConfig:
    """`key = value` file with [model] and [train] sections."""
    cp = _read_ini(path, ("model", "train"))
    model = ModelConfig()
    if cp.has_section("model"):
        model = ModelConfig.from_dict(dict(cp["model"]), f"{path} [model]")
    train = dict(cp["train"]) if cp.has_section("train") else {}
    if "seed" in train:
        raise ValueError(
            f"{path} [train]: seed was removed; [model] seed seeds initialisation and dropout"
        )
    return build_config(RunConfig, train.items(), f"{path} [train]", RETIRED_TRAIN_KEYS,
                        model=model)


def load_synth_spec(path) -> SynthSpec:
    cp = _read_ini(path, ("synth",))
    if not cp.has_section("synth"):
        raise ValueError(f"{path} has no [synth] section")
    sec = dict(cp["synth"])
    source = f"{path} [synth]"
    fixed = {}
    if "durations" in sec:
        pairs = sec.pop("durations").replace(";", "\n").split()
        try:
            fixed["durations"] = tuple(tuple(float(x) for x in p.split(",")) for p in pairs)
        except ValueError as exc:
            raise ValueError(f"{source}: durations: {exc}") from None
    return build_config(SynthSpec, sec.items(), source, {}, **fixed)
