"""Data files, synthetic dataset generation, and the training and
inference loops."""

from __future__ import annotations

import configparser
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .losses import LossWeights, combined_temporal_loss
from .network import (
    ModelConfig,
    SegmentationModel,
    load_checkpoint,
    save_checkpoint,
)
from .segments import (
    Segment,
    SegmentList,
    detect_boundaries,
    frames_to_segments,
    refine_prediction,
    segments_to_frames,
)
from .seqcore import Adam, Tensor, no_grad

__all__ = [
    "FEATURE_MAGIC",
    "SynthSpec",
    "RunConfig",
    "TrainingError",
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
    pass


# -- feature files --------------------------------------------------------


def save_features(seq: np.ndarray, path):
    """Frame-major float32 little-endian payload behind an MSBF header."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ValueError(f"features must be a non-empty [T, D] matrix, got shape {seq.shape}")
    if not np.isfinite(seq).all():
        raise ValueError("refusing to write non-finite feature values")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<I", FEATURE_VERSION))
        f.write(struct.pack("<QQ", seq.shape[0], seq.shape[1]))
        f.write(seq.astype("<f4").tobytes())


def load_features(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != FEATURE_MAGIC:
            raise ValueError(f"bad feature magic: expected {FEATURE_MAGIC!r}, found {magic!r}")
        (version,) = struct.unpack("<I", f.read(4))
        if version != FEATURE_VERSION:
            raise ValueError(f"unsupported feature file version {version}")
        t, d = struct.unpack("<QQ", f.read(16))
        if t < 1:
            raise ValueError("feature file contains an empty sequence")
        payload = f.read(t * d * 4)
        if len(payload) != t * d * 4:
            raise ValueError(
                f"truncated feature payload: expected {t * d * 4} bytes, found {len(payload)}"
            )
    data = np.frombuffer(payload, dtype="<f4").reshape(t, d).astype(np.float64)
    if not np.isfinite(data).all():
        raise ValueError("feature file contains non-finite values")
    return data


# -- label files ----------------------------------------------------------


def load_labels(path) -> np.ndarray:
    """One integer per line (frame format) or `start,end,class` lines
    (segment format), auto-detected."""
    frame_vals, seg_vals = [], []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "," in line:
                parts = line.split(",")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{ln}: expected 'start,end,class', got {line!r}")
                try:
                    seg_vals.append(Segment(*(int(p) for p in parts)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: {exc}") from None
            else:
                try:
                    frame_vals.append(int(line))
                except ValueError:
                    raise ValueError(f"{path}:{ln}: not an integer label: {line!r}") from None
    if seg_vals and frame_vals:
        raise ValueError(f"{path}: mixes frame and segment label formats")
    if seg_vals:
        segs = SegmentList(seg_vals).validate()
        return segments_to_frames(segs, segs.T)
    if not frame_vals:
        raise ValueError(f"{path}: no labels found")
    return np.asarray(frame_vals, dtype=np.int64)


def save_labels(labels, path):
    with open(path, "w") as f:
        for v in np.asarray(labels, dtype=np.int64):
            f.write(f"{v}\n")


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
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if len(self.durations) < self.n_classes:
            raise ValueError(
                f"{len(self.durations)} duration entries for {self.n_classes} classes"
            )
        if any(m <= 0 for m, _ in self.durations):
            raise ValueError("duration means must be positive")
        if not 0.0 <= self.transition_fraction < 0.5:
            raise ValueError("transition fraction must be in [0, 0.5)")


def _draw_duration(spec: SynthSpec, cls: int, rng) -> int:
    mean, std = spec.durations[cls]
    frames = rng.normal(mean, std) * spec.fps
    return max(1, int(round(frames)))


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
        length = min(_draw_duration(spec, cls, rng), T_target - t)
        segs.append(Segment(t, t + length - 1, cls))
        t += length
        prev = cls
    if len(segs) >= 2 and segs[-1].label == segs[-2].label:
        # trimming can butt two same-class segments together; merge them
        a, b = segs[-2], segs[-1]
        segs[-2:] = [Segment(a.start, b.end, a.label)]
    segments = SegmentList(segs).validate(T_target)
    labels = segments_to_frames(segments, T_target)
    features = prototypes[labels].copy()
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
        features = features + rng.normal(0.0, spec.noise, features.shape)
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
    val_fraction: float = 0.0
    target_accuracy: float = 0.0  # early exit once train accuracy reaches this
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass
class TrainResult:
    log: list
    best_epoch: int
    best_loss: float
    final_train_accuracy: float
    epoch_losses: list


def _sequence_loss(model: SegmentationModel, feats, labels, segments, training: bool):
    x = Tensor(feats)
    out = model.forward(x, training=training)
    weights = LossWeights(
        model.cfg.loss_alpha, model.cfg.loss_beta, model.cfg.loss_gamma, model.cfg.loss_delta
    )
    loss, parts = combined_temporal_loss(out, labels, segments, weights, model.cfg)
    return out, loss, parts


def _train_accuracy(model: SegmentationModel, dataset) -> float:
    correct = total = 0
    for feats, labels, _ in dataset:
        with no_grad():
            out = model.forward(Tensor(feats), training=False)
        pred = np.argmax(out.stages[-1].action_logits.data, axis=1)
        correct += int((pred == labels).sum())
        total += labels.size
    return correct / total


def train(run: RunConfig, dataset, ckpt_path=None, log_fn=None) -> TrainResult:
    """Full-sequence Adam training with early stopping; persists the best
    checkpoint (parameters + optimizer state) when ckpt_path is given."""
    if not dataset:
        raise ValueError("need at least one training sequence")
    n_val = min(int(round(run.val_fraction * len(dataset))), len(dataset) - 1)
    train_set, val_set = dataset[: len(dataset) - n_val], dataset[len(dataset) - n_val :]
    model = SegmentationModel(run.model)
    opt = Adam(model.parameters(), lr=run.lr)

    log: list[str] = []
    epoch_losses: list[float] = []
    best_loss = math.inf
    best_epoch = 0
    bad_epochs = 0
    acc = 0.0
    for epoch in range(1, run.max_epochs + 1):
        running = 0.0
        comp = {"focal": 0.0, "dice": 0.0, "sim": 0.0, "boundary": 0.0}
        for si, (feats, labels, segments) in enumerate(train_set):
            _, loss, parts = _sequence_loss(model, feats, labels, segments, training=True)
            value = loss.item()
            if not math.isfinite(value):
                bad = max(parts, key=lambda k: 0.0 if math.isfinite(parts[k]) else 1.0)
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, component {bad}, sequence {si}"
                )
            loss.backward()
            opt.step()
            opt.zero_grad()
            running += value
            for k in comp:
                comp[k] += parts[k]
        n = len(train_set)
        epoch_loss = running / n
        epoch_losses.append(epoch_loss)

        if val_set:
            vloss = 0.0
            for feats, labels, segments in val_set:
                with no_grad():
                    _, lv, _ = _sequence_loss(model, feats, labels, segments, training=False)
                vloss += lv.item()
            monitored = vloss / len(val_set)
        else:
            monitored = epoch_loss
        acc = _train_accuracy(model, train_set)
        line = (
            f"epoch {epoch} loss {epoch_loss:.6f}"
            f" focal {comp['focal'] / n:.6f} dice {comp['dice'] / n:.6f}"
            f" sim {comp['sim'] / n:.6f} boundary {comp['boundary'] / n:.6f}"
            f" train_acc {acc:.4f}"
        )
        if val_set:
            line += f" val_loss {monitored:.6f}"
        log.append(line)
        if log_fn:
            log_fn(line)

        if monitored < best_loss:
            best_loss = monitored
            best_epoch = epoch
            bad_epochs = 0
            if ckpt_path is not None:
                extra = {"opt.step": np.array([float(opt.step_count)])}
                extra.update(_opt_state_blobs(model, opt))
                save_checkpoint(ckpt_path, run.model, model.params, extra)
        else:
            bad_epochs += 1
            if bad_epochs > run.patience:
                log.append(f"early stop at epoch {epoch} (best {best_epoch})")
                break
        if run.target_accuracy and acc >= run.target_accuracy:
            log.append(f"target accuracy {run.target_accuracy} reached at epoch {epoch}")
            if ckpt_path is not None:
                extra = {"opt.step": np.array([float(opt.step_count)])}
                extra.update(_opt_state_blobs(model, opt))
                save_checkpoint(ckpt_path, run.model, model.params, extra)
            break
    return TrainResult(log, best_epoch, best_loss, acc, epoch_losses)


def _opt_state_blobs(model: SegmentationModel, opt: Adam) -> dict:
    blobs = {}
    index = {id(p): i for i, p in enumerate(opt.params)}
    for name, p in model.params.items():
        i = index[id(p)]
        blobs[f"opt.m.{name}"] = opt.m[i]
        blobs[f"opt.v.{name}"] = opt.v[i]
    return blobs


def resume_optimizer(model: SegmentationModel, opt: Adam, extra: dict):
    """Restore Adam moments saved by train() into a fresh optimizer."""
    if "opt.step" not in extra:
        return
    opt.step_count = int(extra["opt.step"][0])
    index = {id(p): i for i, p in enumerate(opt.params)}
    for name, p in model.params.items():
        i = index[id(p)]
        if f"opt.m.{name}" in extra:
            opt.m[i][...] = extra[f"opt.m.{name}"]
            opt.v[i][...] = extra[f"opt.v.{name}"]


# -- inference ------------------------------------------------------------


@dataclass
class InferenceResult:
    output: object               # ModelOutput
    raw_labels: np.ndarray
    refined_labels: np.ndarray
    boundaries: list


def infer(model: SegmentationModel, features: np.ndarray, refine: bool = True) -> InferenceResult:
    if features.shape[1] != model.cfg.d_in:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match model d_in {model.cfg.d_in}"
        )
    with no_grad():
        out = model.forward(Tensor(features), training=False)
    final = out.stages[-1]
    logits = final.action_logits.data
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    raw = np.argmax(logits, axis=1)
    if refine:
        bounds = detect_boundaries(
            final.boundary_scores.data,
            model.cfg.boundary_theta,
            model.cfg.boundary_min_distance,
        )
        refined = refine_prediction(probs, bounds)
    else:
        bounds = []
        refined = raw.copy()
    return InferenceResult(out, raw, refined, bounds)


# -- config files ---------------------------------------------------------


def load_run_config(path) -> RunConfig:
    """`key = value` file with [model] and [train] sections."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    model = ModelConfig.from_dict(dict(cp["model"])) if cp.has_section("model") else ModelConfig()
    run = RunConfig(model=model)
    if cp.has_section("train"):
        for key, value in cp["train"].items():
            if key == "lr":
                run.lr = float(value)
            elif key == "max_epochs":
                run.max_epochs = int(value)
            elif key == "patience":
                run.patience = int(value)
            elif key == "val_fraction":
                run.val_fraction = float(value)
            elif key == "target_accuracy":
                run.target_accuracy = float(value)
            elif key == "seed":
                run.seed = int(value)
            else:
                raise ValueError(f"unknown [train] key {key!r} in {path}")
    return run


def load_synth_spec(path) -> SynthSpec:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ValueError(f"cannot read spec file {path}")
    if not cp.has_section("synth"):
        raise ValueError(f"{path} has no [synth] section")
    sec = cp["synth"]
    kwargs = {}
    for f in fields(SynthSpec):
        if f.name not in sec:
            continue
        raw = sec[f.name]
        if f.name == "durations":
            pairs = [p for p in raw.replace(";", "\n").split() if p]
            kwargs["durations"] = tuple(
                tuple(float(x) for x in p.split(",")) for p in pairs
            )
        elif isinstance(f.default, int):
            kwargs[f.name] = int(raw)
        elif isinstance(f.default, float):
            kwargs[f.name] = float(raw)
    return SynthSpec(**kwargs)
