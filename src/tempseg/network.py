"""Multi-stage segmentation network: an acausal TCN + sparse-attention
encoder followed by causal TCN decoders. Every layer runs at frame rate, so
each stage emits per-frame action logits and a boundary score for every
input frame."""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import attention as attn
from .binio import FormatError, Reader
from .seqcore import (
    ShapeError,
    Tensor,
    as_tensor,
    concat,
    conv1d_dilated,
    layer_norm,
    linear,
    softmax,
)

__all__ = [
    "ModelConfig",
    "RETIRED_KEYS",
    "config_kwargs",
    "StagePrediction",
    "ModelOutput",
    "SegmentationModel",
    "tcn_block_forward",
    "count_params_flops",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"MSBC"
CHECKPOINT_VERSION = 1

# config keys of removed ModelConfig fields, each with the only value it may
# still hold: old checkpoints and config files that carry one still load, and
# any other value would build a model the key no longer describes
RETIRED_KEYS = {
    "learnable_scale_weights": False,
    "boundary_sigma_frac": 0.05,
    "supervise_all_stages": True,
    "dilate_shrinking": True,
    "stride": 1,
}

_BOOL_TEXT = {
    "true": True, "1": True, "yes": True, "on": True,
    "false": False, "0": False, "no": False, "off": False,
}


def _parse_like(default, text: str):
    """The value of `text` as the type of `default` (bool, int or float)."""
    if isinstance(default, bool):
        value = _BOOL_TEXT.get(text.strip().lower())
        if value is None:
            raise ValueError(f"expected true/false/1/0/yes/no/on/off, got {text!r}")
        return value
    if isinstance(default, int):
        return int(text)
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def config_kwargs(cls, items, source: str) -> dict:
    """Keyword arguments for dataclass `cls` from `(key, value)` pairs.

    A text value is parsed by the type of the field's default; any other
    value (as from ``to_dict()``) passes through. An unknown key, or text
    that does not parse, raises ValueError naming `source` and the key.
    """
    defaults = {f.name: f.default for f in fields(cls) if isinstance(f.default, (int, float))}
    kwargs = {}
    for key, value in items:
        if key not in defaults:
            raise ValueError(f"{source}: unknown key {key!r}")
        if isinstance(value, str):
            try:
                value = _parse_like(defaults[key], value)
            except ValueError as exc:
                raise ValueError(f"{source}: {key}: {exc}") from None
        kwargs[key] = value
    return kwargs


@dataclass
class ModelConfig:
    """Every architecture and loss hyperparameter in one place."""

    n_classes: int = 8
    d_in: int = 2048
    d_model: int = 256
    n_blocks: int = 10
    n_decoders: int = 3
    heads: int = 8
    kernel_size: int = 3
    temporal_dropout: float = 0.3
    attn_dim: int = 0          # 0 -> d_model // 4
    mlp_hidden: int = 0        # 0 -> d_model // 2
    # window schedule
    w_min: int = 16
    w_max: int = 256
    rate_max: int = 4
    # hierarchical scales
    s_avg: int = 64
    hta_window: int = 8
    max_scales: int = 4
    # loss
    loss_alpha: float = 1.0
    loss_beta: float = 0.2
    loss_gamma: float = 0.5
    loss_delta: float = 0.5
    focal_gamma: float = 2.0
    dice_smooth: float = 1.0
    tau: float = 0.5
    sigma_divisor: float = 6.0
    # refinement / decoding
    boundary_theta: float = 0.5
    boundary_min_distance: int = 8
    seed: int = 0

    # not a field: the model always runs at frame rate, and only perfbench's
    # tracer still reads this; ROADMAP item 5 deletes it
    stride = 1

    def __post_init__(self):
        if self.attn_dim == 0:
            self.attn_dim = max(self.heads, self.d_model // 4)
        if self.mlp_hidden == 0:
            self.mlp_hidden = max(1, self.d_model // 2)
        self.validate()

    def validate(self):
        for name in ("n_classes", "d_in", "d_model", "n_blocks", "heads", "kernel_size",
                     "attn_dim", "mlp_hidden", "w_min", "s_avg", "hta_window",
                     "boundary_min_distance"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("n_decoders", "rate_max", "max_scales", "focal_gamma", "dice_smooth",
                     "loss_alpha", "loss_beta", "loss_gamma", "loss_delta", "seed"):
            if not getattr(self, name) >= 0:
                raise ShapeError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("tau", "sigma_divisor"):
            if not getattr(self, name) > 0:
                raise ShapeError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.d_model % self.heads != 0:
            raise ShapeError(f"heads {self.heads} must divide d_model {self.d_model}")
        if self.attn_dim % self.heads != 0:
            raise ShapeError(f"heads {self.heads} must divide attn_dim {self.attn_dim}")
        if not 0.0 <= self.temporal_dropout < 1.0:
            raise ShapeError(f"dropout must be in [0, 1), got {self.temporal_dropout}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, source: str = "ModelConfig") -> "ModelConfig":
        """Config from `d` (text or typed values); a key in RETIRED_KEYS is
        accepted only at its one remaining value, and then dropped."""
        items = []
        for key, value in d.items():
            if key not in RETIRED_KEYS:
                items.append((key, value))
                continue
            only = RETIRED_KEYS[key]
            try:
                kept = (_parse_like(only, value) if isinstance(value, str) else value) == only
            except ValueError:
                kept = False
            if not kept:
                raise ValueError(
                    f"{source}: {key} was removed and may only be {only}, got {value!r}"
                )
        kwargs = config_kwargs(cls, items, source)
        try:
            return cls(**kwargs)
        except ShapeError as exc:
            raise ShapeError(f"{source}: {exc}") from None


@dataclass
class StagePrediction:
    """Per-stage per-frame outputs."""

    action_logits: Tensor        # [T, C]
    boundary_scores: Tensor      # [T]
    features: Tensor             # [T, d_model], pre-head, for the similarity loss


@dataclass
class ModelOutput:
    stages: list  # encoder stage first, then one per decoder


def tcn_block_forward(
    x: Tensor,
    conv_w: Tensor,
    conv_b: Tensor,
    pw_w: Tensor,
    pw_b: Tensor,
    dilation: int,
    mode: str,
) -> Tensor:
    """Dilated conv -> ReLU -> 1x1 conv -> residual add, on [D, T] input."""
    h = conv1d_dilated(x, conv_w, conv_b, dilation=dilation, mode=mode)
    h = h.relu()
    h = conv1d_dilated(h, pw_w, pw_b, dilation=1, mode="acausal")
    if x.shape != h.shape:
        raise ShapeError(f"residual shape {x.shape} does not match block output {h.shape}")
    return x + h


def _linear_init(rng, n_in, n_out):
    return rng.standard_normal((n_in, n_out)) / math.sqrt(n_in)


def _param_specs(cfg: ModelConfig):
    """Yield (name, shape) for every parameter, a pure function of config."""
    d, a, k, c = cfg.d_model, cfg.attn_dim, cfg.kernel_size, cfg.n_classes
    yield "in_proj.w", (cfg.d_in, d)
    yield "in_proj.b", (d,)
    for i in range(cfg.n_blocks):
        yield f"enc_tcn.{i}.conv.w", (d, d, k)
        yield f"enc_tcn.{i}.conv.b", (d,)
        yield f"enc_tcn.{i}.pw.w", (d, d, 1)
        yield f"enc_tcn.{i}.pw.b", (d,)
    for i in range(cfg.n_blocks):
        p = f"enc_attn.{i}"
        yield f"{p}.ln1.g", (d,)
        yield f"{p}.ln1.b", (d,)
        for kind in ("dswa", "hta"):
            yield f"{p}.{kind}.wq", (d, a)
            yield f"{p}.{kind}.bq", (a,)
            yield f"{p}.{kind}.wk", (d, a)
            yield f"{p}.{kind}.bk", (a,)
            yield f"{p}.{kind}.wv", (d, a)
            yield f"{p}.{kind}.bv", (a,)
            yield f"{p}.{kind}.wo", (a, d)
            yield f"{p}.{kind}.bo", (d,)
        yield f"{p}.ln2.g", (d,)
        yield f"{p}.ln2.b", (d,)
        yield f"{p}.mlp.w1", (d, cfg.mlp_hidden)
        yield f"{p}.mlp.b1", (cfg.mlp_hidden,)
        yield f"{p}.mlp.w2", (cfg.mlp_hidden, d)
        yield f"{p}.mlp.b2", (d,)
    yield "enc_head.action.w", (d, c)
    yield "enc_head.action.b", (c,)
    yield "enc_head.boundary.w", (d, 1)
    yield "enc_head.boundary.b", (1,)
    for j in range(cfg.n_decoders):
        yield f"dec{j}.in_proj.w", (c + d, d)
        yield f"dec{j}.in_proj.b", (d,)
        for i in range(cfg.n_blocks):
            yield f"dec{j}.tcn.{i}.conv.w", (d, d, k)
            yield f"dec{j}.tcn.{i}.conv.b", (d,)
            yield f"dec{j}.tcn.{i}.pw.w", (d, d, 1)
            yield f"dec{j}.tcn.{i}.pw.b", (d,)
        yield f"dec{j}.head.action.w", (d, c)
        yield f"dec{j}.head.action.b", (c,)
        yield f"dec{j}.head.boundary.w", (d, 1)
        yield f"dec{j}.head.boundary.b", (1,)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    params = {}
    for name, shape in _param_specs(cfg):
        if name.endswith(".g"):
            data = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")):
            data = np.zeros(shape)
        elif len(shape) == 3:  # conv kernels: fan_in = C_in * k
            data = rng.standard_normal(shape) / math.sqrt(shape[1] * shape[2])
        else:
            data = _linear_init(rng, shape[0], shape[1])
        params[name] = Tensor(data, requires_grad=True)
    return params


class SegmentationModel:
    """One encoder plus n_decoders refinement decoders over a parameter dict."""

    def __init__(self, cfg: ModelConfig, params: dict | None = None):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.params = params if params is not None else init_params(cfg, self.rng)

    # -- helpers ---------------------------------------------------------

    def parameters(self):
        return list(self.params.values())

    def _attn_params(self, prefix: str) -> attn.AttentionParams:
        p = self.params
        return attn.AttentionParams(
            p[f"{prefix}.wq"], p[f"{prefix}.bq"],
            p[f"{prefix}.wk"], p[f"{prefix}.bk"],
            p[f"{prefix}.wv"], p[f"{prefix}.bv"],
            p[f"{prefix}.wo"], p[f"{prefix}.bo"],
            self.cfg.heads,
        )

    def schedule(self):
        return attn.build_window_schedule(
            self.cfg.n_blocks, self.cfg.w_min, self.cfg.w_max, self.cfg.rate_max
        )

    def masks_for(self, T: int):
        """Per layer, the (expanding, shrinking) DSWA masks at length T."""
        return [(attn.build_sparse_mask(T, e), attn.build_sparse_mask(T, s))
                for e, s in self.schedule()]

    def scales_for(self, T: int) -> attn.ScaleSet:
        return attn.ScaleSet.build(T, self.cfg.s_avg, self.cfg.hta_window,
                                   max_scales=self.cfg.max_scales)

    def _tcn_stack(self, h: Tensor, prefix: str, mode: str) -> Tensor:
        for i in range(self.cfg.n_blocks):
            p = self.params
            h = tcn_block_forward(
                h,
                p[f"{prefix}.{i}.conv.w"], p[f"{prefix}.{i}.conv.b"],
                p[f"{prefix}.{i}.pw.w"], p[f"{prefix}.{i}.pw.b"],
                dilation=2 ** i, mode=mode,
            )
        return h

    def _heads(self, feats: Tensor, prefix: str) -> StagePrediction:
        p = self.params
        logits = linear(feats, p[f"{prefix}.action.w"], p[f"{prefix}.action.b"])
        blogit = linear(feats, p[f"{prefix}.boundary.w"], p[f"{prefix}.boundary.b"])
        # the boundary sigmoid runs in float64: a float32 one saturates to
        # plateaus of exactly 1.0 that peak picking cannot separate
        scores = blogit.astype(np.float64).sigmoid().reshape(feats.shape[0])
        return StagePrediction(logits, scores, feats)

    # -- stages ----------------------------------------------------------

    def encoder_forward(self, x: Tensor, training: bool = False):
        x = as_tensor(x)
        if x.shape[1] != self.cfg.d_in:
            raise ShapeError(f"expected {self.cfg.d_in} input channels, got {x.shape[1]}")
        if training and self.cfg.temporal_dropout > 0.0:
            keep = 1.0 - self.cfg.temporal_dropout
            mask = (self.rng.random(self.cfg.d_in) < keep) / keep
            # in the input's dtype: a float64 mask would upcast a float32 pass
            x = x * mask[None, :].astype(x.dtype)
        h = linear(x, self.params["in_proj.w"], self.params["in_proj.b"])
        h = self._tcn_stack(h.T, "enc_tcn", "acausal").T
        masks = self.masks_for(h.shape[0])
        scales = self.scales_for(h.shape[0])
        p = self.params
        for i in range(self.cfg.n_blocks):
            pre = f"enc_attn.{i}"
            a = layer_norm(h, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
            d_out = attn.dswa_forward(a, masks[i][0], masks[i][1], self._attn_params(f"{pre}.dswa"))
            t_out = attn.hta_forward(a, scales, self._attn_params(f"{pre}.hta"))
            h = h + d_out + t_out
            m = layer_norm(h, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
            m = linear(m, p[f"{pre}.mlp.w1"], p[f"{pre}.mlp.b1"]).gelu()
            m = linear(m, p[f"{pre}.mlp.w2"], p[f"{pre}.mlp.b2"])
            h = h + m
        return h, self._heads(h, "enc_head")

    def decoder_forward(self, prev: StagePrediction, enc_features: Tensor, index: int) -> StagePrediction:
        probs = softmax(prev.action_logits)
        if probs.shape[0] != enc_features.shape[0]:
            raise ShapeError(
                f"stage at {probs.shape[0]} frames does not align with encoder {enc_features.shape[0]}"
            )
        z = concat([probs, enc_features], axis=1)
        z = linear(z, self.params[f"dec{index}.in_proj.w"], self.params[f"dec{index}.in_proj.b"])
        z = self._tcn_stack(z.T, f"dec{index}.tcn", "causal").T
        return self._heads(z, f"dec{index}.head")

    def forward(self, x, training: bool = False) -> ModelOutput:
        enc_features, stage = self.encoder_forward(x, training=training)
        stages = [stage]
        for j in range(self.cfg.n_decoders):
            stage = self.decoder_forward(stage, enc_features, j)
            stages.append(stage)
        return ModelOutput(stages)


def count_params_flops(cfg: ModelConfig, T: int) -> tuple[int, int]:
    """Exact parameter count by enumeration, plus a multiply-accumulate count
    for one forward pass at sequence length T (sparse attended pairs)."""
    n_params = sum(int(np.prod(shape)) for _, shape in _param_specs(cfg))

    d, a, k, c = cfg.d_model, cfg.attn_dim, cfg.kernel_size, cfg.n_classes
    tcn = cfg.n_blocks * (T * d * d * k + T * d * d)  # one TCN stack: dilated + pointwise
    macs = T * cfg.d_in * d + tcn  # input projection, encoder TCN
    schedule = attn.build_window_schedule(cfg.n_blocks, cfg.w_min, cfg.w_max, cfg.rate_max)
    scales = attn.ScaleSet.build(T, cfg.s_avg, cfg.hta_window, max_scales=cfg.max_scales)
    hta_pairs = _hta_pair_count(T, scales)
    for e_spec, s_spec in schedule:
        pairs = attn.attended_pairs_count(attn.AttentionMask(T, e_spec))
        pairs += attn.attended_pairs_count(attn.AttentionMask(T, s_spec))
        macs += 4 * T * d * a        # q/k/v/output projections (dswa)
        macs += 2 * pairs * a        # scores + weighted values
        macs += 4 * T * d * a        # hta projections
        macs += 2 * hta_pairs * a
        macs += 2 * T * d * cfg.mlp_hidden
    macs += T * d * (c + 1)  # encoder heads
    for _ in range(cfg.n_decoders):
        macs += T * (c + d) * d + tcn + T * d * (c + 1)
    return n_params, macs


def _hta_pair_count(T: int, scales: attn.ScaleSet) -> int:
    """Size of HTA's frame-level union neighbourhood: per frame, the
    coarsest scale's window of pooled blocks, clipped to the sequence.

    A block of f frames whose window of 2w + 1 blocks lies inside the
    sequence adds f * (2w + 1) * f pairs; only the at most 2w + 1 blocks
    at the two ends are summed one by one, so the count is exact at any
    length without a per-frame array."""
    f, w = 1 << max(scales.scales), scales.window
    n_blocks = -(-T // f)
    inner_end = max(T // f - w, w)  # interior blocks are w .. inner_end - 1
    pairs = (inner_end - w) * f * (2 * w + 1) * f
    for b in [*range(min(w, n_blocks)), *range(inner_end, n_blocks)]:
        frames = min(f, T - b * f)
        pairs += frames * (min((b + w + 1) * f, T) - max((b - w) * f, 0))
    return pairs


# -- checkpoint serialization --------------------------------------------


def _config_blob(cfg: ModelConfig) -> bytes:
    lines = [f"{k} = {v}" for k, v in cfg.to_dict().items()]
    return "\n".join(lines).encode()


def _config_from_blob(blob: bytes, path) -> ModelConfig:
    d = {}
    for line in blob.decode(errors="replace").splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            d[k.strip()] = v.strip()
    return ModelConfig.from_dict(d, str(path))


def save_checkpoint(path, cfg: ModelConfig, params: dict):
    """Binary checkpoint: magic, u32 version, config text blob, then named
    float64 little-endian parameter blobs.

    The file is written beside `path` and renamed onto it, so a failed write
    leaves the old checkpoint as it was, and a process that still maps the
    old file (see `load_checkpoint`) keeps reading the old inode."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            cfg_blob = _config_blob(cfg)
            f.write(struct.pack("<I", len(cfg_blob)))
            f.write(cfg_blob)
            f.write(struct.pack("<I", len(params)))
            for name in sorted(params):
                data = params[name].data
                nb = name.encode()
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                f.write(struct.pack(f"<I{data.ndim}Q", data.ndim, *data.shape))
                f.write(np.ascontiguousarray(data, "<f8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (config, params dict, dict of the blobs the config does not name).

    Every header and size is checked before anything is mapped; then the
    file is mapped read-only once, and each blob is a read-only float64 view
    on that mapping, not a copy. The mapping lives as long as any view.
    Truncating the file in place while a view is alive makes reads past the
    new end fault (SIGBUS); `save_checkpoint` never does, it replaces the
    file."""
    with open(path, "rb") as f:
        r = Reader(f)
        magic = r.read_exact(4, "checkpoint magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(
                f"{path}: bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, found {magic!r}"
            )
        (version,) = r.read_struct("<I", "checkpoint version")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (n,) = r.read_struct("<I", "config length")
        blob = r.read_exact(n, "config")
        try:
            cfg = _config_from_blob(blob, path)
        except ValueError as exc:
            raise FormatError(f"bad checkpoint config: {exc}") from None
        (count,) = r.read_struct("<I", "parameter count")
        layout = {}
        for _ in range(count):
            (ln,) = r.read_struct("<I", "parameter name length")
            at = f.tell()
            try:
                name = r.read_exact(ln, "parameter name").decode()
            except UnicodeDecodeError:
                raise FormatError(f"{path}: parameter name at byte {at} is not UTF-8") from None
            if name in layout:
                raise FormatError(f"{path}: parameter {name!r} appears twice")
            (rank,) = r.read_struct("<I", f"rank of {name!r}")
            shape = r.read_struct(f"<{rank}Q", f"shape of {name!r}")
            size = math.prod(shape)
            layout[name] = shape, size, r.skip(8 * size, f"values of {name!r}")
        # every size is checked against the file, so every view lies inside it
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    blobs = {
        name: np.frombuffer(mapped, "<f8", size, offset).reshape(shape)
        for name, (shape, size, offset) in layout.items()
    }
    expected = dict(_param_specs(cfg))
    learned = sorted(k for k in blobs if k.startswith("enc_attn.") and k.endswith(".hta.ws"))
    if learned:
        raise FormatError(
            f"{path}: holds learned HTA scale weights ({learned[0]}, ...), which this "
            f"version does not support; they would be dropped"
        )
    params = {k: Tensor(v, requires_grad=True) for k, v in blobs.items() if k in expected}
    missing = expected.keys() - params
    if missing:
        raise FormatError(f"{path}: checkpoint missing parameters: {sorted(missing)[:3]}...")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise FormatError(
                f"{path}: parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )
    extra = {k: v for k, v in blobs.items() if k not in expected}
    return cfg, params, extra
