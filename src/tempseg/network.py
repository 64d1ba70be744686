"""Multi-stage segmentation network: an acausal TCN + sparse-attention
encoder followed by causal TCN decoders. Every layer runs at frame rate, so
each stage emits per-frame action logits and a boundary score for every
input frame."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import attention as attn
from .binio import FormatError, Reader, map_file, replacing
from .seqcore import (
    ShapeError,
    Tensor,
    as_tensor,
    concat,
    # no network code runs conv1d_dilated: it is imported only because
    # perfbench/tracing.py wraps network.conv1d_dilated, so its
    # seqcore.conv1d.* metrics read 0, as attention.mask_cache_hit does
    conv1d_dilated,
    layer_norm,
    linear,
    softmax,
    tcn_block,
)

__all__ = [
    "ModelConfig",
    "RETIRED_KEYS",
    "build_config",
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
CHECKPOINT_VERSION = 2
# the values' dtype per checkpoint version; from version 2 on, a rank-3 blob
# (a conv kernel [C_out, C_in, k]) is stored with its axes reversed
_BLOB_DTYPES = {1: np.dtype("<f8"), 2: np.dtype("<f4")}

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


def _check_ranges(obj, checks):
    """Raise ValueError naming the first field of `obj` whose check is False,
    from (field, check, allowed range) triples."""
    for name, ok, allowed in checks:
        if not ok:
            raise ValueError(f"{name} must be {allowed}, got {getattr(obj, name)}")


def build_config(cls, items, source: str, retired: dict, **fixed):
    """Dataclass `cls` from `(key, value)` pairs plus the `fixed` arguments.

    A text value is parsed by the type of the field's default; any other
    value (as from ``to_dict()``) passes through. A key in `retired` (the
    key of a removed field, with the one value it may still hold) is
    accepted only at that value, and then dropped. An unknown key, text that
    does not parse, or a value that `cls` rejects raises ValueError naming
    `source`.
    """
    defaults = {f.name: f.default for f in fields(cls) if isinstance(f.default, (int, float))}
    kwargs = {}
    try:
        for key, value in items:
            if key in retired:
                only = retired[key]
                try:
                    kept = (_parse_like(only, value) if isinstance(value, str) else value) == only
                except ValueError:
                    kept = False
                if not kept:
                    raise ValueError(f"{key} was removed and may only be {only}, got {value!r}")
                continue
            if key not in defaults:
                raise ValueError(f"unknown key {key!r}")
            if isinstance(value, str):
                try:
                    value = _parse_like(defaults[key], value)
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None
            kwargs[key] = value
        return cls(**fixed, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


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
        sizes = ("n_classes", "d_in", "d_model", "n_blocks", "heads", "kernel_size", "attn_dim",
                 "mlp_hidden", "w_min", "s_avg", "hta_window", "boundary_min_distance")
        weights = ("n_decoders", "rate_max", "max_scales", "focal_gamma", "dice_smooth",
                   "loss_alpha", "loss_beta", "loss_gamma", "loss_delta", "seed")
        heads = max(self.heads, 1)  # heads < 1 fails its own row first; no 0 divisor below
        _check_ranges(self, [
            *((name, getattr(self, name) >= 1, ">= 1") for name in sizes),
            *((name, getattr(self, name) >= 0, ">= 0") for name in weights),
            *((name, getattr(self, name) > 0, "> 0") for name in ("tau", "sigma_divisor")),
            ("heads", heads % 2 == 0, "even"),  # DSWA gives each window half the heads
            ("heads", self.d_model % heads == 0, f"a divisor of d_model {self.d_model}"),
            ("attn_dim", self.attn_dim % heads == 0, f"a multiple of heads {heads}"),
            ("kernel_size", self.kernel_size % 2 == 1, "odd"),  # acausal taps are centred
            ("w_max", self.w_max >= self.w_min, f">= w_min {self.w_min}"),
            ("temporal_dropout", 0.0 <= self.temporal_dropout < 1.0, "in [0, 1)"),
        ])

    def window_pairs(self) -> list[tuple[attn.WindowSpec, attn.WindowSpec]]:
        """Per encoder layer, its (expanding, shrinking) DSWA windows."""
        return attn.build_window_schedule(self.n_blocks, self.w_min, self.w_max, self.rate_max)

    def scale_set(self, T: int) -> attn.ScaleSet:
        """HTA's scales at sequence length T."""
        return attn.ScaleSet.build(T, self.s_avg, self.hta_window, self.max_scales)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, source: str = "ModelConfig") -> "ModelConfig":
        """Config from `d` (text or typed values); a key in RETIRED_KEYS is
        accepted only at its one remaining value, and then dropped."""
        return build_config(cls, d.items(), source, RETIRED_KEYS)


@dataclass
class StagePrediction:
    """Per-stage per-frame outputs."""

    action_logits: Tensor        # [T, C]
    boundary_scores: Tensor      # [T]
    features: Tensor             # [T, d_model], pre-head, for the similarity loss


@dataclass
class ModelOutput:
    stages: list  # encoder stage first, then one per decoder


# `_tcn_stack` calls the TCN block op by this name, which perfbench's tracer wraps
tcn_block_forward = tcn_block


def _linear_init(rng, n_in, n_out):
    data = rng.standard_normal((n_in, n_out))
    data /= math.sqrt(n_in)  # in place: no second copy of the kernel
    return data


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
            data = rng.standard_normal(shape)
            data /= math.sqrt(shape[1] * shape[2])
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
        names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        return attn.AttentionParams(**{n: self.params[f"{prefix}.{n}"] for n in names},
                                    heads=self.cfg.heads)

    def masks_for(self, T: int):
        """Per layer, the (expanding, shrinking) DSWA masks at length T."""
        return [(attn.build_sparse_mask(T, e), attn.build_sparse_mask(T, s))
                for e, s in self.cfg.window_pairs()]

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
        h = self._tcn_stack(h, "enc_tcn", "acausal")
        masks = self.masks_for(h.shape[0])
        scales = self.cfg.scale_set(h.shape[0])
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
        z = self._tcn_stack(z, f"dec{index}.tcn", "causal")
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
    hta_pairs = _hta_pair_count(T, cfg.scale_set(T))
    for pair in cfg.window_pairs():
        pairs = sum(attn.attended_pairs_count(attn.AttentionMask(T, spec)) for spec in pair)
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
    f, w = 1 << (scales.levels - 1), scales.window
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
    """Binary checkpoint: magic, u32 version 2, config text blob, then named
    float32 little-endian parameter blobs.

    A blob holds the float32 rounding of its parameter, which is what every
    forward runs on: float64 master weights exist only in memory, during
    `train`. A value beyond the float32 range is stored as the infinity of
    its sign, as that forward's cast gives. A conv kernel (a rank-3 parameter, [C_out, C_in, k])
    is stored tap-major, with its axes reversed to [k, C_in, C_out]: the
    header lists that stored shape, and `load_checkpoint` reverses it back.

    The file is written beside `path` and renamed onto it (`replacing`), so
    a failed write leaves the old checkpoint as it was, and a process that
    still maps the old file (see `load_checkpoint`) keeps reading the old
    inode."""
    with replacing(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        cfg_blob = _config_blob(cfg)
        f.write(struct.pack("<I", len(cfg_blob)))
        f.write(cfg_blob)
        f.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            data = params[name].data
            if data.ndim == 3:
                data = data.T  # tap-major: each tap is one [C_in, C_out] block
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack(f"<I{data.ndim}Q", data.ndim, *data.shape))
            with np.errstate(over="ignore"):
                f.write(np.ascontiguousarray(data, "<f4"))


def load_checkpoint(path):
    """Returns (config, params dict, dict of the blobs the config does not name).

    The file is mapped read-only once and its header walked over the
    mapping, every field and size checked against the mapping's length
    before it is unpacked; each blob is then a read-only view on that
    mapping, not a copy. The mapping lives as long as any view. A version-2
    blob is a float32 view, and a rank-3 one is the reversed view of its
    stored [k, C_in, C_out] values, so a conv kernel reads as
    [C_out, C_in, k] and each tap's `w[:, :, j].T` is C-contiguous. A
    version-1 file loads as float64 views in the stored axis order.
    Truncating the file in place while a view is alive makes reads past the
    new end fault (SIGBUS); `save_checkpoint` never does, it replaces the
    file."""
    with open(path, "rb") as f:
        mapped = map_file(f)
        r = Reader(mapped, f.name)
    magic = r.read_exact(4, "checkpoint magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(
            f"{path}: bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, found {magic!r}"
        )
    (version,) = r.read_struct("<I", "checkpoint version")
    dtype = _BLOB_DTYPES.get(version)
    if dtype is None:
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
        at = r.pos
        try:
            name = r.read_exact(ln, "parameter name").decode()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: parameter name at byte {at} is not UTF-8") from None
        if name in layout:
            raise FormatError(f"{path}: parameter {name!r} appears twice")
        (rank,) = r.read_struct("<I", f"rank of {name!r}")
        shape = r.read_struct(f"<{rank}Q", f"shape of {name!r}")
        size = math.prod(shape)
        # every size is checked against the mapping, so every view lies inside it
        layout[name] = shape, size, r.skip(dtype.itemsize * size, f"values of {name!r}")
    blobs = {}
    for name, (shape, size, offset) in layout.items():
        blob = np.frombuffer(mapped, dtype, size, offset).reshape(shape)
        blobs[name] = blob.T if version >= 2 and blob.ndim == 3 else blob
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
