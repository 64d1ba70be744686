"""Multi-stage segmentation network: an acausal TCN + sparse-attention
encoder followed by causal TCN decoders, each stage emitting per-frame
action logits and a boundary score at the original temporal resolution."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import attention as attn
from .seqcore import ShapeError, Tensor, as_tensor, concat, conv1d_dilated, layer_norm, masked_softmax

__all__ = [
    "ModelConfig",
    "StagePrediction",
    "ModelOutput",
    "SegmentationModel",
    "tcn_block_forward",
    "upsample_to_original",
    "count_params_flops",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"MSBC"
CHECKPOINT_VERSION = 1


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
    stride: int = 1
    temporal_dropout: float = 0.3
    attn_dim: int = 0          # 0 -> d_model // 4
    mlp_hidden: int = 0        # 0 -> d_model // 2
    # window schedule
    w_min: int = 16
    w_max: int = 256
    rate_max: int = 4
    dilate_shrinking: bool = True
    # hierarchical scales
    s_avg: int = 64
    hta_window: int = 8
    max_scales: int = 4
    learnable_scale_weights: bool = False
    # loss
    loss_alpha: float = 1.0
    loss_beta: float = 0.2
    loss_gamma: float = 0.5
    loss_delta: float = 0.5
    focal_gamma: float = 2.0
    dice_smooth: float = 1.0
    tau: float = 0.5
    sigma_divisor: float = 6.0
    boundary_sigma_frac: float = 0.05
    supervise_all_stages: bool = True
    # refinement / decoding
    boundary_theta: float = 0.5
    boundary_min_distance: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.attn_dim == 0:
            self.attn_dim = max(self.heads, self.d_model // 4)
        if self.mlp_hidden == 0:
            self.mlp_hidden = max(1, self.d_model // 2)
        self.validate()

    def validate(self):
        if self.d_model % self.heads != 0:
            raise ShapeError(f"heads {self.heads} must divide d_model {self.d_model}")
        if self.attn_dim % self.heads != 0:
            raise ShapeError(f"heads {self.heads} must divide attn_dim {self.attn_dim}")
        for name in ("n_classes", "d_in", "d_model", "n_blocks", "heads", "kernel_size", "stride"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_decoders < 0:
            raise ShapeError("n_decoders must be >= 0")
        if not 0.0 <= self.temporal_dropout < 1.0:
            raise ShapeError(f"dropout must be in [0, 1), got {self.temporal_dropout}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        kwargs = {}
        for f in fields(cls):
            if f.name not in d:
                continue
            v = d[f.name]
            if isinstance(v, str):
                if f.type == "bool" or isinstance(f.default, bool):
                    v = v.strip().lower() in ("1", "true", "yes", "on")
                elif isinstance(f.default, int):
                    v = int(v)
                elif isinstance(f.default, float):
                    v = float(v)
            kwargs[f.name] = v
        return cls(**kwargs)


@dataclass
class StagePrediction:
    """Per-stage per-frame outputs at original resolution."""

    action_logits: Tensor        # [T_orig, C]
    boundary_scores: Tensor      # [T_orig]
    features: Tensor             # [T_orig, d_model], pre-head, for the similarity loss


@dataclass
class ModelOutput:
    stages: list  # encoder stage first, then one per decoder


def upsample_to_original(x: Tensor, T_orig: int, stride: int) -> Tensor:
    """Linear interpolation along time from T_reduced = ceil(T_orig/stride)
    back to T_orig; identity when stride == 1. Positions beyond the last
    reduced sample hold its value."""
    x = as_tensor(x)
    t_red = x.shape[0]
    if t_red != -(-T_orig // stride):
        raise ShapeError(
            f"length mismatch: {t_red} reduced frames cannot map to {T_orig} at stride {stride}"
        )
    if stride == 1:
        return x
    pos = np.arange(T_orig) / stride
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, t_red - 1)
    frac = (pos - i0).reshape((T_orig,) + (1,) * (x.data.ndim - 1))
    return x.take_rows(i0) * (1.0 - frac) + x.take_rows(i1) * frac


def tcn_block_forward(
    x: Tensor,
    conv_w: Tensor,
    conv_b: Tensor,
    pw_w: Tensor,
    pw_b: Tensor,
    dilation: int,
    mode: str,
    stride: int = 1,
) -> Tensor:
    """Dilated conv -> ReLU -> 1x1 conv -> residual add, on [D, T] input.

    With stride > 1 the residual is the strided slice of the input.
    """
    h = conv1d_dilated(x, conv_w, conv_b, dilation=dilation, mode=mode, stride=stride)
    h = h.relu()
    h = conv1d_dilated(h, pw_w, pw_b, dilation=1, mode="acausal", stride=1)
    res = x if stride == 1 else x[:, ::stride]
    if res.shape != h.shape:
        raise ShapeError(f"residual shape {res.shape} does not match block output {h.shape}")
    return res + h


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
        if cfg.learnable_scale_weights:
            yield f"{p}.hta.ws", (8,)
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
        elif name.endswith(".ws"):
            data = np.ones(shape)
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
        self._mask_cache: dict = {}

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
            self.cfg.n_blocks, self.cfg.w_min, self.cfg.w_max,
            self.cfg.rate_max, causal=False, dilate_shrinking=self.cfg.dilate_shrinking,
        )

    def masks_for(self, t_red: int):
        key = ("masks", t_red)
        if key not in self._mask_cache:
            self._mask_cache[key] = [
                (attn.build_sparse_mask(t_red, e), attn.build_sparse_mask(t_red, s))
                for e, s in self.schedule()
            ]
        return self._mask_cache[key]

    def scales_for(self, t_red: int, layer: int) -> attn.ScaleSet:
        key = ("scales", t_red)
        if key not in self._mask_cache:
            self._mask_cache[key] = attn.ScaleSet.build(
                t_red, self.cfg.s_avg, self.cfg.hta_window, max_scales=self.cfg.max_scales
            )
        base = self._mask_cache[key]
        if self.cfg.learnable_scale_weights:
            ws = self.params[f"enc_attn.{layer}.hta.ws"]
            n = len(base.scales)
            weights = [ws[i] for i in range(n)]
            return attn.ScaleSet(base.T, base.scales, weights, base.window)
        return base

    def _tcn_stack(self, h: Tensor, prefix: str, mode: str, first_stride: int) -> Tensor:
        for i in range(self.cfg.n_blocks):
            p = self.params
            h = tcn_block_forward(
                h,
                p[f"{prefix}.{i}.conv.w"], p[f"{prefix}.{i}.conv.b"],
                p[f"{prefix}.{i}.pw.w"], p[f"{prefix}.{i}.pw.b"],
                dilation=2 ** i, mode=mode,
                stride=first_stride if i == 0 else 1,
            )
        return h

    def _heads(self, feats: Tensor, prefix: str, t_orig: int) -> StagePrediction:
        p = self.params
        logits = feats @ p[f"{prefix}.action.w"] + p[f"{prefix}.action.b"]
        blogit = feats @ p[f"{prefix}.boundary.w"] + p[f"{prefix}.boundary.b"]
        logits = upsample_to_original(logits, t_orig, self.cfg.stride)
        blogit = upsample_to_original(blogit, t_orig, self.cfg.stride)
        feats_up = upsample_to_original(feats, t_orig, self.cfg.stride)
        return StagePrediction(logits, blogit.sigmoid().reshape(t_orig), feats_up)

    # -- stages ----------------------------------------------------------

    def encoder_forward(self, x: Tensor, training: bool = False):
        x = as_tensor(x)
        t_orig = x.shape[0]
        if x.shape[1] != self.cfg.d_in:
            raise ShapeError(f"expected {self.cfg.d_in} input channels, got {x.shape[1]}")
        if training and self.cfg.temporal_dropout > 0.0:
            keep = 1.0 - self.cfg.temporal_dropout
            mask = (self.rng.random(self.cfg.d_in) < keep) / keep
            x = x * mask[None, :]
        h = x @ self.params["in_proj.w"] + self.params["in_proj.b"]
        h = self._tcn_stack(h.T, "enc_tcn", "acausal", self.cfg.stride).T
        t_red = h.shape[0]
        if t_red < 1:
            raise ShapeError("stride reduced the sequence below one frame")
        masks = self.masks_for(t_red)
        p = self.params
        for i in range(self.cfg.n_blocks):
            pre = f"enc_attn.{i}"
            a = layer_norm(h, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
            d_out = attn.dswa_forward(a, masks[i][0], masks[i][1], self._attn_params(f"{pre}.dswa"))
            t_out = attn.hta_forward(a, self.scales_for(t_red, i), self._attn_params(f"{pre}.hta"))
            h = h + d_out + t_out
            m = layer_norm(h, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
            m = (m @ p[f"{pre}.mlp.w1"] + p[f"{pre}.mlp.b1"]).gelu()
            m = m @ p[f"{pre}.mlp.w2"] + p[f"{pre}.mlp.b2"]
            h = h + m
        return h, self._heads(h, "enc_head", t_orig)

    def decoder_forward(self, prev: StagePrediction, enc_features: Tensor, index: int) -> StagePrediction:
        t_orig = prev.action_logits.shape[0]
        probs = masked_softmax(prev.action_logits, np.ones(prev.action_logits.shape, bool))
        down = probs[:: self.cfg.stride]
        if down.shape[0] != enc_features.shape[0]:
            raise ShapeError(
                f"stage at {down.shape[0]} frames does not align with encoder {enc_features.shape[0]}"
            )
        z = concat([down, enc_features], axis=1)
        z = z @ self.params[f"dec{index}.in_proj.w"] + self.params[f"dec{index}.in_proj.b"]
        z = self._tcn_stack(z.T, f"dec{index}.tcn", "causal", 1).T
        return self._heads(z, f"dec{index}.head", t_orig)

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

    t_red = -(-T // cfg.stride)
    d, a, k, c = cfg.d_model, cfg.attn_dim, cfg.kernel_size, cfg.n_classes
    macs = T * cfg.d_in * d  # input projection
    conv_block = t_red * d * d * k + t_red * d * d  # dilated + pointwise
    macs += cfg.n_blocks * conv_block  # encoder TCN (stride effects ignored at first block)
    schedule = attn.build_window_schedule(
        cfg.n_blocks, cfg.w_min, cfg.w_max, cfg.rate_max, dilate_shrinking=cfg.dilate_shrinking
    )
    scales = attn.ScaleSet.build(t_red, cfg.s_avg, cfg.hta_window, max_scales=cfg.max_scales)
    hta_pairs = _hta_pair_count(t_red, scales)
    for e_spec, s_spec in schedule:
        pairs = attn.attended_pairs_count(attn.build_sparse_mask(t_red, e_spec))
        pairs += attn.attended_pairs_count(attn.build_sparse_mask(t_red, s_spec))
        macs += 4 * t_red * d * a        # q/k/v/output projections (dswa)
        macs += 2 * pairs * a            # scores + weighted values
        macs += 4 * t_red * d * a        # hta projections
        macs += 2 * hta_pairs * a
        macs += 2 * t_red * d * cfg.mlp_hidden
    macs += t_red * d * (c + 1)  # encoder heads
    dec_block = T * d * d * k + T * d * d
    for _ in range(cfg.n_decoders):
        macs += T * (c + d) * d + cfg.n_blocks * dec_block + T * d * (c + 1)
    return n_params, macs


def _hta_pair_count(t_red: int, scales: attn.ScaleSet) -> int:
    _, valid = attn._hta_band(t_red, scales)
    return int(valid.sum())


# -- checkpoint serialization --------------------------------------------


def _config_blob(cfg: ModelConfig) -> bytes:
    lines = [f"{k} = {v}" for k, v in cfg.to_dict().items()]
    return "\n".join(lines).encode()


def _config_from_blob(blob: bytes) -> ModelConfig:
    d = {}
    for line in blob.decode().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            d[k.strip()] = v.strip()
    return ModelConfig.from_dict(d)


def save_checkpoint(path, cfg: ModelConfig, params: dict, extra: dict | None = None):
    """Binary checkpoint: magic, u32 version, config text blob, then named
    float64 little-endian parameter blobs. `extra` arrays (e.g. optimizer
    state) are stored under their given names alongside the parameters."""
    blobs = {name: t.data for name, t in params.items()}
    if extra:
        blobs.update({name: np.asarray(v, dtype=np.float64) for name, v in extra.items()})
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        cfg_blob = _config_blob(cfg)
        f.write(struct.pack("<I", len(cfg_blob)))
        f.write(cfg_blob)
        f.write(struct.pack("<I", len(blobs)))
        for name in sorted(blobs):
            arr = blobs[name]
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            for ext in arr.shape:
                f.write(struct.pack("<Q", ext))
            f.write(arr.astype("<f8").tobytes())


def load_checkpoint(path):
    """Returns (config, params dict, extra arrays dict)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, found {magic!r}")
        (version,) = struct.unpack("<I", f.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (n,) = struct.unpack("<I", f.read(4))
        cfg = _config_from_blob(f.read(n))
        (count,) = struct.unpack("<I", f.read(4))
        blobs = {}
        for _ in range(count):
            (ln,) = struct.unpack("<I", f.read(4))
            name = f.read(ln).decode()
            (rank,) = struct.unpack("<I", f.read(4))
            shape = tuple(struct.unpack("<Q", f.read(8))[0] for _ in range(rank))
            data = np.frombuffer(f.read(int(np.prod(shape)) * 8 if shape else 8), dtype="<f8")
            blobs[name] = data.reshape(shape).copy()
    expected = {name for name, _ in _param_specs(cfg)}
    params = {k: Tensor(v, requires_grad=True) for k, v in blobs.items() if k in expected}
    missing = expected - set(params)
    if missing:
        raise ValueError(f"checkpoint missing parameters: {sorted(missing)[:3]}...")
    extra = {k: v for k, v in blobs.items() if k not in expected}
    return cfg, params, extra
