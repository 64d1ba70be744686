"""Sparse sliding-window attention: window schedules, masks, the dual-window
multi-head pass and the hierarchical multi-scale pass with cross-scale score
aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    ShapeError,
    Tensor,
    linear,
    window_attention,
)

__all__ = [
    "WindowSpec",
    "AttentionMask",
    "ScaleSet",
    "AttentionParams",
    "build_window_schedule",
    "build_sparse_mask",
    "attention_layer",
    "dswa_forward",
    "hta_forward",
    "attended_pairs_count",
]


@dataclass(frozen=True)
class WindowSpec:
    """One symmetric sliding window: one-sided width in frames and a
    zero-based dilation rate (rate 0 = adjacent taps)."""

    one_sided_width: int
    dilation_rate: int = 0

    def __post_init__(self):
        if self.one_sided_width < 1:
            raise ShapeError(f"window width must be >= 1, got {self.one_sided_width}")
        if self.dilation_rate < 0:
            raise ShapeError(f"dilation rate must be >= 0, got {self.dilation_rate}")

    @property
    def step(self) -> int:
        return self.dilation_rate + 1

    @property
    def offsets(self) -> np.ndarray:
        """Distinct ascending key offsets j*step, j in [-w, w]; offset 0 is
        always in the sequence, so no query is empty."""
        w = self.one_sided_width
        return np.arange(-w, w + 1) * self.step


class AttentionMask:
    """Sparse per-query attention pattern over a sequence of length T.

    Attention runs from ``spec``, the window the mask stands for; the mask
    stores nothing else, and ``valid`` is computed from the window's offsets
    when it is read.
    """

    def __init__(self, T: int, spec: WindowSpec):
        if T < 1:
            raise ShapeError(f"mask needs T >= 1, got {T}")
        self.T = T
        self.spec = spec

    @property
    def valid(self) -> np.ndarray:
        """[T, offsets] flags: query q's key q + offsets[j] lies in the sequence."""
        keys = np.arange(self.T)[:, None] + self.spec.offsets[None, :]
        return (keys >= 0) & (keys < self.T)


def build_window_schedule(
    n_layers: int,
    w_min: int = 16,
    w_max: int = 256,
    rate_max: int = 4,
) -> list[tuple[WindowSpec, WindowSpec]]:
    """Per-layer (expanding, shrinking) acausal window pairs.

    Expanding widths double from w_min and clamp at w_max; shrinking widths
    are the reversed ladder. The dilation rate at layer l is min(l, rate_max).
    """
    if n_layers < 1:
        raise ShapeError(f"need n_layers >= 1, got {n_layers}")
    if w_min > w_max:
        raise ShapeError(f"w_min {w_min} exceeds w_max {w_max}")
    expanding = [min(w_min * 2 ** i, w_max) for i in range(n_layers)]
    if n_layers == 1:
        expanding, shrinking = [w_min], [w_max]
    else:
        shrinking = expanding[::-1]
    return [
        (WindowSpec(we, min(layer, rate_max)), WindowSpec(ws, min(layer, rate_max)))
        for layer, (we, ws) in enumerate(zip(expanding, shrinking))
    ]


def build_sparse_mask(T: int, spec: WindowSpec) -> AttentionMask:
    """Banded mask for one window: query i attends i + j*(rate+1) for
    j in [-w, w], clipped to bounds."""
    return AttentionMask(T, spec)


def attended_pairs_count(mask: AttentionMask) -> int:
    """Exact number of (query, key) pairs the mask allows: offset d keeps
    the T - |d| queries whose key stays in the sequence. Summed as Python
    ints, so no length overflows."""
    return sum(max(mask.T - abs(int(d)), 0) for d in mask.spec.offsets)


@dataclass
class ScaleSet:
    """Temporal scales for hierarchical attention: scale s = 0 .. levels - 1
    pools by 2**s to length T_s = ceil(T / 2**s), and every scale's scores
    weigh the same, 1 / levels."""

    T: int
    levels: int
    window: int = 8

    def __post_init__(self):
        if self.T < 1 or self.levels < 1:
            raise ShapeError(f"scales need T >= 1 and a scale, got T={self.T}, {self.levels}")

    @property
    def scales(self) -> list[int]:
        return list(range(self.levels))

    @classmethod
    def build(cls, T: int, s_avg: int = 64, window: int = 8, max_scales: int = 4) -> "ScaleSet":
        # log2(T / S_avg) scales, capped so the coarsest span stays bounded
        # and the hierarchical pass stays sub-quadratic in T
        n = max(1, int(math.floor(math.log2(max(T / s_avg, 1.0)))))
        if max_scales:
            n = min(n, max_scales)
        return cls(T, n, window)


@dataclass
class AttentionParams:
    """Shared q/k/v/output projections for one multi-head attention pass.

    Projections map d_model -> attn_dim (split across heads) and back;
    ``window_attention`` rejects a head count that does not divide attn_dim.
    """

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    heads: int = 8

    @property
    def attn_dim(self) -> int:
        return self.wq.shape[1]


def attention_layer(x: Tensor, params: AttentionParams, levels: int,
                    windows: list) -> Tensor:
    """The q, k and v projections of x [T, d_model], one ``window_attention``
    call over `levels` scales and the head groups' (width, step) `windows`,
    and the output projection: DSWA and HTA are this layer."""
    q = linear(x, params.wq, params.bq)
    k = linear(x, params.wk, params.bk)
    v = linear(x, params.wv, params.bv)
    out = window_attention(q, k, v, params.heads, levels, windows)
    return linear(out, params.wo, params.bo)


def dswa_forward(
    x: Tensor,
    expanding: AttentionMask,
    shrinking: AttentionMask,
    params: AttentionParams,
) -> Tensor:
    """Dual sliding-window attention: one attention layer at one level, whose
    first half of the heads attends through the expanding mask's window and
    whose second half through the shrinking mask's. ``window_attention``
    rejects a head count that two groups do not divide."""
    T = x.shape[0]
    if expanding.T != T or shrinking.T != T:
        raise ShapeError(f"masks built for T={expanding.T}/{shrinking.T} but input has T={T}")
    windows = [(m.spec.one_sided_width, m.spec.step) for m in (expanding, shrinking)]
    return attention_layer(x, params, 1, windows)


def hta_forward(x: Tensor, scales: ScaleSet, params: AttentionParams) -> Tensor:
    """Hierarchical temporal attention.

    Per scale s the input is mean-pooled by 2**s and each pooled query
    scores the 2w+1 pooled keys around it. A frame-level key gets the sum
    of the scores of every scale whose window holds it, each weighted
    1 / levels; the softmax runs over the union of the windows and weights
    frame-level values. Mean pooling is linear, so q and k are projected
    once at frame level and pooled inside ``window_attention``: this is one
    attention layer with the ladder of scales and one group at step 1.
    """
    T = x.shape[0]
    if scales.T != T:
        raise ShapeError(f"scale set built for T={scales.T}, input has T={T}")
    return attention_layer(x, params, scales.levels, [(scales.window, 1)])
