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
    band_attention,
    concat,
    hta_attention,
    linear,
)

__all__ = [
    "WindowSpec",
    "AttentionMask",
    "ScaleSet",
    "AttentionParams",
    "build_window_schedule",
    "build_sparse_mask",
    "dswa_forward",
    "hta_forward",
    "attended_pairs_count",
    "init_attention_params",
]


@dataclass(frozen=True)
class WindowSpec:
    """One sliding window: one-sided width in frames, a zero-based dilation
    rate (rate 0 = adjacent taps) and causality."""

    one_sided_width: int
    dilation_rate: int = 0
    causal: bool = False

    def __post_init__(self):
        if self.one_sided_width < 1:
            raise ShapeError(f"window width must be >= 1, got {self.one_sided_width}")
        if self.dilation_rate < 0:
            raise ShapeError(f"dilation rate must be >= 0, got {self.dilation_rate}")

    @property
    def step(self) -> int:
        return self.dilation_rate + 1

    @property
    def receptive_span(self) -> int:
        return 2 * self.one_sided_width * self.step + 1

    @property
    def offsets(self) -> np.ndarray:
        """Distinct ascending key offsets j*step, j in [-w, w] ([-w, 0] when
        causal); offset 0 is always in the sequence, so no query is empty."""
        w = self.one_sided_width
        return np.arange(-w, (0 if self.causal else w) + 1) * self.step


class AttentionMask:
    """Sparse per-query attention pattern over a sequence of length T.

    Attention runs from ``spec``, the window the mask stands for; the mask
    stores nothing else, and ``valid`` and ``allowed`` are computed from the
    window's offsets when they are read.
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

    @property
    def allowed(self) -> list:
        """Sorted allowed key indices per query: q + offsets, clipped to the
        sequence (the offsets are distinct and ascending)."""
        offsets, q = self.spec.offsets, np.arange(self.T)
        lo, hi = np.searchsorted(offsets, -q), np.searchsorted(offsets, self.T - q)
        return [i + offsets[a:b] for i, a, b in zip(q, lo, hi)]


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
    j in [-w, w] (acausal) or [-w, 0] (causal), clipped to bounds."""
    if T < 1:
        raise ShapeError(f"need T >= 1, got {T}")
    return AttentionMask(T, spec)


def attended_pairs_count(mask: AttentionMask) -> int:
    """Exact number of (query, key) pairs the mask allows: offset d keeps
    the T - |d| queries whose key stays in the sequence."""
    return int(np.maximum(mask.T - np.abs(mask.spec.offsets), 0).sum())


@dataclass
class ScaleSet:
    """Temporal scales for hierarchical attention: scale s pools by 2**s to
    length T_s = ceil(T / 2**s); w_s weights the per-scale scores."""

    T: int
    scales: list[int]
    weights: list[float]
    window: int = 8

    def __post_init__(self):
        for s in self.scales:
            if -(-self.T // (1 << s)) < 1:
                raise ShapeError(f"scale {s} collapses T={self.T} below one frame")

    @classmethod
    def build(
        cls, T: int, s_avg: int = 64, window: int = 8, weights=None, max_scales: int = 4
    ) -> "ScaleSet":
        # log2(T / S_avg) scales, capped so the coarsest span stays bounded
        # and the hierarchical pass stays sub-quadratic in T
        n = max(1, int(math.floor(math.log2(max(T / s_avg, 1.0)))))
        if max_scales:
            n = min(n, max_scales)
        scales = list(range(n))
        if weights is None:
            weights = [1.0 / n] * n
        return cls(T, scales, list(weights), window)


@dataclass
class AttentionParams:
    """Shared q/k/v/output projections for one multi-head attention pass.

    Projections map d_model -> attn_dim (split across heads) and back.
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

    def __post_init__(self):
        if self.attn_dim % self.heads != 0:
            raise ShapeError(
                f"head count {self.heads} must divide attention dim {self.attn_dim}"
            )

    @property
    def attn_dim(self) -> int:
        return self.wq.shape[1]


def init_attention_params(d_model: int, attn_dim: int, heads: int, rng) -> AttentionParams:
    def lin(n_in, n_out):
        w = Tensor(rng.standard_normal((n_in, n_out)) / math.sqrt(n_in), requires_grad=True)
        b = Tensor(np.zeros(n_out), requires_grad=True)
        return w, b

    wq, bq = lin(d_model, attn_dim)
    wk, bk = lin(d_model, attn_dim)
    wv, bv = lin(d_model, attn_dim)
    wo, bo = lin(attn_dim, d_model)
    return AttentionParams(wq, bq, wk, bk, wv, bv, wo, bo, heads)


def dswa_forward(
    x: Tensor,
    expanding: AttentionMask,
    shrinking: AttentionMask,
    params: AttentionParams,
) -> Tensor:
    """Dual sliding-window attention: the first half of the heads uses the
    expanding mask, the second half the shrinking mask."""
    if params.heads % 2 != 0:
        raise ShapeError(f"dual windows need an even head count, got {params.heads}")
    T = x.shape[0]
    if expanding.T != T or shrinking.T != T:
        raise ShapeError(
            f"masks built for T={expanding.T}/{shrinking.T} but input has T={T}"
        )
    q = linear(x, params.wq, params.bq)
    k = linear(x, params.wk, params.bk)
    v = linear(x, params.wv, params.bv)
    half = params.attn_dim // 2
    outs = []
    for mask, cols in ((expanding, slice(None, half)), (shrinking, slice(half, None))):
        spec = mask.spec
        outs.append(band_attention(
            q[:, cols], k[:, cols], v[:, cols], params.heads // 2,
            spec.one_sided_width, spec.step, spec.causal,
        ))
    return linear(concat(outs, axis=1), params.wo, params.bo)


def hta_forward(x: Tensor, scales: ScaleSet, params: AttentionParams) -> Tensor:
    """Hierarchical temporal attention.

    Per scale s the input is mean-pooled by 2**s and each pooled query
    scores the 2w+1 pooled keys around it. A frame-level key gets the
    weighted sum of the scores of every scale whose window holds it; the
    softmax runs over the union of the windows and weights frame-level
    values. Mean pooling is linear, so q and k are projected once at frame
    level and pooled inside ``hta_attention``.
    """
    T = x.shape[0]
    if scales.T != T:
        raise ShapeError(f"scale set built for T={scales.T}, input has T={T}")
    q = linear(x, params.wq, params.bq)
    k = linear(x, params.wk, params.bk)
    v = linear(x, params.wv, params.bv)
    out = hta_attention(q, k, v, params.heads, scales.scales, scales.weights, scales.window)
    return linear(out, params.wo, params.bo)
