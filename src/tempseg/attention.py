"""Sparse sliding-window attention: window schedules, masks, the dual-window
multi-head pass and the hierarchical multi-scale pass with cross-scale score
aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    MaskError,
    ShapeError,
    Tensor,
    band_attention,
    concat,
    mean_pool1d,
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
    rate (rate 0 = adjacent taps), causality and its role in the dual pair."""

    one_sided_width: int
    dilation_rate: int = 0
    causal: bool = False
    role: str = "expanding"

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


class AttentionMask:
    """Sparse per-query attention pattern over a sequence of length T.

    Stored as a padded band: ``key_index[q, j]`` with a validity flag, which
    keeps windowed masks O(T * window) instead of O(T^2). ``spec`` is the
    window the band was built from; attention runs from it.
    """

    def __init__(self, T: int, key_index: np.ndarray, valid: np.ndarray, spec: WindowSpec):
        if T < 1:
            raise ShapeError(f"mask needs T >= 1, got {T}")
        self.T = T
        self.spec = spec
        self.key_index = key_index
        self.valid = valid
        if not valid.any(axis=1).all():
            q = int(np.argmin(valid.any(axis=1)))
            raise MaskError(f"query {q} has no allowed keys")

    @property
    def allowed(self) -> list:
        """Sorted allowed key indices per query."""
        return [np.unique(self.key_index[q][self.valid[q]]) for q in range(self.T)]

    def dense(self) -> np.ndarray:
        m = np.zeros((self.T, self.T), dtype=bool)
        rows = np.repeat(np.arange(self.T), self.valid.sum(axis=1))
        m[rows, self.key_index[self.valid]] = True
        return m


def build_window_schedule(
    n_layers: int,
    w_min: int = 16,
    w_max: int = 256,
    rate_max: int = 4,
    causal: bool = False,
    dilate_shrinking: bool = True,
) -> list[tuple[WindowSpec, WindowSpec]]:
    """Per-layer (expanding, shrinking) window pairs.

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
    pairs = []
    for layer, (we, ws) in enumerate(zip(expanding, shrinking)):
        rate = min(layer, rate_max)
        pairs.append(
            (
                WindowSpec(we, rate, causal, "expanding"),
                WindowSpec(ws, rate if dilate_shrinking else 0, causal, "shrinking"),
            )
        )
    return pairs


def build_sparse_mask(T: int, spec: WindowSpec) -> AttentionMask:
    """Banded mask for one window: query i attends i + j*(rate+1) for
    j in [-w, w] (acausal) or [-w, 0] (causal), clipped to bounds."""
    if T < 1:
        raise ShapeError(f"need T >= 1, got {T}")
    w, step = spec.one_sided_width, spec.step
    lo = -w
    hi = 0 if spec.causal else w
    offsets = np.arange(lo, hi + 1) * step
    idx = np.arange(T)[:, None] + offsets[None, :]
    valid = (idx >= 0) & (idx < T)
    return AttentionMask(T, np.clip(idx, 0, T - 1), valid, spec)


def attended_pairs_count(mask: AttentionMask) -> int:
    """Exact number of (query, key) pairs the mask allows."""
    return sum(len(a) for a in mask.allowed)


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

    def pooled_length(self, s: int) -> int:
        return -(-self.T // (1 << s))


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

    def tensors(self):
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo]


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
    q = x @ params.wq + params.bq
    k = x @ params.wk + params.bk
    v = x @ params.wv + params.bv
    half = params.attn_dim // 2
    outs = []
    for mask, cols in ((expanding, slice(None, half)), (shrinking, slice(half, None))):
        spec = mask.spec
        outs.append(band_attention(
            q[:, cols], k[:, cols], v[:, cols], params.heads // 2,
            spec.one_sided_width, spec.step, spec.causal,
        ))
    return concat(outs, axis=1) @ params.wo + params.bo


def _hta_band(T: int, scales: ScaleSet) -> tuple[np.ndarray, np.ndarray]:
    """Frame-level union neighborhood as a contiguous band.

    Per-scale neighborhoods nest (each contains the query frame and doubles
    in span), so the union is the coarsest scale's frame interval.
    """
    w = scales.window
    top = max(scales.scales)
    f = 1 << top
    i_pool = np.arange(T) // f
    lo = (i_pool - w) * f
    hi = (i_pool + w + 1) * f - 1
    K = int((hi - lo).max()) + 1
    idx = lo[:, None] + np.arange(K)[None, :]
    valid = (idx >= 0) & (idx < T) & (idx <= hi[:, None])
    return np.clip(idx, 0, T - 1), valid


# hta_forward gathers about this many floats per chunk of query rows
HTA_CHUNK = 1 << 18


def _window_sums(
    cum: Tensor, zidx: np.ndarray, inside: np.ndarray, keys: np.ndarray,
    vsum: Tensor, count: np.ndarray, heads: int,
):
    """Softmax sums over pooled key blocks for the queries of one resolution.

    Query a scores key block keys[a, r] with cum[zidx[a, r]] ([heads]); only
    blocks with inside[a, r] count. Returns the numerator [t, heads, hd] and
    denominator [t, heads] of sum(exp(z - zmax) * value), where the value is
    the block's summed values (``vsum``) or its frame count (``count``), and
    the row max zmax [t, heads] (-inf for a row with no block). Rows run in
    chunks of about HTA_CHUNK gathered floats to keep the working set small.
    """
    t, R = keys.shape
    A = vsum.shape[1]
    rows = max(1, HTA_CHUNK // (R * A))
    nums, dens, maxes = [], [], []
    for r0 in range(0, t, rows):
        sl = slice(r0, r0 + rows)
        z = cum.take_rows(zidx[sl])
        ins = inside[sl][:, :, None]
        zmax = np.where(ins, z.data, -np.inf).max(axis=1)
        # blocks outside are shifted to exp(0) and then zeroed: no overflow
        e = (z - np.where(ins, zmax[:, None, :], z.data)).exp() * ins
        idx = np.clip(keys[sl], 0, vsum.shape[0] - 1)
        g = vsum.take_rows(idx).reshape(*idx.shape, heads, A // heads)
        nums.append((e.reshape(*idx.shape, heads, 1) * g).sum(axis=1))
        dens.append((e * (count[idx] * inside[sl])[:, :, None]).sum(axis=1))
        maxes.append(zmax)
    if len(nums) == 1:
        return nums[0], dens[0], maxes[0]
    return concat(nums), concat(dens), np.concatenate(maxes)


def hta_forward(x: Tensor, scales: ScaleSet, params: AttentionParams) -> Tensor:
    """Hierarchical temporal attention.

    Per scale s the input is mean-pooled by 2**s and each pooled query
    scores the 2w+1 pooled keys around it. A frame-level key gets the
    weighted sum of the scores of every scale whose window holds it; the
    softmax runs over the union of the windows and weights frame-level
    values.

    The windows nest, so every key of the ring between two consecutive
    scales' windows scores the same as the other keys of its pooled block
    at the finer of the two scales. The sums therefore run over pooled
    blocks with summed values: the finest window at the finest scale and
    each ring at its finer scale. The cost is linear in T.
    """
    T = x.shape[0]
    if scales.T != T:
        raise ShapeError(f"scale set built for T={scales.T}, input has T={T}")
    H = params.heads
    hd = params.attn_dim // H
    scale_qk = 1.0 / math.sqrt(hd)
    w = scales.window
    W = 2 * w + 1
    off = np.arange(-w, w + 1)
    levels = sorted(zip(scales.scales, scales.weights), key=lambda p: p[0])
    v = x @ params.wv + params.bv

    sizes, scores, vsums, counts = [], [], [], []
    for s, _ in levels:
        f = 1 << s
        xp = mean_pool1d(x, f)
        ts = xp.shape[0]
        qp = (xp @ params.wq + params.bq).reshape(ts, 1, H, hd)
        kp = xp @ params.wk + params.bk
        kg = kp.take_rows(np.clip(np.arange(ts)[:, None] + off, 0, ts - 1)).reshape(ts, W, H, hd)
        scores.append((qp * kg).sum(axis=3) * scale_qk)  # [ts, W, H]
        count = np.minimum(f, T - np.arange(ts) * f).astype(np.float64)
        vsums.append(v if f == 1 else mean_pool1d(v, f) * count[:, None])
        counts.append(count)
        sizes.append(ts)

    # cum[k][a, r]: score of pooled key block a + r - w at scale k summed
    # with every coarser scale's score of the block containing it
    cum = [None] * len(levels)
    cum[-1] = scores[-1] * levels[-1][1]
    for k in range(len(levels) - 2, -1, -1):
        d = levels[k + 1][0] - levels[k][0]
        a = np.arange(sizes[k])[:, None]
        rel = np.clip(((a + off) >> d) - (a >> d) + w, 0, W - 1)
        coarse = cum[k + 1].reshape(sizes[k + 1] * W, H).take_rows((a >> d) * W + rel)
        cum[k] = scores[k] * levels[k][1] + coarse

    # (resolution, scores, score index, blocks that count, key blocks): the
    # finest window, then each ring in blocks of its finer scale
    keys = np.arange(sizes[0])[:, None] + off
    terms = [(0, cum[0].reshape(sizes[0] * W, H), np.arange(sizes[0] * W).reshape(-1, W),
              (keys >= 0) & (keys < sizes[0]), keys)]
    for k in range(1, len(levels)):
        d = levels[k][0] - levels[k - 1][0]
        if d == 0:
            continue  # a repeated scale has an empty ring
        # the coarse window spans W << d blocks here; the finer window's W
        # blocks start at offset lo within them and are left out
        a = np.arange(sizes[k - 1])[:, None]
        lo = (a & ((1 << d) - 1)) + w * ((1 << d) - 1)
        j = np.arange(W * ((1 << d) - 1))[None, :]
        j = j + W * (j >= lo)
        keys = (((a >> d) - w) << d) + j
        terms.append((k - 1, cum[k].reshape(sizes[k] * W, H), (a >> d) * W + (j >> d),
                      (keys >= 0) & (keys < sizes[k - 1]), keys))

    frames = np.arange(T)
    parts = []
    for lvl, z, zidx, inside, keys in terms:
        num, den, zmax = _window_sums(z, zidx, inside, keys, vsums[lvl], counts[lvl], H)
        at = frames >> levels[lvl][0]
        parts.append((num.take_rows(at), den.take_rows(at), zmax[at]))
    # rescale every term to the shared per-frame max (a constant shift)
    top = np.max([zmax for _, _, zmax in parts], axis=0)
    num = den = 0.0
    for n_t, d_t, zmax in parts:
        fac = np.exp(zmax - top)
        num = n_t * fac[:, :, None] + num
        den = d_t * fac + den
    out = (num / den.reshape(T, H, 1)).reshape(T, params.attn_dim)
    return out @ params.wo + params.bo
