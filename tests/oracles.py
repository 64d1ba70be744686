"""Independent brute-force reference implementations used by the tests.

Everything here is written the slow, obvious way on purpose: no shared code
with the package beyond numpy, its error types, the Tensor,
AttentionParams and AttentionMask containers that `init_attention_params`
and `model_oracle` fill (`model_oracle`'s AttentionParams with stand-ins
that hold float64 or complex arrays), the config's window and scale
schedules, the `linear` op that `project` forms a test's scalar with, and
the tape ops that `tcn_block_composite` chains as the unfused reference of
`tcn_block`.
"""

import functools
import math
import struct
from types import SimpleNamespace

import numpy as np

from tempseg import seqcore
from tempseg.attention import AttentionMask, AttentionParams
from tempseg.seqcore import ShapeError, Tensor, linear


def finite_difference_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x, all entries."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        fp = f(x)
        flat[i] = keep - eps
        fm = f(x)
        flat[i] = keep
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


def fd_check_tensor(build_loss, tensors, eps=1e-6, sample=None, rng=None):
    """Compare tape gradients of build_loss() against finite differences.

    tensors: list of Tensor leaves whose .data will be perturbed in place.
    sample: if set, only check that many randomly chosen entries per tensor.
    Returns the worst relative error over all checked entries.
    """
    loss = build_loss()
    for t in tensors:
        t.grad = np.zeros_like(t.data)
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]

    worst = 0.0
    for t, g in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        idx = range(flat.size)
        if sample is not None and flat.size > sample:
            idx = (rng or np.random.default_rng(0)).choice(
                flat.size, size=sample, replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            fp = float(build_loss().data)
            flat[i] = keep - eps
            fm = float(build_loss().data)
            flat[i] = keep
            fd = (fp - fm) / (2.0 * eps)
            scale = max(abs(fd), abs(gf[i]), 1.0)
            worst = max(worst, abs(fd - gf[i]) / scale)
    return worst


def dense_attention(q, k, v, allowed, scale):
    """O(T^2) single-head masked attention. allowed: list of sets."""
    T = q.shape[0]
    out = np.zeros((T, v.shape[1]))
    for i in range(T):
        js = sorted(allowed[i])
        s = np.array([q[i] @ k[j] * scale for j in js])
        e = np.exp(s - s.max())
        a = e / e.sum()
        for a_j, j in zip(a, js):
            out[i] += a_j * v[j]
    return out


def edit_distance_recursive(a, b):
    """Plain recursive Levenshtein with memoization."""
    a = tuple(a)
    b = tuple(b)

    @functools.lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + cost)

    return d(len(a), len(b))


def edit_score_oracle(pred_segs, gt_segs):
    p = [s.label for s in pred_segs]
    g = [s.label for s in gt_segs]
    if not p and not g:
        return 1.0
    return 1.0 - edit_distance_recursive(p, g) / max(len(p), len(g))


def iou_oracle(a, b):
    inter = max(0, min(a.end, b.end) - max(a.start, b.start) + 1)
    union = (a.end - a.start + 1) + (b.end - b.start + 1) - inter
    return inter / union


def f1_oracle(pred_segs, gt_segs, threshold, strict=True):
    """Greedy in temporal order: each prediction takes the best unmatched
    same-label ground-truth segment, straightforward double loop."""
    matched = [False] * len(gt_segs)
    tp = 0
    for p in pred_segs:
        best = -1.0
        best_j = -1
        for j, g in enumerate(gt_segs):
            if matched[j] or g.label != p.label:
                continue
            ov = iou_oracle(p, g)
            if ov > best:
                best = ov
                best_j = j
        hit = best > threshold if strict else best >= threshold
        if best_j >= 0 and hit:
            matched[best_j] = True
            tp += 1
    fp = len(pred_segs) - tp
    fn = len(gt_segs) - tp
    if tp == 0:
        return 0.0, float(fp), float(fn), 0.0, 0.0
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return 2 * prec * rec / (prec + rec), float(fp), float(fn), prec, rec


def dense_attention_oracle(x, params, mask, head_slice=None):
    """Plain O(T^2) multi-head masked attention on numpy arrays; reference
    for the sparse band implementation. Returns pre-output-projection head
    outputs over the given channel slice."""
    q = x @ params.wq.data + params.bq.data
    k = x @ params.wk.data + params.bk.data
    v = x @ params.wv.data + params.bv.data
    if head_slice is not None:
        q, k, v = q[:, head_slice], k[:, head_slice], v[:, head_slice]
    heads = params.heads if head_slice is None else params.heads // 2
    return dense_multihead(q, k, v, heads, mask)


def dense_multihead(q, k, v, heads, mask):
    """O(T^2) masked multi-head attention of [T, A] arrays under a dense
    [T, T] boolean mask, scores scaled by 1/sqrt(A/heads)."""
    T, A = q.shape
    hd = A // heads
    out = np.zeros((T, A), np.result_type(q, k, v))
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(hd)
        scores = np.where(mask, scores, -np.inf)
        scores = scores - scores.max(axis=1, keepdims=True)
        e = np.where(mask, np.exp(scores), 0.0)
        alpha = e / e.sum(axis=1, keepdims=True)
        out[:, sl] = alpha @ v[:, sl]
    return out


def band_mask_oracle(T, width, step):
    """Dense [T, T] mask of a dilated band: j - i = m*step, -width <= m <= width."""
    d = np.arange(T)[None, :] - np.arange(T)[:, None]
    m = d // step
    return (d % step == 0) & (m >= -width) & (m <= width)


def ring_masks_oracle(levels, w, R, dtype):
    """Dense (window, ring) masks of one sub-tile of seqcore._TileKernel per
    level, finest first, for tiles of R finest rows: a level finer than R
    runs R >> l rows per sub-tile, a coarser one its whole coarsest block.
    Entry (i, j) is query row i against key row j - lo, lo = 2 * ceil(w/2)
    below the coarsest level and w at it. The window is 1/0 where the key
    lies within w of the query (None at the coarsest level). The ring is
    0/-inf: at the coarsest level the window, less the inner keys within
    ceil(w/2) when there are finer levels; below it the children of the
    parent's inner keys, less the level's own inner keys above the finest
    level."""
    f, h = 1 << (levels - 1), -(-w // 2)
    masks = []
    for lvl in range(levels):
        S = R >> lvl if (1 << lvl) < R else f >> lvl
        top = lvl == levels - 1
        lo = w if top else 2 * h
        query, key = np.arange(S)[:, None], np.arange(S + 2 * lo)[None, :] - lo
        d = np.abs(key - query)
        if top:
            window, ring = None, (d <= w) & ((levels == 1) | (d > h))
        else:
            window = (d <= w).astype(dtype)
            ring = (np.abs((key >> 1) - (query >> 1)) <= h) & ((lvl == 0) | (d > h))
        masks.append((window, np.where(ring, 0.0, -np.inf).astype(dtype)))
    return masks


def ring_scores_oracle(levels, w, qs, ks, vc):
    """Per level, finest first, the dense scores [B, rows_l, rows_l] that
    seqcore._TileKernel exponentiates at that level, from each level's
    row-major queries and keys and frame-level [V | count] vc [B, rows,
    hd + 1]: query row a against key row c scores C_l(a, c), its own score
    where c lies within w of a plus C_(l+1)(a >> 1, c >> 1) (the coarsest
    level its own score), on a's ring (as ring_masks_oracle draws it) and
    -inf elsewhere and wherever the row or the key pools no frame."""
    h = -(-w // 2)
    counts = [vc[:, :, -1]]
    for _ in range(1, levels):
        counts.append(counts[-1][:, 0::2] + counts[-1][:, 1::2])
    out, C = [None] * levels, None
    for lvl in reversed(range(levels)):
        rows = qs[lvl].shape[1]
        a, c = np.arange(rows)[:, None], np.arange(rows)[None, :]
        d = np.abs(c - a)
        own = np.where(d <= w, qs[lvl] @ ks[lvl].transpose(0, 2, 1), 0.0)
        if C is None:
            C, ring = own, (d <= w) & ((levels == 1) | (d > h))
        else:
            C = own + np.repeat(np.repeat(C, 2, axis=1), 2, axis=2)
            ring = (np.abs((c >> 1) - (a >> 1)) <= h) & ((lvl == 0) | (d > h))
        live = counts[lvl] > 0
        out[lvl] = np.where(ring & live[:, :, None] & live[:, None, :], C, -np.inf)
    return out


def ladder_scores_oracle(levels, w, qs, ks, vc):
    """The frame-level scores [B, rows, rows] of a whole ladder: frame t
    against frame u sums the scores s_l(t >> l, u >> l) of every level l
    whose window holds that pair, summed coarsest first at each level's own
    resolution and repeated over 2 x 2 blocks to the next; -inf outside the
    coarsest window and at every padded frame (count 0 in vc)."""
    z = 0.0
    for lvl in reversed(range(levels)):
        rows = qs[lvl].shape[1]
        inside = np.abs(np.arange(rows)[:, None] - np.arange(rows)[None, :]) <= w
        if lvl < levels - 1:
            z = np.repeat(np.repeat(z, 2, axis=1), 2, axis=2)
        else:
            top = inside
        z = z + np.where(inside, qs[lvl] @ ks[lvl].transpose(0, 2, 1), 0.0)
        if lvl == levels - 1:
            top = np.repeat(np.repeat(top, 1 << lvl, axis=0), 1 << lvl, axis=1)
    live = vc[:, :, -1] > 0
    return np.where(top & live[:, :, None] & live[:, None, :], z, -np.inf)


def ladder_forward_oracle(levels, w, qs, ks, vc):
    """Outputs [B, rows, hd] and log softmax denominators [B, rows, 1] of
    the ladder's frame-level softmax, each row shifted by its own max; a
    padded row has output 0 and lse -inf."""
    z = ladder_scores_oracle(levels, w, qs, ks, vc)
    m = z.max(axis=2, keepdims=True)
    live = np.isfinite(m)
    nd = np.exp(z - np.where(live, m, 0)) @ vc
    den = np.where(live, nd[:, :, -1:], 1)
    return nd[:, :, :-1] / den, m + np.log(den)


def ladder_backward_oracle(levels, w, qs, ks, vc, lse, dy):
    """The gradients (dqs, dks, dvc) of seqcore._TileKernel.backward from the
    ladder's frame-level scores: the score gradient summed over blocks of
    2**l x 2**l frames, level by level, and kept inside each level's
    window. dqs and dks are per level, as the kernel returns them; dvc is
    the frame-level [V | count] gradient, which the kernel's per-level
    gradients sum to once each level's rows are repeated to frame rows."""
    z = ladder_scores_oracle(levels, w, qs, ks, vc)
    e = np.exp(z - lse)
    dz = (dy @ vc.transpose(0, 2, 1)) * e
    dqs, dks = [], []
    for lvl in range(levels):
        if lvl:
            dz = dz[:, 0::2] + dz[:, 1::2]
            dz = dz[:, :, 0::2] + dz[:, :, 1::2]
        rows = qs[lvl].shape[1]
        ds = np.where(np.abs(np.arange(rows)[:, None] - np.arange(rows)[None, :]) <= w, dz, 0.0)
        dqs.append(ds @ ks[lvl])
        dks.append(ds.transpose(0, 2, 1) @ qs[lvl])
    return dqs, dks, e.transpose(0, 2, 1) @ dy


def dense_mask(mask):
    """Dense [T, T] form of an AttentionMask, from its `valid` flags and its
    window's offsets."""
    T = mask.T
    keys = np.arange(T)[:, None] + mask.spec.offsets[None, :]
    valid = mask.valid
    m = np.zeros((T, T), dtype=bool)
    m[np.repeat(np.arange(T), valid.sum(axis=1)), keys[valid]] = True
    return m


def conv1d_oracle(x, w, b, dilation, mode):
    """Direct-loop dilated 1-D convolution of a time-major [T, C_in] array
    with a [C_out, C_in, k] kernel and zero padding, plus bias b, as
    [T, C_out]: output i reads input frames i + offset, offsets centred
    (acausal) or non-positive (causal)."""
    c_out, c_in, k = w.shape
    T = x.shape[0]
    y = np.zeros((T, c_out), np.result_type(x, w))
    for i in range(T):
        for j in range(k):
            off = (j - (k - 1) // 2) * dilation if mode == "acausal" else -j * dilation
            src = i + off
            if 0 <= src < T:
                for o in range(c_out):
                    for c in range(c_in):
                        y[i, o] += w[o, c, j] * x[src, c]
    return y + np.asarray(b)[None, :]


def _relu(h):
    """numpy's ReLU as a tape op, its gradient zeroed where it clamped."""
    out = seqcore._make(np.maximum(h.data, 0.0), (h,))
    if out.requires_grad:
        n, mask = seqcore._grad_node(h), h.data > 0.0
        out._node._backward = lambda g: n._accumulate(np.where(mask, g, 0.0))
    return out


def tcn_block_composite(x, conv_w, conv_b, pw_w, pw_b, dilation, mode):
    """x + pw(relu(conv(x))) as the chain of tape ops that `tcn_block`
    fuses: `conv1d_dilated`, numpy's ReLU, a pointwise `conv1d_dilated`
    and a residual `+`."""
    h = _relu(seqcore.conv1d_dilated(x, conv_w, conv_b, dilation=dilation, mode=mode))
    return x + seqcore.conv1d_dilated(h, pw_w, pw_b, dilation=1, mode="acausal")


def detect_boundaries_oracle(scores, theta, min_distance):
    """Brute-force peak picking: every strict interior local maximum above
    theta, visited by descending score (ties by frame), is kept unless a
    peak kept before it lies fewer than min_distance frames away."""
    s = [float(x) for x in scores]
    peaks = [i for i in range(1, len(s) - 1) if s[i - 1] < s[i] > s[i + 1] and s[i] > theta]
    kept = []
    for p in sorted(peaks, key=lambda i: (-s[i], i)):
        if all(abs(p - q) >= min_distance for q in kept):
            kept.append(p)
    return sorted(kept)


def mean_pool_oracle(x):
    """Means of row pairs (2i, 2i + 1) along axis 0 by np.add.at; an odd
    last row is its own mean."""
    T = x.shape[0]
    n = -(-T // 2)
    y = np.zeros((n,) + x.shape[1:])
    np.add.at(y, np.arange(T) // 2, x)
    counts = np.minimum(2, T - np.arange(n) * 2).astype(np.float64)
    return y / counts.reshape((n,) + (1,) * (x.ndim - 1))


def hta_pair_count_oracle(T, f, window):
    """HTA's union neighbourhood size summed per frame: frame i attends the
    frames of the blocks of f frames within `window` blocks of its own."""
    block = np.arange(T) // f
    lo = np.maximum((block - window) * f, 0)
    hi = np.minimum((block + window + 1) * f, T)
    return int((hi - lo).sum())


def aggregate_scales(scores, weights, neighborhoods):
    """Cross-scale score aggregation on dense [T, T] score maps.

    alpha_ij = exp(sum_s w_s e_ij^s) / sum_{k in union of neighborhoods}
    exp(sum_s w_s e_ik^s); a pair missing at a scale contributes 0.
    Rows of the result sum to 1 over the union; entries outside are 0.
    """
    if len(scores) != len(weights) or len(scores) != len(neighborhoods):
        raise ShapeError("scores, weights and neighborhoods must align")
    union = np.zeros_like(neighborhoods[0], dtype=bool)
    total = np.zeros_like(scores[0], dtype=float)
    for e, ws, nb in zip(scores, weights, neighborhoods):
        total = total + ws * np.where(nb, e, 0.0)
        union |= nb
    if not union.any(axis=1).all():
        q = int(np.argmin(union.any(axis=1)))
        raise ValueError(f"query {q} has an empty neighborhood union")
    shifted = np.where(union, total, -np.inf)
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.where(union, np.exp(shifted), 0.0)
    return e / e.sum(axis=1, keepdims=True)


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


def dswa_oracle(x, exp_mask, shr_mask, params):
    """Dense reference for dual sliding-window attention."""
    A = params.attn_dim
    half = slice(0, A // 2)
    other = slice(A // 2, A)
    oe = dense_attention_oracle(x, params, dense_mask(exp_mask), head_slice=half)
    os_ = dense_attention_oracle(x, params, dense_mask(shr_mask), head_slice=other)
    return np.concatenate([oe, os_], axis=1) @ params.wo.data + params.bo.data


def _ragged_pool(x, f):
    T = x.shape[0]
    ts = -(-T // f)
    out = np.zeros((ts, x.shape[1]), x.dtype)
    for i in range(ts):
        out[i] = x[i * f : (i + 1) * f].mean(axis=0)
    return out


def hta_oracle(x, scales, params):
    """Dense reference: per-scale pooled scores broadcast to [T, T], combined
    with aggregate_scales per head at equal weights 1 / levels, applied to
    frame-level values."""
    T = x.shape[0]
    H = params.heads
    hd = params.attn_dim // H
    v = x @ params.wv.data + params.bv.data
    out = []
    for h in range(H):
        sl = slice(h * hd, (h + 1) * hd)
        es, nbs = [], []
        for s in scales.scales:
            f = 1 << s
            xp = _ragged_pool(x, f)
            qp = (xp @ params.wq.data + params.bq.data)[:, sl]
            kp = (xp @ params.wk.data + params.bk.data)[:, sl]
            e = np.zeros((T, T), np.result_type(qp, kp))
            nb = np.zeros((T, T), bool)
            for i in range(T):
                for j in range(T):
                    pi, pj = i // f, j // f
                    if abs(pi - pj) <= scales.window:
                        nb[i, j] = True
                        e[i, j] = qp[pi] @ kp[pj] / math.sqrt(hd)
            es.append(e)
            nbs.append(nb)
        alpha = aggregate_scales(es, [1.0 / scales.levels] * scales.levels, nbs)
        out.append(alpha @ v[:, sl])
    return np.concatenate(out, axis=1) @ params.wo.data + params.bo.data


def hta_qkv_oracle(q, k, v, heads, scales, weights, window):
    """Dense reference for seqcore.window_attention on frame-level [T, A] q/k/v:
    per scale the ragged mean-pooled q and k score every pooled pair within
    the window, broadcast to [T, T], combined with aggregate_scales per head
    and applied to v."""
    T, A = q.shape
    hd = A // heads
    out = np.zeros((T, A))
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        es, nbs = [], []
        for s in scales:
            f = 1 << s
            qp, kp = _ragged_pool(q[:, sl], f), _ragged_pool(k[:, sl], f)
            pool = np.arange(T) // f
            es.append((qp @ kp.T)[pool][:, pool] / math.sqrt(hd))
            nbs.append(np.abs(pool[:, None] - pool[None, :]) <= window)
        out[:, sl] = aggregate_scales(es, weights, nbs) @ v[:, sl]
    return out


def project(y, g=1.0):
    """The scalar sum(y * g) on the tape, for a test to call backward() on:
    one `linear` of y's flattened values against g, broadcast to y's shape
    and cast to y's dtype, so y's gradient is exactly g."""
    g = np.broadcast_to(np.asarray(g, y.dtype), y.shape).reshape(-1, 1)
    return linear(y.reshape(1, -1), Tensor(g), Tensor(np.zeros(1, y.dtype))).reshape(())


def complex_step_grads(f, arrays, weight):
    """The gradients of sum(f(*arrays) * weight) with respect to each array
    by the complex step, d/dx_i = Im f(x + ih e_i) / h, which has no
    cancellation and is exact to rounding for a real-analytic numpy f."""
    h = 1e-30
    arrays = [np.array(a, dtype=np.complex128) for a in arrays]
    grads = []
    for a in arrays:
        g = np.zeros(a.shape)
        for i in np.ndindex(a.shape):
            a[i] += 1j * h
            g[i] = np.sum(f(*arrays) * weight).imag / h
            a[i] -= 1j * h
        grads.append(g)
    return grads


def linear_oracle(x, w, b):
    """x @ w + b, one output entry at a time."""
    y = np.zeros((x.shape[0], w.shape[1]), dtype=np.result_type(x, w, b))
    for n in range(x.shape[0]):
        for o in range(w.shape[1]):
            y[n, o] = sum(x[n, d] * w[d, o] for d in range(x.shape[1])) + b[o]
    return y


def layer_norm_oracle(x, gain, bias, eps=1e-6):
    """(x - mean) / sqrt(var + eps) * gain + bias per row of x."""
    y = np.zeros(x.shape, np.result_type(x, gain, bias))
    for r in range(x.shape[0]):
        xc = x[r] - sum(x[r]) / x.shape[1]
        var = sum(xc * xc) / x.shape[1]
        y[r] = xc / np.sqrt(var + eps) * gain + bias
    return y


def softmax_oracle(z):
    """numpy's softmax over the last axis of real or complex z."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def model_oracle(cfg, params, x):
    """Every stage's (action logits [T, C], boundary scores [T], features
    [T, d_model]) of `SegmentationModel.forward` in eval mode, encoder
    first, on x [T, d_in], from the parameter arrays by name, float64 or
    complex: the loop oracles of the linear maps, convolutions and layer
    norms, the dense DSWA and HTA oracles, and numpy's softmax, tanh GELU
    and sigmoid. A complex parameter gives the complex-step derivative in
    the imaginary parts."""
    p = params
    T = x.shape[0]

    def tcn(h, prefix, mode):
        for i in range(cfg.n_blocks):
            b = f"{prefix}.{i}"
            r = np.maximum(conv1d_oracle(h, p[f"{b}.conv.w"], p[f"{b}.conv.b"], 2**i, mode), 0)
            h = h + conv1d_oracle(r, p[f"{b}.pw.w"], p[f"{b}.pw.b"], 1, "acausal")
        return h

    def heads(h, prefix):
        logits = linear_oracle(h, p[f"{prefix}.action.w"], p[f"{prefix}.action.b"])
        blogit = linear_oracle(h, p[f"{prefix}.boundary.w"], p[f"{prefix}.boundary.b"])[:, 0]
        return logits, 1.0 / (1.0 + np.exp(-blogit)), h

    def attention(prefix):
        # each array as the `.data` of a stand-in, since a Tensor holds no
        # complex values
        names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        arrays = (p[f"{prefix}.{n}"] for n in names)
        return AttentionParams(*(SimpleNamespace(data=a, shape=a.shape) for a in arrays),
                               cfg.heads)

    h = tcn(linear_oracle(x, p["in_proj.w"], p["in_proj.b"]), "enc_tcn", "acausal")
    scales = cfg.scale_set(T)
    for i, (expanding, shrinking) in enumerate(cfg.window_pairs()):
        pre = f"enc_attn.{i}"
        a = layer_norm_oracle(h, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        h = (h + dswa_oracle(a, AttentionMask(T, expanding), AttentionMask(T, shrinking),
                             attention(f"{pre}.dswa"))
             + hta_oracle(a, scales, attention(f"{pre}.hta")))
        m = linear_oracle(layer_norm_oracle(h, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"]),
                          p[f"{pre}.mlp.w1"], p[f"{pre}.mlp.b1"])
        m = 0.5 * m * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (m + 0.044715 * m**3)))
        h = h + linear_oracle(m, p[f"{pre}.mlp.w2"], p[f"{pre}.mlp.b2"])
    stages = [heads(h, "enc_head")]
    for j in range(cfg.n_decoders):
        z = np.concatenate([softmax_oracle(stages[-1][0]), h], axis=1)
        z = tcn(linear_oracle(z, p[f"dec{j}.in_proj.w"], p[f"dec{j}.in_proj.b"]),
                f"dec{j}.tcn", "causal")
        stages.append(heads(z, f"dec{j}.head"))
    return stages


def model_loss_slopes(cfg, params, x, labels, target, directions):
    """The slope of the training loss of `model_oracle`'s stages along each
    direction: per name in `directions`, d/dt of the loss with
    params[name] + t * directions[name] at t = 0. The loss is the mean over
    stages of cfg's weighted focal, Dice (of the logits' softmax),
    similarity (of the features) and boundary (against `target`) oracles.
    Its gradient in a stage's outputs takes complex steps through the Dice
    and similarity oracles and central differences of the focal and
    boundary ones, which take no complex input; each slope is then one
    complex step of model_oracle along the direction, weighted by that
    gradient."""
    stages = model_oracle(cfg, params, x)
    n = len(stages)
    weight = []
    for logits, scores, feats in stages:
        [dice] = complex_step_grads(
            lambda z: dice_loss_oracle(softmax_oracle(z), labels, cfg.dice_smooth), [logits], 1.0)
        focal = finite_difference_grad(lambda z: focal_loss_oracle(z, labels, cfg.focal_gamma),
                                       logits)
        boundary = finite_difference_grad(lambda s: boundary_loss_oracle(s, target, cfg.tau),
                                          scores)
        [sim] = complex_step_grads(
            lambda f: similarity_loss_oracle(f, labels, cfg.sigma_divisor), [feats], 1.0)
        weight += [(cfg.loss_alpha * focal + cfg.loss_beta * dice) / n,
                   cfg.loss_delta * boundary / n, cfg.loss_gamma * sim / n]
    weight = np.concatenate([w.ravel() for w in weight])

    def outputs(name, t):
        moved = {**params, name: params[name] + t[0] * directions[name]}
        return np.concatenate([a.ravel() for stage in model_oracle(cfg, moved, x) for a in stage])
    return {name: complex_step_grads(functools.partial(outputs, name), [np.zeros(1)], weight)[0][0]
            for name in directions}


def _label_runs(labels):
    """(start, end) of each maximal run of equal labels, end inclusive."""
    runs, start = [], 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            runs.append((start, t - 1))
            start = t
    return runs


def focal_loss_oracle(logits, labels, gamma):
    """Mean over frames of -max(1 - p_t, 0)^gamma * log p_t, with p_t the
    softmax probability of the frame's label plus 1e-12."""
    total = 0.0
    for z, y in zip(logits, labels):
        e = np.exp(z - max(z))
        p_t = e[y] / sum(e) + 1e-12
        total += -max(1.0 - p_t, 0.0) ** gamma * math.log(p_t)
    return total / len(labels)


def dice_loss_oracle(probs, labels, smooth):
    """1 - the mean over the classes in `labels` of (2 * the probability
    mass on the class's frames + smooth) / (the class's total probability
    mass + its frame count + smooth)."""
    dices = []
    for c in range(probs.shape[1]):
        frames = [t for t, y in enumerate(labels) if y == c]
        if frames:
            inter = sum(probs[t, c] for t in frames)
            dices.append((2.0 * inter + smooth) / (sum(probs[:, c]) + len(frames) + smooth))
    return 1.0 - sum(dices) / len(dices)


def similarity_loss_oracle(feats, labels, sigma_divisor):
    """Sum over consecutive frame pairs (t, t + 1) of G(t) * (1 - cos), over
    T - 1: G(t) is a Gaussian at the centre of t's label run with sigma
    max(1, run length / sigma_divisor), and each norm is sqrt(f . f + 1e-12).
    Complex features give the complex-step derivative in its imaginary
    part."""
    g = np.zeros(len(labels))
    for start, end in _label_runs(labels):
        sigma = max(1.0, (end - start + 1) / sigma_divisor)
        for t in range(start, end + 1):
            g[t] = math.exp(-((t - (start + end) / 2.0) ** 2) / (2.0 * sigma ** 2))
    total = 0.0
    for t in range(len(labels) - 1):
        a, b = feats[t], feats[t + 1]
        cos = a @ b / (np.sqrt(a @ a + 1e-12) * np.sqrt(b @ b + 1e-12))
        total += g[t] * (1.0 - cos)
    return total / (len(labels) - 1)


def boundary_loss_oracle(scores, target, tau):
    """Mean over frames of target * min((score - target)^2, tau)."""
    return sum(b * min((s - b) ** 2, tau) for s, b in zip(scores, target)) / len(target)


def checkpoint_v1_bytes(cfg, params):
    """A version-1 MSBC checkpoint, field by field: magic, u32 version, the
    config as `key = value` lines, u32 count, then per name in sorted order
    its u32 length and bytes, u32 rank, u64 extents and float64 LE values."""
    text = "\n".join(f"{k} = {v}" for k, v in cfg.to_dict().items()).encode()
    out = [b"MSBC", struct.pack("<I", 1), struct.pack("<I", len(text)), text,
           struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name].data)
        out += [struct.pack("<I", len(name.encode())), name.encode(),
                struct.pack("<I", arr.ndim)]
        out += [struct.pack("<Q", ext) for ext in arr.shape]
        out.append(arr.astype("<f8").tobytes())
    return b"".join(out)


def checkpoint_v2_bytes(cfg, params):
    """A version-2 MSBC checkpoint, field by field: as version 1, but with
    u32 version 2 and float32 LE values, and a rank-3 parameter
    [C_out, C_in, k] written tap-major, as u64 extents k, C_in, C_out and
    then, for each tap j and input channel i, its values w[:, i, j]."""
    text = "\n".join(f"{k} = {v}" for k, v in cfg.to_dict().items()).encode()
    out = [b"MSBC", struct.pack("<I", 2), struct.pack("<I", len(text)), text,
           struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name].data)
        if arr.ndim == 3:
            c_out, c_in, k = arr.shape
            arr = np.array([[[arr[o, i, j] for o in range(c_out)] for i in range(c_in)]
                            for j in range(k)]).reshape(k, c_in, c_out)
        out += [struct.pack("<I", len(name.encode())), name.encode(),
                struct.pack("<I", arr.ndim)]
        out += [struct.pack("<Q", ext) for ext in arr.shape]
        out.append(arr.astype("<f4").tobytes())
    return b"".join(out)


def save_labels_per_line(labels, path):
    """The label file as written one `write` call per frame."""
    with open(path, "w") as f:
        for v in np.asarray(labels, dtype=np.int64):
            f.write(f"{v}\n")


def save_segment_file_per_line(path, segments):
    """The segment file as written one `write` call per line."""
    with open(path, "w") as f:
        f.write("# start,end,class_id (frames, inclusive)\n")
        for seg in segments:
            f.write(f"{seg.start},{seg.end},{seg.label}\n")
