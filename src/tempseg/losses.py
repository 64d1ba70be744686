"""The boundary-aware composite training objective: focal classification,
soft Dice overlap, Gaussian center-weighted feature similarity and a
Gaussian truncated boundary MSE, combined with fixed weights.

Each term is one tape op (``scalar_op``) over its one tensor input, in
float64 numpy and in closed form: the forward makes its value, and
backward makes its gradient, which is cast back to the input's dtype as it
accumulates. Until backward, a term's closure keeps only per-frame or
per-class vectors and the input's own array, never a float64 array of the
input's shape: the [T, C] and [T, d] gradients are formed where backward
reads them. Labels are used as indices and class counts."""

from __future__ import annotations

import numpy as np

from .seqcore import ShapeError, Tensor, as_tensor, scalar_op, softmax
from .segments import SegmentList, frames_to_segments, make_boundary_target

__all__ = [
    "focal_loss",
    "dice_loss",
    "gaussian_cosine_similarity_loss",
    "gaussian_truncated_boundary_loss",
    "combined_temporal_loss",
    "segment_center_weights",
]

_EPS = 1e-12


def _softmax64(z: np.ndarray) -> np.ndarray:
    """The row softmax of [T, C] logits, in float64."""
    z = z.astype(np.float64)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


def _labels(labels, T: int, C: int) -> np.ndarray:
    """`labels` as T int64 class indices, each in [0, C)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (T,):
        raise ShapeError(f"labels of shape {labels.shape} do not match T={T} frames")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= C:
        bad = labels[(labels < 0) | (labels >= C)][0]
        raise ValueError(f"label {bad} outside [0, {C})")
    return labels


def focal_loss(action_logits: Tensor, labels, gamma_f: float = 2.0) -> Tensor:
    """Mean over frames of -(1 - p_t)^gamma_f * log p_t, with p_t the
    softmax of the logits at the label plus 1e-12; gamma_f = 0 is plain
    cross-entropy. The gradient runs through the softmax in closed form:
    d/dz_c = dl/dp_t * p_label * (1[c = label] - p_c)."""
    logits = as_tensor(action_logits)
    z = logits.data
    T, C = z.shape
    frames = np.arange(T)
    y = _labels(labels, T, C)
    p_y = _softmax64(z)[frames, y]
    p_t = p_y + _EPS
    # a frame whose softmax saturates has p_t = 1 + _EPS: its base u is
    # clamped at 0, where no gradient flows, so the factor
    # gamma_f * u ** (gamma_f - 1), inf or NaN at u = 0, is masked to 0
    u = np.maximum(1.0 - p_t, 0.0)
    log_p = np.log(p_t)
    with np.errstate(divide="ignore", invalid="ignore"):
        du = np.where(u > 0.0, gamma_f * u ** (gamma_f - 1.0), 0.0)
    weight = u ** gamma_f
    # dl/dp_t, times dp_t/dz_label = p_y and the mean's 1 / T
    coef = (du * log_p - weight / p_t) * (p_y / T)

    def grad():
        d = _softmax64(z) * -coef[:, None]
        d[frames, y] += coef
        return d
    return scalar_op(np.sum(weight * -log_p) / T, logits, grad)


def dice_loss(action_probs: Tensor, labels, smooth: float = 1.0) -> Tensor:
    """1 - mean soft Dice over the classes present in the labels, with
    class c's Dice (2 * sum_{t: y_t = c} p_tc + smooth) /
    (sum_t p_tc + n_c + smooth) and n_c the frames labelled c."""
    probs = as_tensor(action_probs)
    P = probs.data.astype(np.float64)
    T, C = P.shape
    frames = np.arange(T)
    y = _labels(labels, T, C)
    counts = np.bincount(y, minlength=C)
    present = counts > 0
    inter = np.bincount(y, weights=P[frames, y], minlength=C)
    denom = P.sum(axis=0) + counts + smooth
    dice = (2.0 * inter + smooth) / denom
    n_present = float(present.sum())
    # d(dice_c)/dp_tc = (2 * 1[y_t = c] - dice_c) / denom_c
    scale = present / (n_present * denom)

    def grad():
        d = np.broadcast_to(dice * scale, (T, C)).copy()
        d[frames, y] -= 2.0 * scale[y]
        return d
    return scalar_op(1.0 - np.sum(dice[present]) / n_present, probs, grad)


def segment_center_weights(segments: SegmentList, T: int, sigma_divisor: float = 6.0) -> np.ndarray:
    """G(t) for the similarity loss: per frame, a Gaussian peaked at the
    center of the containing segment, sigma = max(1, len/divisor)."""
    SegmentList(segments).validate(T)
    g = np.zeros(T)
    for seg in segments:
        sigma = max(1.0, seg.length / sigma_divisor)
        t = np.arange(seg.start, seg.end + 1)
        g[seg.start : seg.end + 1] = np.exp(-((t - seg.center) ** 2) / (2.0 * sigma ** 2))
    return g


def gaussian_cosine_similarity_loss(
    features: Tensor, segments: SegmentList, sigma_divisor: float = 6.0
) -> Tensor:
    """Center-weighted penalty on consecutive-frame feature dissimilarity:
    sum_t G(t) * (1 - cos(f_t, f_{t+1})) / (T - 1), each norm taken as
    sqrt(|f|^2 + 1e-12). A pair straddling a segment boundary uses the left
    frame's profile."""
    feats = as_tensor(features)
    fd = feats.data
    f = fd.astype(np.float64)
    T = f.shape[0]
    if T < 2:
        raise ShapeError(f"similarity loss needs T >= 2, got {T}")
    g = segment_center_weights(segments, T, sigma_divisor)[:-1]
    a, b = f[:-1], f[1:]
    na = np.sqrt(np.einsum("td,td->t", a, a) + _EPS)
    nb = np.sqrt(np.einsum("td,td->t", b, b) + _EPS)
    cos = np.einsum("td,td->t", a, b) / (na * nb)
    # d(cos)/da = b / (na nb) - cos * a / na^2, and likewise for b; with w
    # the loss's slope in each pair's cos, a frame's gradient is its own
    # row times one scale plus its neighbours' rows times w / (na nb)
    w = -g / (T - 1)
    own = np.zeros(T)
    own[:-1] -= w * cos / (na * na)
    own[1:] -= w * cos / (nb * nb)
    cross = (w / (na * nb))[:, None]

    def grad():
        f = fd.astype(np.float64)
        d = f * own[:, None]
        d[:-1] += cross * f[1:]
        d[1:] += cross * f[:-1]
        return d
    return scalar_op(np.sum((1.0 - cos) * g) / (T - 1), feats, grad)


def gaussian_truncated_boundary_loss(
    boundary_scores: Tensor, boundary_target, tau: float = 0.5
) -> Tensor:
    """sum_t b_t * min((b_hat_t - b_t)^2, tau) / T: the Gaussian boundary
    target b (``make_boundary_target``) is also the weight profile, so the
    loss peaks at annotated boundaries. A frame whose squared error is at
    least tau passes no gradient."""
    scores = as_tensor(boundary_scores)
    target = np.asarray(boundary_target, dtype=np.float64)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if scores.shape != target.shape:
        raise ShapeError(f"boundary loss shapes disagree: {scores.shape}, {target.shape}")
    T = target.shape[0]
    err = scores.data.astype(np.float64) - target
    sq = err * err
    return scalar_op(np.sum(np.minimum(sq, tau) * target) / T, scores,
                     lambda: np.where(sq < tau, 2.0 * err * target / T, 0.0))


def combined_temporal_loss(output, labels, cfg) -> tuple[Tensor, dict]:
    """Mean over stages of alpha*focal + beta*dice + gamma*similarity +
    delta*boundary, with alpha .. delta from cfg.loss_alpha .. cfg.loss_delta,
    summed as term * (weight / stages). The boundary target and every
    stage's similarity term read the segments (label runs) that
    ``frames_to_segments`` makes from the labels, which must hold one class
    index per frame of every stage. Returns the scalar loss and per-component
    float values."""
    stages = output.stages
    for stage in stages:
        labels = _labels(labels, *stage.action_logits.shape)
    segments = frames_to_segments(labels)
    b_target = make_boundary_target(segments, labels.size)
    n = len(stages)
    weights = (cfg.loss_alpha, cfg.loss_beta, cfg.loss_gamma, cfg.loss_delta)
    total = None
    parts = {"focal": 0.0, "dice": 0.0, "sim": 0.0, "boundary": 0.0}
    for stage in stages:
        terms = (
            focal_loss(stage.action_logits, labels, cfg.focal_gamma),
            dice_loss(softmax(stage.action_logits), labels, cfg.dice_smooth),
            gaussian_cosine_similarity_loss(stage.features, segments, cfg.sigma_divisor),
            gaussian_truncated_boundary_loss(stage.boundary_scores, b_target, cfg.tau),
        )
        for k, term, weight in zip(parts, terms, weights):
            scaled = term * (weight / n)
            total = scaled if total is None else total + scaled
            parts[k] += term.item()
    for k in parts:
        parts[k] /= n
    return total, parts
