"""The boundary-aware composite training objective: focal classification,
soft Dice overlap, Gaussian center-weighted feature similarity and a
Gaussian truncated boundary MSE, combined with fixed weights."""

from __future__ import annotations

import numpy as np

from .seqcore import ShapeError, Tensor, as_tensor, softmax
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


def _one_hot(labels: np.ndarray, C: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= C:
        bad = labels[(labels < 0) | (labels >= C)][0]
        raise ValueError(f"label {bad} outside [0, {C})")
    oh = np.zeros((labels.size, C))
    oh[np.arange(labels.size), labels] = 1.0
    return oh


def focal_loss(action_logits: Tensor, labels, gamma_f: float = 2.0) -> Tensor:
    """Mean over frames of -(1 - p_t)^gamma_f * log p_t; gamma_f = 0 is
    plain cross-entropy."""
    logits = as_tensor(action_logits)
    oh = _one_hot(labels, logits.shape[1])
    probs = softmax(logits)
    p_t = (probs * oh).sum(axis=1)
    p_t = p_t + _EPS
    # a frame whose softmax saturates has p_t = 1 + _EPS: clamp the base at 0,
    # or a fractional gamma_f makes the loss and every gradient NaN
    weight = (1.0 - p_t).relu().pow_const(gamma_f) if gamma_f != 0.0 else 1.0
    return (weight * -p_t.log()).mean() if gamma_f != 0.0 else (-p_t.log()).mean()


def dice_loss(action_probs: Tensor, labels, smooth: float = 1.0) -> Tensor:
    """1 - mean soft Dice over the classes present in the labels."""
    probs = as_tensor(action_probs)
    T, C = probs.shape
    oh = _one_hot(labels, C)
    present = oh.sum(axis=0) > 0
    inter = (probs * oh).sum(axis=0)
    denom = probs.sum(axis=0) + oh.sum(axis=0)
    dice = (2.0 * inter + smooth) / (denom + smooth)
    n_present = float(present.sum())
    return 1.0 - (dice * present.astype(float)).sum() / n_present


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
    sum_t G(t) * (1 - cos(f_t, f_{t+1})) / (T - 1). A pair straddling a
    segment boundary uses the left frame's profile."""
    f = as_tensor(features)
    T = f.shape[0]
    if T < 2:
        raise ShapeError(f"similarity loss needs T >= 2, got {T}")
    g = segment_center_weights(segments, T, sigma_divisor)[:-1]
    a, b = f[:-1], f[1:]
    dots = (a * b).sum(axis=1)
    na = ((a * a).sum(axis=1) + _EPS).sqrt()
    nb = ((b * b).sum(axis=1) + _EPS).sqrt()
    cos = dots / (na * nb)
    return ((1.0 - cos) * g).sum() / float(T - 1)


def gaussian_truncated_boundary_loss(
    boundary_scores: Tensor, boundary_target, tau: float = 0.5
) -> Tensor:
    """sum_t b_t * min((b_hat_t - b_t)^2, tau) / T: the Gaussian boundary
    target b (``make_boundary_target``) is also the weight profile, so the
    loss peaks at annotated boundaries. min is realised as
    tau - relu(tau - x) to stay on the tape."""
    scores = as_tensor(boundary_scores)
    target = np.asarray(boundary_target, dtype=np.float64)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if scores.shape != target.shape:
        raise ShapeError(f"boundary loss shapes disagree: {scores.shape}, {target.shape}")
    sq = (scores - target) * (scores - target)
    truncated = tau - (tau - sq).relu()
    return (truncated * target).sum() / float(scores.shape[0])


def combined_temporal_loss(output, labels, cfg) -> tuple[Tensor, dict]:
    """Mean over stages of alpha*focal + beta*dice + gamma*similarity +
    delta*boundary, with alpha .. delta from cfg.loss_alpha .. cfg.loss_delta.
    The boundary target and every stage's similarity term read the segments
    (label runs) that ``frames_to_segments`` makes from the labels.
    Returns the scalar loss and per-component float values."""
    labels = np.asarray(labels, dtype=np.int64)
    segments = frames_to_segments(labels)
    b_target = make_boundary_target(segments, labels.size)
    total = None
    parts = {"focal": 0.0, "dice": 0.0, "sim": 0.0, "boundary": 0.0}
    for stage in output.stages:
        lf = focal_loss(stage.action_logits, labels, cfg.focal_gamma)
        ld = dice_loss(softmax(stage.action_logits), labels, cfg.dice_smooth)
        ls = gaussian_cosine_similarity_loss(stage.features, segments, cfg.sigma_divisor)
        lb = gaussian_truncated_boundary_loss(stage.boundary_scores, b_target, cfg.tau)
        stage_loss = (cfg.loss_alpha * lf + cfg.loss_beta * ld + cfg.loss_gamma * ls
                      + cfg.loss_delta * lb)
        total = stage_loss if total is None else total + stage_loss
        for k, term in zip(parts, (lf, ld, ls, lb)):
            parts[k] += term.item()
    n = len(output.stages)
    loss = total / float(n)
    for k in parts:
        parts[k] /= n
    return loss, parts
