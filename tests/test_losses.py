import math

import numpy as np
import pytest

from tempseg.losses import (
    combined_temporal_loss,
    dice_loss,
    focal_loss,
    gaussian_cosine_similarity_loss,
    gaussian_truncated_boundary_loss,
    segment_center_weights,
)
from tempseg.network import ModelConfig, StagePrediction, ModelOutput
from tempseg.segments import Segment, SegmentList, frames_to_segments, make_boundary_target
from tempseg.seqcore import Tensor, softmax

from oracles import fd_check_tensor

rng = np.random.default_rng(31337)


def t(a):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)


# -- closed-form values ---------------------------------------------------


def test_focal_half_probability():
    # two equal logits: p_t = 0.5, gamma 2 -> (1-0.5)^2 * -log(0.5)
    loss = focal_loss(t([[0.0, 0.0]]), np.array([1]), gamma_f=2.0)
    assert math.isclose(loss.item(), 0.25 * math.log(2.0), rel_tol=1e-9)


def test_focal_gamma_zero_is_cross_entropy():
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    loss = focal_loss(t(logits), labels, gamma_f=0.0)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    ce = -np.mean(np.log(p[np.arange(6), labels] + 1e-12))
    assert math.isclose(loss.item(), ce, rel_tol=1e-9)


def test_focal_downweights_easy_frames():
    easy = focal_loss(t([[5.0, -5.0]]), np.array([0]), gamma_f=2.0).item()
    hard = focal_loss(t([[-5.0, 5.0]]), np.array([0]), gamma_f=2.0).item()
    assert hard > 100 * easy


def test_dice_uniform_half():
    # uniform probs over 2 classes, one frame each: per-class dice -> 0.5
    probs = t(np.full((2, 2), 0.5))
    loss = dice_loss(probs, np.array([0, 1]), smooth=1e-12)
    assert math.isclose(loss.item(), 0.5, rel_tol=1e-6)


def test_dice_perfect_prediction_near_zero():
    labels = np.array([0, 0, 1, 1, 2])
    probs = np.zeros((5, 3))
    probs[np.arange(5), labels] = 1.0
    loss = dice_loss(t(probs), labels, smooth=1e-12)
    assert loss.item() < 1e-9


def test_dice_ignores_absent_classes():
    labels = np.zeros(4, dtype=int)
    probs = np.zeros((4, 3))
    probs[:, 0] = 1.0
    # class 1 and 2 never occur and never predicted: no penalty from them
    assert dice_loss(t(probs), labels, smooth=1e-12).item() < 1e-9


def test_center_weights_peak_at_center():
    segs = SegmentList([Segment(0, 11, 0)])
    g = segment_center_weights(segs, 12)
    assert g.argmax() in (5, 6)
    sigma = max(1.0, 12 / 6.0)
    center = (0 + 11) / 2.0  # falls between frames, so the peak is < 1
    assert math.isclose(g[5], math.exp(-0.5 * (0.5 / sigma) ** 2), rel_tol=1e-9)
    assert math.isclose(g[0], math.exp(-0.5 * (center / sigma) ** 2), rel_tol=1e-9)
    assert np.allclose(g, g[::-1])


def test_center_weights_sigma_floor():
    g = segment_center_weights(SegmentList([Segment(0, 2, 0)]), 3)
    # len/6 = 0.5 floors to sigma 1
    assert math.isclose(g[0], math.exp(-0.5), rel_tol=1e-9)


def test_similarity_zero_for_constant_features():
    segs = SegmentList([Segment(0, 9, 0)])
    f = t(np.ones((10, 4)))
    assert abs(gaussian_cosine_similarity_loss(f, segs).item()) < 1e-6


def test_similarity_penalises_center_change_more():
    T = 13
    segs = SegmentList([Segment(0, T - 1, 0)])
    base = np.ones((T, 3))
    mid = base.copy()
    mid[6] = [-1.0, 1.0, 1.0]
    edge = base.copy()
    edge[1] = [-1.0, 1.0, 1.0]
    l_mid = gaussian_cosine_similarity_loss(t(mid), segs).item()
    l_edge = gaussian_cosine_similarity_loss(t(edge), segs).item()
    assert l_mid > l_edge > 0


def test_boundary_loss_zero_at_target():
    segs = SegmentList([Segment(0, 9, 0), Segment(10, 19, 1)])
    from tempseg.segments import make_boundary_target

    b = make_boundary_target(segs, 20)
    loss = gaussian_truncated_boundary_loss(t(b), b, tau=0.5)
    assert loss.item() < 1e-12


def test_boundary_loss_truncates_large_errors():
    target = np.ones(4)
    wild = t(np.full(4, 100.0))
    loss = gaussian_truncated_boundary_loss(wild, target, tau=0.5)
    # every frame clamps at tau and weighs 1
    assert math.isclose(loss.item(), 0.5, rel_tol=1e-9)


def test_loss_weights_validate():
    for name in ("loss_alpha", "loss_beta", "loss_gamma", "loss_delta"):
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{name: -0.1})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma", [0.5, 1.5, 2.0])
def test_focal_loss_finite_on_a_saturated_frame(gamma):
    # frame 0's softmax is 1.0 exactly, so 1 - (p_t + eps) < 0 there; the
    # clamped base is 0, where pow_const's backward is inf for gamma < 1,
    # and neither the forward nor the backward may warn
    logits = t([[40.0, 0.0, 0.0], [0.3, -0.2, 0.1]])
    loss = focal_loss(logits, [0, 2], gamma)
    loss.backward()
    assert math.isfinite(loss.item())
    assert np.isfinite(logits.grad).all()
    assert np.array_equal(logits.grad[0], np.zeros(3))


# -- gradients ------------------------------------------------------------


def test_focal_gradient_fd():
    logits = t(rng.normal(size=(7, 3)))
    labels = rng.integers(0, 3, size=7)
    err = fd_check_tensor(lambda: focal_loss(logits, labels), [logits])
    assert err < 1e-6


def test_dice_gradient_fd_through_softmax():
    logits = t(rng.normal(size=(6, 3)))
    labels = rng.integers(0, 3, size=6)
    assert fd_check_tensor(lambda: dice_loss(softmax(logits), labels), [logits]) < 1e-6


def test_similarity_gradient_fd():
    segs = SegmentList([Segment(0, 3, 0), Segment(4, 7, 1)])
    f = t(rng.normal(size=(8, 5)))
    err = fd_check_tensor(lambda: gaussian_cosine_similarity_loss(f, segs), [f])
    assert err < 1e-6


def test_boundary_gradient_fd():
    segs = SegmentList([Segment(0, 9, 0), Segment(10, 19, 1)])
    from tempseg.segments import make_boundary_target

    b = make_boundary_target(segs, 20)
    scores = t(rng.uniform(0.0, 1.0, size=20))
    err = fd_check_tensor(
        lambda: gaussian_truncated_boundary_loss(scores, b, tau=0.5), [scores]
    )
    assert err < 1e-6


# -- combination ----------------------------------------------------------


def _fake_output(T, C, d, n_stages, r):
    stages = []
    for _ in range(n_stages):
        stages.append(
            StagePrediction(
                t(r.normal(size=(T, C))),
                t(r.uniform(0, 1, size=T)),
                t(r.normal(size=(T, d))),
            )
        )
    return ModelOutput(stages)


def test_combined_loss_is_stage_mean():
    cfg = ModelConfig(n_classes=3, d_in=4, d_model=8, n_blocks=1, n_decoders=0, heads=2)
    labels = np.array([0] * 6 + [1] * 6)
    r = np.random.default_rng(5)
    out2 = _fake_output(12, 3, 8, 2, r)
    loss2, parts = combined_temporal_loss(out2, labels, cfg)
    per_stage = []
    for st in out2.stages:
        one = ModelOutput([st])
        l, _ = combined_temporal_loss(one, labels, cfg)
        per_stage.append(l.item())
    assert math.isclose(loss2.item(), np.mean(per_stage), rel_tol=1e-12)
    assert set(parts) == {"focal", "dice", "sim", "boundary"}


def test_combined_loss_derives_segments_from_the_labels():
    # bit for bit the four public terms over frames_to_segments(labels),
    # combined stage by stage as the loss does, over three stages
    cfg = ModelConfig(n_classes=3, d_in=4, d_model=8, n_blocks=1, n_decoders=2, heads=2)
    labels = np.array([0] * 4 + [2] * 7 + [1] * 3 + [0] * 6)
    out = _fake_output(20, 3, 8, 3, np.random.default_rng(7))
    loss, parts = combined_temporal_loss(out, labels, cfg)
    segs = frames_to_segments(labels)
    target = make_boundary_target(segs, labels.size)
    total, want = None, dict.fromkeys(parts, 0.0)
    for st in out.stages:
        terms = {
            "focal": focal_loss(st.action_logits, labels, cfg.focal_gamma),
            "dice": dice_loss(softmax(st.action_logits), labels, cfg.dice_smooth),
            "sim": gaussian_cosine_similarity_loss(st.features, segs, cfg.sigma_divisor),
            "boundary": gaussian_truncated_boundary_loss(st.boundary_scores, target, cfg.tau),
        }
        stage = (cfg.loss_alpha * terms["focal"] + cfg.loss_beta * terms["dice"]
                 + cfg.loss_gamma * terms["sim"] + cfg.loss_delta * terms["boundary"])
        total = stage if total is None else total + stage
        for k, term in terms.items():
            want[k] += term.item()
    assert loss.item() == (total / 3.0).item()
    assert parts == {k: v / 3 for k, v in want.items()}
    # one class throughout: one segment, so no boundary to target
    assert combined_temporal_loss(out, np.zeros(20, np.int64), cfg)[1]["boundary"] == 0.0


def test_combined_loss_weight_scaling():
    dims = dict(n_classes=3, d_in=4, d_model=8, n_blocks=1, n_decoders=0, heads=2)
    labels = np.array([0] * 5 + [2] * 5)
    r = np.random.default_rng(6)
    out = _fake_output(10, 3, 8, 1, r)
    focal_only = ModelConfig(**dims, loss_alpha=1, loss_beta=0, loss_gamma=0, loss_delta=0)
    base, parts = combined_temporal_loss(out, labels, focal_only)
    assert math.isclose(base.item(), parts["focal"], rel_tol=1e-12)
    full, parts = combined_temporal_loss(
        out, labels,
        ModelConfig(**dims, loss_alpha=1.0, loss_beta=0.2, loss_gamma=0.5, loss_delta=0.5),
    )
    want = (
        parts["focal"] + 0.2 * parts["dice"] + 0.5 * parts["sim"] + 0.5 * parts["boundary"]
    )
    assert math.isclose(full.item(), want, rel_tol=1e-12)
