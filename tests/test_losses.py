import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from tempseg.seqcore import ShapeError, Tensor, softmax

from oracles import (
    boundary_loss_oracle,
    complex_step_grads,
    dice_loss_oracle,
    fd_check_tensor,
    focal_loss_oracle,
    rel_err,
    similarity_loss_oracle,
)
from test_float32 import F32_REL_TOL
from test_seqcore import _captured

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
    # clamped base u is 0, where gamma * u ** (gamma - 1) is inf for
    # gamma < 1, and neither the forward nor the backward may warn
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
    # summed term by term as the loss does, each times its weight over the
    # three stages
    cfg = ModelConfig(n_classes=3, d_in=4, d_model=8, n_blocks=1, n_decoders=2, heads=2)
    labels = np.array([0] * 4 + [2] * 7 + [1] * 3 + [0] * 6)
    out = _fake_output(20, 3, 8, 3, np.random.default_rng(7))
    loss, parts = combined_temporal_loss(out, labels, cfg)
    segs = frames_to_segments(labels)
    target = make_boundary_target(segs, labels.size)
    weights = (cfg.loss_alpha, cfg.loss_beta, cfg.loss_gamma, cfg.loss_delta)
    total, want = None, dict.fromkeys(parts, 0.0)
    for stage in out.stages:
        terms = {
            "focal": focal_loss(stage.action_logits, labels, cfg.focal_gamma),
            "dice": dice_loss(softmax(stage.action_logits), labels, cfg.dice_smooth),
            "sim": gaussian_cosine_similarity_loss(stage.features, segs, cfg.sigma_divisor),
            "boundary": gaussian_truncated_boundary_loss(stage.boundary_scores, target, cfg.tau),
        }
        for (k, term), weight in zip(terms.items(), weights):
            scaled = term * (weight / 3)
            total = scaled if total is None else total + scaled
            want[k] += term.item()
    assert loss.item() == total.item()
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


@pytest.mark.parametrize("shape", [(1,), (11,), (15,), (12, 1)])
def test_combined_loss_rejects_labels_of_another_shape(shape):
    # one class index per frame of every stage, or a ShapeError naming both
    cfg = ModelConfig(n_classes=3, d_in=4, d_model=8, n_blocks=1, n_decoders=1, heads=2)
    out = _fake_output(12, 3, 8, 2, np.random.default_rng(8))
    labels = np.zeros(shape, np.int64)
    with pytest.raises(ShapeError, match=re.escape(f"labels of shape {shape}") + ".*T=12"):
        combined_temporal_loss(out, labels, cfg)


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), min_size=1, max_size=5),
    classes=st.integers(1, 5),
    width=st.integers(1, 5),
    gamma=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    saturated=st.lists(st.booleans(), max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
# a width-1 feature of -1.5e-5: a central difference at eps 1e-6 steps
# across the cosine's steep region around 0 and read 8.8e-3
@example(runs=[(0, 4)], classes=5, width=1, gamma=0.0, saturated=[], seed=2850)
def test_loss_terms_match_the_loop_oracles(runs, classes, width, gamma, saturated, seed):
    # each closed form's value to 1e-12 against a per-frame loop, and its
    # gradient against finite differences, or for the similarity term, whose
    # cosine is steep where a feature nears 0, against the complex step on
    # the loop, which steps across nothing; a saturated frame's softmax is
    # exactly 1 at its label, and one run makes a single segment
    labels = np.concatenate([np.full(n, label % classes) for label, n in runs])
    T = labels.size
    if T < 2:
        labels, T = np.repeat(labels, 2), 2
    r = np.random.default_rng(seed)
    z = r.normal(size=(T, classes)) * 3.0
    for frame, hot in zip(range(T), saturated):
        if hot:
            z[frame, labels[frame]] = 60.0
    logits, feats = t(z), t(r.normal(size=(T, width)))
    segs = frames_to_segments(labels)
    target = make_boundary_target(segs, T)
    scores = t(np.clip(target + r.normal(size=T) * 0.5, 0.0, 1.0))
    probs = softmax(logits)
    cases = [
        (lambda: focal_loss(logits, labels, gamma), focal_loss_oracle(z, labels, gamma), logits),
        (lambda: dice_loss(softmax(logits), labels, 0.7),
         dice_loss_oracle(probs.data, labels, 0.7), logits),
        (lambda: gaussian_cosine_similarity_loss(feats, segs, 4.0),
         similarity_loss_oracle(feats.data, labels, 4.0), feats),
        (lambda: gaussian_truncated_boundary_loss(scores, target, 0.3),
         boundary_loss_oracle(scores.data, target, 0.3), scores),
    ]
    for build, want, leaf in cases:
        got = build().item()
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)
        if leaf is not feats:
            assert fd_check_tensor(build, [leaf]) < 1e-6
    feats.grad = np.zeros_like(feats.data)
    cases[2][0]().backward()
    [want] = complex_step_grads(lambda f: similarity_loss_oracle(f, labels, 4.0), [feats.data], 1.0)
    # fd_check_tensor's measure: each entry's error over max(|either|, 1)
    scale = np.maximum(np.maximum(np.abs(want), np.abs(feats.grad)), 1.0)
    assert np.max(np.abs(feats.grad - want) / scale) < 1e-6
    if len(segs) == 1:
        assert gaussian_truncated_boundary_loss(scores, target, 0.3).item() == 0.0


def test_loss_terms_take_float32_inputs():
    # the value is float64 and each gradient comes back in its input's dtype,
    # within F32_REL_TOL of a float64 run on the same values
    r = np.random.default_rng(9)
    labels = np.array([0] * 9 + [2] * 14 + [1] * 7 + [0] * 10)
    T = labels.size
    segs = frames_to_segments(labels)
    logits = r.normal(size=(T, 3)).astype(np.float32).astype(np.float64)
    feats = r.normal(size=(T, 16)).astype(np.float32).astype(np.float64)
    terms = [
        (lambda x: focal_loss(x, labels, 0.5), logits),
        (lambda x: dice_loss(softmax(x), labels), logits),
        (lambda x: gaussian_cosine_similarity_loss(x, segs), feats),
    ]
    for term, data in terms:
        runs = []
        for dtype in (np.float32, np.float64):
            x = Tensor(data.astype(dtype), requires_grad=True)
            loss = term(x)
            loss.backward()
            assert loss.data.dtype == np.float64 and x.grad.dtype == dtype
            runs.append((loss.item(), x.grad))
        (v32, g32), (v64, g64) = runs
        assert math.isclose(v32, v64, rel_tol=F32_REL_TOL)
        assert rel_err(g32, g64) < F32_REL_TOL


def test_loss_terms_keep_no_input_sized_float64_array_until_backward():
    # on float32 inputs each term's closure keeps at most one float64 value
    # per frame (or per class): none of the [T, C] or [T, d] gradients or
    # float64 copies of the input, which backward forms, and no Tensor
    r = np.random.default_rng(3802)
    labels = np.array([0] * 9 + [2] * 14 + [1] * 7 + [0] * 10)
    T = labels.size
    segs = frames_to_segments(labels)
    target = make_boundary_target(segs, T)
    terms = [
        (lambda x: focal_loss(x, labels, 0.5), (T, 3)),
        (lambda x: dice_loss(softmax(x), labels), (T, 3)),
        (lambda x: gaussian_cosine_similarity_loss(x, segs), (T, 16)),
        (lambda x: gaussian_truncated_boundary_loss(x, target), (T,)),
    ]
    for term, shape in terms:
        x = Tensor(r.normal(size=shape).astype(np.float32), requires_grad=True)
        loss = term(x)
        # a leaf input is its own node, which the closure accumulates into
        held = [v for v in _captured(loss._node._backward) if v is not x]
        assert not any(isinstance(v, Tensor) for v in held), held
        sizes = [a.shape for a in held if isinstance(a, np.ndarray) and a.dtype == np.float64]
        assert all(math.prod(s) <= T for s in sizes), (shape, sizes)
        loss.backward()
        assert x.grad.dtype == np.float32 and x.grad.shape == shape


def _interior_nodes(loss):
    """Nodes that hold a backward closure, reachable from `loss`."""
    seen, stack, count = set(), [loss._node], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._prev:
            continue
        seen.add(id(node))
        count += 1
        stack.extend(node._prev)
    return count


def test_one_stage_loss_is_at_most_twelve_tape_nodes():
    # the tape softmax the Dice term reads, the four terms, their four
    # weightings and three sums; each further stage adds one more sum
    cfg = ModelConfig(n_classes=4, d_in=4, d_model=8, n_blocks=1, n_decoders=2, heads=2)
    labels = np.array([0] * 20 + [3] * 30 + [1] * 14)
    counts = [_interior_nodes(combined_temporal_loss(
        _fake_output(64, 4, 8, n, np.random.default_rng(10)), labels, cfg)[0]) for n in (1, 2, 3)]
    assert counts[0] <= 12 and counts[2] - counts[1] <= 13, counts
