"""Float32 inference and training: every op runs in its input's dtype, a
float32 forward (with or without the tape) makes no float64 array beyond
the boundary sigmoid, float64 parameters get float64 gradients, and `infer`
(float32 network, float64 post-processing) gives the labels of a float64
forward."""

import tracemalloc

import numpy as np
import pytest

from tempseg import seqcore
from tempseg.network import ModelConfig, SegmentationModel
from tempseg.pipeline import SynthSpec, _sequence_loss, infer, synth_dataset
from tempseg.segments import detect_boundaries, refine_prediction
from tempseg.seqcore import (
    Tensor,
    conv1d_dilated,
    layer_norm,
    linear,
    no_grad,
    softmax,
    tcn_block,
    window_attention,
)

from oracles import project, rel_err

rng = np.random.default_rng(3232)

# largest float32 error relative to the largest float64 value, for outputs
# and gradients: the cases below measure at most 2.5e-7, about two float32
# ulps, since their sums run over at most a few hundred terms
F32_REL_TOL = 2e-6

_OPS = {
    "linear": (lambda x, w, b: linear(x, w, b), [(40, 24), (24, 16), (16,)], 1),
    "layer_norm": (lambda x, g, b: layer_norm(x, g, b), [(40, 24), (24,), (24,)], 1),
    "conv1d_dilated": (
        lambda x, w, b: conv1d_dilated(x, w, b, dilation=2, mode="acausal"),
        [(50, 12), (8, 12, 3), (8,)], 1),
    "tcn_block": (lambda x, w, b, pw, pb: tcn_block(x, w, b, pw, pb, dilation=2, mode="causal"),
                  [(50, 12), (8, 12, 3), (8,), (12, 8, 1), (12,)], 1),
    # the op's two uses: one scale over a dilated band, a ladder at step 1
    "band_attention": (lambda q, k, v: window_attention(q, k, v, 2, 1, [(9, 2)]),
                       [(200, 16)] * 3, 3),
    "hta_attention": (lambda q, k, v: window_attention(q, k, v, 2, 3, [(3, 1)]),
                      [(300, 16)] * 3, 3),
    "gelu": (lambda x: x.gelu(), [(40, 24)], 1),
    "softmax": (lambda x: softmax(x * 4.0), [(40, 24)], 1),
}


@pytest.mark.parametrize("name", sorted(_OPS))
def test_op_in_float32_matches_float64(name):
    """The op's leading `n32` operands (the activations) in float32, the
    rest (parameters) in float64; outputs and gradients against an
    all-float64 run."""
    op, shapes, n32 = _OPS[name]
    data = [rng.normal(size=s) for s in shapes]
    weight = rng.normal(size=op(*map(Tensor, data)).shape)

    def run(dtype):
        ts = [Tensor(d.astype(dtype) if i < n32 else d, requires_grad=True)
              for i, d in enumerate(data)]
        y = op(*ts)
        project(y, weight).backward()
        return y, ts

    y64, t64 = run(np.float64)
    y32, t32 = run(np.float32)
    assert y32.data.dtype == np.float32
    assert rel_err(y32.data, y64.data) < F32_REL_TOL
    for i, (a, b) in enumerate(zip(t32, t64)):
        assert a.grad.dtype == (np.float32 if i < n32 else np.float64)
        assert rel_err(a.grad, b.grad) < F32_REL_TOL, i


@pytest.mark.parametrize("n_decoders", [1, 2])
def test_float32_forward_makes_float64_only_for_the_boundary_sigmoid(monkeypatch, n_decoders):
    cfg = ModelConfig(n_decoders=n_decoders)
    model = SegmentationModel(cfg)
    T = 600  # three HTA scales
    made = []
    make = seqcore._make

    def spy(data, parents):
        made.append((data.dtype, data.shape))
        return make(data, parents)

    monkeypatch.setattr(seqcore, "_make", spy)
    with no_grad():
        out = model.forward(Tensor(rng.normal(size=(T, cfg.d_in)).astype(np.float32)))
    n_stages = 1 + cfg.n_decoders
    wide = sorted(shape for dtype, shape in made if dtype != np.float32)
    # per stage: the cast of the boundary logit, its sigmoid and the reshape
    assert wide == sorted([(T, 1), (T, 1), (T,)] * n_stages)
    # every op of the forward: the encoder's 196 (its input projection, 10
    # TCN blocks, 18 per attention layer and 5 in its heads), and 18 per
    # decoder (softmax, concat, input projection, 10 TCN blocks, its heads)
    assert len(made) == 196 + 18 * cfg.n_decoders
    for stage in out.stages:
        assert stage.action_logits.data.dtype == np.float32
        assert stage.features.data.dtype == np.float32
        assert stage.boundary_scores.data.dtype == np.float64


# criterion 4's model and data, as `train` runs them
_TRAIN_CFG = ModelConfig(n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2, heads=8,
                         temporal_dropout=0.3)


def _train_case(T=600):
    spec = SynthSpec(n_classes=4, durations=((60.0, 15.0),) * 4, d_features=64, seed=11)
    return SegmentationModel(_TRAIN_CFG), synth_dataset(spec, 1, T)[0]


def test_float32_training_forward_makes_float64_only_for_the_boundary_sigmoid(monkeypatch):
    """The training twin of the no_grad test above: temporal dropout on,
    tape kept. Float64 parameters get float64 gradients."""
    model, (feats, labels, segments) = _train_case()
    T = feats.shape[0]
    made = []
    make = seqcore._make

    def spy(data, parents):
        made.append((data.dtype, data.shape))
        return make(data, parents)

    monkeypatch.setattr(seqcore, "_make", spy)
    out = model.forward(Tensor(feats.astype(np.float32)), training=True)
    monkeypatch.undo()
    n_stages = 1 + _TRAIN_CFG.n_decoders
    wide = sorted(shape for dtype, shape in made if dtype != np.float32)
    assert wide == sorted([(T, 1), (T, 1), (T,)] * n_stages)
    # the spy saw the whole forward: 83 encoder ops (dropout, input
    # projection, 4 TCN blocks, 18 per attention layer, 5 in its heads) and
    # 12 per decoder (softmax, concat, input projection, 4 TCN blocks, heads)
    assert len(made) == 83 + 12 * _TRAIN_CFG.n_decoders
    loss = sum((project(stage.action_logits) + project(stage.boundary_scores)
                for stage in out.stages), Tensor(0.0))
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None and p.grad.dtype == np.float64, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sequence_loss_runs_the_network_in_the_features_dtype(dtype):
    """Callers keep their dtype: float64 features (criterion 2's finite
    differences) give a float64 network, float32 ones a float32 network;
    the loss is finite and every parameter gradient float64 either way."""
    model, (feats, labels, _) = _train_case(T=256)
    out, loss, _ = _sequence_loss(model, feats.astype(dtype), labels, training=True)
    for stage in out.stages:
        assert stage.action_logits.data.dtype == dtype
        assert stage.features.data.dtype == dtype
    assert np.isfinite(loss.item())
    loss.backward()
    for name, p in model.params.items():
        assert p.grad is not None and p.grad.dtype == np.float64, name
        assert np.isfinite(p.grad).all(), name


def _float64_labels(model, feats):
    with no_grad():
        final = model.forward(Tensor(feats)).stages[-1]
    logits = final.action_logits.data
    assert logits.dtype == np.float64
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    cfg = model.cfg
    bounds = detect_boundaries(final.boundary_scores.data, cfg.boundary_theta,
                               cfg.boundary_min_distance)
    return logits.argmax(axis=1), refine_prediction(probs, bounds), bounds


def _default_case(seed, T=2048):
    cfg = ModelConfig(seed=seed)
    feats = synth_dataset(SynthSpec(d_features=cfg.d_in, seed=seed), 1, T)[0][0]
    return SegmentationModel(cfg), feats


@pytest.mark.parametrize("seed", [5, 11, 23])
def test_infer_labels_and_boundaries_equal_float64_forward(seed):
    model, feats = _default_case(seed)
    res = infer(model, feats)
    raw, refined, bounds = _float64_labels(model, feats)
    assert res.output.stages[-1].action_logits.data.dtype == np.float32
    assert np.array_equal(res.raw_labels, raw)
    assert np.array_equal(res.refined_labels, refined)
    assert res.boundaries == bounds


def test_default_infer_memory_bound():
    """Default config at T = 2048 on a fresh model, as `tempseg infer` runs
    it. The float32 features are 17 MB of this; a float32 copy of all 13.2M
    parameters would add 53 MB."""
    model, feats = _default_case(5)
    tracemalloc.start()
    try:
        infer(model, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6, f"peak {peak / 1e6:.1f} MB"
