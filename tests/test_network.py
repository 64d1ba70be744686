import functools
import math
import mmap
import os
import re
import struct
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempseg import attention, cli, network, seqcore
from tempseg.attention import ScaleSet
from tempseg.binio import FormatError
from tempseg.network import (
    RETIRED_KEYS,
    ModelConfig,
    SegmentationModel,
    _hta_pair_count,
    _param_specs,
    count_params_flops,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tcn_block_forward,
)
from tempseg.losses import combined_temporal_loss
from tempseg.pipeline import SynthSpec, _sequence_loss, infer, synth_dataset
from tempseg.segments import frames_to_segments, make_boundary_target
from tempseg.seqcore import Tensor, conv1d_dilated, tcn_block

import oracles
from oracles import (
    checkpoint_v1_bytes,
    checkpoint_v2_bytes,
    hta_pair_count_oracle,
    model_loss_slopes,
    model_oracle,
    rel_err,
)

rng = np.random.default_rng(808)


def tiny_cfg(**kw):
    base = dict(n_classes=3, d_in=6, d_model=8, n_blocks=2, n_decoders=1, heads=2,
                s_avg=8, w_min=2, w_max=4)
    base.update(kw)
    return ModelConfig(**base)


# -- plumbing -------------------------------------------------------------


def test_tcn_stack_receptive_field():
    # 10 blocks, k=3, dilation 2^l: causal one-sided reach sum(2*2^l) = 2046
    # positive weights keep every path alive through the ReLUs so the
    # perturbation extent equals the theoretical receptive field
    cw = Tensor(np.full((2, 2, 3), 0.1))
    cb = Tensor(np.zeros(2))
    pw = Tensor(np.full((2, 2, 1), 0.1))
    pb = Tensor(np.zeros(2))

    def stack(x):
        h = Tensor(x)
        for i in range(10):
            h = tcn_block_forward(h, cw, cb, pw, pb, dilation=2 ** i, mode="causal")
        return h.data

    T = 2100
    base = stack(np.zeros((T, 2)))
    hit = np.zeros((T, 2))
    hit[0] = 1.0
    diff = np.abs(stack(hit) - base).sum(axis=1)
    touched = np.nonzero(diff)[0]
    assert touched.max() == 2046
    assert touched.min() == 0


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_tcn_stack_output_is_time_major(n_blocks):
    # the stacks take a C-contiguous [T, D] array and hand back a
    # C-contiguous [T, D] array, so each conv tap reads and writes whole rows
    model = SegmentationModel(tiny_cfg(n_blocks=n_blocks))
    h = Tensor(rng.normal(size=(11, 8)))
    out = model._tcn_stack(h, "enc_tcn", "acausal")
    assert out.shape == (11, 8)
    assert out.data.flags.c_contiguous
    z = model._tcn_stack(h, "dec0.tcn", "causal")
    assert z.shape == (11, 8)
    assert z.data.flags.c_contiguous


def test_causal_conv_ignores_future():
    x = rng.normal(size=(3, 30)).T
    w = Tensor(rng.normal(size=(3, 3, 3)))
    b = Tensor(rng.normal(size=(3,)))
    ya = conv1d_dilated(Tensor(x), w, b, dilation=4, mode="causal").data
    x2 = x.copy()
    x2[20:] += 100.0
    yb = conv1d_dilated(Tensor(x2), w, b, dilation=4, mode="causal").data
    assert np.array_equal(ya[:20], yb[:20])


def _interior_nodes(root) -> int:
    """Tape nodes with parents reachable from `root` through `_prev`."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._prev:
            count += 1
            stack.extend(node._prev)
    return count


def test_training_step_tape_size():
    # criterion 4's model, one training step at T = 256. DSWA is one
    # attention op, the TCN stacks run time-major and each TCN block is one
    # op; slicing DSWA's heads and transposing around each stack made 218
    # nodes, and a TCN block of conv, ReLU, conv and residual add made 180
    cfg = ModelConfig(n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2, heads=8,
                      temporal_dropout=0.3, seed=0)
    spec = SynthSpec(n_classes=4, durations=((60.0, 15.0),) * 4, d_features=64, seed=11)
    feats, labels, _ = synth_dataset(spec, 1, 256)[0]
    _, loss, _ = _sequence_loss(SegmentationModel(cfg), feats.astype(np.float32), labels,
                                training=True)
    assert _interior_nodes(loss) == 144


# -- config ---------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(heads=3).validate()  # dual windows need even heads
    with pytest.raises(ValueError):
        tiny_cfg(d_model=0).validate()
    with pytest.raises(ValueError):
        tiny_cfg(temporal_dropout=1.5).validate()
    # values the model would reject only at its first forward
    for kw, message in [
        (dict(kernel_size=2), "kernel_size must be odd, got 2"),
        (dict(kernel_size=4), "kernel_size must be odd, got 4"),
        (dict(heads=1), "heads must be even, got 1"),
        (dict(w_min=8, w_max=4), "w_max must be >= w_min 8, got 4"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            tiny_cfg(**kw)


def test_config_dict_round_trip():
    cfg = tiny_cfg(kernel_size=5, temporal_dropout=0.1)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


# -- model forward --------------------------------------------------------


def test_forward_shapes_and_stage_count():
    cfg = tiny_cfg(n_decoders=2)
    model = SegmentationModel(cfg)
    T = 21
    out = model.forward(Tensor(rng.normal(size=(T, cfg.d_in))))
    assert len(out.stages) == 3  # encoder + two decoders
    for st in out.stages:
        assert st.action_logits.shape == (T, cfg.n_classes)
        assert st.boundary_scores.shape == (T,)
        assert st.features.shape == (T, cfg.d_model)
        assert np.all(st.boundary_scores.data >= 0) and np.all(st.boundary_scores.data <= 1)


def test_forward_random_tiny_configs_finite():
    r = np.random.default_rng(77)
    for _ in range(25):
        heads = int(r.choice([2, 4]))
        cfg = ModelConfig(
            n_classes=int(r.integers(2, 5)),
            d_in=int(r.integers(3, 9)),
            d_model=int(r.choice([8, 16])),
            n_blocks=int(r.integers(1, 4)),
            n_decoders=int(r.integers(0, 3)),
            heads=heads,
            s_avg=8,
            w_min=2,
            w_max=8,
            seed=int(r.integers(0, 1000)),
        )
        T = int(r.integers(9, 40))
        out = SegmentationModel(cfg).forward(Tensor(r.normal(size=(T, cfg.d_in))))
        for st in out.stages:
            assert np.all(np.isfinite(st.action_logits.data))
            assert np.all(np.isfinite(st.boundary_scores.data))


def test_dropout_only_in_training_mode():
    cfg = tiny_cfg(temporal_dropout=0.5)
    model = SegmentationModel(cfg)
    x = Tensor(rng.normal(size=(16, cfg.d_in)))
    a = model.forward(x, training=False).stages[-1].action_logits.data
    b = model.forward(x, training=False).stages[-1].action_logits.data
    assert np.array_equal(a, b)  # eval path consumes no rng
    c = model.forward(x, training=True).stages[-1].action_logits.data
    d = model.forward(x, training=True).stages[-1].action_logits.data
    assert not np.array_equal(c, d)  # different dropout draws


# (T, config, data seed): windows wider than T at T = 1 and 13, 2 HTA
# levels at T = 24, and 3 levels with dilation rates 0, 1 and 2 at T = 37
ORACLE_CASES = [
    (1, {}, 31),
    (13, {}, 32),
    (24, dict(n_blocks=2, s_avg=6, w_min=2, w_max=4, hta_window=2), 33),
    (37, dict(n_blocks=3, n_decoders=2, heads=4, s_avg=4, w_min=2, w_max=8, hta_window=2), 34),
]


def _oracle_model(T, kw, seed):
    """A float64 model, its parameter arrays by name and features [T, d_in],
    all drawn from generator `seed`."""
    base = dict(n_classes=3, d_in=5, d_model=8, n_blocks=1, n_decoders=1, heads=2,
                temporal_dropout=0.3)
    cfg = ModelConfig(**{**base, **kw, "seed": seed})
    draw = np.random.default_rng(seed)
    model = SegmentationModel(cfg)
    for t in model.params.values():  # nonzero biases and gains
        t.data[...] = t.data + 0.1 * draw.normal(size=t.shape)
    x = draw.normal(size=(T, cfg.d_in))
    return model, {name: t.data for name, t in model.params.items()}, x


def _oracle_gap(T, kw, seed):
    """The largest relative difference, over every stage's logits and
    boundary scores, between the float64 eval forward and model_oracle, for
    a model and features drawn from generator `seed`."""
    model, params, x = _oracle_model(T, kw, seed)
    got = model.forward(Tensor(x), training=False).stages
    want = model_oracle(model.cfg, params, x)
    assert len(got) == len(want) == 1 + model.cfg.n_decoders
    assert all(s.action_logits.dtype == np.float64 for s in got)
    return max(max(rel_err(s.action_logits.data, logits), rel_err(s.boundary_scores.data, scores))
               for s, (logits, scores, _) in zip(got, want))


@pytest.mark.parametrize("T, kw, seed", ORACLE_CASES)
def test_forward_matches_the_whole_model_oracle(T, kw, seed):
    assert _oracle_gap(T, kw, seed) < 1e-9


@pytest.mark.parametrize("miswire", ["decoder inputs", "dswa windows"])
def test_the_whole_model_oracle_fails_a_miswired_model(monkeypatch, miswire):
    if miswire == "decoder inputs":
        concat = network.concat  # [features | probs] where [probs | features] belongs
        monkeypatch.setattr(network, "concat", lambda ts, axis=0: concat(ts[::-1], axis=axis))
    else:
        dswa = attention.dswa_forward
        monkeypatch.setattr(attention, "dswa_forward", lambda x, e, s, p: dswa(x, s, e, p))
    assert _oracle_gap(*ORACLE_CASES[-1]) > 1e-3


@functools.lru_cache(maxsize=None)
def _oracle_slopes(case):
    """For ORACLE_CASES[case]: the frame labels (four runs over three
    classes), one random direction per parameter name, and model_oracle's
    loss slope along each, computed once per case for every test that
    reads it."""
    T, kw, seed = ORACLE_CASES[case]
    model, params, x = _oracle_model(T, kw, seed)
    labels = np.arange(T) * 4 // T % 3
    draw = np.random.default_rng(seed + 1)
    directions = {name: draw.normal(size=a.shape) for name, a in params.items()}
    target = make_boundary_target(frames_to_segments(labels), T)
    return labels, directions, model_loss_slopes(model.cfg, params, x, labels, target, directions)


def _worst_slope_gap(case):
    """The largest relative gap, over every parameter, between the tape's
    gradient of the training loss of ORACLE_CASES[case]'s float64 eval
    forward, taken along the parameter's direction, and model_oracle's
    slope; a gap is relative to the larger of the two slopes, or to 1e-6 of
    the largest slope where both are smaller (a key bias's is 0)."""
    labels, directions, want = _oracle_slopes(case)
    model, _, x = _oracle_model(*ORACLE_CASES[case])
    loss, _ = combined_temporal_loss(model.forward(Tensor(x), training=False), labels, model.cfg)
    loss.backward()
    got = {name: float(np.sum(t.grad * directions[name])) for name, t in model.params.items()}
    assert got.keys() == want.keys()
    floor = 1e-6 * max(abs(v) for v in want.values())
    return max(abs(got[n] - want[n]) / max(abs(got[n]), abs(want[n]), floor) for n in want)


@pytest.mark.parametrize("case", [1, 2])
def test_gradients_match_the_whole_model_oracle(case):
    # T = 13, where the default windows are wider than T, and T = 24 at two
    # HTA levels: every parameter's gradient along a random direction. The
    # focal and boundary terms' central differences leave gaps of about 1e-7
    assert _worst_slope_gap(case) < 1e-6


def _inverted_relu(h):
    """A ReLU tape op whose gradient passes where it clamped, and only there."""
    out = seqcore._make(np.maximum(h.data, 0.0), (h,))
    node, clamped = seqcore._grad_node(h), h.data <= 0.0
    out._node._backward = lambda g: node._accumulate(np.where(clamped, g, 0.0))
    return out


@pytest.mark.parametrize("miswire", ["tcn residual gradient", "relu mask"])
def test_the_whole_model_oracle_fails_a_miswired_backward(monkeypatch, miswire):
    # each TCN block's forward keeps its values, up to rounding; only its
    # backward is wrong
    if miswire == "tcn residual gradient":
        # x - x + (x with no gradient): the residual's gradient cancels
        monkeypatch.setattr(network, "tcn_block_forward", lambda x, *rest, **kw: (
            tcn_block(x, *rest, **kw) + x * -1.0 + Tensor(x.data)))
    else:
        monkeypatch.setattr(oracles, "_relu", _inverted_relu)
        monkeypatch.setattr(network, "tcn_block_forward", oracles.tcn_block_composite)
    assert _worst_slope_gap(2) > 1e-2


def test_deterministic_init_by_seed():
    pa = init_params(tiny_cfg(seed=9), np.random.default_rng(9))
    pb = init_params(tiny_cfg(seed=9), np.random.default_rng(9))
    assert sorted(pa) == sorted(pb)
    for k in pa:
        assert np.array_equal(pa[k].data, pb[k].data)


def test_init_params_keeps_the_bits_of_a_divided_draw():
    # each kernel is divided in place; its bits are those of a drawn array
    # divided into a second one
    cfg = tiny_cfg(seed=9)
    got, rng = init_params(cfg, np.random.default_rng(9)), np.random.default_rng(9)
    for name, shape in _param_specs(cfg):
        data = got[name].data
        if name.endswith(".g"):
            assert np.array_equal(data, np.ones(shape)), name
        elif data.ndim == 1:
            assert np.array_equal(data, np.zeros(shape)), name
        else:
            fan_in = shape[1] * shape[2] if len(shape) == 3 else shape[0]
            want = rng.standard_normal(shape) / math.sqrt(fan_in)
            assert data.dtype == want.dtype and data.tobytes() == want.tobytes(), name


# -- parameter budget and checkpoints -------------------------------------


def test_param_count_matches_instantiated_model():
    for cfg in (tiny_cfg(), tiny_cfg(n_decoders=0, kernel_size=5), ModelConfig()):
        n, _ = count_params_flops(cfg, T=64)
        model = SegmentationModel(cfg)
        assert n == sum(p.data.size for p in model.params.values())


def test_default_config_near_reference_budget():
    n, _ = count_params_flops(ModelConfig(), T=2048)
    assert abs(n - 11_945_000) / 11_945_000 < 0.20


def test_flops_grow_with_T():
    cfg = tiny_cfg()
    _, f1 = count_params_flops(cfg, T=64)
    _, f2 = count_params_flops(cfg, T=128)
    assert f2 > f1


def test_hta_pair_count_equals_per_frame_sum():
    for T in range(1, 301):
        for n_scales in range(1, 6):
            for window in range(10):
                scales = ScaleSet(T, n_scales, window)
                want = hta_pair_count_oracle(T, 1 << (n_scales - 1), window)
                assert _hta_pair_count(T, scales) == want, (T, n_scales, window)


def test_cli_flops_at_a_huge_length(capsys):
    # no per-frame array: 1e11 frames would need hundreds of GiB
    assert cli.main(["flops", "--T", "100000000000"]) == 0
    assert "at T=100000000000" in capsys.readouterr().out


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_cfg(n_decoders=2, kernel_size=5)
    model = SegmentationModel(cfg)
    p = tmp_path / "model.ckpt"
    # a blob the config does not name (as an old checkpoint's optimizer
    # state) comes back unchanged in the third value
    save_checkpoint(p, cfg, {**model.params, "opt.step": Tensor(np.array([3.0]))})
    cfg2, params2, extra = load_checkpoint(p)
    assert cfg2 == cfg
    assert sorted(params2) == sorted(model.params)
    for k in params2:
        assert np.array_equal(params2[k].data, model.params[k].data.astype(np.float32))
    assert extra["opt.step"][0] == 3.0
    # the file holds the float32 rounding the forward applies on use, so the
    # restored model infers the in-memory float64 model's bits
    x = rng.normal(size=(15, cfg.d_in))
    a = infer(model, x)
    b = infer(SegmentationModel(cfg2, params2), x)
    for sa, sb in zip(a.output.stages, b.output.stages, strict=True):
        assert sa.action_logits.data.tobytes() == sb.action_logits.data.tobytes()
        assert sa.boundary_scores.data.tobytes() == sb.boundary_scores.data.tobytes()
    assert np.array_equal(a.raw_labels, b.raw_labels)
    assert np.array_equal(a.refined_labels, b.refined_labels)
    assert a.boundaries == b.boundaries


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.sampled_from([2, 4]), st.integers(1, 4)),
    sizes=st.tuples(st.integers(2, 5), st.integers(1, 7), st.integers(1, 3), st.integers(0, 2),
                    st.integers(1, 4), st.integers(0, 4), st.integers(0, 10**6)),
    dropout=st.floats(0.0, 1.0, exclude_max=True),
    alpha=st.floats(0.0, 1e6, allow_subnormal=True),
    values=st.lists(st.floats(allow_nan=True), min_size=1, max_size=4),
)
def test_checkpoint_round_trips_any_small_config(shape, sizes, dropout, alpha, values):
    heads, per_head = shape
    n_classes, d_in, n_blocks, n_decoders, w_min, max_scales, seed = sizes
    cfg = ModelConfig(n_classes=n_classes, d_in=d_in, d_model=heads * per_head,
                      n_blocks=n_blocks, n_decoders=n_decoders, heads=heads,
                      w_min=w_min, w_max=2 * w_min, max_scales=max_scales, seed=seed,
                      temporal_dropout=dropout, loss_alpha=alpha)
    params = SegmentationModel(cfg).params
    # any float64 value, NaN, infinities and signed zero included, comes
    # back as its float32 cast, the rounding the forward applies on use
    flat = params["in_proj.w"].data.reshape(-1)
    n = min(len(values), flat.size)
    flat[:n] = values[:n]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        # an overflowing cast would warn, and pyproject.toml makes that an error
        save_checkpoint(path, cfg, params)
        cfg2, params2, extra = load_checkpoint(path)
    assert cfg2 == cfg and extra == {}
    assert sorted(params2) == sorted(params)
    for name, t in params2.items():
        assert t.data.shape == params[name].data.shape
        with np.errstate(over="ignore"):
            want = params[name].data.astype(np.float32)
        assert t.data.tobytes() == want.tobytes(), name
    # beyond the float32 range a value becomes +-inf; NaN stays NaN
    for value, got in zip(values[:n], params2["in_proj.w"].data.reshape(-1)):
        if math.isnan(value):
            assert math.isnan(got)
        elif abs(value) >= 2.0**128:
            assert got == math.copysign(math.inf, value)


def test_load_checkpoint_reads_the_file_size_once(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, cfg, SegmentationModel(cfg).params)
    calls = []
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: calls.append(fd) or fstat(fd))
    load_checkpoint(p)
    assert len(calls) <= 1


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(p)


def _save_with_config_text(path, cfg, params, monkeypatch, extra: dict):
    """A checkpoint whose config text also holds `extra`, as one written
    before those config fields were removed."""
    plain = ModelConfig.to_dict
    monkeypatch.setattr(ModelConfig, "to_dict", lambda self: {**plain(self), **extra})
    save_checkpoint(path, cfg, params)
    monkeypatch.undo()


def test_checkpoint_with_retired_config_key_loads(tmp_path, monkeypatch):
    # at its only remaining value a retired key loads and is dropped
    cfg = tiny_cfg()
    model = SegmentationModel(cfg)
    path = tmp_path / "old.ckpt"
    _save_with_config_text(path, cfg, model.params, monkeypatch, RETIRED_KEYS)
    text = path.read_bytes()
    assert all(f"\n{key} = ".encode() in text for key in RETIRED_KEYS)
    cfg2, params2, _ = load_checkpoint(path)
    assert cfg2 == cfg and sorted(params2) == sorted(model.params)


@pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
def test_checkpoint_with_retired_key_at_another_value_rejected(tmp_path, monkeypatch, key):
    only = RETIRED_KEYS[key]
    wrong = (not only) if isinstance(only, bool) else only * 2
    cfg = tiny_cfg()
    path = tmp_path / "other.ckpt"
    _save_with_config_text(path, cfg, SegmentationModel(cfg).params, monkeypatch, {key: wrong})
    with pytest.raises(FormatError, match=re.escape(f"{path}: {key} was removed")):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value", [("kernel_size", 2), ("heads", 1), ("w_min", 8)])
def test_checkpoint_config_the_model_cannot_run_rejected(tmp_path, monkeypatch, key, value):
    cfg = tiny_cfg()
    path = tmp_path / "bad.ckpt"
    _save_with_config_text(path, cfg, SegmentationModel(cfg).params, monkeypatch, {key: value})
    with pytest.raises(FormatError, match=re.escape(f"{path}: ")) as err:
        load_checkpoint(path)
    assert "must be" in str(err.value) and key in str(err.value), err.value


def test_checkpoint_with_learned_scale_weights_rejected(tmp_path):
    cfg = tiny_cfg()
    p = tmp_path / "learned.ckpt"
    learned = {f"enc_attn.{i}.hta.ws": Tensor(np.ones(8)) for i in range(2)}
    save_checkpoint(p, cfg, {**SegmentationModel(cfg).params, **learned})
    with pytest.raises(FormatError, match=str(p)):
        load_checkpoint(p)


def test_checkpoint_parameter_name_not_utf8_names_file_and_offset(tmp_path):
    cfg = tiny_cfg()
    data = checkpoint_v1_bytes(cfg, SegmentationModel(cfg).params)
    (n,) = struct.unpack_from("<I", data, 8)
    at = 20 + n  # magic, version, config length and text, count, name length
    p = tmp_path / "bad.ckpt"
    p.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(FormatError, match=re.escape(f"{p}: parameter name at byte {at} ")):
        load_checkpoint(p)


def test_checkpoint_with_a_duplicated_parameter_rejected(tmp_path):
    # a record of the last name follows the real one: a silent load would let
    # the later copy win
    cfg = tiny_cfg()
    params = SegmentationModel(cfg).params
    name = max(params)
    twin = name[:-1] + chr(ord(name[-1]) + 1)
    data = checkpoint_v1_bytes(cfg, {**params, twin: Tensor(params[name].data + 1.0)})
    p = tmp_path / "twice.ckpt"
    p.write_bytes(data.replace(twin.encode(), name.encode()))
    with pytest.raises(FormatError, match=re.escape(f"{p}: parameter {name!r} appears twice")):
        load_checkpoint(p)


def _mapping_of(arr):
    """The object at the bottom of an array's base chain."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def test_checkpoint_writes_the_version_2_layout(tmp_path):
    cfg = tiny_cfg(n_decoders=2)
    params = {**SegmentationModel(cfg).params, "opt.step": Tensor(np.array(3.0)),
              "opt.f32": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3).T)}
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, cfg, params)
    assert p.read_bytes() == checkpoint_v2_bytes(cfg, params)


def test_loaded_checkpoint_is_read_only_views_of_one_mapping(tmp_path):
    cfg = tiny_cfg()
    model = SegmentationModel(cfg)
    p = tmp_path / "model.ckpt"
    p.write_bytes(checkpoint_v1_bytes(cfg, {**model.params, "opt.step": Tensor(np.array([3.0]))}))
    _, params, extra = load_checkpoint(p)
    arrays = [t.data for t in params.values()] + list(extra.values())
    for name, t in params.items():
        assert np.array_equal(t.data, model.params[name].data) and t.data.dtype == np.float64
    assert np.array_equal(extra["opt.step"], [3.0]) and extra["opt.step"].dtype == np.float64
    assert all(not a.flags.writeable for a in arrays)
    mapping = _mapping_of(arrays[0])
    assert isinstance(mapping, mmap.mmap)
    assert all(_mapping_of(a) is mapping for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        params["in_proj.w"].data[0, 0] = 1.0


def test_loaded_version_2_checkpoint_is_float32_tap_major_views_of_one_mapping(tmp_path):
    cfg = tiny_cfg(kernel_size=5)
    model = SegmentationModel(cfg)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, cfg, model.params)
    _, params, _ = load_checkpoint(p)
    arrays = [t.data for t in params.values()]
    assert all(a.dtype == np.float32 and not a.flags.writeable for a in arrays)
    mapping = _mapping_of(arrays[0])
    assert isinstance(mapping, mmap.mmap)
    assert all(_mapping_of(a) is mapping for a in arrays)
    kernels = {name: t.data for name, t in params.items() if t.data.ndim == 3}
    assert len(kernels) == 2 * cfg.n_blocks * (1 + cfg.n_decoders)
    for name, w in kernels.items():
        assert w.shape == model.params[name].shape, name
        assert np.array_equal(w, model.params[name].data.astype(np.float32)), name
        # the float32 forward's cast is a no-op, and every tap is a
        # C-contiguous [C_in, C_out] operand
        assert w.astype(np.float32, copy=False) is w, name
        for j in range(w.shape[2]):
            assert w[:, :, j].T.flags.c_contiguous, (name, j)


def test_save_over_a_loaded_checkpoint_keeps_its_views(tmp_path):
    cfg = tiny_cfg()
    p = tmp_path / "model.ckpt"
    first = SegmentationModel(cfg).params
    second = SegmentationModel(tiny_cfg(seed=cfg.seed + 1)).params
    save_checkpoint(p, cfg, first)
    _, held, _ = load_checkpoint(p)
    save_checkpoint(p, cfg, second)
    for name, t in held.items():
        assert np.array_equal(t.data, first[name].data.astype(np.float32)), name
    _, fresh, _ = load_checkpoint(p)
    for name, t in fresh.items():
        assert np.array_equal(t.data, second[name].data.astype(np.float32)), name
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]


def test_failed_save_leaves_the_old_checkpoint(tmp_path):
    cfg = tiny_cfg()
    p = tmp_path / "model.ckpt"
    params = SegmentationModel(cfg).params
    save_checkpoint(p, cfg, params)
    before = p.read_bytes()
    # sorts after every parameter, so the write fails part way through
    bad = {**params, "zz.text": SimpleNamespace(data=np.array(["not a number"]))}
    with pytest.raises(ValueError):
        save_checkpoint(p, cfg, bad)
    assert p.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]
