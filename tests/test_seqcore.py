import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempseg import seqcore
from tempseg.attention import WindowSpec, build_sparse_mask
from tempseg.seqcore import (
    CALL_SHAPES,
    TILE_ENTRIES,
    TILE_ROWS,
    Adam,
    ShapeError,
    Tensor,
    concat,
    conv1d_dilated,
    layer_norm,
    linear,
    no_grad,
    scalar_op,
    softmax,
    tcn_block,
    window_attention,
)

from oracles import (
    band_mask_oracle,
    complex_step_grads,
    conv1d_oracle,
    dense_mask,
    dense_multihead,
    fd_check_tensor,
    hta_qkv_oracle,
    layer_norm_oracle,
    linear_oracle,
    mean_pool_oracle,
    project,
    rel_err,
    tcn_block_composite,
    ladder_backward_oracle,
    ladder_forward_oracle,
    ring_masks_oracle,
    ring_scores_oracle,
)
from test_float32 import F32_REL_TOL

rng = np.random.default_rng(12345)


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# -- forward examples -----------------------------------------------------


def test_causal_conv_impulse():
    # unit impulse through a k=3 causal kernel of ones: taps land at t, t-1, t-2
    x = t([[1.0], [0.0], [0.0], [0.0], [0.0]])
    w = t(np.ones((1, 1, 3)))
    b = t(np.zeros(1))
    y = conv1d_dilated(x, w, b, dilation=1, mode="causal")
    assert np.array_equal(y.data, [[1.0], [1.0], [1.0], [0.0], [0.0]])


def test_acausal_dilated_conv_taps():
    # dilation 2, k=3, centered: output t sums inputs {t-2, t, t+2}
    x = t(np.zeros((8, 1)))
    x.data[4, 0] = 1.0
    w = t(np.ones((1, 1, 3)))
    b = t(np.zeros(1))
    y = conv1d_dilated(x, w, b, dilation=2, mode="acausal")
    hot = np.nonzero(y.data[:, 0])[0]
    assert list(hot) == [2, 4, 6]


# (T, k, dilation): dilations at and beyond T, a single frame, a 1x1 kernel
CONV_CASES = ((9, 3, 2), (7, 3, 7), (5, 3, 11), (1, 3, 1), (10, 1, 1), (13, 5, 3))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("mode", ["acausal", "causal"])
@pytest.mark.parametrize("c_in", [1, 2, 3, 4])
def test_conv_matches_direct_loop_oracle(order, mode, c_in):
    for T, k, dil in CONV_CASES:
        if mode == "acausal" and k % 2 == 0:
            continue
        # time-major [T, c_in] input, C-ordered or the transpose of a
        # C-ordered [c_in, T] array
        x = np.asarray(rng.normal(size=(c_in, T)).T, order=order)
        w = rng.normal(size=(2, c_in, k))
        b = rng.normal(size=(2,))
        y = conv1d_dilated(t(x), t(w), t(b), dilation=dil, mode=mode)
        want = conv1d_oracle(x, w, b, dil, mode)
        assert y.shape == want.shape
        assert np.max(np.abs(y.data - want)) < 1e-12, (T, k, dil)


def test_masked_softmax_values():
    # a score of -inf masks its entry; the second row would overflow exp
    # without the row max subtracted
    s = t([[0.0, np.log(3.0), -np.inf], [1000.0, 1000.0 + np.log(3.0), -np.inf]])
    y = softmax(s)
    assert np.allclose(y.data, [[0.25, 0.75, 0.0]] * 2)
    assert np.all(y.data[:, 2] == 0.0)  # exactly zero, not just small


def test_layer_norm_example():
    x = t([[1.0, 3.0]])
    y = layer_norm(x, t(np.ones(2)), t(np.zeros(2)), eps=1e-12)
    assert np.allclose(y.data, [[-1.0, 1.0]])


def _mean_pool(x):
    """Means of row pairs of x along axis 0, as window_attention builds each
    scale's rows from the one before: the pair sums of the rows, zero-padded
    to an even count, over the pair sums of their counts."""
    rows = len(x) + len(x) % 2
    xc = np.zeros((1, rows, x.shape[1] + 1), x.dtype)
    xc[0, : len(x)] = np.concatenate([x, np.ones((len(x), 1), x.dtype)], axis=1)
    pooled = seqcore._pair_sum(xc)[0]
    return pooled[:, :-1] / pooled[:, -1:]


def test_mean_pool_ragged_tail():
    x = np.array([[1.0], [3.0], [5.0], [7.0], [9.0]])
    # tail window has a single frame and averages over 1, not 2
    assert np.allclose(_mean_pool(x)[:, 0], [2.0, 6.0, 9.0])


@pytest.mark.parametrize("T", [1, 7, 8, 29, 32])
@pytest.mark.parametrize("width", [2, 3, 4, 8])
def test_mean_pool_equals_scatter_add_oracle(T, width):
    # values spanning many magnitudes make any change of summation order show
    x = rng.normal(size=(T, width)) * 10.0 ** rng.uniform(-6, 6, size=(T, 1))
    assert np.array_equal(_mean_pool(x), mean_pool_oracle(x))


def test_adam_first_step_magnitude():
    p = t([1.0, -2.0, 0.5])
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([0.3, -7.0, 1e-4])
    opt.step()
    delta = np.abs(np.array([1.0, -2.0, 0.5]) - p.data)
    # first-step update is lr * g / (|g| + eps) ~= lr regardless of scale
    assert np.all(np.abs(delta - 1e-3) < 1e-5)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_in_chunks_keeps_the_bits_of_a_whole_tensor_update(monkeypatch, dtype):
    # chunks of 7 entries over tensors of 1, 7, 30 and [5, 7] entries (one
    # chunk, one whole chunk, a ragged last chunk, whole chunks), one with
    # no gradient, over three steps: every entry gets the bits of the
    # update written over whole tensors
    monkeypatch.setattr(seqcore, "ADAM_CHUNK", 7)
    r = np.random.default_rng(3)
    shapes = [(1,), (7,), (30,), (5, 7)]
    params = [Tensor(r.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]
    want = [p.data.copy() for p in params]
    ms, vs = [np.zeros_like(w) for w in want], [np.zeros_like(w) for w in want]
    opt = Adam(params, lr=1e-2)
    b1, b2 = seqcore.ADAM_BETA1, seqcore.ADAM_BETA2
    for step in range(1, 4):
        grads = [r.normal(size=s).astype(dtype) for s in shapes]
        grads[1] = None
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        c1, c2 = 1.0 - b1**step, 1.0 - b2**step
        for w, m, v, g in zip(want, ms, vs, grads):
            g = np.zeros_like(w) if g is None else g
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            w -= 1e-2 * (m / c1) / (np.sqrt(v / c2) + seqcore.ADAM_EPS)
        for p, w in zip(params, want):
            assert p.data.dtype == dtype and p.data.tobytes() == w.tobytes()


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    with pytest.raises(ValueError, match="C-contiguous"):
        Adam([Tensor(np.zeros((3, 4)).T, requires_grad=True)])


def test_determinism_same_seed():
    def run(seed):
        r = np.random.default_rng(seed)
        x = t(r.normal(size=(4, 5)))
        w = t(r.normal(size=(5, 3)))
        y = project(linear(x, w, t(np.zeros(3))).gelu())
        y.backward()
        return y.data.copy(), x.grad.copy()

    ya, ga = run(7)
    yb, gb = run(7)
    assert np.array_equal(ya, yb) and np.array_equal(ga, gb)


# -- gradients vs central finite differences ------------------------------


def _fd(build, tensors, tol=1e-6):
    err = fd_check_tensor(build, tensors)
    assert err < tol, f"worst rel err {err:.3e}"


def test_grad_elementwise_chain():
    x = t(rng.normal(size=(3, 4)))
    y = t(rng.normal(size=(3, 4)))
    _fd(lambda: project((x * y + (y * y + 2.0) * x + y * -1.5).sigmoid() * x.gelu()), [x, y])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_saturates_without_warning(dtype):
    # exp(800) overflows both dtypes; RuntimeWarning is an error under this
    # suite's settings
    x = Tensor(np.array([-800.0, 0.0, 800.0], dtype), requires_grad=True)
    y = x.sigmoid()
    project(y).backward()
    assert y.data.dtype == dtype and np.array_equal(y.data, [0.0, 0.5, 1.0])
    assert np.isfinite(x.grad).all() and np.array_equal(x.grad, [0.0, 0.25, 0.0])


def test_grad_sigmoid_gelu():
    x = t(rng.normal(size=(6,)))
    _fd(lambda: project(x.sigmoid() + (x + 0.3).gelu() * x.gelu()), [x], tol=1e-5)


def test_grad_matmul_broadcast_bias():
    # linear is the one matmul; `+ c` broadcasts a row over its output
    x = t(rng.normal(size=(4, 3)))
    w = t(rng.normal(size=(3, 2)))
    b, c = t(rng.normal(size=(2,))), t(rng.normal(size=(2,)))
    _fd(lambda: project((linear(x, w, b) + c) * (linear(x, w, b) + c), 1 / 8), [x, w, b, c])


def test_grad_astype():
    # values and steps on a coarse binary grid, so both casts are exact
    x = t(rng.integers(-64, 64, size=(5,)) / 32.0)
    err = fd_check_tensor(
        lambda: project(x.astype(np.float32).astype(np.float64) * x, 3.0), [x], eps=2.0 ** -10)
    assert err < 1e-12


def test_grad_reductions_and_reshape():
    x = t(rng.normal(size=(2, 3, 4)))
    # `project` reduces through linear: all of x's elements against weights
    _fd(lambda: project(x.reshape(6, 4) * np.arange(6.0)[:, None], 2.0)
        + project(x.reshape(4, 6)), [x])


def test_grad_concat_transpose():
    a = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=(2, 2)))
    # concat along each axis; a [3, 2] reshape of a stands in for its transpose
    _fd(lambda: project(concat([a, b], axis=1), 1.5)
        + project(concat([a.reshape(3, 2), b], axis=0)), [a, b])


def test_grad_masked_softmax():
    s = t(rng.normal(size=(4, 6)))
    mask = rng.random((4, 6)) < 0.7
    mask[:, 0] = True
    s.data[~mask] = -np.inf  # masked entries get exactly 0 and no gradient
    w = rng.normal(size=(4, 6))
    _fd(lambda: project(softmax(s), w), [s])


def test_grad_conv_modes():
    for mode in ("causal", "acausal"):
        for dil in (1, 2, 3, 5):
            x = t(np.ascontiguousarray(rng.normal(size=(2, 9)).T))
            w = t(rng.normal(size=(3, 2, 3)))
            b = t(rng.normal(size=(3,)))
            _fd(
                lambda x=x, w=w, b=b, d=dil, m=mode: project(conv1d_dilated(
                    x, w, b, dilation=d, mode=m
                )),
                [x, w, b],
            )


def test_grad_mean_pool_layer_norm():
    x = t(rng.normal(size=(7, 4)))
    g = t(rng.uniform(0.5, 1.5, size=(4,)))
    bb = t(rng.normal(size=(4,)))

    # mean pooling by 2 as one linear map over frames, x the right operand;
    # the ragged tail window is one frame
    pool = np.zeros((4, 7))
    pool[np.arange(6) // 2, np.arange(6)] = 0.5
    pool[3, 6] = 1.0

    def build():
        pooled = linear(Tensor(pool), x, Tensor(np.zeros(4)))
        y = layer_norm(x, g, bb)
        return project(pooled, 3.0) + project(y * y)

    _fd(build, [x, g, bb], tol=1e-5)


# -- windowed attention: one scale over a dilated band (DSWA) -------------


@pytest.mark.parametrize(
    "T, width, step, heads",
    [
        (1, 3, 1, 2),       # a single frame
        (5, 8, 1, 2),       # T < width
        (3, 2, 5, 4),       # T < step: residues 3 and 4 are empty
        (23, 2, 3, 2),      # T not a multiple of step
        (40, 4, 2, 2),      # dilated, T a multiple of step
        (150, 5, 1, 4),     # several query blocks
        (300, 40, 2, 4),    # several blocks, dilated
        (4 * TILE_ROWS + 9, 2 * TILE_ROWS + 3, 1, 2),  # width beyond two tiles
    ],
)
def test_band_attention_matches_dense_oracle(T, width, step, heads):
    q, k, v = (rng.normal(size=(T, 4 * heads)) for _ in range(3))
    mask = band_mask_oracle(T, width, step)
    spec = WindowSpec(width, step - 1)
    assert np.array_equal(mask, dense_mask(build_sparse_mask(T, spec)))
    got = window_attention(Tensor(q), Tensor(k), Tensor(v), heads, 1, [(width, step)]).data
    assert np.max(np.abs(got - dense_multihead(q, k, v, heads, mask))) < 1e-12


@pytest.mark.parametrize("T, width, step", [(2 * TILE_ROWS + 6, 2, 1), (20, 3, 3), (17, 2, 2)])
def test_grad_band_attention(T, width, step):
    q, k, v = (t(rng.normal(size=(T, 4))) for _ in range(3))
    w = rng.normal(size=(T, 4))
    _fd(lambda: project(window_attention(q, k, v, 2, 1, [(width, step)]), w), [q, k, v])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T, width", [(100, 5), (300, 40)])
def test_dilated_window_is_one_window_per_residue_within_rounding(T, width, dtype):
    # a step-s call attends each residue's rows r::s as its own sequence, so
    # it equals s step-1 calls on those rows; it stacks the residues in one
    # kernel call, whose tiles and per-tile shifts differ from theirs, so
    # the two agree to rounding, not to the bit
    tol = F32_REL_TOL if dtype == np.float32 else 1e-12
    q, k, v, g = (rng.normal(size=(T, 8)).astype(dtype) for _ in range(4))
    for step, levels in ((3, 1), (2, 3)):
        xs = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        y = window_attention(*xs, 2, levels, [(width, step)])
        project(y, g).backward()
        for r in range(step):
            rs = [Tensor(a[r::step], requires_grad=True) for a in (q, k, v)]
            yr = window_attention(*rs, 2, levels, [(width, 1)])
            project(yr, g[r::step]).backward()
            for a, b in zip([y.data] + [x.grad for x in xs], [yr.data] + [x.grad for x in rs]):
                assert a.dtype == b.dtype == dtype
                assert rel_err(a[r::step], b) < tol, (step, r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T, levels, windows", [
    (100, 1, [(5, 1), (9, 1)]),            # two undilated bands
    (101, 1, [(5, 3), (9, 2)]),            # unequal steps, ragged T
    (300, 1, [(40, 4), (16, 4)]),          # DSWA's shape: wide, equally dilated
    (37, 3, [(2, 1), (1, 3), (3, 2)]),     # three groups of a ladder, ragged tails
    (45, 3, [(2, 2), (2, 2)]),             # equal groups
])
def test_head_groups_equal_one_group_calls_on_their_columns_to_the_bit(T, levels, windows,
                                                                       dtype):
    # every head is independent, so group i of one call computes, byte for
    # byte, what a one-group call on its columns computes: the output and
    # the q, k and v gradients
    heads, hd = 2 * len(windows), 3
    q, k, v, g = (rng.normal(size=(T, heads * hd)).astype(dtype) for _ in range(4))
    xs = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    y = window_attention(*xs, heads, levels, windows)
    project(y, g).backward()
    for i, window in enumerate(windows):
        cols = slice(i * 2 * hd, (i + 1) * 2 * hd)
        gs = [Tensor(np.ascontiguousarray(a[:, cols]), requires_grad=True) for a in (q, k, v)]
        yg = window_attention(*gs, 2, levels, [window])
        project(yg, np.ascontiguousarray(g[:, cols])).backward()
        for a, b in zip([y.data] + [x.grad for x in xs], [yg.data] + [x.grad for x in gs]):
            assert a.dtype == b.dtype == dtype
            assert np.ascontiguousarray(a[:, cols]).tobytes() == b.tobytes()


# q, k and v of 6 rows, 4 columns and float64, but for the named change
@pytest.mark.parametrize("change, heads, levels, windows, match", [
    ({"k_rows": 5}, 2, 1, [(1, 1)], "equal"),
    ({"v_rows": 5}, 2, 3, [(1, 1)], "equal"),
    ({"k_dtype": np.float32}, 2, 1, [(2, 1)], "one dtype"),
    ({"k_dtype": np.float32}, 2, 2, [(1, 1)], "one dtype"),
    ({}, 3, 1, [(1, 1)], "must divide"),
    ({}, 2, 0, [(1, 1)], "levels >= 1"),
    ({}, 2, 1, [(-1, 1)], "widths >= 0"),
    ({}, 2, 1, [(1, 0)], "steps >= 1"),
    ({}, 2, 2, [(1, 0)], "steps >= 1"),
    ({}, 2, 1, [(1, -1)], "steps >= 1"),
    ({}, 2, 2, [(1, -1)], "steps >= 1"),
    ({}, 2, 1, [], r"0 window groups must divide head count 2, got windows \[\]"),
    ({}, 4, 1, [(1, 1)] * 3, "3 window groups must divide head count 4"),
    ({}, 2, 1, [(1, 1), (-1, 2)], r"widths >= 0 and steps >= 1, got 1, \[\(1, 1\), \(-1, 2\)\]"),
    ({}, 2, 1, [(1, 1), (2, 0)], r"steps >= 1, got 1, \[\(1, 1\), \(2, 0\)\]"),
], ids=["k-rows", "v-rows", "mixed-dtypes-band", "mixed-dtypes-ladder", "heads",
        "no-levels", "window-below-0", "step-0-band", "step-0-ladder", "step-below-0-band",
        "step-below-0-ladder", "no-windows", "groups-do-not-divide-heads",
        "second-width-below-0", "second-step-0"])
def test_window_attention_rejects_bad_arguments(change, heads, levels, windows, match):
    q, k, v = (rng.normal(size=(change.get(f"{n}_rows", 6), 4)).astype(
        change.get(f"{n}_dtype", np.float64)) for n in "qkv")
    with pytest.raises(ShapeError, match=match):
        window_attention(Tensor(q), Tensor(k), Tensor(v), heads, levels, windows)


# -- windowed attention: a ladder of scales (HTA) -------------------------


@pytest.mark.parametrize(
    "T, weights, window, heads, block",
    [
        (1, [1 / 3] * 3, 2, 2, 256),           # a single frame
        (5, [1 / 4] * 4, 3, 2, 256),           # T below the coarsest window
        (29, [1 / 3] * 3, 2, 2, 4),            # ragged tails, 8 row blocks
        (33, [1 / 2] * 2, 0, 2, 4),            # window 0
        (64, [1 / 3] * 3, 3, 4, 16),           # several blocks, 4 heads
    ],
)
def test_hta_attention_matches_dense_oracle(set_tile_rows, T, weights, window, heads, block):
    # the oracle's weights are the op's: 1 / levels for each of the
    # len(weights) levels of the ladder
    set_tile_rows(block)
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    got = window_attention(t(q), t(k), t(v), heads, len(weights), [(window, 1)]).data
    want = hta_qkv_oracle(q, k, v, heads, range(len(weights)), weights, window)
    assert got.shape == (T, 8)
    assert np.max(np.abs(got - want)) < 1e-12


def test_dilated_ladder_matches_dense_oracle_per_residue(set_tile_rows):
    # no caller dilates a ladder, but the op allows it: the rows r::2 of each
    # residue run the 3-scale attention as one sequence, with ragged tails
    set_tile_rows(4)
    T = 29
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    got = window_attention(t(q), t(k), t(v), 2, 3, [(2, 2)]).data
    for r in range(2):
        want = hta_qkv_oracle(q[r::2], k[r::2], v[r::2], 2, range(3), [1 / 3] * 3, 2)
        assert np.max(np.abs(got[r::2] - want)) < 1e-12


# a tile holds TILE_ROWS >> (levels - 1) coarsest rows: 3 of the 6 for 3
# levels and 2 of the 3 for 4 levels, so 21 frames take two; the levels are
# len(weights), each weighing 1 / levels
@pytest.mark.parametrize(
    "weights, block", [([1 / 3] * 3, 12), ([1 / 4] * 4, 16)])
def test_grad_hta_attention_two_blocks(set_tile_rows, weights, block):
    set_tile_rows(block)
    T = 21
    q, k, v = (t(rng.normal(size=(T, 4))) for _ in range(3))
    wgt = rng.normal(size=(T, 4))
    err = fd_check_tensor(
        lambda: project(window_attention(q, k, v, 2, len(weights), [(2, 1)]), wgt), [q, k, v])
    assert err < 1e-6


@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_window_attention_weighs_levels_equally(set_tile_rows, levels, step):
    # each residue's rows r::step run the ladder as one sequence, every
    # level weighing 1 / levels, with ragged tails and several tiles
    set_tile_rows(8)
    T = 37
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    got = window_attention(t(q), t(k), t(v), 2, levels, [(2, step)]).data
    for r in range(step):
        want = hta_qkv_oracle(q[r::step], k[r::step], v[r::step], 2, range(levels),
                              [1 / levels] * levels, 2)
        assert np.max(np.abs(got[r::step] - want)) < 1e-12
    qt, kt, vt = (t(rng.normal(size=(19, 4))) for _ in range(3))
    wgt = rng.normal(size=(19, 4))
    err = fd_check_tensor(
        lambda: project(window_attention(qt, kt, vt, 2, levels, [(1, step)]), wgt), [qt, kt, vt])
    assert err < 1e-6


@pytest.mark.parametrize("levels, T, step", [
    (6, 100, 1), (6, 100, 2), (8, 300, 1), (8, 300, 2), (10, 600, 1), (10, 1100, 2)])
def test_long_ladders_match_dense_oracle(levels, T, step):
    # at the default tile size each tile is one coarsest block; every
    # residue spans more than one block and ends in a ragged one
    f = 1 << (levels - 1)
    n = -(-T // step)
    assert n > f and n % f != 0
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    got = window_attention(t(q), t(k), t(v), 2, levels, [(1, step)]).data
    for r in range(step):
        want = hta_qkv_oracle(q[r::step], k[r::step], v[r::step], 2, range(levels),
                              [1 / levels] * levels, 1)
        assert np.max(np.abs(got[r::step] - want)) < 1e-12


@pytest.mark.parametrize("T, step", [(40, 1), (70, 2)])
def test_grad_six_level_ladder(T, step):
    # each residue is two 32-row coarsest blocks, the second ragged
    q, k, v = (t(rng.normal(size=(T, 4))) for _ in range(3))
    g = rng.normal(size=(T, 4))
    _fd(lambda: project(window_attention(q, k, v, 2, 6, [(1, step)]), g), [q, k, v])


def _ladder_cases():
    """Per level count 1 to 10: a ragged tail past whole coarsest blocks,
    two residues padded to the longer one, a window wider than the
    sequence, and a single frame, as (levels, T, window, step)."""
    for levels in range(1, 11):
        f = 1 << (levels - 1)
        T = min(3 * f + 5, f + 37)
        yield from ((levels, T, 2, 1), (levels, T, 1, 2), (levels, 23, 30, 1), (levels, 1, 3, 1))


@pytest.mark.parametrize("levels, T, window, step", list(_ladder_cases()))
def test_ladders_of_one_to_ten_levels_match_dense_oracle(levels, T, window, step):
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    got = window_attention(t(q), t(k), t(v), 2, levels, [(window, step)]).data
    for r in range(min(step, T)):
        want = hta_qkv_oracle(q[r::step], k[r::step], v[r::step], 2, range(levels),
                              [1 / levels] * levels, window)
        assert np.max(np.abs(got[r::step] - want)) < 1e-12


@pytest.mark.parametrize("levels, T, step, tile_rows", [
    (3, 23, 1, 32),     # whole-block tiles with a ragged tail
    (3, 27, 2, 4),      # two residues, a tile per block
    (6, 70, 1, 32),     # one 32-row block per tile, the second ragged
    (6, 70, 2, 8),      # blocks run as sub-tiles of 8 rows, residues padded
])
def test_grad_ladders_of_three_and_six_levels(set_tile_rows, levels, T, step, tile_rows):
    set_tile_rows(tile_rows)
    q, k, v = (t(rng.normal(size=(T, 4))) for _ in range(3))
    g = rng.normal(size=(T, 4))
    _fd(lambda: project(window_attention(q, k, v, 2, levels, [(2, step)]), g), [q, k, v])


def test_hta_attention_reruns_bit_identical(set_tile_rows):
    set_tile_rows(8)
    q, k, v = (t(rng.normal(size=(50, 8))) for _ in range(3))
    g = rng.normal(size=(50, 8))
    runs = []
    for _ in range(2):
        for x in (q, k, v):
            x.grad = None
        y = window_attention(q, k, v, 2, 3, [(2, 1)])
        project(y, g).backward()
        runs.append([y.data.copy()] + [x.grad.copy() for x in (q, k, v)])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))
    with no_grad():
        y = window_attention(q, k, v, 2, 3, [(2, 1)])
    assert np.array_equal(y.data, runs[0][0]) and not y._prev


# -- windowed attention: stacked residues, tile sizes and score shifts -----


def _scored_tiles(monkeypatch):
    """The (first finest row, finest rows) of every tile the kernel scores,
    in order: a forward scores each tile once, alone or in a batch, and
    once more if it shifts its rows by their own maxima."""
    tiles = []
    scores = seqcore._TileKernel._scores

    def spy(self, qs, ks, negs, k, levels):
        t0, n, S = levels[0][:3]
        tiles.extend((t0 + i * n * S, n * S) for i in range(k))
        return scores(self, qs, ks, negs, k, levels)
    monkeypatch.setattr(seqcore._TileKernel, "_scores", spy)
    return tiles


def _outrunning_exp(T, big):
    """q, k and v of 8 columns whose every fifth query row is scaled by
    `big`: the scores of a tile then span more than exp's range, and a
    shift by the tile's per-head max underflows the other rows."""
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    q *= np.where(np.arange(T) % 5 == 0, big, 1.0)[:, None]
    return q, 3.0 * k, v


@pytest.mark.parametrize("dtype, big", [(np.float32, 60.0), (np.float64, 400.0)])
@pytest.mark.parametrize("T, width, step, levels", [
    (200, 20, 1, 1),    # a band over several tiles
    (200, 20, 3, 1),    # a dilated band: stacked residues of 67, 67 and 66 rows
    (91, 2, 1, 3),      # a ladder with a ragged tail
    (91, 2, 2, 3),      # a dilated ladder: residues of 46 and 45 rows
    (91, 1, 1, 2),      # two levels
    (150, 3, 1, 6),     # six levels, whose 32-row blocks are one tile each
])
def test_tiles_whose_scores_outrun_exp_shift_rows_by_their_own_max(monkeypatch, dtype, big,
                                                                   T, width, step, levels):
    tiles = _scored_tiles(monkeypatch)
    q, k, v = (a.astype(dtype) for a in _outrunning_exp(T, big))
    with no_grad():
        got = window_attention(Tensor(q), Tensor(k), Tensor(v), 2, levels, [(width, step)]).data
    assert len(tiles) > len(set(tiles))  # some tile was scored again
    assert got.dtype == dtype
    q, k, v = (a.astype(np.float64) for a in (q, k, v))
    if levels == 1:
        want = dense_multihead(q, k, v, 2, band_mask_oracle(T, width, step))
    else:
        want = np.empty_like(q)
        for r in range(step):
            want[r::step] = hta_qkv_oracle(q[r::step], k[r::step], v[r::step], 2, range(levels),
                                           [1 / levels] * levels, width)
    # a float32 score of magnitude 10^3 alone rounds by about 6e-5
    assert rel_err(got, want) < (1e-4 if dtype == np.float32 else 1e-12)


@pytest.mark.parametrize("dtype, big", [(np.float32, 400.0), (np.float64, 4000.0)])
def test_padded_keys_set_no_row_shift(dtype, big):
    # frames 1 and 3 form residue 1 of step 2, stacked with residue 0's
    # three rows, so a padded key (score 0) follows them; frame 1 scores
    # +big/2 and frame 3 -big/2 on both live keys. Frame 3 underflows under
    # the per-head shift, and its own max, -big/2, must come from the live
    # keys alone: the padded key's exp(big/2) would overflow
    T, u = 5, np.full(4, 0.5)
    q = np.tile(u, (T, 2)) * np.array([1.0, 1.0, 1.0, -1.0, 1.0])[:, None] * big
    k, v = np.tile(u, (T, 2)), rng.normal(size=(T, 8))
    xs = [Tensor(a.astype(dtype), requires_grad=True) for a in (q, k, v)]
    got = window_attention(*xs, 2, 1, [(2, 2)])
    want = dense_multihead(q, k, v, 2, band_mask_oracle(T, 2, 2))
    assert got.data.dtype == dtype
    assert rel_err(got.data, want) < (F32_REL_TOL if dtype == np.float32 else 1e-12)
    project(got, rng.normal(size=(T, 8))).backward()  # recomputed with the same shifts
    assert all(np.isfinite(x.grad).all() for x in xs)


@pytest.mark.parametrize("dtype, big", [(np.float32, 400.0), (np.float64, 4000.0)])
def test_padded_query_rows_of_a_ladder_add_nothing(dtype, big):
    # 5 frames at 2 levels pad to 6 rows: the padded row 5 shares its coarse
    # block with frame 4, whose coarse score, big/4, it would take on; it is
    # -inf in both passes, so the backward's exp of it, under no saved
    # shift, cannot overflow
    T, u = 5, np.full(4, 0.5)
    q, k, v = np.tile(u, (T, 2)), np.tile(u, (T, 2)), rng.normal(size=(T, 8))
    q[4] *= big
    xs = [Tensor(a.astype(dtype), requires_grad=True) for a in (q, k, v)]
    got = window_attention(*xs, 2, 2, [(1, 1)])
    want = hta_qkv_oracle(q, k, v, 2, range(2), [1 / 2] * 2, 1)
    assert rel_err(got.data, want) < (F32_REL_TOL if dtype == np.float32 else 1e-12)
    project(got, rng.normal(size=(T, 8))).backward()
    assert all(np.isfinite(x.grad).all() for x in xs)


@pytest.mark.parametrize("T, width, step, levels", [
    (40, 3, 1, 1), (40, 3, 3, 1), (43, 1, 1, 3), (43, 1, 2, 3), (43, 1, 1, 2), (100, 2, 1, 6)])
def test_grad_through_tiles_shifted_by_row_maxima(monkeypatch, set_tile_rows, T, width, step,
                                                   levels):
    # the backward recomputes each tile with the shift its forward took; at
    # 6 levels a 32-row block runs as one tile of 8-row sub-tiles, and 240
    # entries of each operand are checked
    set_tile_rows(8)
    tiles = _scored_tiles(monkeypatch)
    q, k, v = (t(a) for a in _outrunning_exp(T, 400.0))
    with no_grad():
        window_attention(q, k, v, 2, levels, [(width, step)])
    assert len(tiles) > len(set(tiles))
    g = rng.normal(size=(T, 8))
    err = fd_check_tensor(lambda: project(window_attention(q, k, v, 2, levels, [(width, step)]), g),
                          [q, k, v], sample=240 if T > 64 else None)
    assert err < 1e-6, f"worst rel err {err:.3e}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rows_far_below_their_tile_max_take_bounded_gradients():
    # row 1 scores 62 below row 0 in every column, so under the tile's
    # per-head shift its denominator is about 8 * e^-62 = 1e-26: above the
    # fallback floor, 8 * tiny / eps = 8e-31 in float32. Its softmax weights
    # are still 1/8, so a gradient of 1e13 gives gradients of about 1e13,
    # where one divided by that denominator would overflow float32
    T, u = 8, np.full(4, np.sqrt(0.5))  # u . u / sqrt(4) = 1
    a = np.array([30.0, -32.0, 0.0, 1.0, -1.0, 2.0, 0.5, -0.5])
    q = a[:, None] * u
    k = u + 0.01 * rng.normal(size=(T, 4))
    v, g = rng.normal(size=(T, 4)), 1e13 * rng.normal(size=(T, 4))
    runs = []
    for dtype in (np.float64, np.float32):
        xs = [Tensor(x.astype(dtype), requires_grad=True) for x in (q, k, v)]
        y = window_attention(*xs, 1, 1, [(T, 1)])
        project(y, g).backward()
        runs.append([y.data] + [x.grad for x in xs])
    want = dense_multihead(q, k, v, 1, band_mask_oracle(T, T, 1))
    assert rel_err(runs[0][0], want) < 1e-12
    for a64, a32 in zip(*runs):
        assert np.isfinite(a32).all()
        assert rel_err(a32, a64) < 1e-4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("T, step, levels", [
    (23, 3, 1),     # T % step != 0: residues of 8, 8 and 7 rows
    (3, 5, 1),      # T < step: residues 3 and 4 are empty
    (2, 4, 3),      # T < step under a ladder
    (29, 2, 3),     # 3 levels at step 2: residues of 15 and 14 rows, ragged tails
    (37, 4, 2),     # residues of 10, 9, 9 and 9 rows
])
def test_stacked_residues_match_the_oracle_per_residue(set_tile_rows, T, step, levels):
    # the residues run as one batch, padded to the longest: padding must
    # change no output or gradient and raise no warning, also in discarded
    # rows and in residues with no rows at all
    set_tile_rows(4)
    q, k, v, g = (rng.normal(size=(T, 8)) for _ in range(4))
    got = window_attention(t(q), t(k), t(v), 2, levels, [(2, step)]).data
    for r in range(min(step, T)):
        want = hta_qkv_oracle(q[r::step], k[r::step], v[r::step], 2, range(levels),
                              [1 / levels] * levels, 2)
        assert np.max(np.abs(got[r::step] - want)) < 1e-12
    runs = []
    for dtype in (np.float64, np.float32):
        xs = [Tensor(a.astype(dtype), requires_grad=True) for a in (q, k, v)]
        y = window_attention(*xs, 2, levels, [(2, step)])
        project(y, g).backward()
        runs.append([y.data] + [x.grad for x in xs])
    # against 1 at least: with one row per residue the q and k gradients
    # are 0 up to rounding
    for a, b in zip(*runs):
        assert b.dtype == np.float32
        assert np.max(np.abs(b - a)) < F32_REL_TOL * max(np.max(np.abs(a)), 1.0)
    qt, kt, vt = (t(a) for a in (q, k, v))
    _fd(lambda: project(window_attention(qt, kt, vt, 2, levels, [(2, step)]), g), [qt, kt, vt])


def test_a_patched_tile_size_gets_its_own_kernel(monkeypatch, set_tile_rows):
    # kernels are kept per call shape alone, so a patched tile size takes
    # effect through set_tile_rows, which empties the memo: a default kernel
    # built first does not stand in for it
    T = 30
    q, k, v = (t(rng.normal(size=(T, 8))) for _ in range(3))
    tiles = _scored_tiles(monkeypatch)
    with no_grad():
        window_attention(q, k, v, 2, 1, [(3, 1)])
    assert len(tiles) == 1
    set_tile_rows(4)
    tiles.clear()
    with no_grad():
        got = window_attention(q, k, v, 2, 1, [(3, 1)]).data
    assert len(tiles) == -(-T // 4)
    want = dense_multihead(q.data, k.data, v.data, 2, band_mask_oracle(T, 3, 1))
    assert np.max(np.abs(got - want)) < 1e-12


def test_lengths_of_one_stacked_shape_share_a_kernel():
    # the memo keys on the stacked rows and the rows no sequence pads, not
    # on T: at step 3, T = 31 and T = 32 both stack residues of 11 rows, each
    # holding 10 or more frames, so the second call reuses the first's kernel
    seqcore._call_kernel.cache_clear()
    for T in (31, 32):
        q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
        with no_grad():
            got = window_attention(t(q), t(k), t(v), 2, 1, [(2, 3)]).data
        want = dense_multihead(q, k, v, 2, band_mask_oracle(T, 2, 3))
        assert np.max(np.abs(got - want)) < 1e-12
    info = seqcore._call_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1), info


def _tile_rows(levels):
    """Tile rows the kernel can take for a ladder: whole coarsest blocks, and
    powers of 2 below one block."""
    f = 1 << (levels - 1)
    return [G * f for G in (1, 2, 3)] + [R for R in (1, 2, 4, 16) if R < f]


def _kernel(levels, w, dtype, R, rows, live, batch=1, budget=TILE_ENTRIES):
    """The kernel of a call shape built outside the memo with TILE_ROWS
    patched to R, which it takes as its tile rows, and TILE_ENTRIES to
    `budget`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqcore, "TILE_ROWS", R)
        mp.setattr(seqcore, "TILE_ENTRIES", budget)
        kernel = seqcore._TileKernel(levels, w, np.dtype(dtype), batch, rows, live)
    assert kernel.geo == seqcore._geometry(levels, w, R)
    return kernel


def _one_tile_kernel(levels, w, dtype, R):
    """The kernel of one unpadded sequence that is one tile of R rows."""
    rows = max(R, 1 << (levels - 1))
    return _kernel(levels, w, dtype, R, rows, tuple(rows >> lvl for lvl in range(levels)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5, 7])
def test_tile_masks_are_read_only_dense_window_and_ring_masks(levels, dtype):
    # each level's window and ring masks over a whole sub-tile are dense
    # arrays, built once per kernel and shared by every call that gets it
    for w in range(4):
        for R in _tile_rows(levels):
            kernel = _one_tile_kernel(levels, w, dtype, R)
            want = ring_masks_oracle(levels, w, R, dtype)
            for got, (_, ring) in zip(kernel.ring, want, strict=True):
                assert got.dtype == ring.dtype and np.array_equal(got, ring)
                assert got.flags.c_contiguous and not got.flags.writeable
            for got, (window, _) in zip(kernel.window, want[:-1], strict=True):
                assert got.dtype == window.dtype and np.array_equal(got, window)
                assert got.flags.c_contiguous and not got.flags.writeable


def test_a_long_ladder_holds_small_masks():
    # 10 levels at w = 8 over T = 2048, 8 heads: a coarsest block is 512
    # frames, and the finer levels run it in sub-tiles of TILE_ROWS rows, so
    # every level's dense masks and the call's tile plans together hold
    # under 1 MB (a dense mask over a whole block at the finest level would
    # hold 512 x 528 entries). It is built outside the memo, so a kernel
    # already kept cannot hide what one holds
    tracemalloc.start()
    try:
        kernel = seqcore._TileKernel(10, 8, np.dtype(np.float32), 8, 2048,
                                     tuple(2048 >> lvl for lvl in range(10)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kernel.ring[0].shape == (TILE_ROWS, TILE_ROWS + 16)
    assert held < 1 << 20, held


def _tile_operands(levels, R, seed):
    """Random per-level qs and ks (row-major) and frame-level [V | count]
    for B = 2 stacked sequences of 2F + f rows, F = max(R, f) the finest
    rows of a tile and f those of a coarsest block, so the tiles are a
    first, an interior and a last one, ragged when R > f (a 10-level ladder
    runs one sequence of F + f rows: a first and a last tile). The queries
    carry window_attention's weight 1 / (levels * sqrt(hd)), and the last
    sequence's last f / 2 + 1 rows are padding."""
    r = np.random.default_rng(seed)
    f = 1 << (levels - 1)
    B, hd, rows = (2, 3, 2 * max(R, f) + f) if levels < 10 else (1, 3, max(R, f) + f)
    qs, ks = ([r.normal(size=(B, rows >> lvl, hd)) for lvl in range(levels)] for _ in range(2))
    qs = [x / (levels * np.sqrt(hd)) for x in qs]
    vc = r.normal(size=(B, rows, hd + 1))
    vc[:, :, hd] = 1.0
    vc[-1, rows - (f // 2 + 1) :] = 0.0
    return qs, ks, vc


def _kernel_operands(kernel, qs, ks, vc):
    """The kernel's operands: qs as they are, and each level's keys and
    [V | count] pooled by sums from vc, value-major with the kernel's zero
    margins."""
    def stored(x, m):
        return np.ascontiguousarray(np.pad(x.transpose(0, 2, 1), ((0, 0), (0, 0), (m, m))))
    vcs = [vc]
    for _ in range(1, len(qs)):
        vcs.append(vcs[-1][:, 0::2] + vcs[-1][:, 1::2])
    return (qs, [stored(x, m) for x, m in zip(ks, kernel.margins)],
            [stored(x, m) for x, m in zip(vcs, kernel.margins)])


def _close(got, want, dtype):
    """Equal -inf entries and finite entries to 1e-12 in float64, or within
    F32_REL_TOL of the largest float64 value in float32."""
    assert got.dtype == dtype and np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    err = np.max(np.abs(got[fin] - want[fin]), initial=0.0)
    assert err <= (1e-12 if dtype == np.float64 else
                   F32_REL_TOL * max(np.max(np.abs(want[fin]), initial=0.0), 1.0)), err


def _check_ring_tiles(levels, R, dtype):
    """Every level scores its sub-tiles' bands only, adding its parent's
    cumulative scores spread 2 x 2 over them, and keeps its ring: each
    tile's scores per level equal the dense ring scores, and the outputs,
    log denominators and every gradient equal the frame-level ladder's.
    The kernel reads the keys and [V | count] value-major with margins,
    and returns every output and each level's gradients row-major; its
    per-level [V | count] gradients, summed to frame rows here, equal the
    oracle's frame-level one."""
    for w in (0, 1, 2, 3, 8):
        qs, ks, vc = _tile_operands(levels, R, seed=levels * 100 + w * 10 + R)
        B, rows = vc.shape[:2]
        # the leading rows per level that no sequence pads
        pooled = [vc]
        for _ in range(1, levels):
            pooled.append(pooled[-1][:, 0::2] + pooled[-1][:, 1::2])
        live = tuple(int((x[:, :, -1] > 0).all(axis=0).sum()) for x in pooled)
        # a budget that holds a tile of two 512-row blocks at 10 levels
        kernel = _kernel(levels, w, dtype, R, rows, live, B, budget=1 << 22)
        ops = _kernel_operands(kernel, *([x.astype(dtype) for x in xs] for xs in (qs, ks)),
                               vc.astype(dtype))
        # the float64 oracles on the operands as the kernel gets them
        exact = [[x.astype(dtype).astype(np.float64) for x in xs] for xs in (qs, ks)]
        exact.append(vc.astype(dtype).astype(np.float64))
        # the 0/-inf masks of the count rows, as window_attention builds them
        negs = [np.where(x[:, -1:] > 0, 0.0, -np.inf).astype(dtype) for x in ops[2]]
        rings = ring_scores_oracle(levels, w, *exact)
        # the forward's and the backward's runs, and runs of at most 2
        # tiles, so that a run ends inside the uniform tiles
        for runs in (kernel.forward_runs, kernel.backward_runs, kernel._tiles(2)):
            scored = 0
            for t0, k, F, levels_ in runs:
                for z, ring, m, (a0, n, S, c0, C, _) in zip(
                        kernel._scores(*ops[:2], negs, k, levels_), rings, kernel.margins,
                        levels_, strict=True):
                    # the ring's columns at the kernel's stored key columns
                    padded = np.pad(ring, ((0, 0), (0, 0), (m, m)), constant_values=-np.inf)
                    want = np.stack([padded[:, a0 + i * S : a0 + (i + 1) * S,
                                            c0 + i * S : c0 + i * S + C]
                                     for i in range(k * n)], axis=1).reshape(z.shape)
                    _close(z, want, dtype)
                scored += k * F
            assert scored == rows
        y, lse = kernel.forward(*ops, negs)
        want_y, want_lse = ladder_forward_oracle(levels, w, *exact)
        frames = exact[2][:, :, -1:] > 0
        _close(np.where(frames, y, 0), want_y, dtype)
        _close(np.where(frames, lse, 0), np.where(frames, want_lse, 0), dtype)
        dy = np.random.default_rng(w).normal(size=vc.shape).astype(dtype)
        got = kernel.backward(*ops, negs, lse, dy)
        want = ladder_backward_oracle(levels, w, *exact, lse.astype(np.float64),
                                      dy.astype(np.float64))
        # the kernel's per-level [V | count] gradients summed to frame rows
        dvc = sum(np.repeat(x, 1 << lvl, axis=1) for lvl, x in enumerate(got[2]))
        # a padded frame of a pooled block takes that block's [V | count]
        # gradient, which window_attention drops with the padded frames
        for a, b in zip([*got[0], *got[1], np.where(frames, dvc, 0)],
                        [*want[0], *want[1], np.where(frames, want[2], 0)], strict=True):
            _close(a, b, dtype)


# 1 to 6 levels and the 10-level ladder, in tiles of G whole coarsest blocks
TILE_CASES = [(levels, G) for levels in (1, 2, 3, 4, 5, 6, 10)
              for G in ((1, 2) if levels == 10 else (1, 2, 3, 4))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("levels, G", TILE_CASES)
def test_band_restricted_tiles_match_full_width_tiles(levels, G, dtype):
    # each level's band-restricted tiles of G whole blocks against the
    # full-width dense oracles: its ring scores, and the ladder's outputs and
    # gradients
    _check_ring_tiles(levels, G << (levels - 1), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("levels, R", [(4, 2), (4, 4), (6, 4), (10, 4), (10, 32)])
def test_sub_block_tiles_match_full_width_tiles(levels, R, dtype):
    # a coarsest block longer than the tile rows R is one tile: its finer
    # levels run sub-tiles of R >> l rows, batched, and its coarser levels
    # the whole block, the first of them spreading one row to each sub-tile
    _check_ring_tiles(levels, R, dtype)


@settings(max_examples=200, deadline=None)
@given(levels=st.integers(1, 7), w=st.integers(0, 12), R=st.sampled_from([1, 2, 4, 8, 32]),
       nc=st.integers(1, 5), padding=st.integers(0, 3))
def test_finer_masks_keep_nothing_outside_their_band(levels, w, R, nc, padding):
    # every entry a finer level's ring keeps lies in its band, the children
    # of its parent's inner keys; and over the kernel's own tiles, finest
    # first, the rings that each level keeps at its rows and columns cover
    # every pair of frames in the coarsest window exactly once and nothing
    # else, in the forward's runs and in runs of at most 3 tiles, which end
    # inside the uniform tiles
    f, h = 1 << (levels - 1), -(-w // 2)
    R = R // f * f if R >= f else R
    rows = nc * max(R, f)
    live = tuple(max((rows - padding * f) >> lvl, 0) for lvl in range(levels))
    kernel = _kernel(levels, w, np.float32, R, rows, live)
    for ring in kernel.ring[:-1]:
        i, key = np.nonzero(np.isfinite(ring))
        assert np.all(np.abs(((key - 2 * h) >> 1) - (i >> 1)) <= h)
    top = np.arange(rows) >> (levels - 1)
    for runs in (kernel.forward_runs, kernel._tiles(3)):
        cover = np.zeros((rows, rows), int)
        for _, k, _, levels_ in runs:
            for lvl, (a0, n, S, c0, C, j0) in enumerate(levels_):
                m, keep = kernel.margins[lvl], np.isfinite(kernel.ring[lvl][:S, j0 : j0 + C])
                level = np.zeros((rows >> lvl, (rows >> lvl) + 2 * m), int)
                for i in range(k * n):
                    level[a0 + i * S : a0 + (i + 1) * S, c0 + i * S : c0 + i * S + C] += keep
                level = level[:, m : level.shape[1] - m]
                cover += np.repeat(np.repeat(level, 1 << lvl, axis=0), 1 << lvl, axis=1)
        assert np.array_equal(cover, np.abs(top[:, None] - top[None, :]) <= w)


@pytest.mark.parametrize("levels, T, step", [(1, 40, 1), (3, 40, 1), (2, 41, 2)])
def test_a_window_wider_than_the_sequence_costs_what_the_sequence_does(levels, T, step):
    # no entry lies farther than the padded rows from its query, so a window
    # of 10**6 reads what one of that many rows reads: same bits, and the
    # call's memory does not grow with the window
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    f, n = 1 << (levels - 1), -(-T // step)
    rows = -(-n // f) * f  # residue 0's rows, in whole coarsest blocks

    def attend(w):
        with no_grad():
            return window_attention(t(q), t(k), t(v), 2, levels, [(w, step)]).data
    attend(10**6)  # built once; the memo keeps it
    tracemalloc.start()
    try:
        got = attend(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert got.tobytes() == attend(rows).tobytes()
    for r in range(step):
        want = hta_qkv_oracle(q[r::step], k[r::step], v[r::step], 2, range(levels),
                              [1 / levels] * levels, 10**6)
        assert np.max(np.abs(got[r::step] - want)) < 1e-12
    if levels == 1 and step == 1:
        want = dense_multihead(q, k, v, 2, band_mask_oracle(T, 10**6, 1))
        assert np.max(np.abs(got - want)) < 1e-12


def test_every_memo_is_bounded():
    # window calls over more call shapes than CALL_SHAPES leave every memo
    # in seqcore, module-level or on a class, holding at most CALL_SHAPES
    memos = [x for x in vars(seqcore).values() if hasattr(x, "cache_info")]
    memos += [x for cls in vars(seqcore).values() if isinstance(cls, type)
              for x in vars(cls).values() if hasattr(x, "cache_info")]
    assert memos and all(m.cache_info().maxsize == CALL_SHAPES for m in memos), memos
    q, k, v = (rng.normal(size=(CALL_SHAPES + 20, 4)) for _ in range(3))
    with no_grad():
        for T in range(1, CALL_SHAPES + 21):
            window_attention(t(q[:T]), t(k[:T]), t(v[:T]), 2, 1, [(1, 1)])
    assert max(m.cache_info().currsize for m in memos) == CALL_SHAPES


@pytest.mark.parametrize("levels, windows", [(1, [(2, 1), (3, 3)]), (3, [(2, 1)])])
def test_a_group_builds_its_padding_masks_once(monkeypatch, levels, windows):
    # a group's 0/-inf count masks are built once, with its operands, and the
    # backward gets the very masks its forward got; a one-level group with
    # no padded row gets none
    T = 20
    got = {"forward": [], "backward": []}
    for name in got:
        def spy(self, qs, ks, vcs, negs, *rest, run=getattr(seqcore._TileKernel, name), name=name):
            got[name].append(negs)
            return run(self, qs, ks, vcs, negs, *rest)
        monkeypatch.setattr(seqcore._TileKernel, name, spy)
    q, k, v = (t(rng.normal(size=(T, 8))) for _ in range(3))
    project(window_attention(q, k, v, 2, levels, windows), rng.normal(size=(T, 8))).backward()
    # the backward runs the groups last first
    assert len(got["forward"]) == len(windows)
    assert [id(x) for x in got["backward"]] == [id(x) for x in got["forward"][::-1]]
    padded = [levels > 1 or T % step != 0 for _, step in windows]
    assert [negs is not None for negs in got["forward"]] == padded


def test_threads_share_the_kernel_cache():
    # more threads than cores run calls over mixed widths and level counts,
    # some building kernels the others then read; every output stays what
    # one thread computes
    q, k, v = (rng.normal(size=(40, 8)) for _ in range(3))
    calls = [(levels, w) for levels in (1, 2, 3) for w in (0, 1, 2, 3, 5, 11)]

    def attend(levels, w):
        with no_grad():
            return window_attention(Tensor(q), Tensor(k), Tensor(v), 2, levels, [(w, 1)]).data
    want = {c: attend(*c) for c in calls}
    seqcore._call_kernel.cache_clear()
    errors = []

    def work(i):
        try:
            for n in range(2 * len(calls)):
                c = calls[(i * 5 + n) % len(calls)]
                assert np.array_equal(attend(*c), want[c])
        except Exception as exc:  # raised again below, in the test's thread
            errors.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    if errors:
        raise errors[0]


# -- backward releases the graph -------------------------------------------


def _graph(root):
    """Every node reachable from `root` through parent links."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._prev)
    return nodes


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    x = t(rng.normal(size=(4, 3)))
    w = t(rng.normal(size=(3, 2)))
    b = t(rng.normal(size=(2,)))

    def build():
        h = linear(x, w, b)
        a = (h * h).gelu()
        # `a` and the leaves are shared
        return project(a + a.sigmoid()) + project(linear(x, w, b), 1 / 8)

    loss = build()
    nodes = _graph(loss._node)
    interior = [n for n in nodes if n._prev]
    assert len(interior) >= 8 and {id(n) for n in nodes if not n._prev} == {id(x), id(w), id(b)}
    loss.backward()
    for node in interior:
        assert node.grad is None and node._backward is None and not node._prev
    assert all(v.grad is not None for v in (x, w, b))
    # fd_check_tensor runs its own backward through a fresh graph
    _fd(build, [x, w, b])


def test_second_backward_through_a_released_graph_raises():
    x = t(rng.normal(size=(3,)))
    h = x * 2.0
    loss = project(h * h)
    loss.backward()
    grad = x.grad.copy()
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    # a new loss through a released node raises too, before any gradient moves
    with pytest.raises(RuntimeError, match="released"):
        project(h + x).backward()
    assert np.array_equal(x.grad, grad)
    # a fresh graph from the same leaves runs and accumulates
    project(x * 2.0).backward()
    assert np.array_equal(x.grad, grad + 2.0)


def test_first_accumulation_copies_the_gradient():
    # `__add__` hands one array to both parents; neither may hold it
    x, y = t(np.ones(3)), t(np.ones(3))
    project(x + y).backward()
    assert x.grad is not y.grad
    x.grad += 1.0
    assert np.array_equal(y.grad, np.ones(3))
    z = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    z._accumulate(np.full(3, 0.5))
    assert z.grad.dtype == np.float32 and np.array_equal(z.grad, np.full(3, 0.5))


# -- the tape holds nodes, not values --------------------------------------


def test_values_no_backward_reads_are_freed_mid_forward():
    x = t(np.ascontiguousarray(rng.normal(size=(3, 20)).T))
    kernel, bias = t(rng.normal(size=(3, 3, 3)) * 0.5), t(rng.normal(size=(3,)))
    pw, pb = t(rng.normal(size=(3, 3, 1)) * 0.5), t(rng.normal(size=(3,)))
    gain, shift = t(rng.normal(size=(3,))), t(rng.normal(size=(3,)))

    def build(refs=None):
        conv = conv1d_dilated(x, kernel, bias, dilation=2)
        # a residual sum, whose backward reads neither operand; tcn_block's
        # backward reads its input and ReLU output, not its own output
        res = tcn_block(x + conv, kernel, bias, pw, pb, 2, "causal")
        # layer_norm's backward reads xhat, not res
        loss = project(layer_norm(res, gain, shift).sigmoid())
        if refs is not None:
            refs += [weakref.ref(a) for a in (conv, conv.data, res, res.data)]
        return loss

    refs = []
    loss = build(refs)
    assert [r() for r in refs] == [None] * 4
    loss.backward()
    _fd(build, [x, kernel, bias, pw, pb, gain, shift])


def _captured(fn):
    """Every object a closure holds, through nested functions, tuples and lists."""
    seen, stack = set(), [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, types.FunctionType):
            stack.extend(c.cell_contents for c in v.__closure__ or ())
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        else:
            yield v


def _root(a):
    """The array at the bottom of a view's base chain."""
    while a.base is not None:
        a = a.base
    return a


def test_backward_closures_hold_no_tensor_but_leaves():
    # each op with one operand that needs no gradient, so a closure that kept
    # either operand's Tensor instead of the array it reads would show
    x, w, b = t(rng.normal(size=(8, 4))), t(rng.normal(size=(4, 4))), t(rng.normal(size=(4,)))
    kernel = t(rng.normal(size=(4, 4, 3)) * 0.3)
    pw = t(rng.normal(size=(4, 4, 1)) * 0.3)
    c = Tensor(rng.normal(size=(8, 4)))
    eye, zero = Tensor(np.eye(4)), Tensor(np.zeros(4))
    h = linear(x, w, b) * c + c * (x * x + 1.0) + linear(c, w, b) * -1.0 + linear(x, eye, zero)
    h = layer_norm(h, b * 2.0, b).gelu()
    attended = [(window_attention(h, c, h, 2, 1, [(2, 1), (1, 2)]), (h, c, h)),
                (window_attention(h, h, c, 2, 2, [(1, 1)]), (h, h, c))]
    # an attention closure keeps the output and per group the operands its
    # forward stacked: each level's pooled queries row-major [sequences,
    # rows, columns], each level's pooled keys and [V | count] value-major
    # with the kernel's zero margins [sequences, columns, rows + 2 margins],
    # the counts of the coarser levels and the log softmax denominators
    # its kernel returned, each [sequences, rows, 1]; not q, k or v,
    # and no operand in two layouts. Beyond them only numbers, slices, a
    # dtype, the nodes, the groups' kernels, which `_call_kernel` shares
    # between calls of one shape, and the 0/-inf masks of a ladder's count
    # rows [sequences, 1, rows + 2 margins], which its backward reuses
    stacked = [
        # two groups of one head, steps 1 and 2: 8 rows, and 4 rows per
        # residue; a one-level call keeps no margins
        [(1, 2, 8), (1, 3, 8), (1, 8, 1), (1, 8, 2), (2, 2, 4), (2, 3, 4), (2, 4, 1),
         (2, 4, 2)],
        # one group of two heads at two levels, window 1: 8 rows with margins
        # of 2 and 4 rows with margins of 1, counts at level 1, and the 0/-inf
        # masks of both levels
        [(2, 1, 6), (2, 1, 12), (2, 2, 6), (2, 2, 12), (2, 3, 6), (2, 3, 12), (2, 4, 1),
         (2, 4, 2), (2, 8, 1), (2, 8, 2)],
    ]
    for (y, qkv), shapes in zip(attended, stacked):
        held = list(_captured(y._node._backward))
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        roots = {id(_root(a)) for a in arrays}
        assert id(_root(y.data)) in roots
        assert not roots & {id(_root(x.data)) for x in qkv}
        assert sorted(a.shape for a in arrays if _root(a) is not _root(y.data)) == shapes
        for i, one in enumerate(arrays):
            for other in map(np.matrix_transpose, arrays[i + 1 :]):
                assert not (one.shape == other.shape and np.array_equal(one, other)), one.shape
        assert all(isinstance(v, (np.ndarray, int, float, slice, np.dtype, seqcore._Node,
                                  seqcore._TileKernel))
                   or v is None for v in held), held
    h = attended[0][0] + attended[1][0]
    h = tcn_block(conv1d_dilated(h, kernel, b, dilation=2), kernel, b, pw, b, 2, "causal")
    h = concat([h, h * c], axis=0)
    p = softmax(h.reshape(4, 16)).astype(np.float32).astype(np.float64)
    loss = (project(p + (p * p + 0.5).sigmoid(), 1 / 64)
            + scalar_op(0.0, p, lambda: np.ones((4, 16))))
    leaves = {id(x), id(w), id(b), id(kernel), id(pw)}
    seen, stack, kinds = set(), [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or id(node) in leaves:
            continue
        seen.add(id(node))
        kinds.add(node._backward.__qualname__.split(".<locals>")[0])
        held = [v for v in _captured(node._backward) if isinstance(v, Tensor) and id(v) not in leaves]
        assert held == [], node._backward.__qualname__
        stack.extend(node._prev)
    # every op of the closed set that records a backward closure
    assert kinds == {
        "Tensor.__add__", "Tensor.__mul__", "Tensor.sigmoid", "Tensor.gelu", "Tensor.astype",
        "Tensor.reshape", "concat", "softmax", "window_attention", "conv1d_dilated",
        "tcn_block", "linear", "layer_norm", "scalar_op",
    }, sorted(kinds)
    loss.backward()


def test_weight_ops_keep_their_leaves_arrays_and_cast_in_backward():
    # float64 leaves in a float32 pass: each closure that reads a weight
    # keeps the leaf's own array, which the tape keeps anyway, also where
    # the op's input needs no gradient (as the model's features do), and no
    # closure keeps a float32 cast of any leaf
    r = np.random.default_rng(3801)
    x = Tensor(r.normal(size=(8, 4)).astype(np.float32), requires_grad=True)
    w, b, gain = t(r.normal(size=(4, 4))), t(r.normal(size=(4,))), t(r.normal(size=(4,)))
    kernel, pw = t(r.normal(size=(4, 4, 3)) * 0.3), t(r.normal(size=(4, 4, 1)) * 0.3)
    h = linear(x, w, b)
    h = conv1d_dilated(h, kernel, b, dilation=2)
    h = tcn_block(h, kernel, b, pw, b, 2, "causal")
    feats = Tensor(r.normal(size=(8, 4)).astype(np.float32))
    h = (h + linear(feats, w, b) + conv1d_dilated(feats, kernel, b, dilation=2)
         + tcn_block(feats, kernel, b, pw, b, 2, "causal"))
    h = layer_norm(h, gain, b)
    assert h.dtype == np.float32
    loss = project(h, r.normal(size=(8, 4)))
    leaves = (w, b, gain, kernel, pw)
    casts = [leaf.data.astype(np.float32) for leaf in leaves]
    weights = {"linear": [w], "conv1d_dilated": [kernel], "tcn_block": [kernel, pw],
               "layer_norm": [gain]}
    seen, stack, checked = set(), [loss._node], []
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._prev:
            continue
        seen.add(id(node))
        kind = node._backward.__qualname__.split(".<locals>")[0]
        held = list(_captured(node._backward))
        for a in held:
            if isinstance(a, np.ndarray) and a.dtype == np.float32:
                assert not any(a.shape == c.shape and np.array_equal(a, c) for c in casts), kind
        for leaf in weights.get(kind, []):
            if any(p is leaf for p in node._prev):
                assert any(a is leaf.data for a in held), (kind, leaf.shape)
                checked.append(kind)
        stack.extend(node._prev)
    # each weight op twice, once on x's path and once on the features'
    assert sorted(checked) == sorted(
        ["linear", "conv1d_dilated", "tcn_block", "tcn_block"] * 2 + ["layer_norm"])
    loss.backward()
    assert x.grad.dtype == np.float32 and all(leaf.grad.dtype == np.float64 for leaf in leaves)


def test_scalar_op_checks_its_gradient_shape_in_backward():
    x = t(np.zeros((2, 3)))
    loss = scalar_op(0.0, x, lambda: np.ones((3, 2)))
    with pytest.raises(ShapeError, match=r"shape \(3, 2\) for an input of shape \(2, 3\)"):
        loss.backward()


# -- no_grad --------------------------------------------------------------


def test_no_grad_records_no_tape():
    x = t(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 2)))
    b = t(np.zeros(2))
    with no_grad():
        y = project(linear(x, w, b).sigmoid())
    assert not y.requires_grad and y._prev == () and y._node is None
    assert np.array_equal(y.data, project(linear(x, w, b).sigmoid()).data)
    z = project(linear(x, w, b))
    assert z.requires_grad and z._prev


def test_no_grad_nests_and_restores_after_error():
    x = t(rng.normal(size=(2,)))
    with pytest.raises(RuntimeError):
        with no_grad():
            with no_grad():
                pass
            assert not (x * 2.0).requires_grad
            raise RuntimeError("boom")
    assert (x * 2.0).requires_grad


# -- fused linear and layer_norm -------------------------------------------


@pytest.mark.parametrize("fused, oracle, shapes", [
    (linear, linear_oracle, [(7, 5), (5, 3), (3,)]),
    (layer_norm, layer_norm_oracle, [(7, 6), (6,), (6,)]),
])
def test_fused_op_matches_oracle_and_finite_differences(fused, oracle, shapes):
    # the value against the loop oracle, the gradients of a weighted sum
    # against the complex step through it
    x, a, b = (t(rng.normal(size=s) * 3.0 + 0.5) for s in shapes)
    y = fused(x, a, b)
    weight = np.linspace(-1.0, 2.0, y.data.size).reshape(y.shape)
    project(y, weight).backward()
    arrays = [x.data, a.data, b.data]
    want = [oracle(*arrays)] + complex_step_grads(oracle, arrays, weight)
    for g, w in zip([y.data, x.grad, a.grad, b.grad], want):
        assert np.max(np.abs(g - w)) < 1e-12
    _fd(lambda: project(fused(x, a, b) * fused(x, a, b), 0.1), [x, a, b], tol=1e-6)


def test_fused_ops_are_one_tape_node():
    x, w, b = t(rng.normal(size=(4, 3))), t(rng.normal(size=(3, 2))), t(np.zeros(2))
    block = tcn_block(*_tcn_leaves(6, np.float64, rng), 2, "causal")
    for y in (linear(x, w, b), layer_norm(x, t(np.ones(3)), t(np.zeros(3))), block):
        assert all(p._prev == () for p in y._prev)


# -- tcn_block ------------------------------------------------------------

# (T, dilation): every tap inside, taps at and beyond T, one frame
TCN_CASES = ((9, 2), (7, 7), (5, 11), (1, 1))


def _tcn_leaves(T, dtype, r):
    """Input [T, 4] in `dtype` and float64 parameters of a block with 5
    hidden channels and kernel size 3, all needing gradients."""
    shapes = ((5, 4, 3), (5,), (4, 5, 1), (4,))
    return [Tensor(r.normal(size=(T, 4)).astype(dtype), requires_grad=True)] + [
        Tensor(r.normal(size=s), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["acausal", "causal"])
@pytest.mark.parametrize("T, dilation", TCN_CASES)
def test_tcn_block_equals_its_composite_bit_for_bit(dtype, mode, T, dilation):
    # the value and the gradients of the input and all four parameters
    runs = []
    for op in (tcn_block, tcn_block_composite):
        leaves = _tcn_leaves(T, dtype, np.random.default_rng(T * dilation))
        y = op(*leaves, dilation, mode)
        project(y, np.linspace(-2.0, 1.0, y.size).reshape(y.shape)).backward()
        runs.append([y.data] + [p.grad for p in leaves])
    assert runs[0][0].dtype == runs[0][1].dtype == dtype
    for a, b in zip(*runs):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tcn_block_gradients_through_an_infinite_or_nan_g_keep_the_composite_bits(dtype):
    # g holds inf, -inf and NaN, and hidden channel 4 is dead (its bias far
    # below 0). The composite's ReLU takes np.where(h > 0, dh, 0.0), so a
    # clamped entry's gradient is +0.0: the dead channel's bias gradient is
    # +0.0, where a multiply by the mask gives inf * 0 = NaN
    runs = []
    for op in (tcn_block, tcn_block_composite):
        leaves = _tcn_leaves(16, dtype, np.random.default_rng(7))
        leaves[2].data[4] = -1e3
        y = op(*leaves, 2, "acausal")
        g = np.linspace(-2.0, 1.0, y.size).reshape(y.shape)
        g[3, 0], g[8, 1], g[12, 2] = np.inf, -np.inf, np.nan
        project(y, g).backward()
        runs.append([y.data] + [p.grad for p in leaves])
    for a, b in zip(*runs):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    dead = runs[0][3][4]
    assert dead == 0.0 and not np.signbit(dead)


@pytest.mark.parametrize("mode", ["acausal", "causal"])
@pytest.mark.parametrize("T, dilation", TCN_CASES)
def test_tcn_block_matches_the_loop_convolutions(mode, T, dilation):
    # the composite shares tcn_block's tap code, so the output is also
    # checked against direct-loop convolutions, which share none of it
    x, conv_w, conv_b, pw_w, pw_b = (p.data for p in _tcn_leaves(
        T, np.float64, np.random.default_rng(T * dilation)))
    h = np.maximum(conv1d_oracle(x, conv_w, conv_b, dilation, mode), 0.0)
    want = x + conv1d_oracle(h, pw_w, pw_b, 1, "acausal")
    got = tcn_block(*map(t, (x, conv_w, conv_b, pw_w, pw_b)), dilation, mode).data
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("mode", ["acausal", "causal"])
def test_grad_tcn_block(mode):
    for dil in (1, 2, 5):
        leaves = _tcn_leaves(9, np.float64, rng)
        _fd(lambda ls=leaves, d=dil: project(tcn_block(*ls, d, mode) * tcn_block(*ls, d, mode),
                                             0.1), leaves)


def test_tcn_block_shape_errors():
    shapes = [(6, 4), (5, 4, 3), (5,), (4, 5, 1), (4,)]
    # a conv kernel of other input channels, a conv bias of other width, a
    # pointwise kernel of other output or input channels or size, and a
    # pointwise bias of other width
    for i, bad in ((1, (5, 3, 3)), (2, (4,)), (2, (1, 5)), (3, (5, 5, 1)), (3, (4, 4, 1)),
                   (3, (4, 5, 3)), (4, (5,))):
        args = [t(np.zeros(bad if j == i else s)) for j, s in enumerate(shapes)]
        with pytest.raises(ShapeError):
            tcn_block(*args, 1, "acausal")


def test_tcn_block_forward_holds_two_buffers():
    """A no-grad block at the default width (256) and T = 2048 in float32,
    its parameters float32 as a loaded checkpoint's. The forward holds the
    conv output and one more [T, C] array at a time, the output included;
    zero-filled conv outputs and a fresh array for the ReLU, the pointwise
    conv and the residual peaked at three."""
    T, C = 2048, 256
    r = np.random.default_rng(0)
    x = Tensor(r.normal(size=(T, C)).astype(np.float32))
    params = [Tensor((r.normal(size=s) * 0.05).astype(np.float32))
              for s in ((C, C, 3), (C,), (C, C, 1), (C,))]
    with no_grad():
        tcn_block(x, *params, 4, "acausal")
        tracemalloc.start()
        try:
            tcn_block(x, *params, 4, "acausal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2 * T * C * 4 + 64 * 1024, f"peak {peak / 2**20:.2f} MiB"


def test_linear_shape_errors():
    x = t(np.zeros((2, 3)))
    for w, b in (((4, 2), (2,)), ((3, 2), (3,)), ((3, 2), (1, 2))):
        with pytest.raises(ShapeError):
            linear(x, t(np.zeros(w)), t(np.zeros(b)))


def test_gelu_matches_pow_form():
    # the cube as products, against the tanh approximation written with pow
    x = rng.normal(size=(50,)) * 4.0
    want = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
    assert np.max(np.abs(t(x).gelu().data - want)) < 1e-12



# -- dtypes -----------------------------------------------------------------


def test_tensor_keeps_float32_and_float64_only():
    assert Tensor(np.zeros(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.zeros(2)).data.dtype == np.float64
    for data in (np.zeros(2, np.float16), np.arange(3), [True, False], 1.5):
        assert Tensor(data).data.dtype == np.float64


def test_scalar_operands_take_the_tensor_dtype():
    x = Tensor(np.ones(3, np.float32))
    for y in (x + 1.0, x * 2, x + 1, x * 2.0):
        assert y.data.dtype == np.float32


def test_astype_casts_and_casts_the_gradient_back():
    x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
    assert x.astype(np.float32) is x
    y = x.astype(np.float64)
    assert y.data.dtype == np.float64 and np.array_equal(y.data, x.data)
    project(y * y).backward()
    assert x.grad.dtype == np.float32
    assert np.allclose(x.grad, 2.0 * x.data)
