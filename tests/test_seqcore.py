import types
import weakref

import numpy as np
import pytest

from tempseg import seqcore
from tempseg.attention import WindowSpec, build_sparse_mask
from tempseg.seqcore import (
    TILE_ROWS,
    Adam,
    ShapeError,
    Tensor,
    concat,
    conv1d_dilated,
    layer_norm,
    linear,
    no_grad,
    softmax,
    window_attention,
)

from oracles import (
    band_mask_oracle,
    conv1d_oracle,
    dense_mask,
    dense_multihead,
    fd_check_tensor,
    hta_qkv_oracle,
    layer_norm_composite,
    linear_composite,
    mean_pool_oracle,
)

rng = np.random.default_rng(12345)


def t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


# -- forward examples -----------------------------------------------------


def test_causal_conv_impulse():
    # unit impulse through a k=3 causal kernel of ones: taps land at t, t-1, t-2
    x = t([[1.0, 0.0, 0.0, 0.0, 0.0]])
    w = t(np.ones((1, 1, 3)))
    b = t(np.zeros(1))
    y = conv1d_dilated(x, w, b, dilation=1, mode="causal")
    assert np.array_equal(y.data, [[1.0, 1.0, 1.0, 0.0, 0.0]])


def test_acausal_dilated_conv_taps():
    # dilation 2, k=3, centered: output t sums inputs {t-2, t, t+2}
    x = t(np.zeros((1, 8)))
    x.data[0, 4] = 1.0
    w = t(np.ones((1, 1, 3)))
    b = t(np.zeros(1))
    y = conv1d_dilated(x, w, b, dilation=2, mode="acausal")
    hot = np.nonzero(y.data[0])[0]
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
        x = np.asarray(rng.normal(size=(c_in, T)), order=order)
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
    """Means of row pairs of x along axis 0 from the pooling helpers that
    window_attention builds each scale's rows from the one before with."""
    return seqcore._pair_sum(x) / seqcore._frame_counts(len(x), 2, x.dtype)[:, None]


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


def test_determinism_same_seed():
    def run(seed):
        r = np.random.default_rng(seed)
        x = t(r.normal(size=(4, 5)))
        w = t(r.normal(size=(5, 3)))
        y = linear(x, w, t(np.zeros(3))).gelu().sum()
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
    _fd(lambda: ((x * y + x / (y * y + 2.0) - y).sigmoid().sum()), [x, y])


def test_grad_exp_log_sqrt_pow():
    x = t(rng.uniform(0.5, 2.0, size=(5,)))
    _fd(lambda: (x.log() * x.sqrt() + x.pow_const(3.0)).sum(), [x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_saturates_without_warning(dtype):
    # exp(800) overflows both dtypes; RuntimeWarning is an error under this
    # suite's settings
    x = Tensor(np.array([-800.0, 0.0, 800.0], dtype), requires_grad=True)
    y = x.sigmoid()
    y.sum().backward()
    assert y.data.dtype == dtype and np.array_equal(y.data, [0.0, 0.5, 1.0])
    assert np.isfinite(x.grad).all() and np.array_equal(x.grad, [0.0, 0.25, 0.0])


def test_grad_sigmoid_relu_gelu():
    x = t(rng.normal(size=(6,)))
    _fd(lambda: (x.sigmoid() + (x + 0.3).relu() * x.gelu()).sum(), [x], tol=1e-5)


def test_grad_matmul_broadcast_bias():
    # linear is the one matmul; `+ c` broadcasts a row over its output
    x = t(rng.normal(size=(4, 3)))
    w = t(rng.normal(size=(3, 2)))
    b, c = t(rng.normal(size=(2,))), t(rng.normal(size=(2,)))
    _fd(lambda: ((linear(x, w, b) + c) * (linear(x, w, b) + c)).mean(), [x, w, b, c])


def test_grad_astype():
    # values and steps on a coarse binary grid, so both casts are exact
    x = t(rng.integers(-64, 64, size=(5,)) / 32.0)
    err = fd_check_tensor(
        lambda: (x.astype(np.float32).astype(np.float64).pow_const(2.0) * 3.0).sum(), [x],
        eps=2.0 ** -10)
    assert err < 1e-12


def test_grad_reductions_and_reshape():
    x = t(rng.normal(size=(2, 3, 4)))
    _fd(
        lambda: (x.sum(axis=2).mean(axis=0, keepdims=True).reshape(3) * np.arange(3.0)).sum(),
        [x],
    )


def test_grad_indexing_with_slices():
    x = t(rng.normal(size=(6, 3)))
    _fd(lambda: (x[1:4] * 2.0).sum() + (x[::-2, 1:] * x[4, None, :2]).sum(), [x])


def test_grad_concat_transpose():
    a = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=(2, 2)))
    _fd(lambda: (concat([a, b], axis=1).transpose((1, 0)) * 1.5).sum(), [a, b])


def test_grad_masked_softmax():
    s = t(rng.normal(size=(4, 6)))
    mask = rng.random((4, 6)) < 0.7
    mask[:, 0] = True
    s.data[~mask] = -np.inf  # masked entries get exactly 0 and no gradient
    w = rng.normal(size=(4, 6))
    _fd(lambda: (softmax(s) * w).sum(), [s])


def test_grad_conv_modes():
    for mode in ("causal", "acausal"):
        for dil in (1, 2, 3, 5):
            x = t(rng.normal(size=(2, 9)))
            w = t(rng.normal(size=(3, 2, 3)))
            b = t(rng.normal(size=(3,)))
            _fd(
                lambda x=x, w=w, b=b, d=dil, m=mode: conv1d_dilated(
                    x, w, b, dilation=d, mode=m
                ).sum(),
                [x, w, b],
            )


def test_grad_mean_pool_layer_norm():
    x = t(rng.normal(size=(7, 4)))
    g = t(rng.uniform(0.5, 1.5, size=(4,)))
    bb = t(rng.normal(size=(4,)))

    def build():
        # mean pooling by 2 from tape ops; the ragged tail window is one frame
        pooled = concat([x[:6].reshape(3, 2, 4).mean(axis=1), x[6:]], axis=0)
        return (pooled * 3.0).sum() + layer_norm(x, g, bb).pow_const(2.0).sum()

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
    got = window_attention(Tensor(q), Tensor(k), Tensor(v), heads, [1.0], width, step).data
    assert np.max(np.abs(got - dense_multihead(q, k, v, heads, mask))) < 1e-12


@pytest.mark.parametrize("T, width, step", [(2 * TILE_ROWS + 6, 2, 1), (20, 3, 3), (17, 2, 2)])
def test_grad_band_attention(T, width, step):
    q, k, v = (t(rng.normal(size=(T, 4))) for _ in range(3))
    w = rng.normal(size=(T, 4))
    _fd(lambda: (window_attention(q, k, v, 2, [1.0], width, step) * w).sum(), [q, k, v])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("T, width", [(100, 5), (300, 40)])
def test_dilated_window_is_one_window_per_residue_to_the_bit(T, width, dtype):
    # a step-s call attends each residue's rows r::s as its own sequence,
    # so it equals, byte for byte, s step-1 calls on those rows
    q, k, v, g = (rng.normal(size=(T, 8)).astype(dtype) for _ in range(4))
    for step, weights in ((3, [1.0]), (2, [0.5, 0.3, 0.2])):
        xs = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        y = window_attention(*xs, 2, weights, width, step)
        (y * Tensor(g)).sum().backward()
        for r in range(step):
            rs = [Tensor(a[r::step], requires_grad=True) for a in (q, k, v)]
            yr = window_attention(*rs, 2, weights, width, 1)
            (yr * Tensor(g[r::step])).sum().backward()
            for a, b in zip([y.data] + [x.grad for x in xs], [yr.data] + [x.grad for x in rs]):
                assert a.dtype == dtype
                assert np.ascontiguousarray(a[r::step]).tobytes() == b.tobytes()


def test_band_attention_rejects_bad_shapes():
    x = Tensor(rng.normal(size=(6, 4)))
    with pytest.raises(ShapeError):
        window_attention(x, Tensor(rng.normal(size=(5, 4))), x, 2, [1.0], 1, 1)
    with pytest.raises(ShapeError):
        window_attention(x, x, x, 3, [1.0], 1, 1)
    with pytest.raises(ShapeError):
        window_attention(x, x, x, 2, [1.0], 1, 0)


@pytest.mark.parametrize("weights", [[1.0], [0.5, 0.5]])
@pytest.mark.parametrize("step", [0, -1])
def test_window_attention_rejects_step_below_one(step, weights):
    x = Tensor(rng.normal(size=(6, 4)))
    with pytest.raises(ShapeError, match="step >= 1"):
        window_attention(x, x, x, 2, weights, 1, step)


# -- windowed attention: a ladder of scales (HTA) -------------------------


@pytest.mark.parametrize(
    "T, weights, window, heads, block",
    [
        (1, [0.3, 0.3, 0.4], 2, 2, 256),       # a single frame
        (5, [0.25] * 4, 3, 2, 256),            # T below the coarsest window
        (29, [0.5, 0.3, 0.2], 2, 2, 4),        # ragged tails, 8 row blocks
        (33, [0.5, 0.5], 0, 2, 4),             # window 0
        (64, [0.4, 0.4, 0.2], 3, 4, 16),       # several blocks, 4 heads
    ],
)
def test_hta_attention_matches_dense_oracle(monkeypatch, T, weights, window, heads, block):
    # scale s is the s-th weight: the ladder 0 .. len(weights) - 1
    monkeypatch.setattr(seqcore, "TILE_ROWS", block)
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    got = window_attention(t(q), t(k), t(v), heads, weights, window, 1).data
    want = hta_qkv_oracle(q, k, v, heads, range(len(weights)), weights, window)
    assert got.shape == (T, 8)
    assert np.max(np.abs(got - want)) < 1e-12


def test_dilated_ladder_matches_dense_oracle_per_residue(monkeypatch):
    # no caller dilates a ladder, but the op allows it: the rows r::2 of each
    # residue run the 3-scale attention as one sequence, with ragged tails
    monkeypatch.setattr(seqcore, "TILE_ROWS", 4)
    T, weights = 29, [0.5, 0.3, 0.2]
    q, k, v = (rng.normal(size=(T, 8)) for _ in range(3))
    got = window_attention(t(q), t(k), t(v), 2, weights, 2, 2).data
    for r in range(2):
        want = hta_qkv_oracle(q[r::2], k[r::2], v[r::2], 2, range(3), weights, 2)
        assert np.max(np.abs(got[r::2] - want)) < 1e-12


# a tile holds TILE_ROWS >> (scales - 1) coarsest rows: 3 of the 6 for 3
# scales and 2 of the 3 for 4 scales, so 21 frames take two
@pytest.mark.parametrize(
    "weights, block", [([0.5, 0.3, 0.2], 12), ([0.4, 0.3, 0.2, 0.1], 16)])
def test_grad_hta_attention_two_blocks(monkeypatch, weights, block):
    monkeypatch.setattr(seqcore, "TILE_ROWS", block)
    T = 21
    q, k, v = (t(rng.normal(size=(T, 4))) for _ in range(3))
    wgt = rng.normal(size=(T, 4))
    err = fd_check_tensor(
        lambda: (window_attention(q, k, v, 2, weights, 2, 1) * wgt).sum(), [q, k, v])
    assert err < 1e-6


def test_hta_attention_reruns_bit_identical(monkeypatch):
    monkeypatch.setattr(seqcore, "TILE_ROWS", 8)
    q, k, v = (t(rng.normal(size=(50, 8))) for _ in range(3))
    g = rng.normal(size=(50, 8))
    runs = []
    for _ in range(2):
        for x in (q, k, v):
            x.grad = None
        y = window_attention(q, k, v, 2, [0.5, 0.3, 0.2], 2, 1)
        (y * g).sum().backward()
        runs.append([y.data.copy()] + [x.grad.copy() for x in (q, k, v)])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))
    with no_grad():
        y = window_attention(q, k, v, 2, [0.5, 0.3, 0.2], 2, 1)
    assert np.array_equal(y.data, runs[0][0]) and not y._prev


def test_hta_attention_rejects_bad_arguments():
    q = t(rng.normal(size=(6, 4)))
    with pytest.raises(ShapeError):
        window_attention(q, q, t(rng.normal(size=(5, 4))), 2, [1.0], 1, 1)
    with pytest.raises(ShapeError):
        window_attention(q, q, q, 3, [1.0], 1, 1)
    with pytest.raises(ShapeError):
        window_attention(q, q, q, 2, [], 1, 1)
    with pytest.raises(ShapeError):
        window_attention(q, q, q, 2, [1.0], -1, 1)


# -- indexing -------------------------------------------------------------


@pytest.mark.parametrize("key", [
    np.s_[::2], np.s_[::-1], np.s_[5:0:-2], np.s_[:, ::3], np.s_[1, ::-2],
    np.s_[..., 1:], np.s_[None, 2:], np.s_[-1], np.s_[np.int64(2), 1:4],
    np.s_[:, -2], np.s_[4:1:-1, None, ::2],
])
def test_getitem_backward_equals_scatter_add(key):
    x = t(rng.normal(size=(6, 5)))
    y = x[key]
    g = rng.normal(size=y.shape)
    (y * Tensor(g)).sum().backward()
    expected = np.zeros_like(x.data)
    np.add.at(expected, key, g)
    assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("key", [
    np.array([0, 0, 2]), (np.array([1, 1]), np.array([3, 3])), np.s_[[1, 2], :],
    np.array([True, False] * 3), np.s_[1:, np.array([0, 0])],
])
def test_getitem_rejects_index_arrays_under_grad(key):
    # assignment would keep one gradient of a repeated index; so an index
    # array is refused on a tensor that needs a gradient, naming the key
    x = t(rng.normal(size=(6, 5)))
    with pytest.raises(ShapeError, match="not basic") as err:
        x[key]
    assert repr(key) in str(err.value)
    assert np.array_equal(Tensor(x.data)[key].data, x.data[key])
    with no_grad():
        assert np.array_equal(x[key].data, x.data[key])


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
        a = (h * h).relu()
        return (a + a.sigmoid()).sum() + linear(x, w, b).mean()  # `a` and the leaves are shared

    loss = build()
    nodes = _graph(loss)
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
    loss = (h * h).sum()
    loss.backward()
    grad = x.grad.copy()
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    # a new loss through a released node raises too, before any gradient moves
    with pytest.raises(RuntimeError, match="released"):
        (h + x).sum().backward()
    assert np.array_equal(x.grad, grad)
    # a fresh graph from the same leaves runs and accumulates
    (x * 2.0).sum().backward()
    assert np.array_equal(x.grad, grad + 2.0)


def test_first_accumulation_copies_the_gradient():
    # `__add__` hands one array to both parents; neither may hold it
    x, y = t(np.ones(3)), t(np.ones(3))
    (x + y).sum().backward()
    assert x.grad is not y.grad
    x.grad += 1.0
    assert np.array_equal(y.grad, np.ones(3))
    z = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    z._accumulate(np.full(3, 0.5))
    assert z.grad.dtype == np.float32 and np.array_equal(z.grad, np.full(3, 0.5))


# -- the tape holds nodes, not values --------------------------------------


def test_values_no_backward_reads_are_freed_mid_forward():
    x = t(rng.normal(size=(3, 20)))
    kernel, bias = t(rng.normal(size=(3, 3, 3)) * 0.5), t(rng.normal(size=(3,)))
    gain, shift = t(rng.normal(size=(3,))), t(rng.normal(size=(3,)))

    def build(refs=None):
        conv = conv1d_dilated(x, kernel, bias, dilation=2)
        h = conv.relu()  # relu's backward reads its mask, not the conv output
        res = x + h  # a residual sum; layer_norm's backward reads xhat, not res
        loss = layer_norm(res.T, gain, shift).sigmoid().sum()
        if refs is not None:
            refs += [weakref.ref(a) for a in (conv, conv.data, res, res.data)]
        return loss

    refs = []
    loss = build(refs)
    assert [r() for r in refs] == [None] * 4
    loss.backward()
    _fd(build, [x, kernel, bias, gain, shift])


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


def test_backward_closures_hold_no_tensor_but_leaves():
    # each op with one operand that needs no gradient, so a closure that kept
    # either operand's Tensor instead of the array it reads would show
    x, w, b = t(rng.normal(size=(8, 4))), t(rng.normal(size=(4, 4))), t(rng.normal(size=(4,)))
    kernel = t(rng.normal(size=(4, 4, 3)) * 0.3)
    c = Tensor(rng.normal(size=(8, 4)))
    eye, zero = Tensor(np.eye(4)), Tensor(np.zeros(4))
    h = linear(x, w, b) * c + c / (x * x + 1.0) - linear(c, w, b) - linear(x, eye, zero)
    h = layer_norm(h, w[0], b).gelu()
    h = (window_attention(h, c, h, 2, [1.0], 2, 1)
         + window_attention(h, h, c, 2, [0.5, 0.5], 1, 1))
    h = conv1d_dilated(h.T, kernel, b, dilation=2).relu().T
    h = concat([h[1::2], h[::2], h[6:2:-1]], axis=1)
    p = softmax(h.reshape(4, 12)).astype(np.float32).astype(np.float64)
    loss = ((p + 1.0).log() + (p * p + 0.5).sqrt().sigmoid() + p.pow_const(1.5)).mean()
    leaves = {id(x), id(w), id(b), id(kernel)}
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
        "Tensor.__add__", "Tensor.__neg__", "Tensor.__mul__", "Tensor.__truediv__",
        "Tensor.log", "Tensor.sqrt", "Tensor.pow_const", "Tensor.sigmoid", "Tensor.relu",
        "Tensor.gelu", "Tensor.astype", "Tensor.sum", "Tensor.reshape", "Tensor.transpose",
        "Tensor.__getitem__", "concat", "softmax", "window_attention", "conv1d_dilated",
        "linear", "layer_norm",
    }, sorted(kinds)
    loss.backward()


# -- no_grad --------------------------------------------------------------


def test_no_grad_records_no_tape():
    x = t(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 2)))
    b = t(np.zeros(2))
    with no_grad():
        y = linear(x, w, b).sigmoid().sum()
    assert not y.requires_grad and y._prev == () and y._backward is None
    assert np.array_equal(y.data, linear(x, w, b).sigmoid().sum().data)
    z = linear(x, w, b).sum()
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


def _values_and_grads(build, tensors):
    for x in tensors:
        x.grad = None
    y = build()
    (y * Tensor(np.linspace(-1.0, 2.0, y.data.size).reshape(y.shape))).sum().backward()
    return [y.data] + [x.grad for x in tensors]


@pytest.mark.parametrize("fused, composite, shapes", [
    (linear, linear_composite, [(7, 5), (5, 3), (3,)]),
    (layer_norm, layer_norm_composite, [(7, 6), (6,), (6,)]),
])
def test_fused_op_matches_composite_and_finite_differences(fused, composite, shapes):
    x, a, b = (t(rng.normal(size=s) * 3.0 + 0.5) for s in shapes)
    got = _values_and_grads(lambda: fused(x, a, b), [x, a, b])
    want = _values_and_grads(lambda: composite(x, a, b), [x, a, b])
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) < 1e-12
    _fd(lambda: (fused(x, a, b) * fused(x, a, b)).sum() / 10.0, [x, a, b], tol=1e-6)


def test_fused_ops_are_one_tape_node():
    x, w, b = t(rng.normal(size=(4, 3))), t(rng.normal(size=(3, 2))), t(np.zeros(2))
    for y in (linear(x, w, b), layer_norm(x, t(np.ones(3)), t(np.zeros(3)))):
        assert all(p._prev == () for p in y._prev)


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
    for y in (x + 1.0, 1.0 - x, x * 2, x / 3.0, x - 1):
        assert y.data.dtype == np.float32


def test_astype_casts_and_casts_the_gradient_back():
    x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
    assert x.astype(np.float32) is x
    y = x.astype(np.float64)
    assert y.data.dtype == np.float64 and np.array_equal(y.data, x.data)
    (y * y).sum().backward()
    assert x.grad.dtype == np.float32
    assert np.allclose(x.grad, 2.0 * x.data)


def test_attention_ops_reject_mixed_dtypes():
    q = rng.normal(size=(6, 4))
    k = q.astype(np.float32)
    with pytest.raises(ShapeError):
        window_attention(t(q), Tensor(k), t(q), 2, [1.0], 2, 1)
    with pytest.raises(ShapeError):
        window_attention(t(q), Tensor(k), t(q), 2, [1.0], 1, 1)
