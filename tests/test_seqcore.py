import numpy as np
import pytest

from tempseg.attention import WindowSpec, build_sparse_mask
from tempseg.seqcore import (
    BAND_BLOCK,
    Adam,
    MaskError,
    ShapeError,
    Tensor,
    band_attention,
    concat,
    conv1d_dilated,
    layer_norm,
    masked_softmax,
    mean_pool1d,
    no_grad,
)

from oracles import band_mask_oracle, dense_multihead, fd_check_tensor

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


def test_strided_conv_length():
    x = t(rng.normal(size=(3, 11)))
    w = t(rng.normal(size=(4, 3, 3)))
    b = t(np.zeros(4))
    y = conv1d_dilated(x, w, b, dilation=1, mode="acausal", stride=4)
    assert y.shape == (4, 3)  # ceil(11 / 4)


def test_masked_softmax_values():
    s = t([[0.0, np.log(3.0), 5.0]])
    mask = np.array([[True, True, False]])
    y = masked_softmax(s, mask)
    assert np.allclose(y.data, [[0.25, 0.75, 0.0]])
    assert y.data[0, 2] == 0.0  # exactly zero, not just small


def test_masked_softmax_empty_row_raises():
    s = t(np.zeros((2, 3)))
    mask = np.ones((2, 3), dtype=bool)
    mask[1] = False
    with pytest.raises(MaskError):
        masked_softmax(s, mask)


def test_layer_norm_example():
    x = t([[1.0, 3.0]])
    y = layer_norm(x, t(np.ones(2)), t(np.zeros(2)), eps=1e-12)
    assert np.allclose(y.data, [[-1.0, 1.0]])


def test_mean_pool_ragged_tail():
    x = t([[1.0, 3.0, 5.0, 7.0, 9.0]]).T
    y = mean_pool1d(x, 2)
    # tail window has a single frame and averages over 1, not 2
    assert np.allclose(y.data[:, 0], [2.0, 6.0, 9.0])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        _ = t(np.zeros((2, 3))) @ t(np.zeros((4, 2)))


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
        y = ((x @ w).gelu().sum())
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
    _fd(lambda: ((x * y + x / (y * y + 2.0) - y).tanh().sum()), [x, y])


def test_grad_exp_log_sqrt_pow():
    x = t(rng.uniform(0.5, 2.0, size=(5,)))
    _fd(lambda: (x.exp().log() * x.sqrt() + x.pow_const(3.0)).sum(), [x])


def test_grad_sigmoid_relu_gelu():
    x = t(rng.normal(size=(6,)))
    _fd(lambda: (x.sigmoid() + (x + 0.3).relu() * x.gelu()).sum(), [x], tol=1e-5)


def test_grad_matmul_broadcast_bias():
    x = t(rng.normal(size=(4, 3)))
    w = t(rng.normal(size=(3, 2)))
    b = t(rng.normal(size=(2,)))
    _fd(lambda: ((x @ w + b) * (x @ w + b)).mean(), [x, w, b])


def test_grad_reductions_and_reshape():
    x = t(rng.normal(size=(2, 3, 4)))
    _fd(
        lambda: (x.sum(axis=2).mean(axis=0, keepdims=True).reshape(3) * np.arange(3.0)).sum(),
        [x],
    )


def test_grad_indexing_and_take_rows():
    x = t(rng.normal(size=(6, 3)))
    idx = np.array([[0, 2], [2, 5]])
    _fd(lambda: (x[1:4] * 2.0).sum() + x.take_rows(idx).sum(), [x])


def test_grad_concat_transpose():
    a = t(rng.normal(size=(2, 3)))
    b = t(rng.normal(size=(2, 2)))
    _fd(lambda: (concat([a, b], axis=1).transpose((1, 0)) * 1.5).sum(), [a, b])


def test_grad_masked_softmax():
    s = t(rng.normal(size=(4, 6)))
    mask = rng.random((4, 6)) < 0.7
    mask[:, 0] = True
    w = rng.normal(size=(4, 6))
    _fd(lambda: (masked_softmax(s, mask) * w).sum(), [s])


def test_grad_conv_modes():
    for mode in ("causal", "acausal"):
        for dil, stride in ((1, 1), (2, 1), (1, 3)):
            x = t(rng.normal(size=(2, 9)))
            w = t(rng.normal(size=(3, 2, 3)))
            b = t(rng.normal(size=(3,)))
            _fd(
                lambda x=x, w=w, b=b, d=dil, m=mode, s=stride: conv1d_dilated(
                    x, w, b, dilation=d, mode=m, stride=s
                ).sum(),
                [x, w, b],
            )


def test_grad_mean_pool_layer_norm():
    x = t(rng.normal(size=(7, 4)))
    g = t(rng.uniform(0.5, 1.5, size=(4,)))
    bb = t(rng.normal(size=(4,)))
    _fd(lambda: (mean_pool1d(x, 2) * 3.0).sum() + layer_norm(x, g, bb).pow_const(2.0).sum(),
        [x, g, bb], tol=1e-5)


# -- band attention -------------------------------------------------------


@pytest.mark.parametrize(
    "T, width, step, causal, heads",
    [
        (1, 3, 1, False, 2),      # a single frame
        (5, 8, 1, False, 2),      # T < width
        (3, 2, 5, False, 4),      # T < step: residues 3 and 4 are empty
        (23, 2, 3, False, 2),     # T not a multiple of step
        (40, 4, 2, True, 2),      # causal
        (150, 5, 1, False, 4),    # several query blocks
        (300, 40, 2, True, 4),    # several blocks, dilated and causal
        (2 * BAND_BLOCK + 9, BAND_BLOCK + 3, 1, False, 2),  # width beyond a block
    ],
)
def test_band_attention_matches_dense_oracle(T, width, step, causal, heads):
    q, k, v = (rng.normal(size=(T, 4 * heads)) for _ in range(3))
    mask = band_mask_oracle(T, width, step, causal)
    spec = WindowSpec(width, step - 1, causal)
    assert np.array_equal(mask, build_sparse_mask(T, spec).dense())
    got = band_attention(Tensor(q), Tensor(k), Tensor(v), heads, width, step, causal).data
    assert np.max(np.abs(got - dense_multihead(q, k, v, heads, mask))) < 1e-12


@pytest.mark.parametrize(
    "T, width, step, causal",
    [(BAND_BLOCK + 6, 2, 1, False), (20, 3, 3, False), (17, 2, 2, True)],
)
def test_grad_band_attention(T, width, step, causal):
    q, k, v = (t(rng.normal(size=(T, 4))) for _ in range(3))
    w = rng.normal(size=(T, 4))
    _fd(lambda: (band_attention(q, k, v, 2, width, step, causal) * w).sum(), [q, k, v])


def test_band_attention_rejects_bad_shapes():
    x = Tensor(rng.normal(size=(6, 4)))
    with pytest.raises(ShapeError):
        band_attention(x, Tensor(rng.normal(size=(5, 4))), x, 2, 1, 1)
    with pytest.raises(ShapeError):
        band_attention(x, x, x, 3, 1, 1)
    with pytest.raises(ShapeError):
        band_attention(x, x, x, 2, 1, 0)


# -- no_grad --------------------------------------------------------------


def test_no_grad_records_no_tape():
    x = t(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 2)))
    with no_grad():
        y = (x @ w).tanh().sum()
    assert not y.requires_grad and y._prev == () and y._backward is None
    assert np.array_equal(y.data, (x @ w).tanh().sum().data)
    z = (x @ w).sum()
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
