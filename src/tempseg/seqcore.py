"""Tape-based reverse-mode autodiff over a small set of sequence primitives.

Everything is float64. A Tensor wraps a numpy array plus an optional
gradient accumulator; each op that touches a differentiable input records
a backward closure, and ``Tensor.backward()`` replays the tape in reverse
topological order. The primitive set is deliberately closed: matmul,
dilated 1-D convolution, masked softmax, banded multi-head attention,
elementwise arithmetic, activations, reductions, gather/reshape/concat
plumbing and mean pooling. Inside a ``no_grad()`` block no op records a
backward closure, so evaluation passes keep no tape alive.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "MaskError",
    "as_tensor",
    "band_attention",
    "concat",
    "conv1d_dilated",
    "layer_norm",
    "masked_softmax",
    "mean_pool1d",
    "no_grad",
    "Adam",
]

# queries per block in band_attention; each block meets one key slab
BAND_BLOCK = 64

_grad_mode = threading.local()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class MaskError(ValueError):
    """Raised for degenerate attention masks (e.g. a fully masked row)."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array with optional reverse-mode gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._prev: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        # Iterative topological sort; graphs can be deep.
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- elementwise arithmetic -------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g, other.data.shape))
            out._backward = back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _make(-self.data, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(g * self.data, other.data.shape))
            out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = _make(self.data / other.data, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    self._accumulate(_unbroadcast(g / other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(
                        _unbroadcast(-g * self.data / other.data ** 2, other.data.shape)
                    )
            out._backward = back
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    # ---- matmul -----------------------------------------------------

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        out = _make(a @ b, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    self._accumulate(g @ b.T)
                if other.requires_grad:
                    other._accumulate(a.T @ g)
            out._backward = back
        return out

    # ---- unary ------------------------------------------------------

    def exp(self):
        y = np.exp(self.data)
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * y)
        return out

    def log(self):
        out = _make(np.log(self.data), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g / self.data)
        return out

    def sqrt(self):
        y = np.sqrt(self.data)
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * 0.5 / y)
        return out

    def pow_const(self, p: float):
        out = _make(self.data ** p, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * p * self.data ** (p - 1))
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * (1.0 - y * y))
        return out

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * y * (1.0 - y))
        return out

    def relu(self):
        out = _make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = self.data > 0.0
            out._backward = lambda g: self._accumulate(g * mask)
        return out

    def gelu(self):
        # tanh approximation of the Gaussian error linear unit
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        u = c * (x + 0.044715 * x ** 3)
        t = np.tanh(u)
        out = _make(0.5 * x * (1.0 + t), (self,))
        if out.requires_grad:
            du = c * (1.0 + 3 * 0.044715 * x ** 2)
            dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
            out._backward = lambda g: self._accumulate(g * dy)
        return out

    # ---- reductions -------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def back(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
            out._backward = back
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    # ---- structural -------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    def transpose(self, axes=None):
        out = _make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inv = None if axes is None else np.argsort(axes)
            out._backward = lambda g: self._accumulate(g.transpose(inv))
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        out = _make(self.data[key], (self,))
        if out.requires_grad:
            def back(g):
                dx = np.zeros_like(self.data)
                np.add.at(dx, key, g)
                self._accumulate(dx)
            out._backward = back
        return out

    def take_rows(self, idx: np.ndarray):
        """Gather along axis 0 with an integer index array of any shape."""
        idx = np.asarray(idx, dtype=np.intp)
        out = _make(self.data[idx], (self,))
        if out.requires_grad:
            def back(g):
                dx = np.zeros_like(self.data)
                np.add.at(dx, idx, g)
                self._accumulate(dx)
            out._backward = back
        return out


@contextlib.contextmanager
def no_grad():
    """Within this block ops record no parents and no backward closure;
    their outputs are plain values. Per thread, and nests."""
    prev = getattr(_grad_mode, "off", False)
    _grad_mode.off = True
    try:
        yield
    finally:
        _grad_mode.off = prev


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor(data)
    if getattr(_grad_mode, "off", False):
        return out
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(p for p in parents if p.requires_grad)
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def back(g):
            for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
                if t.requires_grad:
                    t._accumulate(piece)
        out._backward = back
    return out


def masked_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax along the last axis restricted to mask-true entries.

    Masked entries come out exactly 0; each row of unmasked entries sums
    to 1, stabilised by subtracting the row max over unmasked entries.
    A fully masked row is an error, never a silent uniform.
    """
    scores = as_tensor(scores)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.data.shape)
    if not mask.any(axis=-1).all():
        bad = np.argwhere(~mask.any(axis=-1))[0]
        raise MaskError(f"fully masked softmax row at index {tuple(bad)}")
    neg = np.where(mask, scores.data, -np.inf)
    shifted = neg - neg.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    e = np.where(mask, e, 0.0)
    alpha = e / e.sum(axis=-1, keepdims=True)
    out = _make(alpha, (scores,))
    if out.requires_grad:
        def back(g):
            inner = (g * alpha).sum(axis=-1, keepdims=True)
            scores._accumulate(alpha * (g - inner))
        out._backward = back
    return out


def _residue(a: np.ndarray, r: int, step: int, heads: int) -> np.ndarray:
    """Rows r, r+step, ... of a [T, A] array as a contiguous [heads, n, A/heads]."""
    return np.ascontiguousarray(a.reshape(a.shape[0], heads, -1)[r::step].transpose(1, 0, 2))


def _band_blocks(n: int, width: int, causal: bool):
    """Query blocks [p0, p1) of an undilated band over n positions, each with
    its key slab [s0, s1) and the mask of the slab entries outside the band
    (None when there are none)."""
    hi = 0 if causal else width
    # entry (i, j) of an unclipped block: query p0 + i against key p0 - width + j
    rel = np.arange(BAND_BLOCK + width + hi)[None, :] - width - np.arange(BAND_BLOCK)[:, None]
    outside = (rel < -width) | (rel > hi)
    for p0 in range(0, n, BAND_BLOCK):
        p1 = min(p0 + BAND_BLOCK, n)
        s0, s1 = max(p0 - width, 0), min(p1 + hi, n)
        c0 = s0 - p0 + width
        edges = s0 < p1 - 1 - width or s1 - 1 > p0 + hi
        yield p0, p1, s0, s1, outside[: p1 - p0, c0 : c0 + s1 - s0] if edges else None


def _band_exp(qb: np.ndarray, ks: np.ndarray, outside) -> tuple[np.ndarray, np.ndarray]:
    """exp(qb @ ks^T - row max) over the slab with out-of-band entries exactly
    0, and its row sums: the softmax numerator and denominator, stabilised by
    the in-band row max as in masked_softmax."""
    e = qb @ ks.transpose(0, 2, 1)
    if outside is not None:
        np.copyto(e, -np.inf, where=outside)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e, e.sum(axis=-1, keepdims=True)


def band_attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, width: int, step: int, causal: bool = False
) -> Tensor:
    """Multi-head attention over a dilated band; q, k and v are [T, A].

    Position t attends t + j*step for j in [-width, width] ([-width, 0] when
    causal), clipped to the sequence, with scores scaled by 1/sqrt(A/heads).
    A band of step s is s undilated bands over the residue rows r::s. Each
    runs as blocks of BAND_BLOCK queries against one contiguous key slab, so
    the work is batched matmuls over [heads, block, slab]. The backward
    recomputes each block's probabilities instead of storing them.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 2 or k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ShapeError(
            f"band attention needs equal [T, A] q/k/v, got {q.data.shape}, "
            f"{k.data.shape}, {v.data.shape}"
        )
    T, A = q.data.shape
    if heads < 1 or A % heads != 0:
        raise ShapeError(f"head count {heads} must divide attention dim {A}")
    if width < 1 or step < 1:
        raise ShapeError(f"band width and step must be >= 1, got {width}, {step}")
    hd = A // heads
    scale = 1.0 / math.sqrt(hd)
    qs = q.data * scale
    y = np.empty((T, heads, hd))
    for r in range(min(step, T)):
        qr, kr, vr = (_residue(a, r, step, heads) for a in (qs, k.data, v.data))
        o = np.empty_like(qr)
        for p0, p1, s0, s1, outside in _band_blocks(qr.shape[1], width, causal):
            e, rowsum = _band_exp(qr[:, p0:p1], kr[:, s0:s1], outside)
            o[:, p0:p1] = (e @ vr[:, s0:s1]) / rowsum
        y[r::step] = o.transpose(1, 0, 2)
    y = y.reshape(T, A)

    out = _make(y, (q, k, v))
    if out.requires_grad:
        def back(g):
            # per block: dV += P^T dO, dS = P * (dO V^T - rowsum(dO * O)),
            # dQ = dS K * scale, dK += dS^T Q * scale
            qs = q.data * scale
            rowdot = (g * y).reshape(T, heads, hd).sum(axis=2)
            dq, dk, dv = (np.empty((T, heads, hd)) for _ in range(3))
            for r in range(min(step, T)):
                qr, kr, vr, gr = (_residue(a, r, step, heads) for a in (qs, k.data, v.data, g))
                dr = rowdot[r::step].T[:, :, None]
                dqr = np.empty_like(qr)
                dkr, dvr = np.zeros_like(kr), np.zeros_like(vr)
                for p0, p1, s0, s1, outside in _band_blocks(qr.shape[1], width, causal):
                    p, rowsum = _band_exp(qr[:, p0:p1], kr[:, s0:s1], outside)
                    p /= rowsum
                    gb = gr[:, p0:p1]
                    dvr[:, s0:s1] += p.transpose(0, 2, 1) @ gb
                    ds = gb @ vr[:, s0:s1].transpose(0, 2, 1)
                    ds -= dr[:, p0:p1]
                    ds *= p
                    dqr[:, p0:p1] = ds @ kr[:, s0:s1]
                    dkr[:, s0:s1] += ds.transpose(0, 2, 1) @ qr[:, p0:p1]
                dq[r::step] = dqr.transpose(1, 0, 2)
                dk[r::step] = dkr.transpose(1, 0, 2)
                dv[r::step] = dvr.transpose(1, 0, 2)
            for t, d in ((q, dq * scale), (k, dk), (v, dv)):
                if t.requires_grad:
                    t._accumulate(d.reshape(T, A))
        out._backward = back
    return out


def conv1d_dilated(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    mode: str = "acausal",
    stride: int = 1,
) -> Tensor:
    """Dilated 1-D convolution over [C_in, T] with zero padding.

    acausal: output at t reads taps t + j*dilation, j in [-(k-1)/2, (k-1)/2]
    causal:  output at t reads taps t - j*dilation, j in [0, k-1]
    With stride s, output position i corresponds to t = i*s and
    T' = ceil(T / s).
    """
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    if x.data.ndim != 2 or x.data.shape[1] < 1:
        raise ShapeError(f"conv1d expects non-empty [C_in, T] input, got {x.data.shape}")
    if dilation < 1 or stride < 1:
        raise ShapeError(f"dilation and stride must be >= 1, got {dilation}, {stride}")
    c_out, c_in, k = kernel.data.shape
    if c_in != x.data.shape[0]:
        raise ShapeError(
            f"conv1d channel mismatch: input {x.data.shape} vs kernel {kernel.data.shape}"
        )
    if mode == "acausal":
        if k % 2 == 0:
            raise ShapeError(f"acausal mode requires odd kernel size, got {k}")
        deltas = [(j - (k - 1) // 2) * dilation for j in range(k)]
    elif mode == "causal":
        deltas = [-j * dilation for j in range(k)]
    else:
        raise ValueError(f"unknown conv mode {mode!r}")

    t_in = x.data.shape[1]
    t_out = -(-t_in // stride)
    pos = np.arange(t_out) * stride
    y = np.zeros((c_out, t_out))
    taps = []
    for j, d in enumerate(deltas):
        src = pos + d
        m = (src >= 0) & (src < t_in)
        taps.append((j, src[m], m))
        if m.any():
            y[:, m] += kernel.data[:, :, j] @ x.data[:, src[m]]
    if bias is not None:
        bias = as_tensor(bias)
        y += bias.data[:, None]

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    out = _make(y, parents)
    if out.requires_grad:
        def back(g):
            for j, src, m in taps:
                if not m.any():
                    continue
                gm = g[:, m]
                if kernel.requires_grad:
                    if kernel.grad is None:
                        kernel.grad = np.zeros_like(kernel.data)
                    kernel.grad[:, :, j] += gm @ x.data[:, src].T
                if x.requires_grad:
                    if x.grad is None:
                        x.grad = np.zeros_like(x.data)
                    # the taps of one offset read distinct frames, so a
                    # fancy-index add sums exactly like a scatter-add
                    x.grad[:, src] += kernel.data[:, :, j].T @ gm
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=1))
        out._backward = back
    return out


def mean_pool1d(x: Tensor, factor: int) -> Tensor:
    """Non-overlapping mean pooling along axis 0; a ragged tail window is
    averaged over the frames it actually covers."""
    x = as_tensor(x)
    t = x.data.shape[0]
    if factor < 1:
        raise ShapeError(f"pool factor must be >= 1, got {factor}")
    if factor == 1:
        return x
    n = -(-t // factor)
    counts = np.minimum(factor, t - np.arange(n) * factor).astype(np.float64)
    idx = np.arange(t) // factor
    y = np.zeros((n,) + x.data.shape[1:])
    np.add.at(y, idx, x.data)
    y /= counts.reshape((n,) + (1,) * (x.data.ndim - 1))
    out = _make(y, (x,))
    if out.requires_grad:
        def back(g):
            gn = g / counts.reshape((n,) + (1,) * (g.ndim - 1))
            x._accumulate(gn[idx])
        out._backward = back
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row normalisation over the last axis, then affine gain/bias."""
    x = as_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    xhat = xc / (var + eps).sqrt()
    return xhat * as_tensor(gain) + as_tensor(bias)


class Adam:
    """Adam with bias correction over a list of parameter Tensors."""

    def __init__(self, params, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match parameter {p.data.shape}"
                )
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def state_arrays(self):
        """Flat view of optimizer state for checkpointing."""
        return {"step": self.step_count, "m": self.m, "v": self.v}

    def load_state(self, step, m, v):
        self.step_count = int(step)
        for mi, vi, msrc, vsrc in zip(self.m, self.v, m, v):
            mi[...] = msrc
            vi[...] = vsrc
