"""Tape-based reverse-mode autodiff over a small set of sequence primitives.

A Tensor wraps a float32 or float64 numpy array (any other dtype becomes
float64) plus an optional gradient accumulator. Each op that touches a
differentiable input gives its result a graph node: its backward closure,
its parents' nodes, its gradient and its dtype, but not its value. A leaf
(a tensor made with ``requires_grad=True``) is its own node. Each closure
keeps only the arrays its formula reads: the operands of ``*``, ``/``,
``@``, ``log`` and ``pow_const``, the inputs of ``linear``,
``conv1d_dilated`` and both attention ops, its own output where the
formula is written in it, and masks and shapes. So the tape holds nodes,
closures and gradients, and an interior value that no backward reads is
freed as soon as the caller drops its Tensor. ``Tensor.backward()``
replays the tape in reverse topological order and releases it as it goes:
each interior node drops its gradient, closure and parent links once its
closure has run, so only leaf gradients (parameters, inputs made with
``requires_grad=True``) survive, a second backward through the same graph
raises, and a training loop holds one tape at a time. Every op computes and
allocates in its input's dtype: a Python scalar operand takes the tensor's
dtype, and the weight operands of ``linear``, ``layer_norm`` and
``conv1d_dilated`` are cast to the input's dtype when used, so float64
parameters run a float32 pass without a float32 copy being kept. Training
and inference run their passes in float32 this way; a leaf's gradient
accumulates in the leaf's own dtype, so float64 parameters get float64
gradients and Adam keeps float64 master weights and state. The oracles
run in float64. The primitive set is deliberately
closed: matmul, the fused affine map ``linear``, dilated 1-D convolution,
masked softmax, layer normalisation, banded multi-head attention,
elementwise arithmetic, activations, reductions, a dtype cast,
gather/reshape/concat plumbing, mean pooling and hierarchical multi-scale
attention (``hta_attention``). Both attention ops run as dense blocks of
query rows against one key slab each and recompute them in the backward.
Inside a ``no_grad()`` block no op records a backward closure, so
evaluation passes keep no tape alive.
"""

from __future__ import annotations

import contextlib
import math
import threading
import weakref

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "MaskError",
    "as_tensor",
    "band_attention",
    "concat",
    "conv1d_dilated",
    "hta_attention",
    "layer_norm",
    "linear",
    "masked_softmax",
    "mean_pool1d",
    "no_grad",
    "Adam",
]

# queries per block in band_attention; each block meets one key slab
BAND_BLOCK = 64
# finest-scale query rows per tile in hta_attention, rounded down to whole
# coarsest-scale blocks (at least one)
HTA_BLOCK = 32

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


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))
# what an interior node's `data` reads once nothing references its value
_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


class _Node:
    """The tape entry of one op result: its backward closure, its parents'
    nodes, its gradient and its dtype. It holds its value only weakly, so
    the value lives exactly as long as the result's Tensor or a closure that
    reads it."""

    __slots__ = ("_prev", "_backward", "grad", "dtype", "_value")

    def __init__(self, prev: tuple, value: np.ndarray):
        self._prev = prev
        self._backward = None
        self.grad = None
        self.dtype = value.dtype
        self._value = weakref.ref(value)

    @property
    def data(self) -> np.ndarray:
        """The value while something still references it, else an empty array."""
        value = self._value()
        return _EMPTY if value is None else value

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a copy, never `g` itself: `__add__` hands one `g` to both parents
            self.grad = np.array(g, dtype=self.dtype)
        else:
            self.grad += g


class Tensor:
    """A float32 or float64 array with optional reverse-mode gradient
    tracking; data of any other dtype becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._node = None  # the graph node of an op result; None for a leaf

    @property
    def _prev(self):
        """Parents' nodes of the op that made this tensor: () for a leaf or
        an untracked tensor, None once backward has released the node."""
        return () if self._node is None else self._node._prev

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    _accumulate = _Node._accumulate

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every leaf this
        scalar was computed from, releasing the graph as the walk goes.

        Leaves (parameters and inputs made with ``requires_grad=True``) keep
        their ``.grad``. Each interior node, this one included, drops its
        gradient, backward closure and parent links once its closure has
        run, and the walk drops its own reference at the same time, so a
        node nothing else holds is freed at once. Backward through a graph
        that an earlier backward released raises RuntimeError before any
        gradient moves: build the loss again instead.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        root = self if self._node is None else self._node
        # Iterative topological sort; graphs can be deep.
        topo, visited, stack = [], set(), [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._prev is None:
                raise RuntimeError(
                    "backward() through a graph that an earlier backward() released"
                )
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        del node  # from here on `topo` alone holds each node
        root.grad = np.ones_like(self.data)
        del root
        while topo:
            node = topo.pop()
            if not node._prev:
                continue  # a leaf keeps its gradient
            back, g = node._backward, node.grad
            node._backward = node.grad = node._prev = None
            del node
            if back is not None and g is not None:
                back(g)
            del back, g

    # ---- elementwise arithmetic -------------------------------------

    def __add__(self, other):
        other = as_tensor(other, self.data.dtype)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:
            na, nb = _grad_node(self), _grad_node(other)
            sa, sb = self.data.shape, other.data.shape

            def back(g):
                if na is not None:
                    na._accumulate(_unbroadcast(g, sa))
                if nb is not None:
                    nb._accumulate(_unbroadcast(g, sb))
            out._node._backward = back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _make(-self.data, (self,))
        if out.requires_grad:
            n = _grad_node(self)
            out._node._backward = lambda g: n._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other, self.data.dtype))

    def __rsub__(self, other):
        return as_tensor(other, self.data.dtype) + (-self)

    def __mul__(self, other):
        other = as_tensor(other, self.data.dtype)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:
            na, nb = _grad_node(self), _grad_node(other)
            # each operand's gradient reads the other operand only
            a = self.data if nb is not None else None
            b = other.data if na is not None else None
            sa, sb = self.data.shape, other.data.shape

            def back(g):
                if na is not None:
                    na._accumulate(_unbroadcast(g * b, sa))
                if nb is not None:
                    nb._accumulate(_unbroadcast(g * a, sb))
            out._node._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other, self.data.dtype)
        out = _make(self.data / other.data, (self, other))
        if out.requires_grad:
            na, nb = _grad_node(self), _grad_node(other)
            a = self.data if nb is not None else None
            b = other.data
            sa, sb = self.data.shape, other.data.shape

            def back(g):
                if na is not None:
                    na._accumulate(_unbroadcast(g / b, sa))
                if nb is not None:
                    nb._accumulate(_unbroadcast(-g * a / b ** 2, sb))
            out._node._backward = back
        return out

    def __rtruediv__(self, other):
        return as_tensor(other, self.data.dtype) / self

    # ---- matmul -----------------------------------------------------

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        out = _make(a @ b, (self, other))
        if out.requires_grad:
            na, nb = _grad_node(self), _grad_node(other)
            if na is None:
                b = None
            if nb is None:
                a = None

            def back(g):
                if na is not None:
                    na._accumulate(g @ b.T)
                if nb is not None:
                    nb._accumulate(a.T @ g)
            out._node._backward = back
        return out

    # ---- unary ------------------------------------------------------

    def log(self):
        x = self.data
        out = _make(np.log(x), (self,))
        if out.requires_grad:
            n = _grad_node(self)
            out._node._backward = lambda g: n._accumulate(g / x)
        return out

    def sqrt(self):
        y = np.sqrt(self.data)
        out = _make(y, (self,))
        if out.requires_grad:
            n = _grad_node(self)
            out._node._backward = lambda g: n._accumulate(g * 0.5 / y)
        return out

    def pow_const(self, p: float):
        x = self.data
        out = _make(x ** p, (self,))
        if out.requires_grad:
            n = _grad_node(self)

            def back(g):
                # x ** (p - 1) is inf at x = 0 for p < 1; a caller that
                # clamps x there (focal_loss's relu) masks it with np.where
                with np.errstate(divide="ignore"):
                    n._accumulate(g * p * x ** (p - 1))
            out._node._backward = back
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = _make(y, (self,))
        if out.requires_grad:
            n = _grad_node(self)
            out._node._backward = lambda g: n._accumulate(g * (1.0 - y * y))
        return out

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = _make(y, (self,))
        if out.requires_grad:
            n = _grad_node(self)
            out._node._backward = lambda g: n._accumulate(g * y * (1.0 - y))
        return out

    def relu(self):
        out = _make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            n = _grad_node(self)
            mask = self.data > 0.0
            # where, not g * mask: an infinite g at a clamped entry (as from
            # pow_const(p < 1) at 0) must give 0, not inf * 0 = NaN
            out._node._backward = lambda g: n._accumulate(np.where(mask, g, 0.0))
        return out

    def gelu(self):
        # tanh approximation of the Gaussian error linear unit
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        x2 = x * x
        u = c * (x + 0.044715 * (x2 * x))
        t = np.tanh(u)
        out = _make(0.5 * x * (1.0 + t), (self,))
        if out.requires_grad:
            n = _grad_node(self)
            du = c * (1.0 + 3 * 0.044715 * x2)
            dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
            out._node._backward = lambda g: n._accumulate(g * dy)
        return out

    def astype(self, dtype):
        """This tensor in `dtype` (itself when it already is); the gradient
        flows back in this tensor's dtype."""
        if self.data.dtype == dtype:
            return self
        out = _make(self.data.astype(dtype), (self,))
        if out.requires_grad:
            n, own = _grad_node(self), self.data.dtype
            out._node._backward = lambda g: n._accumulate(g.astype(own))
        return out

    # ---- reductions -------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            n, shape = _grad_node(self), self.data.shape

            def back(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                n._accumulate(np.broadcast_to(g, shape).copy())
            out._node._backward = back
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
            n, own = _grad_node(self), self.data.shape
            out._node._backward = lambda g: n._accumulate(g.reshape(own))
        return out

    def transpose(self, axes=None):
        out = _make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            n = _grad_node(self)
            inv = None if axes is None else np.argsort(axes)
            out._node._backward = lambda g: n._accumulate(g.transpose(inv))
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        out = _make(self.data[key], (self,))
        if out.requires_grad:
            n, zeros = _grad_node(self), _zeros_like(self.data)
            # a basic key selects each element at most once, so assignment
            # places the gradient; an index array may repeat, so it scatters
            scatter = not _is_basic_key(key)

            def back(g):
                dx = zeros()
                if scatter:
                    np.add.at(dx, key, g)
                else:
                    dx[key] = g
                n._accumulate(dx)
            out._node._backward = back
        return out

    def take_rows(self, idx: np.ndarray):
        """Gather along axis 0 with an integer index array of any shape."""
        idx = np.asarray(idx, dtype=np.intp)
        out = _make(self.data[idx], (self,))
        if out.requires_grad:
            n, zeros = _grad_node(self), _zeros_like(self.data)

            def back(g):
                dx = zeros()
                np.add.at(dx, idx, g)
                n._accumulate(dx)
            out._node._backward = back
        return out


def _zeros_like(a: np.ndarray):
    """A maker of zero arrays with a's shape, dtype and C or Fortran order,
    that does not hold `a`."""
    shape, dtype = a.shape, a.dtype
    order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
    return lambda: np.zeros(shape, dtype, order)


def _is_basic_key(key) -> bool:
    """True for an index built only of ints, slices, Ellipsis and None."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, slice)
        or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


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


def _grad_node(t: Tensor):
    """The node that gradients of `t` flow into: the node of the op that
    made it, `t` itself for a leaf, or None when `t` needs no gradient."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    """`data` as the result of an op on `parents`; it gets a graph node when
    a parent needs a gradient, and the op then sets the node's closure."""
    out = Tensor(data)
    if getattr(_grad_mode, "off", False):
        return out
    prev = tuple(n for n in map(_grad_node, parents) if n is not None)
    if prev:
        out.requires_grad = True
        out._node = _Node(prev, out.data)
    return out


def as_tensor(x, dtype=None) -> Tensor:
    """`x` as a Tensor; a Python scalar takes `dtype` when one is given, as
    numpy lets a scalar take the dtype of the array it meets."""
    if isinstance(x, Tensor):
        return x
    if dtype is not None and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype))
    return Tensor(x)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        nodes = [_grad_node(t) for t in tensors]
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

        def back(g):
            for n, piece in zip(nodes, np.split(g, splits, axis=axis)):
                if n is not None:
                    n._accumulate(piece)
        out._node._backward = back
    return out


def masked_softmax(scores: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax along the last axis restricted to mask-true entries; no mask
    allows every entry.

    Masked entries come out exactly 0; each row of unmasked entries sums
    to 1, stabilised by subtracting the row max over unmasked entries.
    A fully masked row is an error, never a silent uniform.
    """
    scores = as_tensor(scores)
    if mask is None:
        e = np.exp(scores.data - scores.data.max(axis=-1, keepdims=True))
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.data.shape)
        if not mask.any(axis=-1).all():
            bad = np.argwhere(~mask.any(axis=-1))[0]
            raise MaskError(f"fully masked softmax row at index {tuple(bad)}")
        neg = np.where(mask, scores.data, -np.inf)
        e = np.exp(neg - neg.max(axis=-1, keepdims=True))
        e = np.where(mask, e, 0.0)
    alpha = e / e.sum(axis=-1, keepdims=True)
    out = _make(alpha, (scores,))
    if out.requires_grad:
        n = _grad_node(scores)

        def back(g):
            inner = (g * alpha).sum(axis=-1, keepdims=True)
            n._accumulate(alpha * (g - inner))
        out._node._backward = back
    return out


def _attention_operands(q, k, v, heads: int, kind: str) -> tuple:
    """q, k and v as Tensors of one [T, A] shape and one dtype, with `heads`
    dividing A."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 2 or k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ShapeError(
            f"{kind} attention needs equal [T, A] q/k/v, got {q.data.shape}, "
            f"{k.data.shape}, {v.data.shape}"
        )
    if not q.data.dtype == k.data.dtype == v.data.dtype:
        raise ShapeError(
            f"{kind} attention needs one dtype for q/k/v, got {q.data.dtype}, "
            f"{k.data.dtype}, {v.data.dtype}"
        )
    if heads < 1 or q.data.shape[1] % heads != 0:
        raise ShapeError(f"head count {heads} must divide attention dim {q.data.shape[1]}")
    return q, k, v


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


def _exp_rows(z: np.ndarray, dead) -> np.ndarray:
    """exp(z - row max) in place, where z is -inf at the `dead` entries (None
    when there are none) and nowhere else, so those come out exactly 0.

    numpy's float64 exp takes a slow path for arguments below about -708,
    so in float64 the dead entries are zeroed before the exp and after it;
    the result is the same to the bit. Float32 has no such path."""
    z -= z.max(axis=-1, keepdims=True)
    if dead is None or z.dtype != np.float64:
        return np.exp(z, out=z)
    np.copyto(z, 0.0, where=dead)
    np.exp(z, out=z)
    np.copyto(z, 0.0, where=dead)
    return z


def _band_exp(qb: np.ndarray, ks: np.ndarray, outside) -> tuple[np.ndarray, np.ndarray]:
    """exp(qb @ ks^T - row max) over the slab with out-of-band entries exactly
    0, and its row sums: the softmax numerator and denominator, stabilised by
    the in-band row max as in masked_softmax."""
    e = qb @ ks.transpose(0, 2, 1)
    if outside is not None:
        np.copyto(e, -np.inf, where=outside)
    _exp_rows(e, outside)
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
    q, k, v = _attention_operands(q, k, v, heads, "band")
    T, A = q.data.shape
    if width < 1 or step < 1:
        raise ShapeError(f"band width and step must be >= 1, got {width}, {step}")
    hd = A // heads
    scale = 1.0 / math.sqrt(hd)
    qd, kd, vd = q.data, k.data, v.data
    qs = qd * scale
    y = np.empty((T, heads, hd), qd.dtype)
    for r in range(min(step, T)):
        qr, kr, vr = (_residue(a, r, step, heads) for a in (qs, kd, vd))
        o = np.empty_like(qr)
        for p0, p1, s0, s1, outside in _band_blocks(qr.shape[1], width, causal):
            e, rowsum = _band_exp(qr[:, p0:p1], kr[:, s0:s1], outside)
            o[:, p0:p1] = (e @ vr[:, s0:s1]) / rowsum
        y[r::step] = o.transpose(1, 0, 2)
    y = y.reshape(T, A)

    out = _make(y, (q, k, v))
    if out.requires_grad:
        nodes = _grad_node(q), _grad_node(k), _grad_node(v)

        def back(g):
            # per block: dV += P^T dO, dS = P * (dO V^T - rowsum(dO * O)),
            # dQ = dS K * scale, dK += dS^T Q * scale
            qs = qd * scale
            rowdot = (g * y).reshape(T, heads, hd).sum(axis=2)
            dq, dk, dv = (np.empty((T, heads, hd), y.dtype) for _ in range(3))
            for r in range(min(step, T)):
                qr, kr, vr, gr = (_residue(a, r, step, heads) for a in (qs, kd, vd, g))
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
            for n, d in zip(nodes, (dq * scale, dk, dv)):
                if n is not None:
                    n._accumulate(d.reshape(T, A))
        out._node._backward = back
    return out


def _sum_pool(x: np.ndarray, shift: int) -> np.ndarray:
    """Sums of non-overlapping windows of 2**shift rows along axis 0; a
    ragged tail window sums the rows it covers."""
    if shift == 0:
        return x
    f = 1 << shift
    y = np.zeros((-(-x.shape[0] // f),) + x.shape[1:], x.dtype)
    for j in range(f):
        part = x[j::f]
        y[: part.shape[0]] += part
    return y


def _unpool(x: np.ndarray, shift: int, n: int) -> np.ndarray:
    """Each row of x repeated 2**shift times, cut to n rows."""
    return x[:n] if shift == 0 else np.repeat(x, 1 << shift, axis=0)[:n]


def _block_sum(x: np.ndarray, r: int) -> np.ndarray:
    """[H, R/r, C/r] sums of the r x r blocks of x [H, R, C], r a power of
    two: the transpose of repeating r times along rows and columns."""
    while r > 1:
        x = x[:, 0::2] + x[:, 1::2]
        x = x[:, :, 0::2] + x[:, :, 1::2]
        r >>= 1
    return x


def _frame_counts(T: int, shift: int, n: int, dtype) -> np.ndarray:
    """[n, 1, 1] frames per window of 2**shift rows over T rows; the ragged
    tail window counts the rows it covers."""
    f = 1 << shift
    return np.minimum(f, T - np.arange(n) * f).astype(dtype)[:, None, None]


def hta_attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, scales, weights, window: int
) -> Tensor:
    """Hierarchical multi-scale multi-head attention; q, k and v are [T, A].

    Scale s mean-pools q and k by 2**s, and pooled query a scores the pooled
    keys a - window .. a + window, scaled by 1/sqrt(A/heads). A frame-level
    key takes the weighted sum of the scores of every scale whose window
    holds it; the softmax runs over the union of the windows and weights the
    frame-level values v.

    All frames of one finest-scale block share their query and their scores,
    so the op works on finest-scale blocks, with summed values and frame
    counts as [V | count]. Query rows run in tiles of about HTA_BLOCK
    finest-scale rows, a whole number of coarsest-scale blocks, and each tile
    meets one key slab: its own coarsest blocks plus `window` on each side,
    clipped to the sequence. The tile's scores are built coarsest scale
    first: per scale one batched matmul of the pooled queries, pre-scaled by
    weight / (sqrt(hd) * count), against the slab's pooled keys, times that
    scale's window mask, plus the coarser scales' sum repeated over the
    finer rows and columns. Entries outside the coarsest window are -inf.
    One row max, one exp and one matmul against [V | count] give the
    softmax numerator and denominator together. The backward recomputes
    each tile and keeps only q, k, v, the output and the denominators.
    """
    q, k, v = _attention_operands(q, k, v, heads, "hierarchical")
    T, A = q.data.shape
    if not scales or len(scales) != len(weights):
        raise ShapeError(f"need one weight per scale, got {list(scales)} and {list(weights)}")
    if min(scales) < 0 or window < 0:
        raise ShapeError(f"scales and window must be >= 0, got {list(scales)}, {window}")
    hd = A // heads
    scale = 1.0 / math.sqrt(hd)
    qd, kd, vd = q.data, k.data, v.data
    dtype = qd.dtype
    levels = sorted(zip(scales, weights), key=lambda p: p[0])
    shifts = [int(s) for s, _ in levels]
    wts = [float(x) * scale for _, x in levels]
    w, L = window, len(shifts)
    sizes = [-(-T // (1 << s)) for s in shifts]
    n0, nc = sizes[0], sizes[-1]
    # rows of each level per coarsest block, finest level first
    per = [1 << (shifts[-1] - s) for s in shifts]
    G = max(1, HTA_BLOCK // per[0])

    # per level, entry (i, j) of a whole tile: pooled query row c0*per + i
    # against key row (c0 - w)*per + j; the coarsest mask is additive
    masks = []
    for lvl, p in enumerate(per):
        rel = np.arange((G + 2 * w) * p)[None, :] - w * p - np.arange(G * p)[:, None]
        inside = np.abs(rel) <= w
        masks.append(inside.astype(dtype) if lvl < L - 1
                     else np.where(inside, 0.0, -np.inf).astype(dtype))
    # the -inf entries of a whole tile at the finest level
    dead = np.repeat(np.repeat(np.isneginf(masks[-1]), per[0], axis=0), per[0], axis=1)

    def pooled():
        """Head-major operands, zero-padded to nc coarsest blocks: per level
        the pooled query sums times weight / (sqrt(hd) * count) and the
        pooled key means, and [V | count] at the finest level (count 0 in
        the padding)."""
        qsum, ksum = qd.reshape(T, heads, hd), kd.reshape(T, heads, hd)
        vsum = np.empty((T, heads, hd + 1), dtype)
        vsum[:, :, :hd] = vd.reshape(T, heads, hd)
        vsum[:, :, hd] = 1.0
        vc = np.zeros((heads, nc * per[0], hd + 1), dtype)
        vc[:, :n0] = _sum_pool(vsum, shifts[0]).transpose(1, 0, 2)
        qs, ks, prev = [], [], 0
        for s, wt, p, n in zip(shifts, wts, per, sizes):
            qsum, ksum = _sum_pool(qsum, s - prev), _sum_pool(ksum, s - prev)
            c = _frame_counts(T, s, n, dtype)
            qp, kp = (np.zeros((heads, nc * p, hd), dtype) for _ in range(2))
            qp[:, :n] = (qsum * (wt / c)).transpose(1, 0, 2)
            kp[:, :n] = (ksum / c).transpose(1, 0, 2)
            qs.append(qp)
            ks.append(kp)
            prev = s
        return qs, ks, vc

    def tiles():
        """Query blocks [c0, c1) and key slab [b0, b1), in coarsest blocks."""
        for c0 in range(0, nc, G):
            c1 = min(c0 + G, nc)
            yield c0, c1, max(c0 - w, 0), min(c1 + w, nc)

    def tile_mask(lvl, c0, c1, b0, b1):
        p = per[lvl]
        return masks[lvl][: (c1 - c0) * p, (b0 - c0 + w) * p : (b1 - c0 + w) * p]

    def tile_exp(qs, ks, c0, c1, b0, b1):
        """exp(score - row max) [heads, rows, cols] of one tile at the
        finest level, 0 outside the coarsest window and the sequence."""
        z = None
        for lvl in reversed(range(L)):
            p = per[lvl]
            s = qs[lvl][:, c0 * p : c1 * p] @ ks[lvl][:, b0 * p : b1 * p].transpose(0, 2, 1)
            if z is None:
                s += tile_mask(lvl, c0, c1, b0, b1)
            else:
                s *= tile_mask(lvl, c0, c1, b0, b1)
                r = p // per[lvl + 1]
                if r > 1:
                    z = np.repeat(np.repeat(z, r, axis=2), r, axis=1)
                s += z
            z = s
        f = per[0]
        dead_tile = dead[: (c1 - c0) * f, (b0 - c0 + w) * f : (b1 - c0 + w) * f]
        tail = n0 - b0 * f
        if tail < z.shape[2]:
            z[:, :, tail:] = -np.inf
            dead_tile = dead_tile.copy()
            dead_tile[:, tail:] = True
        return _exp_rows(z, dead_tile)

    qs, ks, vc = pooled()
    f0 = per[0]
    yh = np.empty((heads, nc * f0, hd), dtype)
    den = np.empty((heads, nc * f0, 1), dtype)
    for c0, c1, b0, b1 in tiles():
        nd = tile_exp(qs, ks, c0, c1, b0, b1) @ vc[:, b0 * f0 : b1 * f0]
        den[:, c0 * f0 : c1 * f0] = nd[:, :, hd:]
        yh[:, c0 * f0 : c1 * f0] = nd[:, :, :hd] / nd[:, :, hd:]
    y = _unpool(yh[:, :n0].transpose(1, 0, 2).reshape(n0, A), shifts[0], T)

    out = _make(y, (q, k, v))
    if out.requires_grad:
        nodes = _grad_node(q), _grad_node(k), _grad_node(v)

        def back(g):
            # y = num / den: dY = [g / den, -(g . y) / den] against [V | count]
            qs, ks, vc = pooled()
            g0 = np.zeros_like(yh)
            g0[:, :n0] = _sum_pool(g.reshape(T, heads, hd), shifts[0]).transpose(1, 0, 2)
            dy = np.concatenate([g0, -(g0 * yh).sum(axis=2, keepdims=True)], axis=2) / den
            dqs, dks = [np.zeros_like(x) for x in qs], [np.zeros_like(x) for x in ks]
            dvc = np.zeros_like(vc)
            for c0, c1, b0, b1 in tiles():
                e = tile_exp(qs, ks, c0, c1, b0, b1)
                dyt, vt = dy[:, c0 * f0 : c1 * f0], vc[:, b0 * f0 : b1 * f0]
                dvc[:, b0 * f0 : b1 * f0] += e.transpose(0, 2, 1) @ dyt
                ds = dyt @ vt.transpose(0, 2, 1)
                ds *= e
                # ds is the gradient of the accumulated score at each level,
                # finest first; the coarsest entries outside the window have e = 0
                for lvl in range(L):
                    p = per[lvl]
                    dz = ds if lvl == L - 1 else ds * tile_mask(lvl, c0, c1, b0, b1)
                    rows, cols = slice(c0 * p, c1 * p), slice(b0 * p, b1 * p)
                    dqs[lvl][:, rows] = dz @ ks[lvl][:, cols]
                    dks[lvl][:, cols] += dz.transpose(0, 2, 1) @ qs[lvl][:, rows]
                    if lvl + 1 < L:
                        ds = _block_sum(ds, p // per[lvl + 1])
            dq = dk = 0.0
            for s, wt, n, a, b in zip(shifts, wts, sizes, dqs, dks):
                c = _frame_counts(T, s, n, dtype)
                dq = _unpool(a[:, :n].transpose(1, 0, 2) * (wt / c), s, T) + dq
                dk = _unpool(b[:, :n].transpose(1, 0, 2) / c, s, T) + dk
            dv = _unpool(dvc[:, :n0, :hd].transpose(1, 0, 2), shifts[0], T)
            for n, d in zip(nodes, (dq, dk, dv)):
                if n is not None:
                    n._accumulate(d.reshape(T, A))
        out._node._backward = back
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
    T' = ceil(T / s). The result is the transpose of a C-contiguous
    [T', C_out] array.
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

    # Time-major: xt[t] is frame t, so each tap reads one strided row slice
    # and adds one GEMM into a contiguous row range of yt. The TCN stacks
    # pass the transpose of a C-contiguous [T, D] array, so xt is free.
    xt = x.data.T
    w = kernel.data.astype(xt.dtype, copy=False)
    t_in = xt.shape[0]
    t_out = -(-t_in // stride)
    yt = np.zeros((t_out, c_out), xt.dtype)
    taps = []
    for j, d in enumerate(deltas):
        # output rows [lo, hi) read input frames i*stride + d inside [0, t_in)
        lo = max(0, -(d // stride))
        hi = min(t_out, (t_in - 1 - d) // stride + 1)
        if lo < hi:
            src = slice(lo * stride + d, (hi - 1) * stride + d + 1, stride)
            taps.append((j, lo, hi, src))
            yt[lo:hi] += xt[src] @ w[:, :, j].T
    if bias is not None:
        bias = as_tensor(bias)
        yt += bias.data.astype(yt.dtype, copy=False)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    out = _make(yt.T, parents)
    if out.requires_grad:
        nx, nk = _grad_node(x), _grad_node(kernel)
        nb = None if bias is None else _grad_node(bias)
        k_zeros = _zeros_like(kernel.data)
        # the kernel's gradient reads the input, the input's reads the kernel
        if nk is None:
            xt = None
        if nx is None:
            w = None

        def back(g):
            gt = g.T
            if nk is not None and nk.grad is None:
                nk.grad = k_zeros()
            dxt = np.zeros((t_in, c_in), gt.dtype) if nx is not None else None
            for j, lo, hi, src in taps:
                if nk is not None:
                    nk.grad[:, :, j] += gt[lo:hi].T @ xt[src]
                if dxt is not None:
                    dxt[src] += gt[lo:hi] @ w[:, :, j]
            if dxt is not None:
                nx._accumulate(dxt.T)
            if nb is not None:
                nb._accumulate(g.sum(axis=1))
        out._node._backward = back
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
    counts = np.minimum(factor, t - np.arange(n) * factor).astype(x.data.dtype)
    counts = counts.reshape((n,) + (1,) * (x.data.ndim - 1))
    y = np.zeros((n,) + x.data.shape[1:], x.data.dtype)
    # add the j-th frame of every window in turn: each window sums its frames
    # in frame order, exactly as a scatter-add would
    for j in range(factor):
        part = x.data[j::factor]
        y[: part.shape[0]] += part
    y /= counts
    out = _make(y, (x,))
    if out.requires_grad:
        n = _grad_node(x)
        out._node._backward = lambda g: n._accumulate(np.repeat(g / counts, factor, axis=0)[:t])
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x [N, D_in], w [D_in, D_out] and b [D_out], as one op;
    w and b are cast to x's dtype for the product."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != w.data.shape[1:]):
        raise ShapeError(
            f"linear shape mismatch: {x.data.shape} @ {w.data.shape} + {b.data.shape}"
        )
    xd, wd = x.data, w.data.astype(x.data.dtype, copy=False)
    y = xd @ wd
    y += b.data.astype(y.dtype, copy=False)
    out = _make(y, (x, w, b))
    if out.requires_grad:
        nx, nw, nb = _grad_node(x), _grad_node(w), _grad_node(b)
        # the weight's gradient reads the input, the input's reads the weight
        if nw is None:
            xd = None
        if nx is None:
            wd = None

        def back(g):
            if nx is not None:
                nx._accumulate(g @ wd.T)
            if nw is not None:
                nw._accumulate(xd.T @ g)
            if nb is not None:
                nb._accumulate(g.sum(axis=0))
        out._node._backward = back
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row normalisation over the last axis, then affine gain/bias:
    xhat * gain + bias with xhat = (x - mean) / sqrt(var + eps), as one op
    (Ba et al., arXiv:1607.06450). The backward is closed form,
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sqrt(var + eps)
    with dxhat = dy * gain; gain and bias are cast to x's dtype."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.data.shape[-1]
    g = gain.data.astype(x.data.dtype, copy=False)
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / n
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n + eps)
    xhat = xc / std
    y = xhat * g + bias.data.astype(x.data.dtype, copy=False)
    out = _make(y, (x, gain, bias))
    if out.requires_grad:
        nx, ng, nb = _grad_node(x), _grad_node(gain), _grad_node(bias)
        sg, sb = gain.data.shape, bias.data.shape

        def back(dy):
            if ng is not None:
                ng._accumulate(_unbroadcast(dy * xhat, sg))
            if nb is not None:
                nb._accumulate(_unbroadcast(dy, sb))
            if nx is not None:
                dxhat = dy * g
                dx = dxhat - dxhat.sum(axis=-1, keepdims=True) / n
                dx -= xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / n)
                nx._accumulate(dx / std)
        out._node._backward = back
    return out


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
