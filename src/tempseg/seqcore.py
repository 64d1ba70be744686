"""Tape-based reverse-mode autodiff over a small set of sequence primitives.

A Tensor wraps a float32 or float64 numpy array (any other dtype becomes
float64) plus an optional gradient accumulator. Each op that touches a
differentiable input gives its result a graph node: its backward closure,
its parents' nodes, its gradient and its dtype, but not its value. A leaf
(a tensor made with ``requires_grad=True``) is its own node. Each closure
keeps only the arrays its formula reads: the operands of ``*``, the
inputs of ``linear``, ``conv1d_dilated`` and ``window_attention``, its own
output where the formula is written in it, the gradient ``scalar_op`` is
given, and masks and shapes. So the tape holds nodes, closures and
gradients, and an interior value that no backward reads is freed as soon
as the caller drops its Tensor. ``Tensor.backward()`` replays the tape in
reverse topological order and releases it as it goes: each interior node
drops its gradient, closure and parent links once its closure has run, so
only leaf gradients (parameters, inputs made with ``requires_grad=True``)
survive, a second backward through the same graph raises, and a training
loop holds one tape at a time. Every op but ``scalar_op``, whose value is
float64, computes and allocates in its input's dtype: a Python scalar
operand takes the tensor's dtype, and the weight operands of ``linear``,
``layer_norm`` and ``conv1d_dilated`` are cast to the input's dtype when
used, so float64 parameters run a float32 pass without a float32 copy
being kept. Training and inference run their passes in float32 this way;
a leaf's gradient accumulates in the leaf's own dtype, so float64
parameters get float64 gradients and Adam keeps float64 master weights and
state. The oracles run in float64.

The primitive set is closed: it holds the ops the package's network, losses
and pipeline run, and no other. Tensor methods: ``+`` and ``*`` (with a
tensor, an array or a Python scalar on the right), ``sigmoid``, ``relu``,
``gelu``, ``astype`` and ``reshape``; a Tensor is neither indexed nor
transposed, and every sequence op runs time-major, on [T, C] rows.
Functions: ``concat``, the affine map ``linear``, dilated 1-D convolution
``conv1d_dilated``, ``layer_norm``, ``softmax`` over the last axis,
``scalar_op`` (a scalar function of one tensor from its value and
gradient, which the loss terms compute in closed form), and one windowed
multi-scale multi-head attention op (``window_attention``) whose equal
head groups each take their own window width and dilation step: DSWA is
its one-scale case with two groups, the expanding and the shrinking
window, each run over every residue of its step; HTA is its ladder of
scales with one group at step 1. It runs on one tiled kernel,
``_TileKernel``: dense tiles of query rows, each against one key slab,
recomputed in the backward.
Inside a ``no_grad()`` block no op records a backward closure, so
evaluation passes keep no tape alive. ``Adam`` takes only the learning
rate; its decay rates and guard are the module constants ``ADAM_*``.
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
    "as_tensor",
    "concat",
    "conv1d_dilated",
    "layer_norm",
    "linear",
    "no_grad",
    "scalar_op",
    "softmax",
    "window_attention",
    "Adam",
]

# finest-level query rows per tile of window_attention's kernel, rounded
# down to whole coarsest-level blocks (at least one); each tile meets one
# key slab
TILE_ROWS = 32
# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

_grad_mode = threading.local()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


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

    # ---- unary ------------------------------------------------------

    def sigmoid(self):
        # exp(-x) overflows to inf for very negative x, and 1 / (1 + inf)
        # is exactly the limit 0
        with np.errstate(over="ignore"):
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
            # where, not g * mask: a clamped entry's gradient is 0 even
            # where g is infinite, not inf * 0 = NaN
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

    # ---- structural -------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            n, own = _grad_node(self), self.data.shape
            out._node._backward = lambda g: n._accumulate(g.reshape(own))
        return out


def _zeros_like(a: np.ndarray):
    """A maker of zero arrays with a's shape, dtype and C or Fortran order,
    that does not hold `a`."""
    shape, dtype = a.shape, a.dtype
    order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
    return lambda: np.zeros(shape, dtype, order)


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


def scalar_op(value: float, x: Tensor, grad: np.ndarray) -> Tensor:
    """A scalar function of `x` as one tape op, from its value and its
    gradient with respect to x, both computed by the caller in float64.
    The result is float64; the gradient is cast to x's dtype as it
    accumulates."""
    if grad.shape != x.data.shape:
        raise ShapeError(f"gradient of shape {grad.shape} for an input of shape {x.data.shape}")
    out = _make(np.float64(value), (x,))
    if out.requires_grad:
        n = _grad_node(x)
        out._node._backward = lambda g: n._accumulate(g * grad)
    return out


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


def softmax(scores: Tensor) -> Tensor:
    """Softmax along the last axis, stabilised by subtracting the row max."""
    scores = as_tensor(scores)
    e = np.exp(scores.data - scores.data.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    out = _make(alpha, (scores,))
    if out.requires_grad:
        n = _grad_node(scores)

        def back(g):
            inner = (g * alpha).sum(axis=-1, keepdims=True)
            n._accumulate(alpha * (g - inner))
        out._node._backward = back
    return out


def _attention_operands(q, k, v, heads: int) -> tuple:
    """q, k and v as Tensors of one [T, A] shape and one dtype, with `heads`
    dividing A."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim != 2 or k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ShapeError(
            f"attention needs equal [T, A] q/k/v, got {q.data.shape}, "
            f"{k.data.shape}, {v.data.shape}"
        )
    if not q.data.dtype == k.data.dtype == v.data.dtype:
        raise ShapeError(
            f"attention needs one dtype for q/k/v, got {q.data.dtype}, "
            f"{k.data.dtype}, {v.data.dtype}"
        )
    if heads < 1 or q.data.shape[1] % heads != 0:
        raise ShapeError(f"head count {heads} must divide attention dim {q.data.shape[1]}")
    return q, k, v


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """Sums of rows 2i and 2i + 1 along axis 0, in that order; an odd last
    row is its own sum."""
    y = x[0::2].copy()
    y[: len(x) // 2] += x[1::2]
    return y


def _unpool(x: np.ndarray, f: int, n: int) -> np.ndarray:
    """Each row of x repeated f times, cut to n rows."""
    return x[:n] if f == 1 else np.repeat(x, f, axis=0)[:n]


def _frame_counts(T: int, f: int, dtype) -> np.ndarray:
    """Frames per window of f rows over T rows; the ragged tail window
    counts the rows it covers."""
    return np.minimum(f, T - np.arange(-(-T // f)) * f).astype(dtype)


def _value_count(v: np.ndarray, rows: int) -> np.ndarray:
    """[V | count] of v [T, heads, hd], head-major and zero-padded to `rows`
    rows; each of the T rows counts one frame."""
    T, heads, hd = v.shape
    vc = np.zeros((heads, rows, hd + 1), v.dtype)
    vc[:, :T, :-1] = v.transpose(1, 0, 2)
    vc[:, :T, -1] = 1
    return vc


class _TileKernel:
    """The tiled softmax attention under window_attention, over one
    residue's head-major operands at `levels` levels, finest first.

    Each level pools the one before by 2, so level l has 2**(levels-1-l)
    rows per coarsest-level block, and its query row i scores its key rows
    i - w .. i + w. A finest-level entry scores the sum over levels of the
    scores of the rows that hold it; it is -inf outside the coarsest
    level's window and beyond the sequence's n0 finest rows. One row max,
    one exp and one matmul against [V | count] give the softmax numerator
    and denominator together. Query rows run in tiles of G whole coarsest
    blocks, about TILE_ROWS finest rows, and each tile meets one key slab,
    blocks c0 - w .. c1 - 1 + w clipped to the sequence. A tile's scores
    are built coarsest level first: per level one batched matmul, times
    that level's window mask, plus the coarser level's sum repeated twice
    over the rows and the columns. The masks of a whole tile are built
    once, with the kernel; the backward recomputes each tile from the
    operands and meets it with the numerator's gradient dY.
    """

    def __init__(self, levels: int, w: int, dtype):
        self.per, self.w = [1 << (levels - 1 - lvl) for lvl in range(levels)], w
        G = self.G = max(1, TILE_ROWS // self.per[0])
        # per level, entry (i, j) of a whole tile: query row c0*p + i against
        # key row (c0 - w)*p + j; the coarsest mask is additive
        self.masks = []
        for p in self.per:
            rel = np.arange((G + 2 * w) * p)[None, :] - w * p - np.arange(G * p)[:, None]
            inside = np.abs(rel) <= w
            self.masks.append(inside.astype(dtype))
        self.masks[-1] = np.where(inside, 0.0, -np.inf).astype(dtype)

    def _tiles(self, nc: int):
        """Query blocks [c0, c1) and key slab [b0, b1), in coarsest blocks."""
        for c0 in range(0, nc, self.G):
            c1 = min(c0 + self.G, nc)
            yield c0, c1, max(c0 - self.w, 0), min(c1 + self.w, nc)

    def _mask(self, lvl, c0, c1, b0, b1):
        p, w = self.per[lvl], self.w
        return self.masks[lvl][: (c1 - c0) * p, (b0 - c0 + w) * p : (b1 - c0 + w) * p]

    def _exp(self, qs, ks, n0, c0, c1, b0, b1):
        """exp(score - row max) [heads, rows, cols] of one tile at the finest
        level, 0 outside the coarsest window and the sequence."""
        per, z = self.per, None
        for lvl in reversed(range(len(per))):
            p = per[lvl]
            s = qs[lvl][:, c0 * p : c1 * p] @ ks[lvl][:, b0 * p : b1 * p].transpose(0, 2, 1)
            if z is None:
                s += self._mask(lvl, c0, c1, b0, b1)
            else:
                s *= self._mask(lvl, c0, c1, b0, b1)
                s += np.repeat(np.repeat(z, 2, axis=2), 2, axis=1)
            z = s
        # keys past the sequence join the entries outside the window at -inf,
        # which exp maps to exactly 0
        z[:, :, n0 - b0 * per[0] :] = -np.inf
        z -= z.max(axis=-1, keepdims=True)
        return np.exp(z, out=z)

    def forward(self, qs, ks, vc, n0):
        """The outputs [heads, rows, hd] and softmax denominators
        [heads, rows, 1] of every finest query row."""
        f, hd = self.per[0], vc.shape[2] - 1
        y = np.empty(vc.shape[:2] + (hd,), vc.dtype)
        den = np.empty(vc.shape[:2] + (1,), vc.dtype)
        for c0, c1, b0, b1 in self._tiles(qs[-1].shape[1]):
            nd = self._exp(qs, ks, n0, c0, c1, b0, b1) @ vc[:, b0 * f : b1 * f]
            den[:, c0 * f : c1 * f] = nd[:, :, hd:]
            y[:, c0 * f : c1 * f] = nd[:, :, :hd] / nd[:, :, hd:]
        return y, den

    def backward(self, qs, ks, vc, n0, dy):
        """The gradients of qs and ks per level and of [V | count], from the
        gradient dy of the softmax numerator [num | den], laid out like vc."""
        f, L = self.per[0], len(self.per)
        dqs, dks = [np.zeros_like(x) for x in qs], [np.zeros_like(x) for x in ks]
        dvc = np.zeros_like(vc)
        for c0, c1, b0, b1 in self._tiles(qs[-1].shape[1]):
            e = self._exp(qs, ks, n0, c0, c1, b0, b1)
            dyt, vt = dy[:, c0 * f : c1 * f], vc[:, b0 * f : b1 * f]
            dvc[:, b0 * f : b1 * f] += e.transpose(0, 2, 1) @ dyt
            ds = dyt @ vt.transpose(0, 2, 1)
            ds *= e
            # ds is the gradient of the accumulated score at each level,
            # finest first; the coarsest entries outside the window have e = 0
            for lvl in range(L):
                p = self.per[lvl]
                dz = ds if lvl == L - 1 else ds * self._mask(lvl, c0, c1, b0, b1)
                rows, cols = slice(c0 * p, c1 * p), slice(b0 * p, b1 * p)
                dqs[lvl][:, rows] = dz @ ks[lvl][:, cols]
                dks[lvl][:, cols] += dz.transpose(0, 2, 1) @ qs[lvl][:, rows]
                if lvl + 1 < L:
                    # sums of 2 x 2 blocks: the transpose of the repeat in _exp
                    ds = ds[:, 0::2] + ds[:, 1::2]
                    ds = ds[:, :, 0::2] + ds[:, :, 1::2]
        return dqs, dks, dvc


def window_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, levels: int,
                     windows: list) -> Tensor:
    """Windowed multi-scale multi-head attention; q, k and v are [T, A].

    The heads form len(windows) equal groups, in column order, and group i
    attends through windows[i] = (window, step). Within a group, the rows r,
    r + step, ... of each residue r attend only each other, as one
    sequence. Inside it, scale s = 0 .. levels - 1 mean-pools q and k by
    2**s, and pooled query a scores the pooled keys a - window ..
    a + window, scaled by 1/sqrt(A/heads). A frame-level key takes the sum
    of the scores of every scale whose window holds it, each weighted
    1 / levels; the softmax runs over the union of the windows and weights
    the frame-level values v. One level is a band of one-sided width
    `window` dilated by `step`: DSWA's two groups are its expanding and
    shrinking bands. One group with a ladder of levels at step 1 is
    hierarchical attention (HTA). Every head is independent of the others,
    so a group computes exactly what a one-group call on its columns does.

    Per group and residue the op runs the tiled kernel with one level per
    scale, frame level first, on the values and a count of 1 per frame as
    [V | count]. Each level's pooled queries are pre-scaled by (1 / levels)
    / (sqrt(hd) * count), and its keys are pooled means. The backward keeps
    only q, k, v, the output and the denominators; it forms the
    numerator's gradient dY once, frame-major, and pads it per group and
    residue.
    """
    q, k, v = _attention_operands(q, k, v, heads)
    T, A = q.data.shape
    if not windows or heads % len(windows) != 0:
        raise ShapeError(f"{len(windows)} window groups must divide head count {heads}, "
                         f"got windows {windows}")
    if levels < 1 or any(w < 0 or step < 1 for w, step in windows):
        raise ShapeError(
            f"need levels >= 1, widths >= 0 and steps >= 1, got {levels}, {windows}")
    hd, hg = A // heads, heads // len(windows)
    wt = (1.0 / levels) * (1.0 / math.sqrt(hd))  # every level's score weight
    dtype = q.data.dtype
    qd, kd, vd = (x.data.reshape(T, heads, hd) for x in (q, k, v))
    # per group: its heads, its kernel and its dilation step
    groups = [(slice(i * hg, (i + 1) * hg), _TileKernel(levels, w, dtype), step)
              for i, (w, step) in enumerate(windows)]

    def operands(hs, kernel, step, r):
        """The kernel's operands over heads hs and rows r::step, zero-padded
        to whole coarsest blocks: per scale the pooled query sums times
        wt / count and the pooled key means, [V | count] at frame level,
        and the residue's row count."""
        qsum, ksum = qd[r::step, hs], kd[r::step, hs]
        n = len(qsum)
        rows = -(-n // kernel.per[0]) * kernel.per[0]
        qs, ks = [], []
        c = 1.0  # a frame-level row counts one frame
        for s in range(levels):
            if s:
                qsum, ksum = _pair_sum(qsum), _pair_sum(ksum)
                c = _frame_counts(n, 1 << s, dtype)[:, None]
            qp, kp = (np.zeros((hg, rows >> s, hd), dtype) for _ in range(2))
            np.multiply(qsum.transpose(1, 0, 2), wt / c, out=qp[:, : len(qsum)])
            np.divide(ksum.transpose(1, 0, 2), c, out=kp[:, : len(ksum)])
            qs.append(qp)
            ks.append(kp)
        return qs, ks, _value_count(vd[r::step, hs], rows), n

    y, den = np.empty((T, heads, hd), dtype), np.empty((T, heads, 1), dtype)
    for hs, kernel, step in groups:
        for r in range(min(step, T)):
            qs, ks, vc, n = operands(hs, kernel, step, r)
            yr, dr = kernel.forward(qs, ks, vc, n)
            y[r::step, hs] = yr[:, :n].transpose(1, 0, 2)
            den[r::step, hs] = dr[:, :n].transpose(1, 0, 2)

    out = _make(y.reshape(T, A), (q, k, v))
    if out.requires_grad:
        nodes = _grad_node(q), _grad_node(k), _grad_node(v)

        def back(g):
            g = g.reshape(T, heads, hd)
            # y = num / den: dY = [g / den, -(g . y) / den] against [V | count]
            dy = np.concatenate([g, -(g * y).sum(axis=2, keepdims=True)], axis=2) / den
            dq, dk, dv = (np.empty((T, heads, hd), dtype) for _ in range(3))
            for hs, kernel, step in groups:
                for r in range(min(step, T)):
                    qs, ks, vc, n = operands(hs, kernel, step, r)
                    dyr = np.zeros_like(vc)  # head-major and zero-padded like vc
                    dyr[:, :n] = dy[r::step, hs].transpose(1, 0, 2)
                    dqs, dks, dvc = kernel.backward(qs, ks, vc, n, dyr)
                    dqr = dkr = 0.0
                    c = 1.0
                    for s, (a, b) in enumerate(zip(dqs, dks)):
                        f, m = 1 << s, -(-n >> s)
                        if s:
                            c = _frame_counts(n, f, dtype)[:, None, None]
                        dqr = _unpool(a[:, :m].transpose(1, 0, 2) * (wt / c), f, n) + dqr
                        dkr = _unpool(b[:, :m].transpose(1, 0, 2) / c, f, n) + dkr
                    dq[r::step, hs], dk[r::step, hs] = dqr, dkr
                    dv[r::step, hs] = dvc[:, :n, :hd].transpose(1, 0, 2)
            for node, d in zip(nodes, (dq, dk, dv)):
                if node is not None:
                    node._accumulate(d.reshape(T, A))
        out._node._backward = back
    return out


def conv1d_dilated(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor,
    dilation: int = 1,
    mode: str = "acausal",
) -> Tensor:
    """Dilated 1-D convolution over time-major [T, C_in] input with zero
    padding, plus bias; the result is [T, C_out].

    acausal: output at t reads taps t + j*dilation, j in [-(k-1)/2, (k-1)/2]
    causal:  output at t reads taps t - j*dilation, j in [0, k-1]
    Each tap reads one row slice of x and adds one GEMM into a contiguous
    row range of the output.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if x.data.ndim != 2 or x.data.shape[0] < 1:
        raise ShapeError(f"conv1d expects non-empty [T, C_in] input, got {x.data.shape}")
    if dilation < 1:
        raise ShapeError(f"dilation must be >= 1, got {dilation}")
    c_out, c_in, k = kernel.data.shape
    if c_in != x.data.shape[1]:
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

    xd = x.data
    w = kernel.data.astype(xd.dtype, copy=False)
    T = xd.shape[0]
    y = np.zeros((T, c_out), xd.dtype)
    taps = []
    for j, d in enumerate(deltas):
        # output rows [lo, hi) read input frames t + d inside [0, T)
        lo, hi = max(0, -d), min(T, T - d)
        if lo < hi:
            src = slice(lo + d, hi + d)
            taps.append((j, lo, hi, src))
            y[lo:hi] += xd[src] @ w[:, :, j].T
    y += bias.data.astype(y.dtype, copy=False)

    out = _make(y, (x, kernel, bias))
    if out.requires_grad:
        nx, nk, nb = _grad_node(x), _grad_node(kernel), _grad_node(bias)
        k_zeros = _zeros_like(kernel.data)
        # the kernel's gradient reads the input, the input's reads the kernel
        if nk is None:
            xd = None
        if nx is None:
            w = None

        def back(g):
            if nk is not None and nk.grad is None:
                nk.grad = k_zeros()
            dx = np.zeros((T, c_in), g.dtype) if nx is not None else None
            for j, lo, hi, src in taps:
                if nk is not None:
                    nk.grad[:, :, j] += g[lo:hi].T @ xd[src]
                if dx is not None:
                    dx[src] += g[lo:hi] @ w[:, :, j]
            if dx is not None:
                nx._accumulate(dx)
            if nb is not None:
                nb._accumulate(g.sum(axis=0))
        out._node._backward = back
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

    def __init__(self, params, lr=5e-4):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
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
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
