"""Tape-based reverse-mode autodiff over a small set of sequence primitives.

A Tensor wraps a float32 or float64 numpy array (any other dtype becomes
float64) plus an optional gradient accumulator. Each op that touches a
differentiable input gives its result a graph node: its backward closure,
its parents' nodes, its gradient and its dtype, but not its value. A leaf
(a tensor made with ``requires_grad=True``) is its own node. Each closure
keeps only arrays its forward made or was given, and of those only the
ones its formula reads: the constant of ``*``, the inputs of ``linear``
and ``conv1d_dilated``, the input and the ReLU output of ``tcn_block``,
its own output where the formula is written in it, ``window_attention``'s
stacked and pooled operands, each in the one layout its forward made it
in (queries row-major, keys and ``[V | count]`` value-major, pooled per
level, with the kernel's zero margins), and its log softmax denominators,
the weight arrays it was given, what ``scalar_op``'s gradient function
holds, and masks and shapes. Copies that backward can remake cheaply
(weight casts, the loss terms' gradients) are made there; forward values
that it would have to recompute (a TCN block's input and ReLU output,
``layer_norm``'s normalised rows, attention's pooled levels) stay.
So the tape holds nodes, closures and gradients, and an interior value
that no backward reads is freed as soon as the caller drops its Tensor.
``Tensor.backward()`` replays the tape in reverse topological order and
releases it as it goes: each interior node drops its gradient, closure
and parent links once its closure has run, so only leaf gradients
(parameters, inputs made with ``requires_grad=True``) survive, a second
backward through the same graph raises, and a training loop holds one
tape at a time. Every op but ``scalar_op``, whose value is float64,
computes and allocates in its input's dtype: a Python scalar operand
takes the tensor's dtype, and the weight operands of ``linear``,
``layer_norm``, ``conv1d_dilated`` and ``tcn_block`` are cast to the
input's dtype where they are read, so float64 parameters run a float32
pass with no float32 copy kept beside them: the forward casts a weight
for its product and drops the cast, and on a tape the closure keeps the
weight's own array and casts it again in backward (a float32 weight casts
to itself), which keeps 50.7 MB of casts off a default-config training
step's tape at T = 2048. Training and inference run their passes in
float32 this way; a leaf's gradient accumulates in the leaf's own dtype, so
float64 parameters get float64 gradients and Adam keeps float64 master
weights and state. The oracles run in float64.

The primitive set is closed: the ops the package's network, losses and
pipeline run, with only the semantics they use, and ``conv1d_dilated``,
which none of them runs, kept only for perfbench's tracer until ROADMAP
items 5 and 17. Tensor methods: ``+``, ``*``, ``sigmoid``, ``gelu``,
``astype`` and ``reshape``. Each operand of ``+`` that needs a gradient
has the result's shape, and so does the left one of ``*``, else
ShapeError: only a constant (an array, a Python scalar or a Tensor that
needs no gradient) broadcasts, so no gradient is summed to an operand's
shape. The right operand of ``*`` is such a constant, else TypeError: the
package scales a Tensor only by a dropout mask or a loss weight, and
``linear`` is the one product of two Tensors. ``backward()`` starts from a
scalar that needs a gradient, else RuntimeError. A Tensor is neither
indexed nor transposed, and every sequence op runs time-major, on [T, C]
rows. Functions: ``concat``, the affine map ``linear``, dilated 1-D
convolution ``conv1d_dilated``, the residual TCN block ``tcn_block``
(dilated conv, ReLU, pointwise conv and residual add as one op),
``layer_norm``, ``softmax`` over the last axis, ``scalar_op`` (a scalar
function of one tensor from its value and a function that makes its
gradient in backward, which the loss terms compute in closed form), and
one windowed multi-scale multi-head attention op (``window_attention``)
whose equal head groups each take their own window width and dilation
step: DSWA is its one-scale case with two groups, the expanding and the
shrinking window, each run over every residue of its step; HTA is its
ladder of scales with one group at step 1. It makes one call of one tiled
kernel, ``_TileKernel``, per head group, with the group's residues
stacked as sequences; the kernel's docstring gives its partition of each
frame's entries by level, its tiles and its softmax shifts, and one
bounded memo keeps a kernel per call shape.
Inside a ``no_grad()`` block no op records a backward closure, so
evaluation passes keep no tape alive. ``Adam`` takes only the learning
rate; its decay rates, guard and chunk length are the module constants
``ADAM_*``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
import weakref

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    "tcn_block",
    "window_attention",
    "Adam",
]

# finest-level query rows per tile of window_attention's kernel, rounded
# down to whole coarsest-level blocks, then cut by whole blocks while a
# tile's scores over every level and its stacked sequences would hold more
# than TILE_ENTRIES entries (512 KB in float32), but never below one block;
# a block longer than TILE_ROWS runs its finer levels in sub-tiles of
# TILE_ROWS rounded down to a power of 2. A batched op runs as many whole
# tiles as TILE_ENTRIES holds, counting each score array a tile forms
TILE_ROWS = 32
TILE_ENTRIES = 1 << 17
# the attention call shapes whose kernels (masks and tile plans) are kept
# by _call_kernel, the least recently used dropped first. Planning anew
# each call cost 5.6-6.4% of a default-config forward at T = 160, and each
# plan lists its tiles, so an unbounded memo over every length 1 to 4096
# grew to about 390 MiB
CALL_SHAPES = 256
# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the entries per chunk of Adam's update, whose scratch buffers then stay in
# cache: a default-config step took 0.113 s, against 0.142 s over whole
# tensors (medians of 12 interleaved steps); 2^14 or 2^16 took 0.85-0.87x
ADAM_CHUNK = 1 << 15

_grad_mode = threading.local()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


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
    def dtype(self):
        return self.data.dtype

    @property
    def shape(self):
        return self.data.shape

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
        node nothing else holds is freed at once. Backward from a tensor
        that needs no gradient (one built under ``no_grad()``, say), or
        through a graph that an earlier backward released, raises
        RuntimeError before any gradient moves.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            raise RuntimeError("backward() from a tensor that needs no gradient")
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
        out = _make(_gradient_shaped(self.data + other.data, (self, other)), (self, other))
        if out.requires_grad:
            na, nb = _grad_node(self), _grad_node(other)

            def back(g):
                if na is not None:
                    na._accumulate(g)
                if nb is not None:
                    nb._accumulate(g)
            out._node._backward = back
        return out

    def __mul__(self, other):
        other = as_tensor(other, self.data.dtype)
        if other.requires_grad:
            raise TypeError("the right operand of * must be a constant that needs no gradient")
        out = _make(_gradient_shaped(self.data * other.data, (self,)), (self,))
        if out.requires_grad:
            n, b = _grad_node(self), other.data
            out._node._backward = lambda g: n._accumulate(g * b)
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


def _gradient_shaped(value: np.ndarray, operands: tuple) -> np.ndarray:
    """`value`, once each of `operands` that needs a gradient has its shape."""
    for t in operands:
        if t.requires_grad and t.data.shape != value.shape:
            raise ShapeError(f"an operand of shape {t.data.shape} that needs a gradient "
                             f"broadcasts to {value.shape}; only a constant may broadcast")
    return value


def _records(parents: tuple) -> bool:
    """Whether an op on `parents` records a backward: outside no_grad(),
    when a parent needs a gradient. An op that must decide what to keep
    before its result exists asks this, as `_make` does."""
    return not getattr(_grad_mode, "off", False) and any(t.requires_grad for t in parents)


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    """`data` as the result of an op on `parents`; it gets a graph node when
    the op records a backward, and the op then sets the node's closure."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._node = _Node(tuple(n for n in map(_grad_node, parents) if n is not None),
                          out.data)
    return out


def as_tensor(x, dtype=None) -> Tensor:
    """`x` as a Tensor; a Python scalar takes `dtype` when one is given, as
    numpy lets a scalar take the dtype of the array it meets."""
    if isinstance(x, Tensor):
        return x
    if dtype is not None and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype))
    return Tensor(x)


def scalar_op(value: float, x: Tensor, grad) -> Tensor:
    """A scalar function of `x` as one tape op, from its value, computed by
    the caller in float64, and `grad`, a function of no arguments that
    returns its float64 gradient with respect to x. The result is float64.
    Only backward calls `grad`, so the gradient exists only while backward
    reads it, and what the tape keeps until then is what `grad` holds; a
    gradient whose shape is not x's raises ShapeError there. The gradient is
    cast to x's dtype as it accumulates."""
    out = _make(np.float64(value), (x,))
    if out.requires_grad:
        n, shape = _grad_node(x), x.data.shape

        def back(g):
            d = grad()
            if d.shape != shape:
                raise ShapeError(f"gradient of shape {d.shape} for an input of shape {shape}")
            n._accumulate(g * d)
        out._node._backward = back
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


def _pair_sum(x: np.ndarray, axis: int = 1) -> np.ndarray:
    """Sums of rows 2i and 2i + 1 of x [B, ., .] along `axis`, 1 (row-major
    x [B, rows, d]) or 2 (value-major x [B, d, rows]), rows even."""
    return x[:, 0::2] + x[:, 1::2] if axis == 1 else x[:, :, 0::2] + x[:, :, 1::2]


def _stack(x: np.ndarray, step: int, rows: int, width: int = 0,
           value_major: bool = False, margin: int = 0) -> np.ndarray:
    """x [T, hg, d] as step * hg head-major sequences [step * hg, rows,
    width or d]: sequence r * hg + h holds head h's residue rows r::step,
    zero-padded to `rows` rows and `width` columns. With `value_major`,
    each sequence is stored transposed, as [step * hg, width or d, rows +
    2 * margin], its rows after `margin` zero columns."""
    T, hg, d = x.shape
    width = width or d
    cols = rows + 2 * margin
    out = np.zeros((step, hg) + ((width, cols) if value_major else (cols, width)), x.dtype)
    by_row = out.transpose(0, 1, 3, 2) if value_major else out
    for r in range(min(step, T)):
        xr = x[r::step]
        by_row[r, :, margin : margin + len(xr), :d] = xr.transpose(1, 0, 2)
    return out.reshape(step * hg, *out.shape[2:])


def _unstack(x: np.ndarray, out: np.ndarray):
    """The first out.shape[2] columns of the stacked sequences x, written
    back into out [T, hg, d] frame-major: the inverse of _stack."""
    T, hg, d = out.shape
    step = x.shape[0] // hg
    x = x.reshape(step, hg, x.shape[1], x.shape[2])
    for r in range(min(step, T)):
        n = -(-(T - r) // step)
        out[r::step] = x[r, :, :n, :d].transpose(1, 0, 2)


def _windows(x: np.ndarray, axis: int, start: int, shape: tuple, stride: int,
             width: int) -> np.ndarray:
    """A view of C-contiguous x [B, ., .] as [B, *shape, ., .]: window i, in
    C order over `shape`, holds `width` entries along `axis` (1 or 2) from
    start + i * stride on."""
    if shape == (1, 1):
        cols = slice(start, start + width)
        return x[:, None, None, :, cols] if axis == 2 else x[:, None, None, cols]
    st, dims = x.strides, list(x.shape)
    dims[axis] = width
    steps = [stride * st[axis]]
    for n in shape[:0:-1]:
        steps.insert(0, steps[0] * n)
    return np.ndarray((dims[0], *shape, *dims[1:]), x.dtype, x, start * st[axis],
                      (st[0], *steps, *st[1:]))


def _overlap_add(out: np.ndarray, start: int, stride: int, x: np.ndarray):
    """out[:, start + i * stride + j] += x[:, i, j] for every slab i of x
    [B, k, n, width, d] (slabs in C order over k and n) and every row j of
    it, on row-major out [B, rows, d]. Slabs overlap when width > stride,
    so they are added one at a time or in chunks of `stride` rows, which do
    not overlap, whichever takes fewer adds."""
    B, k, n, width = x.shape[:4]
    if k * n == 1:
        out[:, start : start + width] += x[:, 0, 0]
        return
    x = x.reshape(B, k * n, width, -1)
    if k * n <= -(-width // stride):
        for i in range(k * n):
            out[:, start + i * stride : start + i * stride + width] += x[:, i]
        return
    for j in range(0, width, stride):
        part = min(stride, width - j)
        view = _windows(out, 1, start + j, (k * n,), stride, part)
        view += x[:, :, j : j + part]


def _geometry(levels: int, w: int, R: int) -> list:
    """Per level, finest first, for tiles of R finest rows (R a multiple of
    2**(levels-1), or a power of 2 below it): the sub-tiles per tile n, the
    rows per sub-tile S, the slab columns before a sub-tile's first row lo
    and the zero margin columns stored on each side of the level's keys and
    [V | count] m. A tile is max(R, 2**(levels-1)) finest rows; a level
    whose rows are finer than R runs it in sub-tiles of R finest rows, and
    a coarser one runs it whole."""
    f, h = 1 << (levels - 1), (w + 1) // 2
    out = []
    for lvl in range(levels):
        fine = (1 << lvl) < R
        S = R >> lvl if fine else f >> lvl
        n = max(R, f) // R if fine else 1
        lo = w if lvl == levels - 1 else 2 * h
        out.append((n, S, lo, lo if levels > 1 else 0))
    return out


class _TileKernel:
    """The tiled softmax attention under window_attention for one call
    shape: `batch` stacked head-major sequences of `rows` finest rows at
    `levels` levels, finest first, whose leading live[l] rows at level l
    no sequence pads. It holds the shape's masks and runs of tiles.

    Each level pools the one before by 2, and its query row a holds the key
    rows a - w .. a + w in its window. Windows nest, so a finest entry
    (query t, key u) scores C_m(t >> m, u >> m), where m is the finest
    level whose window holds it and C_m = s_m + C_(m+1) at the parent rows
    (s_m the level's own score, C at the coarsest its own score). The
    kernel partitions each row's entries by that level. With h = ceil(w/2),
    the half window of a's parent that a's two children read, level l's
    band for row a is the children of its parent's inner blocks, key rows
    2(a >> 1) - 2h .. 2(a >> 1) + 2h + 1 (the coarsest level's is its
    window), and its scores there are the parent's cumulative scores spread
    over 2 x 2 blocks plus its own masked by its window. Its ring is the band
    minus its inner blocks a - h .. a + h, which the level below covers (the
    finest level keeps its whole band): every entry of a's ring is an entry
    of each frame a holds, with a's score, so it is exponentiated once at
    the level's own rows and columns against [V | count] pooled to the
    level, and its [num | den] is added to each of those frames.

    The queries qs[l] come row-major, [B, rows_l, hd]; the keys ks[l] and
    [V | count] vcs[l] value-major, [B, hd, rows_l + 2m_l] and [B, hd + 1,
    rows_l + 2m_l], with m_l zero margin columns on each side (every level
    of a ladder has them, so no slab clips and every level's band sits at
    the same place in every sub-tile; a one-level call clips instead, since
    its window may be as wide as the sequence). The count row of vcs counts
    each pooled row's frames, 0 at padding and margins, where a key or a
    query row scores -inf. A tile of R finest rows, which the constructor
    picks from the call shape (`_geometry`), runs each level's scores as
    dense [S, S + 2lo] band tiles, a batched matmul over strided key slabs
    times the level's window mask, plus the parent's spread (each pair of
    columns as one complex entry, broadcast over each pair of rows), plus
    the ring's additive mask; the window and ring masks are dense read-only
    [S, S + 2lo] arrays, so each add coalesces over a whole tile. Padding
    and margins add the caller's 0/-inf masks of the count rows, negs. A
    call's uniform tiles, whose slabs reach no margin or padding, run k at
    a time as one batched op per step, k from TILE_ENTRIES over the entries
    a tile forms, and so do the others unless their slabs clip; a clipped
    one-level slab adds its ring as a band view of the dense mask's
    diagonals, or not at all where every row's window covers it. Each
    tile's softmax is shifted by its per-sequence max over every level, so
    each level's exp and matmul [V | count] @ e^T give its rows'
    [num | den], and the levels' sums, added coarsest first at frame rows,
    are written value-major into one buffer per call, with each row's shift
    in another. A tile where some row's denominator falls below (slab
    columns over its levels) * tiny / eps has lost that row to underflow;
    it is redone with each frame shifted by its own max over every level
    and each ring by the least of its frames' maxima, so every exp is at
    most 1, and the sums are rescaled by exp(ring shift - frame shift) as
    they are added. After the last tile one log, one add and one divide
    give every row's log denominator (its shift plus the log of its
    denominator) and output. The backward recomputes the scores and takes
    each ring's softmax weights against the least log denominator L_a of
    its frames, meeting them with dY_a, the frames' dY (the numerator's
    gradient times the denominator) summed to the ring's rows, each times
    exp(L_a - its frame's log denominator); the score gradient dZ_l of a
    level flows to its own scores inside its window and, summed over 2 x 2
    blocks, to its parent's. It returns every gradient at its level's own
    rows, for window_attention to bring to frame rows. A padded row's
    outputs and gradients, and the [V | count] gradient of a padded frame
    in a pooled block, are meaningless; window_attention drops them.
    """

    def __init__(self, levels: int, w: int, dtype, batch: int, rows: int, live: tuple):
        # R finest rows per tile, by the rule at TILE_ROWS; a tile's scores span
        # slabs clipped to the sequence where a level stores no margins
        f = 1 << (levels - 1)
        R = min(TILE_ROWS // f * f, rows) if TILE_ROWS >= f else 1 << (TILE_ROWS.bit_length() - 1)
        self.geo = _geometry(levels, w, R)
        while R > f and batch * sum(S * min(S + 2 * lo, (rows >> lvl) + 2 * m) for lvl, (_, S, lo, m)
                                    in enumerate(self.geo)) > TILE_ENTRIES:
            R -= f
            self.geo = _geometry(levels, w, R)
        self.rows, self.live = rows, live
        self.h, self.F = (w + 1) // 2, max(R, f)
        info = np.finfo(dtype)
        # a shift for a sequence whose tile is all -inf; a floor per slab
        # column; a log denominator for a row that holds no frame
        self.low, self.floor, self.high = info.min, info.tiny / info.eps, info.max
        self.margins = [m for *_, m in self.geo]
        # the scores a whole tile forms per sequence; the first tile whose
        # slabs start in the sequence at every level
        self.entries = sum(n * S * (S + 2 * lo) for n, S, lo, _ in self.geo)
        self.first = max(-(-(lo << lvl) // self.F) for lvl, (_, _, lo, _) in enumerate(self.geo))
        # a one-level call's slabs clip at the sequence's ends; a ladder's margins hold them
        self.clips = any(lo > m for _, _, lo, m in self.geo)
        # 1 + 1j: times a parent entry, the pair of equal entries it spreads to
        self.pair = np.result_type(dtype, np.complex64).type(1 + 1j)
        # per level, entry (i, j) of a sub-tile is query row a0 + i against key
        # row a0 - lo + j, a0 even below the coarsest level: 1/0 inside the
        # window (levels with a parent) and 0/-inf on the ring
        self.window, self.ring = [], []
        h, top = self.h, levels - 1
        for lvl, (_, S, lo, _) in enumerate(self.geo):
            i, j = np.arange(S)[:, None], np.arange(S + 2 * lo)
            d = np.abs(j - lo - i)
            if lvl == top:
                keep = (d <= w) & ((levels == 1) | (d > h))
            else:
                band = (j >= (i & -2)) & (j <= (i & -2) + 4 * h + 1)
                keep = band & ((lvl == 0) | (d > h))
                self.window.append((d <= w).astype(dtype))
            self.ring.append(np.where(keep, 0.0, -np.inf).astype(dtype))
        for mask in self.window + self.ring:
            mask.flags.writeable = False  # shared by every call that gets this kernel
        # the finest ring's columns [open[0], open[1]) that are 0 in every row
        inside = np.flatnonzero(np.isfinite(self.ring[0]).all(axis=0))
        whole = inside.size and inside[-1] - inside[0] + 1 == inside.size
        self.open = (int(inside[0]), int(inside[-1]) + 1) if whole else (0, 0)
        if self.clips:
            # a one-level ring depends on j - i only: a clipped slab adds its
            # columns from a read-only band view of the ring's diagonals, whose
            # overlapping rows stay in cache. A column slice of the dense ring
            # also runs one inner loop per row, and took 1.13-1.29x the view's
            # time (float32 adds into [B, 1, 1, 32, C], B 4-20, w 16-512); a
            # whole slab adds the dense ring, which coalesces (0.58-0.77x)
            ring = self.ring[0]
            band = np.concatenate([ring[::-1, 0], ring[0, 1:]])
            self.band = sliding_window_view(band, ring.shape[1])[::-1]
        # a run's tiles at most: a tile's forward forms one score array per
        # entry, its backward two (the weights and their gradient)
        k = max(1, TILE_ENTRIES // (batch * self.entries))
        self.forward_runs = self._tiles(k)
        self.backward_runs = self.forward_runs if k < 2 else self._tiles(k // 2)

    def _tiles(self, k):
        """The runs of a call, as (t0, k, F, levels): k tiles of F finest rows
        from row t0, and per level, finest first, its first row a0, sub-tiles
        per tile n, rows per sub-tile S, first stored slab column c0, slab
        width C and columns j0 clipped off the slab's start. The uniform
        tiles, whose slabs reach no margin or padding at any level, run up to
        k at a time, and so do the others unless their slabs clip; a last
        tile of fewer whole blocks runs alone."""
        rows, F, first = self.rows, self.F, self.first
        full = stop = rows // F
        for lvl, (_, _, lo, _) in enumerate(self.geo):
            stop = min(stop, ((self.live[lvl] - lo) << lvl) // F)
        edge = 1 if self.clips else k
        runs = []
        for g0, g1, step in ((0, min(first, full), edge), (first, stop, k),
                             (max(first, stop), full, edge), (full, -(-rows // F), 1)):
            for g in range(g0, g1, step):
                Ft = min(F, rows - g * F)
                levels = []
                for lvl, (n, S, lo, m) in enumerate(self.geo):
                    if Ft < F:
                        n, S = 1, Ft >> lvl  # a last tile of fewer whole blocks
                    a0 = g * F >> lvl
                    c0, c1, cols = a0 - lo + m, a0 + S + lo + m, (rows >> lvl) + 2 * m
                    j0 = -c0 if c0 < 0 else 0
                    levels.append((a0, n, S, c0 + j0, (c1 if c1 < cols else cols) - c0 - j0, j0))
                runs.append((g * F, min(step, g1 - g), Ft, tuple(levels)))
        return tuple(runs)

    def _parent(self, zp, n, S):
        """The parent level's entries [B, k, n, S/2, S/2 + 2h] that a level of
        n sub-tiles of S rows spreads: its inner columns, from lo' - h on. A
        parent run whole under sub-tiles of one parent row each (S = 2) gives
        sub-tile i its row i, from column lo' - h + i."""
        B, k, n_p, S_p, C_p = zp.shape
        st = zp.strides
        off = (C_p - S_p) // 2 - self.h
        sub = st[2] if n_p == n else st[3] + st[4]
        return np.ndarray((B, k, n, S // 2, S // 2 + 2 * self.h), zp.dtype, zp,
                          off * st[4], (st[0], st[1], sub, st[3], st[4]))

    def _scores(self, qs, ks, negs, k, levels):
        """The scores [B, k, n, S, C] of k tiles per level, finest first: each
        level's masked product plus its parent's spread, -inf off its ring
        and at padding and margins."""
        L, B = len(qs), qs[0].shape[0]
        zs = [None] * L
        for lvl in reversed(range(L)):
            a0, n, S, c0, C, j0 = levels[lvl]
            N = k * n
            q = qs[lvl][:, a0 : a0 + N * S].reshape(B, k, n, S, -1)
            z = q @ _windows(ks[lvl], 2, c0, (k, n), S, C)
            if lvl < L - 1:
                z *= self.window[lvl][:S, :C]
                # the parent's cumulative scores spread over 2 x 2 blocks: each
                # pair of columns as one complex entry, each pair of rows by
                # broadcasting; then the parent's own ring
                zp = zs[lvl + 1]
                p = self._parent(zp, n, S) * self.pair
                z.view(p.dtype).reshape(B, k, n, S // 2, 2, C // 2)[...] += p[:, :, :, :, None]
                zp += self.ring[lvl + 1][: zp.shape[3], : zp.shape[4]]
            # -inf at the slab columns left of the rows no sequence pads (in
            # any sub-tile: the first reaches farthest) and right of them (the
            # last reaches farthest), and at the query rows past them
            m, n_live = self.margins[lvl], self.live[lvl]
            left, right = m - c0, m + n_live - c0 - (N - 1) * S
            for j, j1 in ((0, C),) if left >= right else ((0, left), (right, C)):
                j, j1 = (j if j > 0 else 0), (j1 if j1 < C else C)
                if j < j1:
                    z[..., j:j1] += _windows(negs[lvl], 2, c0 + j, (k, n), S, j1 - j)
            if a0 + N * S > n_live:
                r = max(n_live - a0, 0)
                z.reshape(B, N * S, C)[:, r:] += negs[lvl][:, 0, m + a0 + r : m + a0 + N * S, None]
            zs[lvl] = z
        S, C, j0 = levels[0][2], levels[0][4], levels[0][5]
        if C == self.ring[0].shape[1]:
            zs[0] += self.ring[0]
        elif j0 < self.open[0] or j0 + C > self.open[1]:
            # a clipped or shorter slab that reaches a column where some row's
            # ring ends
            zs[0] += (self.band if self.clips else self.ring[0])[:S, j0 : j0 + C]
        return zs

    def _run(self, qs, ks, vcs, negs, nd, shift, t0, k, F, levels, by_row):
        """Write [num | den] and the shifts of k tiles of F rows from row t0
        into nd [B, tiles, hd + 1, F] and shift [B, tiles, 1, 1, F]; with `by_row`,
        each frame shifted by its own max. Returns the tiles where some
        row's denominator underflowed."""
        L, B, hd = len(qs), nd.shape[0], nd.shape[2] - 1
        zs = self._scores(qs, ks, negs, k, levels)
        if by_row:
            # each frame's max over every level, then per ring row the least
            # of its frames' maxima
            top = [z.max(axis=4, initial=self.low).reshape(B, k, -1) for z in zs]
            sh = [top[-1]]
            for lvl in reversed(range(L - 1)):
                sh.insert(0, np.maximum(np.repeat(sh[0], 2, axis=2), top[lvl]))
            for lvl in range(1, L):
                sh[lvl] = np.minimum(sh[lvl - 1][:, :, 0::2], sh[lvl - 1][:, :, 1::2])
        else:
            m = zs[-1].max(axis=(2, 3, 4), keepdims=True, initial=self.low)
            for lvl in range(L - 1):
                np.maximum(m, zs[lvl].max(axis=(2, 3, 4), keepdims=True), out=m)
        g = t0 // self.F
        out = nd[:, g : g + k, :, :F]
        acc = None
        for lvl in reversed(range(L)):
            a0, n, S, c0, C, _ = levels[lvl]
            z, zs[lvl] = zs[lvl], None  # freed as soon as it is used
            s = sh[lvl].reshape(B, k, n, S, 1) if by_row else m
            e = np.exp(np.subtract(z, s, out=z), out=z)
            # each level's [num | den], value-major [B, k, hd + 1, rows]
            cur = out if lvl == 0 else np.empty((B, k, hd + 1, n * S), nd.dtype)
            np.matmul(_windows(vcs[lvl], 2, c0, (k, n), S, C), e.swapaxes(3, 4),
                      out=cur[:, :, None] if n == 1 else
                      cur.reshape(B, k, hd + 1, n, S).transpose(0, 1, 3, 2, 4))
            del z, e
            if acc is not None:
                up = np.repeat(acc, 2, axis=3)
                if by_row:
                    up *= np.exp(np.repeat(sh[lvl + 1], 2, axis=2) - sh[lvl])[:, :, None]
                cur += up
            acc = cur
        den = out[:, :, hd]
        if t0 + k * F > self.live[0]:
            # a padded row's denominator 0 becomes at least 1, so its output is finite
            m0 = self.margins[0]
            den += (negs[0][:, 0, m0 + t0 : m0 + t0 + k * F] != 0).reshape(B, k, F)
        shift[:, g : g + k, :, :, :F] = sh[0].reshape(B, k, 1, 1, F) if by_row else m
        floor = sum(lv[4] for lv in levels) * self.floor
        if by_row or den.min() >= floor:
            return ()
        return np.flatnonzero(den.min(axis=(0, 2)) < floor)

    def forward(self, qs, ks, vcs, negs):
        """The outputs [B, rows, hd] and the log softmax denominators
        [B, rows, 1] of every finest query row: the shift its tile's scores
        took plus the log of the sum of their exps. A padded row's output
        and log denominator are finite and meaningless."""
        B, rows = qs[0].shape[:2]
        hd, F, dtype = vcs[0].shape[1] - 1, self.F, vcs[0].dtype
        # every row's [num | den], value-major like vcs, and its shift, in
        # whole tiles: nd as [B, tiles, hd + 1, F] and shift as [B, tiles, 1, 1, F]
        tiles = -(-rows // F)
        nd = np.empty((B, hd + 1, tiles * F), dtype)
        shift = np.empty((B, tiles, 1, 1, F), dtype)
        by_tile = nd.reshape(B, hd + 1, tiles, F).transpose(0, 2, 1, 3)
        for t0, k, Ft, levels in self.forward_runs:
            for i in self._run(qs, ks, vcs, negs, by_tile, shift, t0, k, Ft, levels, False):
                one = [(a0 + i * n * S, n, S, c0 + i * n * S, C, j0)
                       for a0, n, S, c0, C, j0 in levels]
                self._run(qs, ks, vcs, negs, by_tile, shift, t0 + i * F, 1, Ft, one, True)
        den = nd[:, hd:, :rows]
        lse = shift.reshape(B, -1, 1)[:, :rows]
        np.add(np.log(den.transpose(0, 2, 1)), lse, out=lse)
        y = np.divide(nd[:, :hd, :rows], den, out=nd[:, :hd, :rows])
        return y.transpose(0, 2, 1), lse

    def backward(self, qs, ks, vcs, negs, lse, dy):
        """The gradients (dqs, dks, dvs) of qs, ks and vcs per level,
        row-major and without margins, from the forward's log denominators
        and dy [B, rows, hd + 1]: the gradient of the softmax numerator
        [num | den] times each row's denominator."""
        L = len(qs)
        B, rows = qs[0].shape[:2]
        # per level row, the least log denominator of its frames and dY
        # summed to it, each frame's times exp(that least - its own)
        lows, dys = [lse[:, :, 0]], [dy]
        if L > 1:
            # a padded frame, whose finest scores are all -inf, takes no part
            m0 = self.margins[0]
            lows[0] = np.where(vcs[0][:, -1, m0 : m0 + rows] > 0, lows[0], self.high)
        for _ in range(1, L):
            a, b = lows[-1][:, 0::2], lows[-1][:, 1::2]
            low = np.minimum(a, b)
            ya, yb = dys[-1][:, 0::2], dys[-1][:, 1::2]
            dys.append(ya * np.exp(low - a)[:, :, None] + yb * np.exp(low - b)[:, :, None])
            lows.append(low)
        # the dq products read the keys row-major, copied once per call
        kr = [np.ascontiguousarray(x.transpose(0, 2, 1)) for x in ks]
        dqs, dks = [np.empty_like(x) for x in qs], [np.zeros_like(x) for x in kr]
        dvs = [np.zeros((B, x.shape[2], x.shape[1]), x.dtype) for x in vcs]
        for _, k, _, levels in self.backward_runs:
            zs = self._scores(qs, ks, negs, k, levels)
            dz = None  # the finer level's score gradient
            for lvl in range(L):
                a0, n, S, c0, C, _ = levels[lvl]
                N, rs = k * n, slice(a0, a0 + k * n * S)
                # the ring's softmax weights, each at most 1
                z, zs[lvl] = zs[lvl], None
                e = np.exp(np.subtract(z, lows[lvl][:, rs].reshape(B, k, n, S, 1), out=z), out=z)
                dyl = dys[lvl][:, rs].reshape(B, k, n, S, -1)
                _overlap_add(dvs[lvl], c0, S, e.swapaxes(3, 4) @ dyl)
                ds = dyl @ _windows(vcs[lvl], 2, c0, (k, n), S, C)
                ds *= e
                del z, e
                if dz is not None:
                    # the finer level's gradient summed over 2 x 2 blocks, on the
                    # inner columns it spread from: each pair of rows as the two
                    # halves of one row, then columns
                    Cc = dz.shape[4]
                    d = dz.reshape(B, k, dz.shape[2], -1, 2 * Cc)
                    d = d[..., :Cc] + d[..., Cc:]
                    view = self._parent(ds, dz.shape[2], dz.shape[3])
                    view += d[..., 0::2] + d[..., 1::2]
                    del d, view
                dz = ds
                if lvl < L - 1:
                    ds = ds * self.window[lvl][:S, :C]
                np.matmul(ds, _windows(kr[lvl], 1, c0, (k, n), S, C),
                          out=dqs[lvl][:, rs].reshape(B, k, n, S, -1))
                _overlap_add(dks[lvl], c0, S, ds.swapaxes(3, 4) @ qs[lvl][:, rs].reshape(B, k, n, S, -1))
            # freed before the next tile's scores are built, whose buffers can then
            # take their place
            del dz, ds
        return dqs, *([x[:, m : x.shape[1] - m] for x, m in zip(xs, self.margins)]
                      for xs in (dks, dvs))


_call_kernel = functools.lru_cache(maxsize=CALL_SHAPES)(_TileKernel)


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

    Each group is one call of the tiled kernel, with one level per scale,
    frame level first, over step * heads-per-group stacked sequences: each
    head's residues, zero-padded to the rows of the longest, rounded up to
    whole coarsest blocks. The values carry a count of 1 per frame and 0
    per padded row, as [V | count]; each level pools q, k and [V | count]
    by 2, so a residue's ragged tail gets its own frame count, and the
    kernel weights each level's ring with its pooled [V | count]. Each
    level's pooled queries are pre-scaled by (1 / levels) / (sqrt(hd) *
    count), and its keys are pooled means. The queries are stacked
    row-major, and the keys and [V | count] value-major, with the kernel's
    zero margins, once per group, in the layout the kernel's products read.
    A group's kernel, which picks its tile rows and plans its runs of
    tiles, comes from a memo of the last CALL_SHAPES call shapes. When a
    gradient is needed, the backward keeps, per group, the operands its
    forward stacked (each level's pooled queries, keys and [V | count], the
    0/-inf masks of their count rows, and the counts), each in that one
    layout, not q, k and v themselves, and the log softmax denominators of
    its stacked rows as the kernel returned them, [sequences, rows, 1]: per
    row, the shift its tile's scores took plus the log of their exps' sum.
    It also keeps the output. HTA's pooled levels add about 3.0 T·A to
    what a layer's tape holds. The backward forms dY = [g, -(g . y)] once,
    frame-major, stacks only it per group, row-major like the queries, and
    drops each group's operands once its gradients are made. The kernel
    returns every gradient per level; the backward scales each level's
    query and key gradients by wt / count and 1 / count, as the forward
    did, then brings them and the [V | count] gradients to frame rows in
    one chain, coarse to fine: each level's rows are repeated twice and
    added to the next finer level's. Under no_grad() a group's operands are
    freed once its output is written.
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
    dtype, f = q.data.dtype, 1 << (levels - 1)
    qd, kd, vd = (x.data.reshape(T, heads, hd) for x in (q, k, v))
    # per group: its heads, its window width and its dilation step
    groups = [(slice(i * hg, (i + 1) * hg), w, step) for i, (w, step) in enumerate(windows)]

    def operands(hs, w, step):
        """The kernel and its operands for heads hs, stacked over the
        residues of `step`: per level the pooled query sums times
        wt / count, row-major, the pooled key means and the pooled
        [V | count] sums, value-major with the kernel's margins, the 0/-inf
        masks of their count rows where the kernel reads them, and the
        counts each pooled sum was divided by."""
        rows = -(-T // (step * f)) * f  # residue 0's, the longest, in whole blocks
        # the leading rows per level that no sequence pads: the last residue's
        live = tuple((T // step + (1 << lvl) - 1) >> lvl for lvl in range(levels))
        # every key a tile reads lies fewer than `rows` rows from its query
        # at its own level, so a wider window reads what one of `rows` does
        kernel = _call_kernel(levels, min(w, rows), dtype, step * hg, rows, live)
        ms = kernel.margins
        # residue r's row i is frame i * step + r, and counts 1 if it exists
        frames = np.arange(rows) * step + np.arange(step)[:, None] < T
        c = np.repeat(frames.astype(dtype), hg, axis=0)[:, :, None]
        vc = _stack(vd[:, hs], step, rows, hd + 1, value_major=True, margin=ms[0])
        vc[:, hd, ms[0] : ms[0] + rows] = c[:, :, 0]
        ksum = _stack(kd[:, hs], step, rows, value_major=True, margin=ms[0])
        qsum = _stack(qd[:, hs], step, rows)
        qs, ks, vcs, cs = [qsum * wt], [ksum], [vc], [1.0]  # a frame-level row counts one frame
        ksum = ksum[:, :, ms[0] : ms[0] + rows]
        for lvl in range(1, levels):
            m, r, prev = ms[lvl], rows >> lvl, vcs[-1][:, :, ms[lvl - 1] : ms[lvl - 1] + 2 * (rows >> lvl)]
            qsum, ksum, c = _pair_sum(qsum), _pair_sum(ksum, 2), _pair_sum(c)
            cs.append(np.maximum(c, 1))  # a block of padding only sums to 0
            qs.append(qsum * (wt / cs[-1]))
            kp, vc = (np.zeros((x.shape[0], x.shape[1], r + 2 * m), dtype) for x in (ksum, prev))
            np.divide(ksum, cs[-1].transpose(0, 2, 1), out=kp[:, :, m : m + r])
            np.add(prev[:, :, 0::2], prev[:, :, 1::2], out=vc[:, :, m : m + r])
            ks.append(kp)
            vcs.append(vc)
        # 0 at each stored column that counts a frame, -inf at padding and
        # margins, built once for the forward and backward where some level has
        # either; built on every call, they slowed infer_cli's attention 3-4%
        negs = [np.where(x[:, -1:] > 0, dtype.type(0), dtype.type(-np.inf))
                for x in vcs] if any(ms) or live[0] < rows else None
        return kernel, qs, ks, vcs, negs, cs

    y = np.empty((T, heads, hd), dtype)
    # per group, the operands its backward reads, only when one will run
    kept = [] if _records((q, k, v)) else None
    for hs, w, step in groups:
        kernel, qs, ks, vcs, negs, cs = operands(hs, w, step)
        yg, lse = kernel.forward(qs, ks, vcs, negs)
        _unstack(yg, y[:, hs])
        if kept is not None:
            kept.append((hs, step, kernel, qs, ks, vcs, negs, cs, lse))
        del qs, ks, vcs, negs, cs, yg, lse

    out = _make(y.reshape(T, A), (q, k, v))
    if out.requires_grad:
        nodes = _grad_node(q), _grad_node(k), _grad_node(v)

        def back(g):
            g = g.reshape(T, heads, hd)
            # y = num / den, so the numerator [num | den] gets [g, -(g . y)] / den;
            # the kernel's weights exp(score - lse) already hold the 1 / den
            dy = np.concatenate([g, -(g * y).sum(axis=2, keepdims=True)], axis=2)
            dq, dk, dv = (np.empty((T, heads, hd), dtype) for _ in range(3))
            while kept:
                # each group's operands are dropped once its gradients are made
                hs, step, kernel, qs, ks, vcs, negs, cs, lse = kept.pop()
                grads = kernel.backward(qs, ks, vcs, negs, lse,
                                        _stack(dy[:, hs], step, qs[0].shape[1]))
                for a, b, c in zip(*grads[:2], cs):
                    a *= wt / c
                    b /= c
                # each level's rows brought to the next finer's, coarsest first
                for xs, d in zip(grads, (dq, dk, dv)):
                    for lvl in reversed(range(1, len(xs))):
                        np.add(np.repeat(xs[lvl], 2, axis=1), xs[lvl - 1], out=xs[lvl - 1])
                    _unstack(xs[0], d[:, hs])
            for node, d in zip(nodes, (dq, dk, dv)):
                if node is not None:
                    node._accumulate(d.reshape(T, A))
        out._node._backward = back
    return out


def _conv_taps(x: np.ndarray, kernel: np.ndarray, dilation: int, mode: str) -> list:
    """The taps of a dilated conv of time-major x [T, C_in] with kernel
    [C_out, C_in, k] that meet the sequence, in tap order, as (j, lo, hi,
    src): output rows [lo, hi) read the input rows src, the same range
    shifted by tap j's offset d, so lo, hi = max(0, -d), min(T, T - d).

    acausal: output at t reads taps t + j*dilation, j in [-(k-1)/2, (k-1)/2]
    causal:  output at t reads taps t - j*dilation, j in [0, k-1]
    Either way the tap of offset 0 meets every row, so the list is never
    empty.
    """
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"conv1d expects non-empty [T, C_in] input, got {x.shape}")
    if dilation < 1:
        raise ShapeError(f"dilation must be >= 1, got {dilation}")
    if kernel.ndim != 3 or kernel.shape[1] != x.shape[1]:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    k = kernel.shape[2]
    if mode == "acausal":
        if k % 2 == 0:
            raise ShapeError(f"acausal mode requires odd kernel size, got {k}")
        deltas = [(j - (k - 1) // 2) * dilation for j in range(k)]
    elif mode == "causal":
        deltas = [-j * dilation for j in range(k)]
    else:
        raise ValueError(f"unknown conv mode {mode!r}")
    T, taps = x.shape[0], []
    for j, d in enumerate(deltas):
        lo, hi = max(0, -d), min(T, T - d)
        if lo < hi:
            taps.append((j, lo, hi, slice(lo + d, hi + d)))
    return taps


def _tap_sum(out: np.ndarray, terms) -> np.ndarray:
    """out [T, C] as the sum of the products a @ b of terms (rows, a, b),
    each over out[rows], in order. The first product is written into its
    rows and only the rows it misses are zeroed; the rest are added. Each
    entry gets the bits that adding every product into zeros gives, since
    0 + a == a."""
    (rows, a, b), *rest = terms
    np.matmul(a, b, out=out[rows])
    out[: rows.start] = 0
    out[rows.stop :] = 0
    for rows, a, b in rest:
        out[rows] += a @ b
    return out


def _conv_forward(xd: np.ndarray, w: np.ndarray, taps: list) -> np.ndarray:
    """The bias-free conv output [T, C_out]: one GEMM per tap into a
    contiguous row range."""
    out = np.empty((xd.shape[0], w.shape[0]), xd.dtype)
    return _tap_sum(out, [(slice(lo, hi), xd[src], w[:, :, j].T) for j, lo, hi, src in taps])


def _conv_backward(g, taps, xd, w, nk, nb, dx):
    """From a conv's output gradient g [T, C_out], accumulate its kernel's
    gradient into node nk and its bias's into nb (each when not None), and
    return its input's gradient [T, C_in] when dx is true, else None. The
    kernel w comes as the forward was given it: its gradient starts from
    zeros in w's dtype and C or Fortran order, and w is cast to g's dtype
    for the input's gradient here, so no closure keeps a cast."""
    if nk is not None:
        if nk.grad is None:
            nk.grad = np.zeros_like(w)
        for j, lo, hi, src in taps:
            nk.grad[:, :, j] += g[lo:hi].T @ xd[src]
    if nb is not None:
        nb._accumulate(g.sum(axis=0))
    if not dx:
        return None
    w = w.astype(g.dtype, copy=False)
    out = np.empty((g.shape[0], w.shape[1]), g.dtype)
    return _tap_sum(out, [(src, g[lo:hi], w[:, :, j]) for j, lo, hi, src in taps])


def conv1d_dilated(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor,
    dilation: int = 1,
    mode: str = "acausal",
) -> Tensor:
    """Dilated 1-D convolution over time-major [T, C_in] input with zero
    padding, plus bias; the result is [T, C_out]. The taps are those of
    `_conv_taps`: each reads one row slice of x and adds one GEMM into a
    contiguous row range of the output."""
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    taps = _conv_taps(x.data, kernel.data, dilation, mode)
    xd, w = x.data, kernel.data
    y = _conv_forward(xd, w.astype(xd.dtype, copy=False), taps)
    y += bias.data.astype(y.dtype, copy=False)

    out = _make(y, (x, kernel, bias))
    if out.requires_grad:
        nx, nk, nb = _grad_node(x), _grad_node(kernel), _grad_node(bias)
        # only the kernel's gradient reads the input
        if nk is None:
            xd = None

        def back(g):
            dx = _conv_backward(g, taps, xd, w, nk, nb, nx is not None)
            if dx is not None:
                nx._accumulate(dx)
        out._node._backward = back
    return out


def tcn_block(x: Tensor, conv_w: Tensor, conv_b: Tensor, pw_w: Tensor, pw_b: Tensor,
              dilation: int, mode: str) -> Tensor:
    """One residual TCN block as one op: x + pw(relu(conv(x))) for
    time-major x [T, C], with the dilated conv `conv_w` [C_h, C, k] plus
    `conv_b` [C_h] (taps as in `conv1d_dilated`) and the pointwise conv
    `pw_w` [C, C_h, 1] plus `pw_b` [C].

    The forward holds two arrays of T rows at a time and zero-fills
    neither: the conv writes its first tap in place, and the biases, the
    ReLU and the residual are applied in place. The closed-form backward
    forms the input's gradient by the same rule, adds the residual's to it
    and accumulates the sum once. Every sum is the one that the composite
    of `conv1d_dilated`, a ReLU, a pointwise `conv1d_dilated` and `+`
    makes, so outputs and gradients have its bits. The closure keeps x and
    the ReLU output h; an entry clamped where h > 0 fails.
    """
    x, conv_w, conv_b, pw_w, pw_b = (as_tensor(t) for t in (x, conv_w, conv_b, pw_w, pw_b))
    xd = x.data
    taps = _conv_taps(xd, conv_w.data, dilation, mode)
    T, C = xd.shape
    c = conv_w.data.shape[0]
    if conv_b.data.shape != (c,) or pw_w.data.shape != (C, c, 1) or pw_b.data.shape != (C,):
        raise ShapeError(
            f"tcn block on {xd.shape} needs conv bias ({c},), pointwise kernel ({C}, {c}, 1) "
            f"and bias ({C},), got {conv_b.data.shape}, {pw_w.data.shape}, {pw_b.data.shape}"
        )
    dtype, w, pw = xd.dtype, conv_w.data, pw_w.data
    pw_taps = [(0, 0, T, slice(0, T))]
    h = _conv_forward(xd, w.astype(dtype, copy=False), taps)
    h += conv_b.data.astype(dtype, copy=False)
    np.maximum(h, 0.0, out=h)
    y = _conv_forward(h, pw.astype(dtype, copy=False), pw_taps)
    y += pw_b.data.astype(dtype, copy=False)
    y += xd

    out = _make(y, (x, conv_w, conv_b, pw_w, pw_b))
    if out.requires_grad:
        nx, nk, nb, npw, npb = map(_grad_node, (x, conv_w, conv_b, pw_w, pw_b))
        needs_dh = nx is not None or nk is not None or nb is not None
        # only the kernels' gradients read the input and h; the ReLU's reads h
        if nk is None:
            xd = None
        if not needs_dh and npw is None:
            h = None

        def back(g):
            dh = _conv_backward(g, pw_taps, h, pw, npw, npb, needs_dh)
            if dh is None:
                return
            # the ReLU's gradient: dh's bits and-ed with all ones or zeros, so
            # +0.0 where it clamped also for an infinite or negative g (a
            # multiply gives NaN, -0.0), 16 us to a masked copy's 204 us at [512, 64]
            bits = np.dtype(f"u{dh.itemsize}")
            keep = (h > 0.0).astype(bits)
            np.bitwise_and(dh.view(bits), np.negative(keep, out=keep), out=dh.view(bits))
            dx = _conv_backward(dh, taps, xd, w, nk, nb, nx is not None)
            if dx is not None:
                dx += g  # the residual's gradient
                nx._accumulate(dx)
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
    xd, wd, dtype = x.data, w.data, x.data.dtype
    y = xd @ wd.astype(dtype, copy=False)
    y += b.data.astype(dtype, copy=False)
    out = _make(y, (x, w, b))
    if out.requires_grad:
        nx, nw, nb = _grad_node(x), _grad_node(w), _grad_node(b)
        # only the weight's gradient reads the input
        if nw is None:
            xd = None

        def back(g):
            if nx is not None:
                nx._accumulate(g @ wd.astype(dtype, copy=False).T)
            if nw is not None:
                nw._accumulate(xd.T @ g)
            if nb is not None:
                nb._accumulate(g.sum(axis=0))
        out._node._backward = back
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row normalisation of x [T, D], then affine gain/bias, each (D,):
    xhat * gain + bias with xhat = (x - mean) / sqrt(var + eps), as one op
    (Ba et al., arXiv:1607.06450). The backward is closed form,
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sqrt(var + eps)
    with dxhat = dy * gain; gain and bias are cast to x's dtype."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    xs, gs, bs = x.data.shape, gain.data.shape, bias.data.shape
    if len(xs) != 2 or gs != xs[1:] or bs != gs:
        raise ShapeError(
            f"layer_norm needs x [T, D] with gain and bias (D,), got {xs}, {gs}, {bs}"
        )
    n, dtype, gd = xs[1], x.data.dtype, gain.data
    # two [T, D] buffers: the centred rows become xhat in place, and the
    # squares' buffer becomes the output
    xc = x.data - x.data.sum(axis=-1, keepdims=True) / n
    y = xc * xc
    std = np.sqrt(y.sum(axis=-1, keepdims=True) / n + eps)
    xhat = np.divide(xc, std, out=xc)
    np.multiply(xhat, gd.astype(dtype, copy=False), out=y)
    y += bias.data.astype(dtype, copy=False)
    out = _make(y, (x, gain, bias))
    if out.requires_grad:
        nx, ng, nb = _grad_node(x), _grad_node(gain), _grad_node(bias)

        def back(dy):
            if ng is not None:
                ng._accumulate((dy * xhat).sum(axis=0))
            if nb is not None:
                nb._accumulate(dy.sum(axis=0))
            if nx is not None:
                dxhat = dy * gd.astype(dtype, copy=False)
                dx = dxhat - dxhat.sum(axis=-1, keepdims=True) / n
                dx -= xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / n)
                nx._accumulate(dx / std)
        out._node._backward = back
    return out


class Adam:
    """Adam with bias correction over a list of C-contiguous parameter
    Tensors, each updated in place in chunks of ADAM_CHUNK entries of its
    flat view through two scratch buffers that it keeps, by the operations
    of a whole-tensor update in their order, so with its bits."""

    def __init__(self, params, lr=5e-4):
        self.params = list(params)
        if not all(p.data.flags.c_contiguous for p in self.params):
            raise ValueError("Adam needs C-contiguous parameters to update them through flat views")
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        n = min(ADAM_CHUNK, max((p.data.size for p in self.params), default=0))
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt))
                         for dt in {p.data.dtype for p in self.params}}

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
            a, b = self._scratch[p.data.dtype]
            n = p.data.size
            pf, mf, vf, gf = p.data.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1)
            for i in range(0, n, ADAM_CHUNK):
                j = min(i + ADAM_CHUNK, n)
                pc, mc, vc, gc, ta, tb = pf[i:j], mf[i:j], vf[i:j], gf[i:j], a[: j - i], b[: j - i]
                # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
                # p -= lr (m / c1) / (sqrt(v / c2) + eps)
                mc *= b1
                mc += np.multiply(gc, 1.0 - b1, ta)
                vc *= b2
                vc += np.multiply(np.multiply(gc, 1.0 - b2, ta), gc, ta)
                np.add(np.sqrt(np.divide(vc, c2, ta), ta), ADAM_EPS, ta)
                pc -= np.divide(np.multiply(np.divide(mc, c1, tb), self.lr, tb), ta, tb)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
