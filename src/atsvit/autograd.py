"""Minimal reverse-mode tape over numpy arrays.

A Node is an eagerly computed value. Only the result of a recorded op also
gets a Vertex, which keeps no value: it holds the op's parents as (edge,
vjp) pairs and a unique creation index from one process-wide counter. An
edge is a parent's vertex or, for a leaf (a node without a vertex), the
leaf Node itself; every leaf the program records against is held by its
owner (the weights dict, a chunk's prefixes) for as long as the graph
lives anyway. A vjp keeps only the arrays its gradient formula reads, as
they were when the op ran (matmul its operands, softmax_rows its output,
layer_norm its normalized rows, gelu its derivative), so a value nothing
reads is freed with its node, during the forward. A parent always exists
before its child, so reverse creation order is a reverse topological
order: backward() pops vertices from a heap keyed on that index and never
sorts the graph. Only leaves keep a gradient, in their .grad: it is
allocated lazily as zeros and each contribution is added with += as it
arrives, so a fresh pass requires explicit zeroing (zero_grads).
Intermediate gradients live only for the duration of one backward() call.

Several images can share one pass: their arrays gain a leading image axis,
tokens (images, T, d) and head stacks (images, heads, T, hd), while a single
image keeps its (T, d) and (heads, T, hd) arrays. Every op works on the
trailing axes, so it reads the image count from its operand's shape. A
product over a stack is numpy's one product per matrix, so each image's
products, forward and backward, are the ones it gets alone. A weight shared
by the images (matmul's 2-D b, add_row's row, layer_norm's gamma and beta)
then gets a stack of one gradient per image, and a leaf adds a stack one
image at a time, in image order, so its float sums run as if each image had
had its own pass. tile_rows makes the image axis, giving each image its
own copy of a leaf's rows. backward() also takes several seeded roots, so a
walk can go on from the nodes of a stacked pass once every image's own graph
has been walked back to views of them.

Each op that computes values checks them for NaN and Inf, so an overflow
names the op that made it. The copy ops (transpose, gather_rows, slice_cols,
split_cols, concat_cols, tile_rows, concat_rows) skip the check: a copy of a
checked array cannot turn non-finite, and a non-finite leaf they pass on is
reported by the next computing op.

Inside no_grad() nothing is recorded: every op computes its value with the
same numpy calls and the same check, but builds no vjp closures and returns
a Node with no vertex, so an inference pass allocates no graph.
Recording is one process-wide flag, on by default; the tape is not meant to
be driven from more than one thread at a time.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics
from .numerics import assert_finite


_creation = itertools.count()


class Vertex:
    """A recorded op's place in the graph: its parents as (edge, vjp) pairs,
    where an edge is a parent's vertex or a leaf Node, and its unique
    creation index (heap entries never compare vertices). It holds no
    value."""
    __slots__ = ("parents", "seq")

    def __init__(self, parents: tuple):
        self.parents = parents
        self.seq = next(_creation)


class Node:
    """A value, and its vertex if a recorded op made it. A node without a
    vertex is a leaf: edges point at the node itself, and its .grad
    accumulates the gradients that reach it."""
    __slots__ = ("value", "vertex", "grad")

    def __init__(self, value: np.ndarray, parents=()):
        # parents: (Node, vjp) pairs, or False when not recording
        self.value = value
        self.vertex = (Vertex(tuple([(p.vertex or p, vjp) for p, vjp in parents]))
                       if parents else None)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def parents(self) -> tuple:
        return () if self.vertex is None else self.vertex.parents

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={not self.parents})"


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Stop recording for the duration of the block; the previous state
    comes back on exit, also when the block raises."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def leaf(value) -> Node:
    """Wrap an array as a graph leaf. Leaves accumulate but never propagate."""
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(numerics.TEST_DTYPE)
    return Node(arr)


def _make(op: str, value: np.ndarray, parents) -> Node:
    """Every op that computes values ends here."""
    assert_finite(op, value)
    return Node(value, parents)


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _make("add", a.value + b.value,
                 _recording and ((a, lambda g: g), (b, lambda g: g)))


def _row_sum(g: np.ndarray) -> np.ndarray:
    """The sum of g's rows: of each image's rows, for a stack of images."""
    return np.add.reduce(g, axis=-2)


def add_row(a: Node, row: Node) -> Node:
    """Broadcast-add a length-n row vector to every row of a's (m, n)
    matrices."""
    return _make("add_row", a.value + row.value,
                 _recording and ((a, lambda g: g), (row, _row_sum)))


def scale(a: Node, c: float) -> Node:
    return _make("scale", a.value * c,
                 _recording and ((a, lambda g: g * c),))


def matmul(a: Node | np.ndarray, b: Node) -> Node:
    """Matrix product; stacked operands multiply matrix by matrix, and a
    stack of images' rows (images, m, k) shares a 2-D b. a may be a plain
    array, a constant that gets no gradient.

    The vjps take the same products a pass of one image would: with a stack
    of images and a shared b, b gets the stack of each image's a_b^T g_b and
    a gets each g_b b^T. They keep the operand arrays of this call, so a
    leaf whose value is replaced before backward still gets the gradient of
    the recorded one."""
    av = a if isinstance(a, np.ndarray) else a.value
    bv = b.value
    v = numerics.matmul(av, bv)
    if not _recording:
        return _make("matmul", v, ())
    edges = ((a, lambda g: g @ bv.swapaxes(-1, -2)),
             (b, lambda g: av.swapaxes(-1, -2) @ g))
    return _make("matmul", v, edges[1:] if a is av else edges)


def transpose(a: Node) -> Node:
    """Swap the last two axes. The copy keeps the result C-contiguous, so
    a product with it gets the same BLAS call as one with a fresh matrix."""
    return Node(a.value.swapaxes(-1, -2).copy(),
                _recording and ((a, lambda g: g.swapaxes(-1, -2)),))


def softmax_rows(a: Node) -> Node:
    y = numerics.softmax_rows(a.value)
    return _make("softmax_rows", y, _recording and (
        (a, lambda g: y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))),))


def _row_mean(x):
    # The reduction and division that ndarray.mean runs, without its
    # Python-level dispatch, which costs more than the sum on one image.
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm_vjp(g, xhat, inv_std, gv):
    gg = g * gv
    return (gg - _row_mean(gg) - xhat * _row_mean(gg * xhat)) * inv_std


def layer_norm(x: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
    xv = x.value
    centered = xv - _row_mean(xv)
    inv_std = 1.0 / np.sqrt(_row_mean(centered * centered) + eps)
    xhat = centered * inv_std
    out = xhat * gamma.value + beta.value
    return _make("layer_norm", out, _recording and (
        (x, lambda g, gv=gamma.value: _layer_norm_vjp(g, xhat, inv_std, gv)),
        (gamma, lambda g: _row_sum(g * xhat)),
        (beta, _row_sum),
    ))


def gelu(x: Node) -> Node:
    """The vjp keeps only the derivative, computed only while recording."""
    y, cdf = numerics.gelu(x.value)
    if not _recording:
        return _make("gelu", y, ())
    dy = numerics.gelu_grad(x.value, cdf)
    return _make("gelu", y, ((x, lambda g: g * dy),))


def _scatter_rows(g, idx, shape, dtype):
    out = np.zeros(shape, dtype=dtype)
    np.add.at(out, (Ellipsis, idx, slice(None)), g)
    return out


def gather_rows(a: Node, idx: Sequence[int]) -> Node:
    """Select rows (axis -2, so the rows of every matrix of a stack) by
    index; the gradient scatter-adds back (handles repeats)."""
    # np.take wraps negative indices, so they are refused here.
    if idx and (min(idx) < 0 or max(idx) >= a.value.shape[-2]):
        raise IndexError(f"row index out of range for shape {a.shape}")
    return Node(np.take(a.value, idx, axis=-2), _recording and (
        (a, lambda g, shape=a.value.shape, dtype=a.value.dtype:
            _scatter_rows(g, idx, shape, dtype)),))


def _pad_cols(g, start, stop, shape, dtype):
    out = np.zeros(shape, dtype=dtype)
    out[..., start:stop] = g
    return out


def slice_cols(a: Node, start: int, stop: int) -> Node:
    return Node(a.value[..., start:stop].copy(), _recording and (
        (a, lambda g, shape=a.value.shape, dtype=a.value.dtype:
            _pad_cols(g, start, stop, shape, dtype)),))


def _split(x: np.ndarray, n: int) -> np.ndarray:
    """(..., m, n*w) -> (..., n, m, w): column block i of the m rows becomes
    matrix i of a stack. A view for one image's rows; the stacks of several
    images are copied, since the products of a backward walk read a
    contiguous stack faster than a strided one."""
    stack = x.reshape(*x.shape[:-1], n, -1).swapaxes(-2, -3)
    return stack if stack.ndim == 3 else np.ascontiguousarray(stack)


def _join(x: np.ndarray) -> np.ndarray:
    """(..., n, m, w) -> (..., m, n*w), the inverse of _split."""
    return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], -1)


def split_cols(a: Node, n: int) -> Node:
    """(..., m, n*w) -> (..., n, m, w): column block i of the rows becomes
    matrix i of a stack."""
    return Node(np.ascontiguousarray(_split(a.value, n)),
                _recording and ((a, _join),))


def concat_cols(a: Node) -> Node:
    """(..., n, m, w) -> (..., m, n*w), the inverse of split_cols."""
    n = a.shape[-3]
    return Node(_join(a.value), _recording and (
        (a, lambda g: _split(g, n)),))


def tile_rows(a: Node, images: int) -> Node:
    """(m, n) -> (images, m, n): a copy of a's rows for each image. Its
    gradient is the stack of the images' copies, which a leaf adds one image
    at a time."""
    return Node(np.tile(a.value, (images, 1, 1)),
                _recording and ((a, lambda g: g),))


def _row_blocks(nodes: Sequence[Node]) -> tuple:
    offsets = np.cumsum([0] + [n.shape[-2] for n in nodes])
    return tuple((n, (lambda g, s=offsets[i], e=offsets[i + 1]: g[..., s:e, :]))
                 for i, n in enumerate(nodes))


def concat_rows(nodes: Sequence[Node]) -> Node:
    """Join the rows of (m_i, n) matrices, or of each image's matrices of
    (images, m_i, n) stacks."""
    return Node(np.concatenate([n.value for n in nodes], axis=-2),
                _recording and _row_blocks(nodes))


def _cross_entropy_vjp(g, shifted, lse, label, shape):
    p = np.exp(shifted - lse)
    p[label] -= 1.0
    return (g * p).reshape(shape)


def cross_entropy(logits: Node, label: int) -> Node:
    """Stable cross-entropy of a single logits row against an integer label."""
    z = logits.value.reshape(-1)
    shifted = z - z.max()
    lse = np.log(np.exp(shifted).sum())
    loss = np.asarray(lse - shifted[label])
    return _make("cross_entropy", loss, _recording and (
        (logits, lambda g, shape=logits.value.shape:
            _cross_entropy_vjp(g, shifted, lse, label, shape)),))


def _accumulate(leaf: Node, g: np.ndarray) -> None:
    """Add one contribution to a leaf's .grad; a per-image stack (one more
    axis than the leaf) is added one image at a time, in image order."""
    if leaf.grad is None:
        leaf.grad = np.zeros(leaf.value.shape, leaf.value.dtype)
    if g.ndim > leaf.grad.ndim:
        for image in g:
            leaf.grad += image
    else:
        leaf.grad += g


def backward(roots: Node | dict[Node, np.ndarray]) -> None:
    """Accumulate d(loss)/d(leaf) into the .grad of every leaf under loss.

    roots is a scalar loss node, seeded with 1, or a {node: gradient} map
    that seeds several nodes at once. Nodes are visited in reverse creation
    order, so each one has every contribution from its consumers before it
    passes its gradient on. A leaf adds each contribution to its .grad as it
    arrives. Gradients add into any existing leaf buffers, so repeated calls
    accumulate; call zero_grads for a fresh pass.
    """
    if isinstance(roots, Node):
        if roots.value.shape != ():
            raise ValueError(
                f"backward requires a scalar loss, got shape {roots.value.shape}")
        roots = {roots: np.ones((), dtype=roots.value.dtype)}
    pending: dict[Vertex, np.ndarray] = {}
    heap: list[tuple[int, Vertex]] = []
    for root, g in roots.items():
        vertex = root.vertex
        if vertex is None:
            _accumulate(root, g)
        else:
            pending[vertex] = g
            heap.append((-vertex.seq, vertex))
    heapq.heapify(heap)
    while heap:
        vertex = heapq.heappop(heap)[1]
        g = pending.pop(vertex)
        for parent, vjp in vertex.parents:
            contrib = vjp(g)
            if not parent.parents:
                _accumulate(parent, contrib)
            elif parent in pending:
                # Not +=: a vjp may hand back the very array it was given.
                pending[parent] = pending[parent] + contrib
            else:
                pending[parent] = contrib
                heapq.heappush(heap, (-parent.seq, parent))


def zero_grads(weights: dict[str, Node]) -> None:
    for n in weights.values():
        n.grad = None


def grad_check(f: Callable[[Node], Node], x: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must map a leaf Node to a scalar Node and be rebuilt on every call.
    Meant for float64 inputs; float32 makes the differences meaningless.
    """
    x0 = np.asarray(x, dtype=np.float64)
    lx = leaf(x0.copy())
    out = f(lx)
    if out.value.shape != ():
        raise ValueError("grad_check requires a scalar-valued function")
    backward(out)
    analytic = lx.grad.copy() if lx.grad is not None else np.zeros_like(x0)

    numeric = np.zeros_like(x0)
    flat = numeric.reshape(-1)
    base = x0.reshape(-1)
    for i in range(base.size):
        xp = base.copy()
        xp[i] = base[i] + h
        fp = f(leaf(xp.reshape(x0.shape))).value
        xm = base.copy()
        xm[i] = base[i] - h
        fm = f(leaf(xm.reshape(x0.shape))).value
        flat[i] = (fp - fm) / (2 * h)

    err = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)
    return float(err.max()) if err.size else 0.0
