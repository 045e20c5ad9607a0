"""Minimal reverse-mode tape over numpy arrays.

A Node wraps an eagerly computed value plus vector-Jacobian closures for its
parents, and takes a unique creation index from one process-wide counter. A
parent always exists before its child, so reverse creation order is a
reverse topological order: backward() pops nodes from a heap keyed on that
index and never sorts the graph. Only leaves (nodes without parents) keep a
gradient: they allocate .grad lazily as zeros and accumulate with +=, so a
fresh pass requires explicit zeroing (zero_grads). Intermediate gradients
live only for the duration of one backward() call. Graphs are confined to a
single thread; node values may be shared read-only.

Inside no_grad() the current thread records nothing: every op computes its
value with the same numpy calls and the same finite check, but builds no vjp
closures and returns a Node with no parents, so an inference pass keeps no
graph alive. Recording is per thread and on by default.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics
from .numerics import assert_finite


_creation = itertools.count()


class Node:
    __slots__ = ("value", "grad", "parents", "seq")

    def __init__(self, value: np.ndarray, parents: tuple = ()):
        self.value = value
        self.grad: np.ndarray | None = None
        self.parents = parents  # tuple of (Node, vjp) pairs
        self.seq = next(_creation)  # unique, so heap entries never compare Nodes

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={not self.parents})"


class _Mode(threading.local):
    recording = True  # the class attribute is every new thread's default


_mode = _Mode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Stop recording on the calling thread for the duration of the block;
    the previous state comes back on exit, also when the block raises."""
    previous = _mode.recording
    _mode.recording = False
    try:
        yield
    finally:
        _mode.recording = previous


def is_recording() -> bool:
    """Whether ops on the calling thread record parents for backward()."""
    return _mode.recording


def leaf(value, dtype=None) -> Node:
    """Wrap an array as a graph leaf. Leaves accumulate but never propagate."""
    arr = np.asarray(value, dtype=dtype)
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(numerics.TEST_DTYPE)
    return Node(arr)


def _make(op: str, value: np.ndarray, parents) -> Node:
    """Every op ends here. Ops pass `_mode.recording and (...)` as parents,
    so outside recording the (node, vjp) tuple is never built and parents
    arrives as False."""
    assert_finite(op, value)
    return Node(value, parents or ())


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _make("add", a.value + b.value,
                 _mode.recording and ((a, lambda g: g), (b, lambda g: g)))


def add_row(a: Node, row: Node) -> Node:
    """Broadcast-add a length-n row vector to every row of an (m, n) matrix."""
    return _make("add_row", a.value + row.value,
                 _mode.recording and ((a, lambda g: g),
                                      (row, lambda g: g.sum(axis=0))))


def scale(a: Node, c: float) -> Node:
    return _make("scale", a.value * c,
                 _mode.recording and ((a, lambda g: g * c),))


def mul(a: Node, b: Node) -> Node:
    return _make("mul", a.value * b.value,
                 _mode.recording and ((a, lambda g: g * b.value),
                                      (b, lambda g: g * a.value)))


def _mT(x: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed (a view)."""
    return np.swapaxes(x, -1, -2)


def matmul(a: Node, b: Node) -> Node:
    """Matrix product; stacked operands multiply matrix by matrix."""
    v = numerics.matmul(a.value, b.value)
    return _make("matmul", v,
                 _mode.recording and ((a, lambda g: g @ _mT(b.value)),
                                      (b, lambda g: _mT(a.value) @ g)))


def transpose(a: Node) -> Node:
    """Swap the last two axes. The copy keeps the result C-contiguous, so
    a product with it gets the same BLAS call as one with a fresh matrix."""
    return _make("transpose", _mT(a.value).copy(),
                 _mode.recording and ((a, _mT),))


def softmax_rows(a: Node) -> Node:
    y = numerics.softmax_rows(a.value)
    return _make("softmax_rows", y, _mode.recording and (
        (a, lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True))),))


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
    return _make("layer_norm", out, _mode.recording and (
        (x, lambda g, gv=gamma.value: _layer_norm_vjp(g, xhat, inv_std, gv)),
        (gamma, lambda g: (g * xhat).sum(axis=0)),
        (beta, lambda g: g.sum(axis=0)),
    ))


def gelu(x: Node) -> Node:
    return _make("gelu", numerics.gelu(x.value),
                 _mode.recording and (
                     (x, lambda g: g * numerics.gelu_grad(x.value)),))


def _scatter_rows(g, idx, shape, dtype):
    out = np.zeros(shape, dtype=dtype)
    np.add.at(out, (Ellipsis, idx, slice(None)), g)
    return out


def gather_rows(a: Node, idx: Sequence[int]) -> Node:
    """Select rows (axis -2, so the rows of every matrix of a stack) by
    index; the gradient scatter-adds back (handles repeats)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[-2]):
        raise IndexError(f"row index out of range for shape {a.shape}")
    return _make("gather_rows", a.value[..., idx, :].copy(), _mode.recording and (
        (a, lambda g, shape=a.value.shape, dtype=a.value.dtype:
            _scatter_rows(g, idx, shape, dtype)),))


def _pad_cols(g, start, stop, shape, dtype):
    out = np.zeros(shape, dtype=dtype)
    out[:, start:stop] = g
    return out


def slice_cols(a: Node, start: int, stop: int) -> Node:
    return _make("slice_cols", a.value[:, start:stop].copy(), _mode.recording and (
        (a, lambda g, shape=a.value.shape, dtype=a.value.dtype:
            _pad_cols(g, start, stop, shape, dtype)),))


def _merge_cols(x: np.ndarray) -> np.ndarray:
    """(n, m, w) -> (m, n*w): matrix i of the stack becomes column block i."""
    n, m, w = x.shape
    return x.transpose(1, 0, 2).reshape(m, n * w)


def split_cols(a: Node, n: int) -> Node:
    """(m, n*w) -> (n, m, w): column block i becomes matrix i of a stack."""
    m, cols = a.value.shape
    return _make("split_cols",
                 a.value.reshape(m, n, cols // n).transpose(1, 0, 2).copy(),
                 _mode.recording and ((a, _merge_cols),))


def concat_cols(a: Node) -> Node:
    """(n, m, w) -> (m, n*w), the inverse of split_cols."""
    n, m, w = a.value.shape
    return _make("concat_cols", _merge_cols(a.value), _mode.recording and (
        (a, lambda g: g.reshape(m, n, w).transpose(1, 0, 2)),))


def concat_rows(nodes: Sequence[Node]) -> Node:
    heights = [n.value.shape[0] for n in nodes]
    offsets = np.cumsum([0] + heights)
    return _make("concat_rows", np.concatenate([n.value for n in nodes], axis=0),
                 _mode.recording and tuple(
                     (n, (lambda g, s=offsets[i], e=offsets[i + 1]: g[s:e]))
                     for i, n in enumerate(nodes)))


def sum_all(a: Node) -> Node:
    return _make("sum_all", a.value.sum(), _mode.recording and (
        (a, lambda g, shape=a.value.shape: np.broadcast_to(g, shape).copy()),))


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
    return _make("cross_entropy", loss, _mode.recording and (
        (logits, lambda g, shape=logits.value.shape:
            _cross_entropy_vjp(g, shifted, lse, label, shape)),))


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into the .grad of every leaf under loss.

    The loss must be scalar. Nodes are visited in reverse creation order, so
    each one has every contribution from its consumers before it passes its
    gradient on. Gradients add into any existing leaf buffers, so repeated
    calls accumulate; call zero_grads for a fresh pass.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    pending = {loss: np.ones((), dtype=loss.value.dtype)}
    heap = [(-loss.seq, loss)]
    while heap:
        node = heapq.heappop(heap)[1]
        g = pending.pop(node)
        if not node.parents:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
            node.grad += g
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            if parent in pending:
                # Not +=: a vjp may hand back the very array it was given.
                pending[parent] = pending[parent] + contrib
            else:
                pending[parent] = contrib
                heapq.heappush(heap, (-parent.seq, parent))


def zero_grads(nodes) -> None:
    values = nodes.values() if isinstance(nodes, dict) else nodes
    for n in values:
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
