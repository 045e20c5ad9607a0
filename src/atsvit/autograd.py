"""Minimal reverse-mode tape over numpy arrays.

A Node wraps an eagerly computed value plus vector-Jacobian closures for its
parents. backward() walks the graph in reverse topological order and
accumulates gradients with +=; buffers are allocated lazily as zeros, and a
fresh pass requires explicit zeroing (zero_grads). Graphs are confined to a
single thread; node values may be shared read-only.

Inside no_grad() the current thread records nothing: every op computes its
value with the same numpy calls and the same finite check, but builds no vjp
closures and returns a Node with no parents, so an inference pass keeps no
graph alive. Recording is per thread and on by default.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from . import numerics
from .numerics import assert_finite


class Node:
    __slots__ = ("value", "grad", "parents")

    def __init__(self, value: np.ndarray, parents: tuple = ()):
        self.value = value
        self.grad: np.ndarray | None = None
        self.parents = parents  # tuple of (Node, vjp) pairs

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


def matmul(a: Node, b: Node) -> Node:
    v = numerics.matmul(a.value, b.value)
    return _make("matmul", v,
                 _mode.recording and ((a, lambda g: g @ b.value.T),
                                      (b, lambda g: a.value.T @ g)))


def transpose(a: Node) -> Node:
    return _make("transpose", a.value.T.copy(),
                 _mode.recording and ((a, lambda g: g.T),))


def softmax_rows(a: Node) -> Node:
    y = numerics.softmax_rows(a.value)
    return _make("softmax_rows", y, _mode.recording and (
        (a, lambda g: y * (g - (g * y).sum(axis=-1, keepdims=True))),))


def _layer_norm_vjp(g, xhat, inv_std, gv):
    gg = g * gv
    return (gg - gg.mean(axis=-1, keepdims=True)
            - xhat * (gg * xhat).mean(axis=-1, keepdims=True)) * inv_std


def layer_norm(x: Node, gamma: Node, beta: Node, eps: float = 1e-5) -> Node:
    xv = x.value
    mean = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mean) * inv_std
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
    np.add.at(out, idx, g)
    return out


def gather_rows(a: Node, idx: Sequence[int]) -> Node:
    """Select rows by index; gradient scatter-adds back (handles repeats)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise IndexError(f"row index out of range for shape {a.shape}")
    return _make("gather_rows", a.value[idx].copy(), _mode.recording and (
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


def concat_cols(nodes: Sequence[Node]) -> Node:
    widths = [n.value.shape[1] for n in nodes]
    offsets = np.cumsum([0] + widths)
    return _make("concat_cols", np.concatenate([n.value for n in nodes], axis=1),
                 _mode.recording and tuple(
                     (n, (lambda g, s=offsets[i], e=offsets[i + 1]: g[:, s:e]))
                     for i, n in enumerate(nodes)))


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


def _toposort(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into .grad over the whole graph.

    The loss must be scalar. Gradients add into any existing buffers, so
    repeated calls accumulate; call zero_grads for a fresh pass.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    order = _toposort(loss)
    # Per-pass gradients propagate through `local`; node.grad only exposes the
    # running total, so repeated backward() calls accumulate instead of
    # compounding.
    local: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.value.dtype)}
    for node in reversed(order):
        g = local.pop(id(node), None)
        if g is None:
            continue
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
        node.grad += g
        for parent, vjp in node.parents:
            contrib = vjp(g)
            pid = id(parent)
            if pid in local:
                local[pid] = local[pid] + contrib
            else:
                local[pid] = contrib


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
