"""Multi-head self-attention, every head at once.

A block's attention state is what the parameter-free token sampler reads:
the row-stochastic attention matrices, shaped (heads, T, T), and the value
rows, shaped (heads, T, head_dim). project_qkv makes the stacked queries,
keys and values, attention_matrix turns queries and keys into the attention
node, and attend mixes the values and projects them. Weights use a fused
(d, 3d) QKV projection; head i owns columns [i*hd, (i+1)*hd) of each of the
q/k/v column blocks, in that order.

Several images of T tokens each can run as one pass: their tokens are a
(images, T, d) array and their heads (images, heads, T, head_dim) stacks,
image b owning index b of the leading axis. numpy runs one product per
matrix of a stack, so each image's products are, byte for byte, the ones a
single image gets, and the gradients of the shared weights come back one
image at a time (see autograd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autograd as ag
from .autograd import Node


@dataclass(frozen=True)
class AttentionState:
    """Row-stochastic attention matrices (heads, T_out, T) and value rows
    (heads, T, head_dim), or their stacks over images. T_out is T, or the
    retained count once rows are sampled."""
    attn: Node
    v: Node


def project_qkv(tokens: Node, qkv_w: Node, qkv_b: Node,
                heads: int) -> tuple[Node, Node, Node]:
    """Fused linear projection of tokens into per-head queries, keys and
    values, each (heads, T, head_dim), or (images, heads, T, head_dim) for a
    stack of images."""
    d = tokens.shape[-1]
    if qkv_w.shape != (d, 3 * d):
        raise ValueError(f"qkv weight shape {qkv_w.shape}, expected {(d, 3 * d)}")
    fused = ag.add_row(ag.matmul(tokens, qkv_w), qkv_b)
    q, k, v = (ag.split_cols(ag.slice_cols(fused, i * d, (i + 1) * d), heads)
               for i in range(3))
    return q, k, v


def attention_matrix(q: Node, k: Node) -> Node:
    """softmax(q k^T / sqrt(hd)) for every head, hd the per-head width (the
    usual ViT convention)."""
    # A Python float: a np.float64 scalar would promote float32 scores.
    inv = 1.0 / math.sqrt(q.shape[-1])
    return ag.softmax_rows(ag.scale(ag.matmul(q, ag.transpose(k)), inv))


def attend(state: AttentionState, out_w: Node, out_b: Node) -> Node:
    """Attention-weighted value mix of every head, concatenated and projected."""
    mixed = ag.matmul(state.attn, state.v)
    return ag.add_row(ag.matmul(ag.concat_cols(mixed), out_w), out_b)
