"""Multi-head self-attention that exposes its intermediates.

Every head runs at once: AttentionState holds one stacked node each for the
queries, keys and values, shaped (heads, T, head_dim), and one for the
row-stochastic attention matrices, shaped (heads, T, T), so the token
sampler can score tokens from them. Weights use a fused (d, 3d) QKV
projection; head i owns columns [i*hd, (i+1)*hd) of each of the q/k/v
column blocks, in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autograd as ag
from .autograd import Node


@dataclass(frozen=True)
class AttentionConfig:
    dim: int
    heads: int

    def __post_init__(self):
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.dim // self.heads < 1:
            raise ValueError("head_dim must be at least 1")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


@dataclass
class AttentionState:
    """q/k/v of shape (heads, T, head_dim) and, once computed, the
    row-stochastic attention matrices of shape (heads, T, T)."""
    q: Node
    k: Node
    v: Node
    attn: Node | None = None


def project_qkv(tokens: Node, qkv_w: Node, qkv_b: Node,
                cfg: AttentionConfig) -> AttentionState:
    """Fused linear projection of tokens into per-head queries/keys/values."""
    d = cfg.dim
    if qkv_w.shape != (d, 3 * d):
        raise ValueError(f"qkv weight shape {qkv_w.shape}, expected {(d, 3 * d)}")
    fused = ag.add_row(ag.matmul(tokens, qkv_w), qkv_b)
    q, k, v = (ag.split_cols(ag.slice_cols(fused, i * d, (i + 1) * d), cfg.heads)
               for i in range(3))
    return AttentionState(q=q, k=k, v=v)


def attention_matrix(state: AttentionState) -> AttentionState:
    """Fill state.attn with softmax(q k^T / sqrt(hd)) for every head, hd the
    per-head width (the usual ViT convention)."""
    # A Python float: a np.float64 scalar would promote float32 scores.
    inv = 1.0 / math.sqrt(state.q.shape[-1])
    state.attn = ag.softmax_rows(
        ag.scale(ag.matmul(state.q, ag.transpose(state.k)), inv))
    return state


def attend(state: AttentionState, out_w: Node, out_b: Node) -> Node:
    """Attention-weighted value mix of every head, concatenated and projected."""
    if state.attn is None:
        raise ValueError("attention_matrix was not applied")
    mixed = ag.matmul(state.attn, state.v)
    return ag.add_row(ag.matmul(ag.concat_cols(mixed), out_w), out_b)
