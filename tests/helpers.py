"""Helpers shared by the test modules."""

import argparse

import numpy as np

from atsvit.attention import AttentionState, attention_matrix, project_qkv
from atsvit.autograd import Node
from atsvit.cli import build_parser


def attention_state(tokens, qkv_w, qkv_b, heads):
    """The complete attention state of already-normed tokens, built as
    model._attention_state builds it."""
    q, k, v = project_qkv(tokens, qkv_w, qkv_b, heads)
    return AttentionState(attention_matrix(q, k), v)


def mul(a: Node, b: Node) -> Node:
    """Elementwise product, recorded for backward. The program never
    multiplies two nodes; gradient-oracle losses weight outputs with it."""
    return Node(a.value * b.value, ((a, lambda g: g * b.value),
                                    (b, lambda g: g * a.value)))


def sum_all(a: Node) -> Node:
    """The scalar sum of every entry, recorded for backward."""
    return Node(a.value.sum(), (
        (a, lambda g, shape=a.value.shape: np.broadcast_to(g, shape).copy()),))


def commands_taking(flag: str) -> list[str]:
    """The CLI subcommands whose parser takes flag."""
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return [name for name, p in sub.choices.items()
            if flag in p._option_string_actions]
