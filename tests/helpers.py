"""Helpers shared by the test modules."""

from atsvit.attention import AttentionState, attention_matrix, project_qkv


def attention_state(tokens, qkv_w, qkv_b, heads):
    """The complete attention state of already-normed tokens, built as
    model._attention_state builds it."""
    q, k, v = project_qkv(tokens, qkv_w, qkv_b, heads)
    return AttentionState(attention_matrix(q, k), v)
