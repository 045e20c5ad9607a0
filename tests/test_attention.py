import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atsvit import autograd as ag
from atsvit.attention import (AttentionState, attend, attention_matrix,
                              project_qkv)
from atsvit.model import ModelConfig
from atsvit.numerics import Rng, softmax_rows
from atsvit.sampling import SampleResult, sampled_attend
from helpers import attention_state


def identity_qkv(d):
    """Fused weights making q = k = v = tokens (single head)."""
    w = np.concatenate([np.eye(d)] * 3, axis=1)
    return ag.leaf(w), ag.leaf(np.zeros(3 * d))


def random_weights(rng, d):
    return (ag.leaf(rng.normal((d, 3 * d), 0.5)), ag.leaf(rng.normal((3 * d,), 0.2)),
            ag.leaf(rng.normal((d, d), 0.5)), ag.leaf(rng.normal((d,), 0.2)))


def reference_attention(tokens, qkv_w, qkv_b, out_w, out_b, heads):
    """Independent einsum-based re-implementation used as the oracle."""
    d = tokens.shape[1]
    hd = d // heads
    fused = tokens @ qkv_w + qkv_b
    q, k, v = fused[:, :d], fused[:, d:2 * d], fused[:, 2 * d:]
    outs = []
    for h in range(heads):
        qh = q[:, h * hd:(h + 1) * hd]
        kh = k[:, h * hd:(h + 1) * hd]
        vh = v[:, h * hd:(h + 1) * hd]
        a = softmax_rows(np.einsum("id,jd->ij", qh, kh) / np.sqrt(hd))
        outs.append(np.einsum("ij,jd->id", a, vh))
    return np.concatenate(outs, axis=1) @ out_w + out_b


class TestProjectQkv:
    def test_identity_weights(self):
        d = 4
        tokens = Rng(0).normal((3, d))
        w, b = identity_qkv(d)
        for part in project_qkv(ag.leaf(tokens), w, b, 1):
            assert part.shape == (1, 3, d)
            assert np.allclose(part.value[0], tokens)

    def test_zero_weights(self):
        d = 4
        zero_w, zero_b = ag.leaf(np.zeros((d, 3 * d))), ag.leaf(np.zeros(3 * d))
        for part in project_qkv(ag.leaf(Rng(0).normal((3, d))), zero_w, zero_b, 2):
            assert np.array_equal(part.value, np.zeros((2, 3, 2)))

    def test_matches_reference_oracle(self):
        rng = Rng(42)
        d, heads = 8, 2
        tokens = rng.normal((5, d))
        qw, qb, ow, ob = random_weights(rng, d)
        state = attention_state(ag.leaf(tokens), qw, qb, heads)
        out = attend(state, ow, ob)
        ref = reference_attention(tokens, qw.value, qb.value, ow.value,
                                  ob.value, heads)
        assert np.allclose(out.value, ref, atol=1e-6)

    def test_head_split_order(self):
        # head i owns columns [i*hd, (i+1)*hd) of each q/k/v block
        d, heads = 6, 3
        rng = Rng(1)
        tokens = rng.normal((4, d))
        w, b = identity_qkv(d)
        q, _, _ = project_qkv(ag.leaf(tokens), w, b, heads)
        for h in range(heads):
            assert np.allclose(q.value[h], tokens[:, 2 * h:2 * h + 2])


class TestAttentionMatrix:
    def test_single_token(self):
        state = attention_state(ag.leaf(Rng(0).normal((1, 4))),
                                *identity_qkv(4), 1)
        assert np.allclose(state.attn.value, [[[1.0]]])

    def test_identical_keys_uniform(self):
        d = 4
        tokens = np.tile(Rng(0).normal((1, d)), (2, 1))
        state = attention_state(ag.leaf(tokens), *identity_qkv(d), 1)
        assert state.attn.shape == (1, 2, 2)
        assert np.allclose(state.attn.value, 0.5)

    def test_head_dim_one_closed_form(self):
        # q=[1], k=[0, ln4], scale sqrt(1): softmax([0, ln4]) = [0.2, 0.8]
        q = np.array([[1.0], [1.0]])
        k = np.array([[0.0], [np.log(4.0)]])
        attn = attention_matrix(ag.leaf(q[None]), ag.leaf(k[None]))
        assert np.allclose(attn.value[0, 0], [0.2, 0.8])

    @given(st.integers(0, 10 ** 6), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_rows_stochastic(self, seed, t):
        rng = Rng(seed)
        d, heads = 8, 4
        state = attention_state(ag.leaf(rng.normal((t, d), 2.0)),
                                *random_weights(rng, d)[:2], heads)
        assert state.attn.shape == (heads, t, t)
        assert np.allclose(state.attn.value.sum(axis=-1), 1.0, atol=1e-9)
        assert (state.attn.value >= 0).all()


class TestAttend:
    def test_identity_attention_projects_values(self):
        rng = Rng(3)
        d, t = 6, 4
        heads = 2
        qw, qb, ow, ob = random_weights(rng, d)
        _, _, v = project_qkv(ag.leaf(rng.normal((t, d))), qw, qb, heads)
        state = AttentionState(ag.leaf(np.stack([np.eye(t)] * heads)), v)
        out = attend(state, ow, ob)
        vcat = np.concatenate(list(state.v.value), axis=1)
        assert np.allclose(out.value, vcat @ ow.value + ob.value)

    def test_uniform_attention_averages_values(self):
        rng = Rng(4)
        d, t = 4, 5
        _, _, v = project_qkv(ag.leaf(rng.normal((t, d))), *identity_qkv(d), 1)
        state = AttentionState(ag.leaf(np.full((1, t, t), 1.0 / t)), v)
        out = attend(state, ag.leaf(np.eye(d)), ag.leaf(np.zeros(d)))
        mean_row = state.v.value[0].mean(axis=0)
        assert np.allclose(out.value, np.tile(mean_row, (t, 1)))

    def test_matches_reference_oracle_seeded(self):
        for seed in (7, 8, 9):
            rng = Rng(seed)
            d, heads, t = 16, 4, 9
            tokens = rng.normal((t, d))
            qw, qb, ow, ob = random_weights(rng, d)
            state = attention_state(ag.leaf(tokens), qw, qb, heads)
            out = attend(state, ow, ob)
            ref = reference_attention(tokens, qw.value, qb.value, ow.value,
                                      ob.value, heads)
            assert np.allclose(out.value, ref, atol=1e-6)


def per_head_reference(tokens, qkv_w, qkv_b, out_w, out_b, heads, kept=None):
    """One head at a time with 2-D numpy products, in the tape's operation
    order: the bit-level oracle for the stacked ops."""
    d = tokens.shape[1]
    hd = d // heads
    inv = 1.0 / math.sqrt(hd)
    fused = tokens @ qkv_w + qkv_b
    mixed = []
    for h in range(heads):
        q, k, v = (fused[:, i * d + h * hd:i * d + (h + 1) * hd].copy()
                   for i in range(3))
        a = softmax_rows((q @ k.T.copy()) * inv)
        if kept is not None:
            a = a[list(kept)]
        mixed.append(a @ v)
    return np.concatenate(mixed, axis=1) @ out_w + out_b


def test_stacked_heads_bitwise_equal_per_head_loop_float32():
    for seed in range(5):
        rng = Rng(seed, stream=7)
        d, heads, t = 16, 4, 10
        tokens = rng.normal((t, d)).astype(np.float32)
        weights = [ag.leaf(w.value.astype(np.float32))
                   for w in random_weights(rng, d)]
        qw, qb, ow, ob = weights
        raw = [w.value for w in weights]
        state = attention_state(ag.leaf(tokens), qw, qb, heads)
        out = attend(state, ow, ob).value
        assert out.dtype == np.float32
        assert np.array_equal(out, per_head_reference(tokens, *raw, heads))
        kept = (0, 2, 3, 7)
        sampled = sampled_attend(state, SampleResult(kept, (2, 3, 7)),
                                 ow, ob).value
        assert np.array_equal(sampled,
                              per_head_reference(tokens, *raw, heads, kept))


def test_permutation_equivariance():
    """Permuting non-CLS tokens permutes non-CLS outputs; CLS unchanged."""
    rng = Rng(12)
    d, heads, t = 8, 2, 7
    tokens = rng.normal((t, d))
    qw, qb, ow, ob = random_weights(rng, d)
    perm = np.concatenate([[0], 1 + Rng(5).permutation(t - 1)])

    def run(tok):
        state = attention_state(ag.leaf(tok), qw, qb, heads)
        return attend(state, ow, ob).value

    base = run(tokens)
    permuted = run(tokens[perm])
    assert np.allclose(permuted, base[perm], atol=1e-6)
    assert np.allclose(permuted[0], base[0], atol=1e-6)


def test_single_head_equals_multi_head_with_one_head():
    rng = Rng(21)
    d, t = 8, 5
    tokens = rng.normal((t, d))
    qw, qb, ow, ob = random_weights(rng, d)

    # one-head multi-head formulation is exactly the single-head math
    state = attention_state(ag.leaf(tokens), qw, qb, 1)
    fused = tokens @ qw.value + qb.value
    q, k, v = fused[:, :d], fused[:, d:2 * d], fused[:, 2 * d:]
    a = softmax_rows(q @ k.T / np.sqrt(d))
    assert np.array_equal(state.attn.value[0], a)
    out = attend(state, ow, ob)
    assert np.array_equal(out.value, (a @ v) @ ow.value + ob.value)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(dim=6, heads=4)
