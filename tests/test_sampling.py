import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atsvit import autograd as ag
from atsvit.attention import attend
from atsvit.numerics import Rng, softmax_rows
from atsvit.sampling import (InverseRule, Policy, SampleResult, SamplerConfig,
                             Scoring, build_cdf, compute_scores,
                             sample_indices, sampled_attend)
from helpers import attention_state, mul, sum_all


def brute_force_ceil(scores, k_budget):
    """Independent oracle: linear scan of the cdf at every grid point."""
    cdf = list(np.minimum(np.cumsum(scores), 1.0))
    cdf[-1] = 1.0
    kept = {0}
    psi = []
    for i in range(1, k_budget + 1):
        point = i / k_budget
        for token, value in enumerate(cdf, start=1):
            if value >= point:
                psi.append(token)
                kept.add(token)
                break
    return tuple(sorted(kept)), psi


def loop_nearest(cdf, grid):
    """Independent oracle: the nearest-rule inverse one grid point at a
    time with scalar arithmetic."""
    n = len(cdf)
    out = np.empty(len(grid), dtype=np.int64)
    for j, k in enumerate(grid):
        i = int(np.searchsorted(cdf, k, side="left"))  # 0-based segment end
        lo = cdf[i - 1] if i > 0 else 0.0
        hi = cdf[min(i, n - 1)]
        if hi > lo:
            x = i + (k - lo) / (hi - lo)
        else:
            x = float(i + 1)
        out[j] = min(max(int(np.floor(x + 0.5)), 1), n)
    return out


def random_scores(rng, n, spiky=False):
    u = rng.uniform((n,))
    if spiky:
        u = u ** 6
    total = u.sum()
    if total == 0:
        u = np.full(n, 1.0)
        total = float(n)
    return u / total


def make_state(rng, t, d, heads):
    tokens = ag.leaf(rng.normal((t, d)))
    qw = ag.leaf(rng.normal((d, 3 * d), 0.5))
    qb = ag.leaf(rng.normal((3 * d,), 0.2))
    return attention_state(tokens, qw, qb, heads)


class TestComputeScores:
    def test_symmetric_cls_row(self):
        attn = np.array([[[0.2, 0.4, 0.4], [0.3, 0.3, 0.4], [0.1, 0.2, 0.7]]])
        values = np.array([[[5.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        sv = compute_scores(attn, values)
        assert np.allclose(sv.scores, [0.5, 0.5])

    def test_value_norms_reweight(self):
        # CLS row [0.1, 0.6, 0.3], norms [., 1, 2] -> (0.6, 0.6) -> (0.5, 0.5)
        attn = np.array([[[0.1, 0.6, 0.3]] * 3])
        values = np.array([[[9.0, 0.0], [1.0, 0.0], [0.0, 2.0]]])
        sv = compute_scores(attn, values)
        assert np.allclose(sv.scores, [0.5, 0.5])
        assert not sv.uniform_fallback

    def test_zero_values_fall_back_to_uniform(self):
        attn = softmax_rows(Rng(0).normal((1, 4, 4)))
        values = np.zeros((1, 4, 2))
        sv = compute_scores(attn, values)
        assert sv.uniform_fallback
        assert np.allclose(sv.scores, 1 / 3)

    def test_cls_variant_ignores_value_norms(self):
        attn = np.array([[[0.1, 0.6, 0.3]] * 3])
        values = np.array([[[9.0, 0.0], [1.0, 0.0], [0.0, 2.0]]])
        sv = compute_scores(attn, values, Scoring.CLS)
        assert np.allclose(sv.scores, [0.6 / 0.9, 0.3 / 0.9])

    def test_rowsum_variant_sums_columns(self):
        attn = np.array([[[0.2, 0.4, 0.4],
                          [0.5, 0.5, 0.0],
                          [0.0, 0.5, 0.5]]])
        values = np.ones((1, 3, 2))
        sv = compute_scores(attn, values, Scoring.ROWSUM)
        assert np.allclose(sv.scores, [1.4 / 2.3, 0.9 / 2.3])

    def test_random_token_variant_seeded(self):
        rng = Rng(0)
        attn = softmax_rows(Rng(1).normal((1, 5, 5)))
        values = Rng(2).normal((1, 5, 2))
        sv1 = compute_scores(attn, values, Scoring.RANDOM_TOKEN, rng=Rng(3))
        sv2 = compute_scores(attn, values, Scoring.RANDOM_TOKEN, rng=Rng(3))
        assert np.array_equal(sv1.scores, sv2.scores)
        with pytest.raises(ValueError, match="rng"):
            compute_scores(attn, values, Scoring.RANDOM_TOKEN)

    def test_random_token_draws_one_row_for_all_heads(self):
        attn = softmax_rows(Rng(4).normal((3, 5, 5)))
        rng = Rng(5)
        sv = compute_scores(attn, Rng(6).normal((3, 5, 2)),
                            Scoring.RANDOM_TOKEN, rng=rng)
        assert rng.counter == 1
        row = 1 + Rng(5).integers(0, 4)
        expected = attn[:, row, 1:].sum(axis=0)
        assert np.allclose(sv.scores, expected / expected.sum())

    def test_multi_head_sums_before_normalizing(self):
        a1 = np.array([[0.0, 1.0, 0.0]] * 3)
        a2 = np.array([[0.0, 0.0, 1.0]] * 3)
        values = np.ones((2, 3, 2))
        sv = compute_scores(np.stack([a1, a2]), values)
        norm = np.sqrt(2.0)
        assert np.allclose(sv.scores, [norm / (2 * norm), norm / (2 * norm)])

    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 4, 16, 64]),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_normalization_all_variants(self, seed, n, heads):
        rng = Rng(seed)
        attn = np.stack([softmax_rows(rng.normal((n + 1, n + 1), 2.0))
                         for _ in range(heads)])
        values = np.stack([rng.normal((n + 1, 3)) for _ in range(heads)])
        for variant in Scoring:
            sv = compute_scores(attn, values, variant, rng=Rng(seed + 1))
            assert np.isclose(sv.scores.sum(), 1.0, atol=1e-6)
            assert (sv.scores >= 0).all()

    def test_permutation_covariance(self):
        rng = Rng(9)
        n, heads = 8, 2
        attn = np.stack([softmax_rows(rng.normal((n + 1, n + 1)))
                         for _ in range(heads)])
        values = np.stack([rng.normal((n + 1, 4)) for _ in range(heads)])
        base = compute_scores(attn, values).scores
        perm = Rng(10).permutation(n)
        full = np.concatenate([[0], 1 + perm])
        attn_p = attn[:, full][:, :, full]
        values_p = values[:, full]
        permuted = compute_scores(attn_p, values_p).scores
        assert np.allclose(permuted, base[perm], atol=1e-12)


class TestBuildCdf:
    def test_prefix_sums(self):
        sv = build_cdf(np.array([0.5, 0.25, 0.25]))
        assert np.allclose(sv.cdf, [0.5, 0.75, 1.0])

    def test_uniform(self):
        sv = build_cdf(np.full(4, 0.25))
        assert np.allclose(sv.cdf, [0.25, 0.5, 0.75, 1.0])

    def test_single_token(self):
        sv = build_cdf(np.array([1.0]))
        assert sv.cdf.tolist() == [1.0]

    def test_final_entry_clamped_exactly_one(self):
        scores = random_scores(Rng(3), 13)
        sv = build_cdf(scores)
        assert sv.cdf[-1] == 1.0
        assert (np.diff(sv.cdf) >= -1e-15).all()


class TestSampleIndices:
    def test_worked_example(self):
        sv = build_cdf(np.array([0.5, 0.25, 0.25]))
        res = sample_indices(sv, SamplerConfig(k=4))
        assert res.psi == (1, 1, 2, 3)
        assert res.kept == (0, 1, 2, 3)
        assert res.k_prime == 3

    def test_balanced_scores_keep_budget(self):
        sv = build_cdf(np.full(4, 0.25))
        res = sample_indices(sv, SamplerConfig(k=4))
        assert res.kept == (0, 1, 2, 3, 4)
        assert res.k_prime == 4

    def test_dominant_token_contracts(self):
        sv = build_cdf(np.array([0.9, 0.05, 0.05]))
        res = sample_indices(sv, SamplerConfig(k=4))
        assert res.psi == (1, 1, 1, 3)
        assert res.kept == (0, 1, 3)
        assert res.k_prime == 2

    def test_empty_scores_rejected(self):
        sv = build_cdf(np.array([1.0]))
        sv.scores = np.array([])
        with pytest.raises(ValueError, match="empty"):
            sample_indices(sv, SamplerConfig(k=2))

    @given(st.integers(0, 10 ** 6), st.integers(1, 16), st.integers(1, 16),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, seed, n, k, spiky):
        scores = random_scores(Rng(seed), n, spiky)
        res = sample_indices(build_cdf(scores), SamplerConfig(k=k))
        kept, psi = brute_force_ceil(scores, k)
        assert res.kept == kept
        assert list(res.psi) == psi

    @given(st.integers(0, 10 ** 6), st.integers(2, 16), st.integers(2, 16))
    @settings(max_examples=200, deadline=None)
    def test_contraction_law(self, seed, n, k):
        scores = random_scores(Rng(seed), n, spiky=True)
        res = sample_indices(build_cdf(scores), SamplerConfig(k=k))
        if scores.max() >= 2.0 / k:
            assert res.k_prime < k

    @given(st.integers(0, 10 ** 6), st.integers(1, 8), st.integers(1, 8),
           st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_kprime_monotone_under_grid_refinement(self, seed, n, k, factor):
        """K' never drops when the grid is refined by an integer factor
        (the coarse grid is then a subset of the fine one)."""
        scores = random_scores(Rng(seed), n)
        sv = build_cdf(scores)
        coarse = sample_indices(sv, SamplerConfig(k=k))
        fine = sample_indices(sv, SamplerConfig(k=k * factor))
        assert fine.k_prime >= coarse.k_prime
        assert set(coarse.kept) <= set(fine.kept)

    def test_contraction_condition_is_sufficient_not_necessary(self):
        # all scores below 2/K, yet two grid points land in one interval
        sv = build_cdf(np.array([0.225, 0.375, 0.4]))
        res = sample_indices(sv, SamplerConfig(k=4))
        assert sv.scores.max() < 0.5
        assert res.k_prime == 2

    def test_kprime_not_monotone_in_general(self):
        """Counterexample pinning ceil-rule semantics: raising the budget
        from 3 to 4 loses a distinct token for this score vector."""
        sv = build_cdf(np.array([0.2, 0.3, 0.2, 0.3]))
        assert sample_indices(sv, SamplerConfig(k=3)).k_prime == 3
        assert sample_indices(sv, SamplerConfig(k=4)).k_prime == 2

    def test_deterministic(self):
        sv = build_cdf(random_scores(Rng(8), 12))
        cfg = SamplerConfig(k=7)
        assert sample_indices(sv, cfg) == sample_indices(sv, cfg)

    def test_cls_always_kept(self):
        for seed in range(20):
            sv = build_cdf(random_scores(Rng(seed), 10, spiky=True))
            res = sample_indices(sv, SamplerConfig(k=5))
            assert res.kept[0] == 0
            assert 1 <= res.k_prime <= 5
            assert list(res.kept) == sorted(set(res.kept))
            assert set(res.psi) <= set(res.kept)

    def test_nearest_rule_rounds_interpolated_inverse(self):
        # uniform over 4: cdf inverse is linear, psi(i/4) = i exactly
        sv = build_cdf(np.full(4, 0.25))
        res = sample_indices(sv, SamplerConfig(k=4, inverse_rule=InverseRule.NEAREST))
        assert res.psi == (1, 2, 3, 4)
        # interpolation can round below the ceil answer
        sv2 = build_cdf(np.array([0.5, 0.5]))
        res2 = sample_indices(sv2, SamplerConfig(k=2, inverse_rule=InverseRule.NEAREST))
        # psi(0.5) interpolates to x=1.0 -> 1; psi(1.0) -> 2
        assert res2.psi == (1, 2)

    @given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                              st.integers(1, 4)),
                    min_size=1, max_size=8).filter(
                        lambda runs: any(v > 0 for v, _ in runs)),
           st.integers(1, 32))
    @settings(max_examples=300, deadline=None)
    def test_nearest_rule_matches_loop_oracle(self, runs, k):
        """Scores drawn as runs of equal values, zero runs among them, so
        the CDF has flat segments."""
        u = np.repeat([v for v, _ in runs], [r for _, r in runs])
        sv = build_cdf(u / u.sum())
        cfg = SamplerConfig(k=k, inverse_rule=InverseRule.NEAREST)
        res = sample_indices(sv, cfg)
        assert list(res.psi) == loop_nearest(sv.cdf, cfg.grid).tolist()

    def test_nearest_rule_clamps_and_keeps_cls(self):
        sv = build_cdf(np.array([0.97, 0.02, 0.01]))
        res = sample_indices(sv, SamplerConfig(k=8, inverse_rule=InverseRule.NEAREST))
        assert res.kept[0] == 0
        assert all(1 <= p <= 3 for p in res.psi)

    def test_topk_selects_highest_with_index_ties(self):
        sv = build_cdf(np.array([0.2, 0.3, 0.2, 0.3]))
        res = sample_indices(sv, SamplerConfig(k=2, policy=Policy.TOPK))
        assert res.psi == (2, 4)
        assert res.kept == (0, 2, 4)
        # tie at 0.2: lower index wins the last slot
        res3 = sample_indices(sv, SamplerConfig(k=3, policy=Policy.TOPK))
        assert res3.kept == (0, 1, 2, 4)

    def test_topk_budget_above_n_keeps_all(self):
        sv = build_cdf(np.array([0.6, 0.4]))
        res = sample_indices(sv, SamplerConfig(k=5, policy=Policy.TOPK))
        assert res.kept == (0, 1, 2)

    def test_random_policy_seeded_without_replacement(self):
        sv = build_cdf(random_scores(Rng(1), 10))
        cfg = SamplerConfig(k=6, policy=Policy.RANDOM)
        r1 = sample_indices(sv, cfg, rng=Rng(5))
        r2 = sample_indices(sv, cfg, rng=Rng(5))
        assert r1 == r2
        assert r1.k_prime == 6
        with pytest.raises(ValueError, match="rng"):
            sample_indices(sv, cfg)


class TestRefineAttention:
    """The refined attention of every head is ag.gather_rows on the stacked
    (heads, T, T) attention matrices at the kept indices."""

    def test_keep_all_is_identity(self):
        a = softmax_rows(Rng(0).normal((2, 4, 4)))
        assert np.array_equal(ag.gather_rows(ag.leaf(a), (0, 1, 2, 3)).value, a)

    def test_keep_only_cls(self):
        a = softmax_rows(Rng(1).normal((2, 4, 4)))
        out = ag.gather_rows(ag.leaf(a), (0,)).value
        assert out.shape == (2, 1, 4)
        assert np.array_equal(out[:, 0], a[:, 0])

    def test_rows_extracted_verbatim(self):
        a = softmax_rows(Rng(2).normal((3, 4, 4)))
        out = ag.gather_rows(ag.leaf(a), (2, 0)).value
        assert np.array_equal(out, a[:, [2, 0]])
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_out_of_range_rejected(self):
        a = softmax_rows(Rng(3).normal((2, 3, 3)))
        with pytest.raises(IndexError):
            ag.gather_rows(ag.leaf(a), (0, 3))


class TestSampledAttend:
    def test_no_drop_equals_vanilla_bitwise(self):
        rng = Rng(11)
        d, heads, t = 8, 2, 6
        state = make_state(rng, t, d, heads)
        ow, ob = ag.leaf(rng.normal((d, d), 0.5)), ag.leaf(rng.normal((d,), 0.2))
        res = SampleResult(kept=tuple(range(t)), psi=tuple(range(1, t)))
        full = attend(state, ow, ob)
        sampled = sampled_attend(state, res, ow, ob)
        assert np.array_equal(full.value, sampled.value)

    def test_keep_cls_only_is_first_row(self):
        rng = Rng(12)
        d, heads, t = 8, 2, 6
        state = make_state(rng, t, d, heads)
        ow, ob = ag.leaf(rng.normal((d, d), 0.5)), ag.leaf(rng.normal((d,), 0.2))
        res = SampleResult(kept=(0,), psi=())
        full = attend(state, ow, ob)
        sampled = sampled_attend(state, res, ow, ob)
        assert np.allclose(sampled.value, full.value[:1], atol=1e-15)

    def test_gather_commutes_with_projection(self):
        """Oracle: vanilla attend then row-gather equals sampled attend."""
        for seed in range(5):
            rng = Rng(100 + seed)
            d, heads, t = 12, 3, 9
            state = make_state(rng, t, d, heads)
            ow = ag.leaf(rng.normal((d, d), 0.5))
            ob = ag.leaf(rng.normal((d,), 0.2))
            sv = compute_scores(state.attn.value, state.v.value)
            res = sample_indices(sv, SamplerConfig(k=4))
            sampled = sampled_attend(state, res, ow, ob)
            oracle = attend(state, ow, ob).value[list(res.kept)]
            assert np.allclose(sampled.value, oracle, rtol=1e-9, atol=1e-12)


def test_gradients_with_frozen_indices_match_finite_differences():
    """Differentiability contract: with kept indices frozen, the sampled
    attention block is exactly differentiable in its inputs."""
    d, heads, t = 8, 2, 6
    rng = Rng(31)
    tok0 = rng.normal((t, d))
    qw = rng.normal((d, 3 * d), 0.5)
    qb = rng.normal((3 * d,), 0.2)
    ow = rng.normal((d, d), 0.5)
    ob = rng.normal((d,), 0.2)

    state0 = attention_state(ag.leaf(tok0), ag.leaf(qw), ag.leaf(qb), heads)
    sv = compute_scores(state0.attn.value, state0.v.value)
    frozen = sample_indices(sv, SamplerConfig(k=3))
    assert frozen.k_prime < t - 1  # make sure rows actually drop
    target = rng.normal((frozen.k_prime + 1, d))

    def f(x):
        state = attention_state(x, ag.leaf(qw), ag.leaf(qb), heads)
        out = sampled_attend(state, frozen, ag.leaf(ow), ag.leaf(ob))
        return sum_all(mul(out, ag.leaf(target)))

    assert ag.grad_check(f, tok0, h=1e-5) <= 1e-6
