import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from atsvit import autograd as ag
from atsvit import model as model_mod
from atsvit import numerics
from atsvit.attention import AttentionState, attend
from atsvit.autograd import Node
from atsvit.container import BadMagicError, TruncatedPayloadError
from atsvit.model import (ModelConfig, ShapeMismatchError, as_nodes,
                          extract_patches, forward, forward_prefix,
                          init_weights, load_weights, patch_embed,
                          save_weights)
from atsvit.numerics import Rng, softmax_rows
from atsvit.sampling import (Policy, SampleResult, Scoring, sample_indices,
                             sampled_attend)

STORED = (Path(__file__).resolve().parent.parent / "perfbench" / "weights"
          / "baseline.atsw")
TINY = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, depth=2,
                   mlp_ratio=2, num_classes=3)


def _brute_force_ceil(scores, k_budget):
    cdf = list(np.minimum(np.cumsum(scores), 1.0))
    cdf[-1] = 1.0
    kept, psi = {0}, []
    for i in range(1, k_budget + 1):
        point = i / k_budget
        for token, value in enumerate(cdf, start=1):
            if value >= point:
                psi.append(token)
                kept.add(token)
                break
    return tuple(sorted(kept)), psi


def np_weights(cfg, seed=0):
    w = init_weights(cfg, Rng(seed), dtype=np.float64)
    return w, {k: v.value for k, v in w.items()}


def reference_vit(image, cfg, wv):
    """Independent plain-numpy ViT used as the no-sampling oracle."""
    g, p, d, hd = cfg.grid_size, cfg.patch_size, cfg.dim, cfg.dim // cfg.heads

    def ln(x, gamma, beta, eps=1e-5):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * gamma + beta

    img = image if image.ndim == 3 else image[:, :, None]
    patches = np.stack([
        img[py * p:(py + 1) * p, px * p:(px + 1) * p, :].reshape(-1)
        for py in range(g) for px in range(g)
    ])
    x = np.concatenate([wv["cls"], patches @ wv["patch.w"] + wv["patch.b"]])
    x = x + wv["pos"]
    for i in range(cfg.depth):
        b = f"block{i}."
        normed = ln(x, wv[b + "ln1.g"], wv[b + "ln1.b"])
        fused = normed @ wv[b + "qkv.w"] + wv[b + "qkv.b"]
        q, k, v = fused[:, :d], fused[:, d:2 * d], fused[:, 2 * d:]
        heads = []
        for h in range(cfg.heads):
            sl = slice(h * hd, (h + 1) * hd)
            a = softmax_rows(q[:, sl] @ k[:, sl].T / np.sqrt(hd))
            heads.append(a @ v[:, sl])
        x = x + np.concatenate(heads, axis=1) @ wv[b + "out.w"] + wv[b + "out.b"]
        normed = ln(x, wv[b + "ln2.g"], wv[b + "ln2.b"])
        from scipy.special import ndtr
        hidden = normed @ wv[b + "mlp1.w"] + wv[b + "mlp1.b"]
        hidden = hidden * ndtr(hidden)
        x = x + hidden @ wv[b + "mlp2.w"] + wv[b + "mlp2.b"]
    x = ln(x, wv["norm.g"], wv["norm.b"])
    return x[0] @ wv["head.w"] + wv["head.b"]


class TestPatchEmbed:
    def test_token_count_arithmetic(self):
        cfg = ModelConfig(image_size=32, patch_size=8, dim=16, heads=2)
        w, _ = np_weights(cfg)
        out = patch_embed([Rng(0).uniform((32, 32, 1))], w, cfg)
        assert cfg.num_patches == 16
        assert out.shape == (17, 16)

    def test_zero_image_rows_equal_bias(self):
        cfg = TINY
        w, wv = np_weights(cfg)
        w["pos"] = ag.leaf(np.zeros_like(wv["pos"]))
        out = patch_embed([np.zeros((16, 16, 1))], w, cfg)
        for row in out.value[1:]:
            assert np.allclose(row, wv["patch.b"])

    def test_matches_reference(self):
        cfg = TINY
        w, wv = np_weights(cfg, seed=4)
        img = Rng(9).uniform((16, 16, 1))
        out = patch_embed([img], w, cfg)
        g, p = cfg.grid_size, cfg.patch_size
        ref = np.stack([
            img[py * p:(py + 1) * p, px * p:(px + 1) * p, :].reshape(-1)
            for py in range(g) for px in range(g)
        ]) @ wv["patch.w"] + wv["patch.b"]
        ref = np.concatenate([wv["cls"], ref]) + wv["pos"]
        assert np.allclose(out.value, ref, atol=1e-6)

    def test_float32_weights_read_float64_images_as_float32(self):
        """Rounding an image to float32 before patch_embed gives the bytes
        of rounding it inside: generated images are stored as float32."""
        cfg = TINY
        w = init_weights(cfg, Rng(4), dtype=np.float32)
        img = Rng(9).uniform((16, 16, 1))
        wide = patch_embed([img], w, cfg).value
        narrow = patch_embed([img.astype(np.float32)], w, cfg).value
        assert wide.dtype == narrow.dtype == np.float32
        assert wide.tobytes() == narrow.tobytes()

    def test_wrong_size_rejected(self):
        w, _ = np_weights(TINY)
        with pytest.raises(ValueError, match="shape"):
            patch_embed([np.zeros((8, 8, 1))], w, TINY)

    def test_patch_order_is_raster(self):
        cfg = TINY
        img = np.zeros((16, 16, 1))
        img[0:8, 8:16, 0] = 1.0  # patch row 0, col 1 -> flattened index 1
        patches = extract_patches(img, cfg)
        assert patches[1].sum() == 64.0
        assert patches[0].sum() == patches[2].sum() == patches[3].sum() == 0.0


class TestForward:
    def test_no_sampling_matches_reference_vit(self):
        for seed in range(3):
            cfg = ModelConfig(image_size=32, patch_size=8, dim=16, heads=4,
                              depth=3, num_classes=5)
            w, wv = np_weights(cfg, seed=seed)
            img = Rng(50 + seed).uniform((32, 32, 1))
            trace = forward(img, cfg, w)
            assert np.allclose(trace.logits, reference_vit(img, cfg, wv),
                               atol=1e-6)
            assert trace.stage_counts == [(17, 17)] * 3
            assert trace.samples == {}

    def test_sampling_stage_matches_sampler_oracle(self, monkeypatch):
        """Decisions made inside forward() match a brute-force scan of the
        scores the model actually produced, and tokens drop exactly when
        the contraction condition (some score >= 2/K) holds."""
        from atsvit import model as model_mod
        from atsvit import sampling

        captured = []
        real = sampling.sample_indices

        def recording(sv, scfg, rng=None):
            res = real(sv, scfg, rng)
            captured.append((sv.scores.copy(), scfg.k, res))
            return res

        monkeypatch.setattr(model_mod, "sample_indices", recording)
        n = TINY.num_patches
        cfg = TINY.with_sampling((1,), k=n)
        w, _ = np_weights(cfg, seed=2)
        for seed in range(8):
            img = Rng(30 + seed).uniform((16, 16, 1))
            trace = forward(img, cfg, w)
            scores, k, res = captured[-1]
            kept, psi = _brute_force_ceil(scores, k)
            assert res.kept == kept
            assert list(res.psi) == psi
            assert trace.stage_counts[1] == (n + 1, res.k_prime + 1)
            if scores.max() >= 2.0 / k:  # contraction condition
                assert res.k_prime < k

    def test_counts_non_increasing_across_sampling_stages(self):
        cfg = ModelConfig().with_sampling((2, 3, 4, 5), k=16)
        w, _ = np_weights(cfg, seed=1)
        img = Rng(8).uniform((32, 32, 1))
        trace = forward(img, cfg, w)
        counts = [c for _, c in trace.stage_counts]
        for a, b in zip(counts[2:], counts[3:]):
            assert b <= a

    def test_residual_gather_consistency(self, monkeypatch):
        """Forcing kept = all tokens, the sampled path equals the plain path."""
        from atsvit import model as model_mod
        from atsvit.sampling import SampleResult

        cfg = TINY
        w, _ = np_weights(cfg, seed=3)
        img = Rng(4).uniform((16, 16, 1))
        plain = forward(img, cfg, w)

        n = cfg.num_patches
        keep_all = SampleResult(kept=tuple(range(n + 1)),
                                psi=tuple(range(1, n + 1)))
        monkeypatch.setattr(model_mod, "sample_indices",
                            lambda sv, scfg, rng=None: keep_all)
        cfg_all = cfg.with_sampling((0, 1), k=n)
        w2 = {k: ag.leaf(v.value) for k, v in w.items()}
        trace = forward(img, cfg_all, w2)
        assert all(r.k_prime == n for r in trace.samples.values())
        rel = np.abs(trace.logits - plain.logits) / (np.abs(plain.logits) + 1e-12)
        assert rel.max() <= 1e-9

    def test_trace_alive_ids_nested(self):
        cfg = ModelConfig().with_sampling((1, 2, 3), k=8)
        w, _ = np_weights(cfg, seed=5)
        img = Rng(6).uniform((32, 32, 1))
        trace = forward(img, cfg, w)
        stages = sorted(trace.alive)
        previous = tuple(range(cfg.num_tokens))
        for s in stages:
            assert set(trace.alive[s]) <= set(previous)
            assert trace.alive[s][0] == 0
            previous = trace.alive[s]



class TestFirstSamplingBlockInThePrefix:
    """forward_prefix runs the first sampling block over every row, and
    forward keeps the kept rows of its output. That rests on soft
    downsampling: a kept row keeps its whole attention row, so its output
    does not depend on which other rows are kept."""
    KEPT = {"one": (0, 7),
            "middle": (0, 1, 3, 4, 8, 9, 12, 15, 16),
            "all": tuple(range(17))}

    @staticmethod
    def block(heads: int):
        """Block 0 of the default width under `heads` heads, with every
        weight, bias and gain drawn at random, in float32."""
        cfg = ModelConfig(heads=heads)
        rng = Rng(40 + heads)
        w = {name: ag.leaf((node.value + rng.normal(node.shape, std=0.2))
                           .astype(np.float32))
             for name, node in init_weights(cfg, rng).items()}
        return cfg, w

    @pytest.mark.parametrize("images", [1, 3], ids=["one", "stack"])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_sampled_rows_equal_the_unsampled_rows(self, heads, images):
        cfg, w = self.block(heads)
        p = "block0."
        pics = [Rng(9, stream=b).uniform((32, 32, 1)) for b in range(images)]
        with ag.no_grad():
            tokens = patch_embed(pics, w, cfg)
            state = model_mod._attention_state(tokens, w, p, heads)
            unsampled = model_mod._mlp_residual(
                ag.add(tokens, attend(state, w[p + "out.w"], w[p + "out.b"])),
                w, p).value
            for b in range(images):
                x, a, v, out = ((tokens, state.attn, state.v, unsampled)
                                if images == 1 else
                                (Node(tokens.value[b]),
                                 Node(state.attn.value[b]),
                                 Node(state.v.value[b]), unsampled[b]))
                assert out.dtype == np.float32
                for name, kept in self.KEPT.items():
                    result = SampleResult(kept=kept, psi=kept[1:])
                    sampled = model_mod._mlp_residual(ag.add(
                        ag.gather_rows(x, kept),
                        sampled_attend(AttentionState(a, v), result,
                                       w[p + "out.w"], w[p + "out.b"])), w, p)
                    assert (sampled.value.tobytes()
                            == out[list(kept)].tobytes()), (name, b)

    @staticmethod
    def sampled_pass(image, cfg, w, samples):
        """The logits of a pass that runs every sampling block the sampled
        way, with sampled_attend and an MLP over the kept rows only."""
        tokens = patch_embed([image], w, cfg)
        for i in range(cfg.depth):
            p = f"block{i}."
            state = model_mod._attention_state(tokens, w, p, cfg.heads)
            out_w, out_b = w[p + "out.w"], w[p + "out.b"]
            tokens = (ag.add(ag.gather_rows(tokens, samples[i].kept),
                             sampled_attend(state, samples[i], out_w, out_b))
                      if i in samples else
                      ag.add(tokens, attend(state, out_w, out_b)))
            tokens = model_mod._mlp_residual(tokens, w, p)
        final = ag.gather_rows(
            ag.layer_norm(tokens, w["norm.g"], w["norm.b"]), (0,))
        return ag.add_row(ag.matmul(final, w["head.w"]), w["head.b"])

    @pytest.mark.parametrize("stages,flags", [
        ((0,), {"k": 4}),
        ((2, 3, 4, 5), {"k": 8}),
        ((5,), {"k": 8, "policy": Policy.RANDOM}),
        ((0, 5), {"k": 6, "scoring": Scoring.RANDOM_TOKEN}),
        ((1, 3), {"k": 8, "policy": Policy.TOPK, "scoring": Scoring.ROWSUM}),
    ])
    def test_forward_matches_a_pass_that_samples_every_block(self, stages,
                                                              flags):
        """Recorded, in float32 on the stored weights: the logits and every
        weight's gradient keep their bytes."""
        arch, tensors = load_weights(str(STORED))
        cfg = arch.with_sampling(stages, **flags)
        for i in range(3):
            image = Rng(9, stream=i).uniform((32, 32, 1))
            w, ref_w = as_nodes(tensors), as_nodes(tensors)
            trace = forward(image, cfg, w, rng=Rng(3, stream=i))
            ag.backward(ag.cross_entropy(trace.logits_node, i))
            ref = self.sampled_pass(image, cfg, ref_w, trace.samples)
            ag.backward(ag.cross_entropy(ref, i))
            assert trace.logits_node.value.tobytes() == ref.value.tobytes()
            for name in tensors:
                assert w[name].grad.tobytes() == ref_w[name].grad.tobytes(), name

    def test_forward_from_a_prefix_skips_the_first_sampling_block(
            self, monkeypatch):
        """With stages 2-5, the tail attends with sampled rows and runs an
        MLP only at blocks 3, 4 and 5."""
        cfg = ModelConfig().with_sampling((2, 3, 4, 5), k=8)
        w = init_weights(cfg, Rng(2), dtype=np.float32)
        image = Rng(9).uniform((32, 32, 1))
        calls = []
        for module, name in ((model_mod, "sampled_attend"), (ag, "gelu")):
            monkeypatch.setattr(module, name, lambda *a, _n=name,
                                _f=getattr(module, name):
                                calls.append(_n) or _f(*a))
        with ag.no_grad():
            prefix, = forward_prefix([image], cfg, w)
            assert calls == ["gelu"] * 3  # blocks 0, 1 and 2, all rows
            calls.clear()
            trace = forward(image, cfg, w, prefix=prefix)
        assert sorted(calls) == ["gelu"] * 3 + ["sampled_attend"] * 3
        assert sorted(trace.samples) == [2, 3, 4, 5]


NO_GRAD_CASES = [None] + [(policy, scoring)
                          for policy in ("inverse", "topk", "random")
                          for scoring in ("cls-vnorm", "rowsum", "random-token")]


@pytest.mark.parametrize("case", NO_GRAD_CASES,
                         ids=lambda c: "unsampled" if c is None else "-".join(c))
def test_no_grad_forward_is_bitwise_equal(case):
    cfg = ModelConfig()
    if case is not None:
        cfg = cfg.with_sampling((1, 3, 4), k=6, policy=Policy(case[0]),
                                scoring=Scoring(case[1]))
    w = init_weights(cfg, Rng(2), dtype=np.float32)
    img = Rng(9).uniform((32, 32, 1))
    recorded = forward(img, cfg, w, rng=Rng(0, stream=1000))
    with ag.no_grad():
        bare = forward(img, cfg, w, rng=Rng(0, stream=1000))
    assert recorded.logits.tobytes() == bare.logits.tobytes()
    assert recorded.stage_counts == bare.stage_counts
    assert recorded.samples == bare.samples
    assert recorded.alive == bare.alive
    assert recorded.logits_node.parents and bare.logits_node.parents == ()


class TestWorkDoneOnce:
    def test_one_cdf_evaluation_per_gelu(self, monkeypatch):
        """backward reuses the Phi(x) its GELU's forward computed."""
        calls = []
        ndtr = numerics.ndtr
        monkeypatch.setattr(numerics, "ndtr",
                            lambda x: calls.append(x.shape) or ndtr(x))
        cfg = ModelConfig()
        trace = forward(Rng(9).uniform((32, 32, 1)), cfg,
                        init_weights(cfg, Rng(2)))
        ag.backward(ag.cross_entropy(trace.logits_node, 1))
        assert len(calls) == cfg.depth == 6

    def test_finite_checks_only_where_values_are_computed(self, monkeypatch):
        checked, computed = [], []
        monkeypatch.setattr(ag, "assert_finite", lambda op, x: checked.append(op))
        for op in ("add", "add_row", "scale", "matmul", "softmax_rows",
                   "layer_norm", "gelu", "cross_entropy"):
            monkeypatch.setattr(ag, op, lambda *a, _op=op, _f=getattr(ag, op):
                                computed.append(_op) or _f(*a))
        cfg = ModelConfig()
        with ag.no_grad():
            forward(Rng(9).uniform((32, 32, 1)), cfg, init_weights(cfg, Rng(2)))
        assert sorted(checked) == sorted(computed)
        # Patch embedding and head compute 3 nodes each, a block 17 of its 25:
        # its 3 slice_cols, 3 split_cols, transpose and concat_cols only copy.
        assert len(checked) == 3 + 17 * cfg.depth + 3


def test_recorded_stacked_prefix_keeps_at_most_750_kb_per_image():
    """A recorded 4-image prefix at the default architecture keeps only the
    arrays its vjps read: about 480 KB per image, where keeping every node's
    value took about 1.2 MB."""
    cfg = ModelConfig()
    w = init_weights(cfg, Rng(2), dtype=np.float32)
    images = [Rng(9, stream=i).uniform((32, 32, 1)) for i in range(4)]
    forward_prefix(images, cfg, w)  # first calls may allocate lasting caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prefixes = forward_prefix(images, cfg, w)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert prefixes[0].stacked.tokens.parents
    assert kept <= 4 * 750_000, kept


class TestSamplingIsParameterFree:
    def test_parameter_count_independent_of_stages(self):
        w1, _ = np_weights(ModelConfig())
        w2, _ = np_weights(ModelConfig().with_sampling((2, 3), k=8))
        assert (sum(w.value.size for w in w1.values())
                == sum(w.value.size for w in w2.values()))

    def test_weight_file_unchanged_by_sampling_config(self, tmp_path):
        cfg = TINY
        w, _ = np_weights(cfg, seed=7)
        a, b = tmp_path / "a.atsw", tmp_path / "b.atsw"
        save_weights(str(a), cfg, w)
        save_weights(str(b), cfg.with_sampling((0, 1), k=3), w)
        assert a.read_bytes() == b.read_bytes()


class TestWeightFile:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = TINY
        w, _ = np_weights(cfg, seed=6)
        p1, p2 = tmp_path / "m1.atsw", tmp_path / "m2.atsw"
        save_weights(str(p1), cfg, w)
        cfg2, tensors = load_weights(str(p1))
        assert cfg2.arch_dict() == cfg.arch_dict()
        save_weights(str(p2), cfg2, {k: ag.leaf(v) for k, v in tensors.items()})
        assert p1.read_bytes() == p2.read_bytes()

    def test_float32_is_exact_after_first_save(self, tmp_path):
        cfg = TINY
        w, _ = np_weights(cfg, seed=8)
        path = tmp_path / "m.atsw"
        save_weights(str(path), cfg, w)
        _, tensors = load_weights(str(path))
        for k, arr in tensors.items():
            assert np.array_equal(arr, w[k].value.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.atsw"
        path.write_bytes(b"NOPE!\n" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_weights(str(path))

    def test_truncated_payload(self, tmp_path):
        cfg = TINY
        w, _ = np_weights(cfg)
        path = tmp_path / "m.atsw"
        save_weights(str(path), cfg, w)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(TruncatedPayloadError):
            load_weights(str(path))

    def test_shape_mismatch(self, tmp_path):
        cfg = TINY
        w, _ = np_weights(cfg)
        path = tmp_path / "m.atsw"
        bad = dict(w)
        bad["pos"] = ag.leaf(np.zeros((2, cfg.dim)))  # wrong token count
        save_weights(str(path), cfg, bad)
        with pytest.raises(ShapeMismatchError):
            load_weights(str(path))


class TestConfigValidation:
    def test_image_size_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(image_size=30, patch_size=8)

    def test_stage_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(depth=4).with_sampling((4,), k=4)

    def test_budget_bounded_by_patches(self):
        with pytest.raises(ValueError):
            ModelConfig().with_sampling((2,), k=17)

    @pytest.mark.parametrize("field,value", [("patch_size", 0), ("depth", -1),
                                             ("dim", 16.0), ("heads", True)])
    def test_sizes_are_positive_ints(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})
