from dataclasses import replace

import numpy as np
import pytest

from pathlib import Path

from atsvit import autograd as ag
from atsvit import trainer
from atsvit.cli import main
from atsvit.dataset import DatasetManifest, generate
from atsvit.flops import model_macs
from atsvit.model import (ModelConfig, as_nodes, backward_prefix, forward,
                          forward_prefix, init_weights, load_weights)
from atsvit.numerics import Rng
from atsvit.sampling import Policy, Scoring
from atsvit.trainer import (CHUNK, TRAIN_CHUNK, OptimState, Schedule,
                            TrainingDiverged, eval_rng, evaluate, lr_at,
                            optim_step, train)

TINY = ModelConfig(image_size=32, patch_size=8, dim=16, heads=2, depth=2,
                   mlp_ratio=2, num_classes=4)
TINY_DATA = DatasetManifest(seed=21, n_train=16, n_val=8)


class TestSchedule:
    def test_warmup_endpoint_hits_base_lr(self):
        s = Schedule(base_lr=0.1, total_steps=100, warmup_steps=10)
        assert lr_at(s, 10) == pytest.approx(0.1)

    def test_half_progress_is_half_lr(self):
        s = Schedule(base_lr=0.2, total_steps=100, warmup_steps=0)
        assert lr_at(s, 50) == pytest.approx(0.1)

    def test_final_step_is_zero(self):
        s = Schedule(base_lr=0.3, total_steps=40, warmup_steps=4)
        assert lr_at(s, 40) == pytest.approx(0.0, abs=1e-15)

    def test_warmup_is_linear_from_zero(self):
        s = Schedule(base_lr=1.0, total_steps=100, warmup_steps=20)
        assert lr_at(s, 0) == 0.0
        assert lr_at(s, 5) == pytest.approx(0.25)

    def test_continuity_at_junction(self):
        s = Schedule(base_lr=0.7, total_steps=1000, warmup_steps=100)
        below = lr_at(s, 99)
        at = lr_at(s, 100)
        above = lr_at(s, 101)
        assert at == pytest.approx(0.7)
        assert abs(below - at) < 0.01 and abs(above - at) < 0.01

    def test_step_out_of_range(self):
        s = Schedule(base_lr=0.1, total_steps=10)
        with pytest.raises(ValueError):
            lr_at(s, 11)
        with pytest.raises(ValueError):
            lr_at(s, -1)

    def test_warmup_bounded_by_total(self):
        with pytest.raises(ValueError):
            Schedule(base_lr=0.1, total_steps=5, warmup_steps=6)


class TestOptimStep:
    def test_zero_grad_zero_decay_is_identity(self):
        p = ag.leaf(np.array([1.0, -2.0]))
        before = p.value.copy()
        optim_step(OptimState(), {"p": p}, lr=0.1)
        assert np.array_equal(p.value, before)

    def test_single_step_closed_form(self):
        # g=1 everywhere: bias-corrected m_hat = v_hat = 1, so delta ~ -lr
        p = ag.leaf(np.array([0.5]))
        p.grad = np.array([1.0])
        optim_step(OptimState(), {"p": p}, lr=0.1)
        assert p.value[0] == pytest.approx(0.4, abs=1e-8)

    def test_decay_only_shrinks_geometrically(self):
        wd, lr = 0.1, 0.05
        p = ag.leaf(np.array([2.0]))
        state = OptimState(weight_decay=wd)
        for _ in range(5):
            p.grad = np.array([0.0])
            optim_step(state, {"p": p}, lr=lr)
        assert p.value[0] == pytest.approx(2.0 * (1 - lr * wd) ** 5)

    def test_non_finite_gradient_names_parameter(self):
        p = ag.leaf(np.array([1.0]))
        p.grad = np.array([np.inf])
        with pytest.raises(ValueError, match="block0.qkv.w"):
            optim_step(OptimState(), {"block0.qkv.w": p}, lr=0.1)

    def test_bias_correction_steps(self):
        # second step with constant g=1 still moves by ~lr
        p = ag.leaf(np.array([0.0]))
        state = OptimState()
        for _ in range(2):
            p.grad = np.array([1.0])
            optim_step(state, {"p": p}, lr=0.1)
        assert p.value[0] == pytest.approx(-0.2, abs=1e-7)


class TestTrain:
    def test_lr_zero_keeps_weights_bitwise(self):
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(TINY, Rng(0), dtype=np.float32)
        before = {k: v.value.copy() for k, v in w.items()}
        train(TINY, w, train_set, val_set, epochs=1, batch_size=8,
              base_lr=0.0, weight_decay=0.0, seed=0)
        for k, v in w.items():
            assert np.array_equal(before[k], v.value), k

    def test_memorizes_single_sample(self):
        train_set, _ = generate(TINY_DATA)
        one = [train_set[0]]
        w = init_weights(TINY, Rng(1), dtype=np.float32)
        rows = train(TINY, w, one, one, epochs=150, batch_size=1,
                     base_lr=5e-3, weight_decay=0.0, seed=0)
        final_loss = float([r for r in rows if r["split"] == "train"][-1]["loss"])
        assert final_loss < 0.05

    def test_full_run_determinism(self):
        train_set, val_set = generate(TINY_DATA)
        outs = []
        for _ in range(2):
            w = init_weights(TINY, Rng(2), dtype=np.float32)
            rows = train(TINY, w, train_set, val_set, epochs=2, batch_size=8,
                         base_lr=1e-3, seed=3)
            outs.append(({k: v.value.copy() for k, v in w.items()}, rows))
        for k in outs[0][0]:
            assert np.array_equal(outs[0][0][k], outs[1][0][k]), k
        assert outs[0][1] == outs[1][1]

    def test_every_parameter_gets_gradient(self):
        """No dead branches: with sampling active, every parameter sees a
        nonzero gradient during one epoch, run right after an evaluate pass,
        whose forwards record nothing."""
        cfg = TINY.with_sampling((0, 1), k=3)
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(cfg, Rng(3), dtype=np.float64)
        seen = {k: 0.0 for k in w}
        evaluate(cfg, w, val_set, seed=0)

        for j, sample in enumerate(train_set):
            ag.zero_grads(w)
            trace = forward(sample.image, cfg, w, rng=Rng(0, stream=j))
            ag.backward(ag.cross_entropy(trace.logits_node, sample.label))
            for k, node in w.items():
                if node.grad is not None:
                    seen[k] = max(seen[k], float(np.abs(node.grad).max()))
        dead = [k for k, v in seen.items() if v == 0.0]
        assert not dead, f"parameters with no gradient: {dead}"

    def test_divergence_aborts_with_diagnostic(self):
        from atsvit.trainer import TrainingDiverged
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(TINY, Rng(5), dtype=np.float32)
        w["patch.w"].value[0, 0] = np.nan  # corrupt state -> non-finite loss
        with pytest.raises(TrainingDiverged, match="epoch 0, step 0"):
            train(TINY, w, train_set, val_set, epochs=1, batch_size=4,
                  base_lr=1e-3, seed=0)

    def test_nan_pixel_inside_a_stacked_chunk_names_the_chunk(self):
        train_set, val_set = generate(TINY_DATA)
        assert TRAIN_CHUNK >= 2
        samples = train_set[:TRAIN_CHUNK]
        bad = samples[1].image.copy()
        bad[5, 7] = np.nan
        samples[1] = replace(samples[1], image=bad)
        w = init_weights(TINY, Rng(5), dtype=np.float32)
        order = Rng(0, stream=7).permutation(TRAIN_CHUNK).tolist()
        with pytest.raises(TrainingDiverged) as info:
            train(TINY, w, samples, val_set, epochs=1, batch_size=TRAIN_CHUNK,
                  base_lr=1e-3, seed=0)
        assert str(info.value).startswith(
            f"diverged at epoch 0, step 0, samples {order}: non-finite values in")

    def test_divergence_in_the_validation_pass_names_it(self):
        """One step at a huge lr leaves finite weights whose validation
        pass overflows; the diagnostic names the epoch and that pass."""
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(TINY, Rng(5), dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged) as info:
            train(TINY, w, train_set, val_set, epochs=1,
                  batch_size=len(train_set), base_lr=1e30, seed=0)
        assert str(info.value).startswith(
            "diverged at epoch 0, in the validation pass: non-finite values in")
        # The training step itself ran through: its update is finite.
        assert all(np.isfinite(v.value).all() for v in w.values())
        assert max(np.abs(v.value).max() for v in w.values()) > 1e29

    def test_metric_rows_schema(self):
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(TINY, Rng(4), dtype=np.float32)
        rows = train(TINY, w, train_set, val_set, epochs=2, batch_size=8,
                     base_lr=1e-3, seed=0)
        assert len(rows) == 4  # train + val per epoch
        for row in rows:
            assert row["schema"] == 1
            assert row["split"] in ("train", "val")
            assert 0.0 <= float(row["top1"]) <= 1.0


    def test_rejects_non_positive_batch_size(self):
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(TINY, Rng(4), dtype=np.float32)
        for bad in (0, -2):
            with pytest.raises(ValueError, match="batch size"):
                train(TINY, w, train_set, val_set, epochs=1, batch_size=bad)

    def test_rejects_empty_sample_lists(self):
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(TINY, Rng(4), dtype=np.float32)
        for tr, va in (([], val_set), (train_set, [])):
            with pytest.raises(ValueError, match="at least one sample"):
                train(TINY, w, tr, va, epochs=1, batch_size=8)

    def test_static_train_row_matches_evaluate(self):
        """With weights held still and no sampling, the train row counts the
        same per-image metrics that evaluate does on the same images."""
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(TINY, Rng(8), dtype=np.float32)
        rows = train(TINY, w, train_set, val_set, epochs=1, batch_size=8,
                     base_lr=0.0, weight_decay=0.0, seed=0)
        ev = evaluate(TINY, w, train_set, seed=0)
        assert rows[0]["top1"] == f"{ev.top1:.6f}"
        assert rows[0]["mean_macs"] == f"{ev.mean_macs:.1f}"
        # batches of 8 with losses scaled by 1/8: the row is the mean loss
        assert float(rows[0]["loss"]) == pytest.approx(ev.mean_loss, abs=2e-6)


class TestFineTune:
    def test_parameter_count_unchanged(self):
        cfg = TINY.with_sampling((0,), k=3)
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(cfg, Rng(7), dtype=np.float32)
        shapes = {k: v.value.shape for k, v in w.items()}
        rows = train(cfg, w, train_set[:4], val_set[:2], epochs=1, batch_size=4,
                     base_lr=1e-3, seed=0)
        assert {k: v.value.shape for k, v in w.items()} == shapes
        assert all(r["mean_kprime_per_stage"].startswith("0:") for r in rows)


class TestEvaluate:
    def test_histogram(self):
        cfg = TINY.with_sampling((0,), k=3)
        _, val_set = generate(TINY_DATA)
        w = init_weights(cfg, Rng(9), dtype=np.float32)
        ev = evaluate(cfg, w, val_set, seed=0)
        hist = ev.kprime_hist(0)
        assert sum(hist.values()) == len(val_set)

    def test_rejects_empty_sample_list(self):
        w = init_weights(TINY, Rng(9), dtype=np.float32)
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate(TINY, w, [], seed=0)

    def test_results_independent_of_batch_size(self):
        """Image i's cost and token counts do not depend on how many images
        are evaluated with it."""
        _, val_set = generate(DatasetManifest(seed=21, n_train=16, n_val=16),
                              train=False)
        w = init_weights(TINY, Rng(9), dtype=np.float32)
        for scoring in (Scoring.CLS_VNORM, Scoring.RANDOM_TOKEN):
            cfg = TINY.with_sampling((0, 1), k=6, scoring=scoring)
            small = evaluate(cfg, w, val_set[:7], seed=3)
            large = evaluate(cfg, w, val_set[:16], seed=3)
            assert np.array_equal(small.macs, large.macs[:7])
            for stage in cfg.ats_stages:
                assert np.array_equal(small.kprime[stage], large.kprime[stage][:7])


def assert_same_result(a, b):
    assert a.top1 == b.top1 and a.mean_loss == b.mean_loss
    assert np.array_equal(a.macs, b.macs)
    assert a.kprime.keys() == b.kprime.keys()
    for stage in a.kprime:
        assert np.array_equal(a.kprime[stage], b.kprime[stage])


class TestChunkedEvaluate:
    """evaluate runs each chunk's prefix as one stacked pass; every image
    must come out exactly as its standalone forward does."""
    STORED = (Path(__file__).resolve().parent.parent / "perfbench" / "weights"
              / "baseline.atsw")

    @pytest.fixture(scope="class")
    def stored(self):
        cfg, tensors = load_weights(str(self.STORED))
        _, val_set = generate(DatasetManifest(seed=4, n_train=1, n_val=CHUNK + 1),
                              train=False)
        return cfg, as_nodes(tensors), val_set

    @staticmethod
    def configs(cfg):
        """Unsampled, inverse cls-vnorm at k = 16 and 1, and the random
        policy, which draws from the Rng; then first stages at block 0 and
        at the last block, whose prefix holds that block whole."""
        yield cfg
        for k in (16, 1):
            yield cfg.with_sampling((2, 3, 4, 5), k=k)
        yield cfg.with_sampling((2, 3, 4, 5), k=8, policy=Policy.RANDOM)
        yield cfg.with_sampling((0,), k=4)
        yield cfg.with_sampling((5,), k=8, policy=Policy.RANDOM,
                                scoring=Scoring.RANDOM_TOKEN)
        yield cfg.with_sampling((0, 5), k=6, policy=Policy.TOPK)

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK + 1])
    def test_matches_standalone_forward(self, stored, monkeypatch, n):
        base, w, val_set = stored
        samples = val_set[:n]
        traces = []
        monkeypatch.setattr(trainer, "forward", lambda *a, **kw:
                            traces.append(forward(*a, **kw)) or traces[-1])
        for cfg in self.configs(base):
            traces.clear()
            ev = evaluate(cfg, w, samples, seed=3)
            with ag.no_grad():
                alone = [forward(s.image, cfg, w, rng=eval_rng(3, i))
                         for i, s in enumerate(samples)]
            losses = [float(ag.cross_entropy(t.logits_node, s.label).value)
                      for t, s in zip(alone, samples)]
            assert ([t.logits.tobytes() for t in traces]
                    == [t.logits.tobytes() for t in alone]), cfg.runtime_dict()
            assert [t.samples for t in traces] == [t.samples for t in alone]
            assert ev.mean_loss == float(np.mean(losses))
            assert ev.top1 == np.mean([int(np.argmax(t.logits)) == s.label
                                       for t, s in zip(alone, samples)])
            assert list(ev.macs) == [model_macs(t, cfg).total_macs for t in alone]
            for stage in cfg.ats_stages:
                assert list(ev.kprime[stage]) == [t.samples[stage].k_prime
                                                  for t in alone]

    def test_one_call_gives_the_bytes_of_separate_calls(self, stored,
                                                        monkeypatch):
        """evaluate over many configs runs each chunk's prefix once per first
        sampling stage, and each config's result keeps the bytes of its own
        call: on every TestSharedPrefix config at 4 images, and on this
        class's configs over two chunks."""
        base, w, val_set = stored
        six = TestSharedPrefix.SIX
        _, tiny_val = generate(TINY_DATA, train=False)
        cases = [(list(TestSharedPrefix.configs()),
                  init_weights(six, Rng(11), dtype=np.float32), tiny_val[:4],
                  {0, 1, 2, 5}),
                 (list(self.configs(base)), w, val_set, {0, 2, 5, base.depth})]
        for cfgs, weights, samples, stages in cases:
            prefix_calls = []
            monkeypatch.setattr(trainer, "forward_prefix", lambda images, cfg, w:
                                prefix_calls.append(trainer.first_stage(cfg))
                                or forward_prefix(images, cfg, w))
            together = evaluate(cfgs, weights, samples, seed=5)
            chunks = -(-len(samples) // CHUNK)
            assert sorted(prefix_calls) == sorted(list(stages) * chunks)
            monkeypatch.undo()
            assert len(together) == len(cfgs)
            for cfg, ev in zip(cfgs, together):
                assert_same_result(ev, evaluate(cfg, weights, samples, seed=5))

    def test_recorded_stacked_prefix_gives_per_image_grads(self, stored):
        """Recorded, a stacked prefix and backward_prefix give every leaf the
        .grad bytes that one forward and backward per image give."""
        base, w, val_set = stored
        tensors = {name: node.value for name, node in w.items()}
        samples = val_set[:3]
        for cfg in self.configs(base):
            stacked, alone = as_nodes(tensors), as_nodes(tensors)
            prefixes = forward_prefix([s.image for s in samples], cfg, stacked)
            for i, (s, prefix) in enumerate(zip(samples, prefixes)):
                t = forward(s.image, cfg, stacked, rng=eval_rng(3, i), prefix=prefix)
                ag.backward(ag.cross_entropy(t.logits_node, s.label))
            backward_prefix(prefixes)
            for i, s in enumerate(samples):
                t = forward(s.image, cfg, alone, rng=eval_rng(3, i))
                ag.backward(ag.cross_entropy(t.logits_node, s.label))
            for name in tensors:
                assert (stacked[name].grad.tobytes()
                        == alone[name].grad.tobytes()), (name, cfg.runtime_dict())


class TestChunkedTrain:
    """train runs each chunk of a batch's prefix as one recorded stacked
    pass; after a step, every weight's gradient must have the bytes that one
    forward and backward per image, in batch order, give."""

    @pytest.fixture(scope="class")
    def stored(self):
        cfg, tensors = load_weights(str(TestChunkedEvaluate.STORED))
        train_set, val_set = generate(
            DatasetManifest(seed=4, n_train=2 * TRAIN_CHUNK + 1, n_val=1))
        return cfg, tensors, train_set, val_set

    @staticmethod
    def configs(cfg):
        """Unsampled, inverse cls-vnorm at k = 8 on stages 2-5, a first stage
        at block 0, top-k rowsum, and the random policy with random-token
        scoring, which draw from the Rng; then first stages at block 0 and
        at the last block alone, and at both."""
        yield cfg
        yield cfg.with_sampling((2, 3, 4, 5), k=8)
        yield cfg.with_sampling((0, 2), k=8)
        yield cfg.with_sampling((1, 3), k=8, policy=Policy.TOPK,
                                scoring=Scoring.ROWSUM)
        yield cfg.with_sampling((2, 3, 4, 5), k=8, policy=Policy.RANDOM,
                                scoring=Scoring.RANDOM_TOKEN)
        yield cfg.with_sampling((0,), k=4)
        yield cfg.with_sampling((5,), k=8, policy=Policy.RANDOM)
        yield cfg.with_sampling((0, 5), k=6, scoring=Scoring.RANDOM_TOKEN)

    @pytest.mark.parametrize("n", [1, TRAIN_CHUNK - 1, TRAIN_CHUNK + 1,
                                   2 * TRAIN_CHUNK + 1])
    def test_one_step_grads_match_per_image_passes(self, stored, n):
        base, tensors, train_set, val_set = stored
        samples = train_set[:n]
        for cfg in self.configs(base):
            chunked, alone = as_nodes(tensors), as_nodes(tensors)
            # One step at lr 0: the step's gradients stay on the weights.
            train(cfg, chunked, samples, val_set, epochs=1, batch_size=n,
                  base_lr=0.0, weight_decay=0.0, seed=3)
            for j in Rng(3, stream=7).permutation(n):
                s = samples[int(j)]
                t = forward(s.image, cfg, alone, rng=Rng(3, stream=3000 + int(j)))
                ag.backward(ag.scale(ag.cross_entropy(t.logits_node, s.label),
                                     1.0 / n))
            for name in tensors:
                assert (chunked[name].grad.tobytes()
                        == alone[name].grad.tobytes()), (name, cfg.runtime_dict())


class TestChunkSizeInvariance:
    """CHUNK and TRAIN_CHUNK are read at call time; no value of either may
    change a byte of what train, evaluate or sweep produce."""
    TRAIN_CHUNKS = (1, 2, 4, 8, 16)
    CHUNKS = (1, 3, 32)

    @pytest.fixture(scope="class")
    def stored(self):
        cfg, tensors = load_weights(str(TestChunkedEvaluate.STORED))
        train_set, val_set = generate(DatasetManifest(seed=6, n_train=21,
                                                      n_val=35))
        return cfg, tensors, train_set, val_set

    @pytest.mark.parametrize("sampled", [False, True],
                             ids=["unsampled", "inverse-k8"])
    def test_weights_after_an_epoch(self, stored, monkeypatch, sampled):
        base, tensors, train_set, val_set = stored
        cfg = base.with_sampling((2, 3, 4, 5), k=8) if sampled else base
        outcomes = []
        for chunk in self.TRAIN_CHUNKS:
            monkeypatch.setattr(trainer, "TRAIN_CHUNK", chunk)
            w = as_nodes(tensors)
            # Batches of 19 and 2 images: every chunk size ends a batch
            # with a partial chunk.
            rows = train(cfg, w, train_set, val_set[:3], epochs=1,
                         batch_size=19, seed=1)
            outcomes.append((rows, {n: v.value.tobytes() for n, v in w.items()}))
        assert all(o == outcomes[0] for o in outcomes[1:])
        assert outcomes[0][1] != {n: v.tobytes() for n, v in tensors.items()}

    def test_evaluate_and_sweep(self, stored, monkeypatch, tmp_path):
        base, tensors, _, val_set = stored
        w = as_nodes(tensors)
        configs = [base, base.with_sampling((2, 3, 4, 5), k=8),
                   base.with_sampling((2, 3, 4, 5), k=8, policy=Policy.RANDOM)]
        results, sweeps = [], []
        for chunk in self.CHUNKS:
            monkeypatch.setattr(trainer, "CHUNK", chunk)
            results.append([evaluate(cfg, w, val_set, seed=3) for cfg in configs])
            out = tmp_path / f"sweep{chunk}.csv"
            assert main(["sweep", "--weights", str(TestChunkedEvaluate.STORED),
                         "--n-val", str(len(val_set)), "--budgets", "2,8",
                         "--policies", "inverse,random", "--scorings",
                         "cls-vnorm,rowsum", "--out", str(out), "--quiet"]) == 0
            sweeps.append(out.read_bytes())
        for other in results[1:]:
            for a, b in zip(results[0], other, strict=True):
                assert_same_result(a, b)
        assert sweeps[1:] == sweeps[:1] * (len(self.CHUNKS) - 1)


class TestSharedPrefix:
    """Configs with the same first sampling stage branch from one prefix of
    each image: every block up to and including that stage, and the stage's
    attention and values."""
    SIX = ModelConfig(image_size=32, patch_size=8, dim=16, heads=2, depth=6,
                      mlp_ratio=2, num_classes=4)

    @pytest.fixture(scope="class")
    def setup(self):
        _, val_set = generate(TINY_DATA, train=False)
        return init_weights(self.SIX, Rng(11), dtype=np.float32), val_set[:4]

    @classmethod
    def configs(cls):
        for stages in ((2, 3, 4, 5), (1, 3), (0,), (5,), (0, 5)):
            for policy in Policy:
                for scoring in Scoring:
                    for k in (1, 8, 16):
                        yield cls.SIX.with_sampling(stages, k=k, policy=policy,
                                                    scoring=scoring)

    def test_forward_with_prefix_is_byte_equal(self, setup):
        """The prefix draws no random words: a pass that starts from it hands
        the sampler the Rng exactly where a full pass would."""
        w, samples = setup
        with ag.no_grad():
            for cfg in self.configs():
                image = samples[0].image
                prefix, = forward_prefix([image], cfg, w)
                a = forward(image, cfg, w, rng=Rng(5, stream=1000), prefix=prefix)
                b = forward(image, cfg, w, rng=Rng(5, stream=1000))
                assert a.logits.tobytes() == b.logits.tobytes(), cfg.runtime_dict()
                assert a.samples == b.samples and a.stage_counts == b.stage_counts

    def test_prefix_of_another_first_stage_is_refused(self, setup):
        w, samples = setup
        prefix, = forward_prefix([samples[0].image], self.SIX.with_sampling((2,)), w)
        with pytest.raises(ValueError, match="first sampling stage"):
            forward(samples[0].image, self.SIX.with_sampling((1, 3)), w,
                    prefix=prefix)

    def test_configs_of_another_architecture_are_refused(self, setup):
        w, samples = setup
        cfg = self.SIX.with_sampling((2, 3), k=4)
        with pytest.raises(ValueError, match="one architecture"):
            evaluate([cfg, replace(cfg, heads=4)], w, samples)
