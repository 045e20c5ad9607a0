import numpy as np
import pytest

from atsvit import autograd as ag
from atsvit.dataset import DatasetManifest, generate
from atsvit.model import ModelConfig, forward, init_weights
from atsvit.numerics import Rng
from atsvit.trainer import (OptimState, Schedule, evaluate, fine_tune, lr_at,
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


class TestFineTune:
    def test_no_stages_degenerates_to_train(self):
        train_set, val_set = generate(TINY_DATA)
        w1 = init_weights(TINY, Rng(5), dtype=np.float32)
        w2 = init_weights(TINY, Rng(5), dtype=np.float32)
        train(TINY, w1, train_set, val_set, epochs=1, batch_size=8,
              base_lr=1e-3, seed=6)
        fine_tune(TINY, w2, train_set, val_set, epochs=1, batch_size=8,
                  base_lr=1e-3, seed=6)
        for k in w1:
            assert np.array_equal(w1[k].value, w2[k].value), k

    def test_defaults_to_full_budget(self):
        cfg = TINY.with_sampling((1,), k=2)
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(cfg, Rng(6), dtype=np.float32)
        fine_tune(cfg, w, train_set[:4], val_set[:2], epochs=1, batch_size=4,
                  base_lr=1e-3, seed=0)
        # budget restored to the patch count during fine-tuning
        trace = forward(train_set[0].image, cfg.with_sampling((1,), k=cfg.num_patches),
                        w, rng=Rng(0))
        assert trace.samples[1].k_prime <= cfg.num_patches

    def test_parameter_count_unchanged(self):
        cfg = TINY.with_sampling((0,), k=3)
        train_set, val_set = generate(TINY_DATA)
        w = init_weights(cfg, Rng(7), dtype=np.float32)
        shapes = {k: v.value.shape for k, v in w.items()}
        fine_tune(cfg, w, train_set[:4], val_set[:2], epochs=1, batch_size=4,
                  base_lr=1e-3, seed=0)
        assert {k: v.value.shape for k, v in w.items()} == shapes


class TestEvaluate:
    def test_thread_count_does_not_change_results(self):
        cfg = TINY.with_sampling((1,), k=3)
        _, val_set = generate(TINY_DATA)
        w = init_weights(cfg, Rng(8), dtype=np.float32)
        a = evaluate(cfg, w, val_set, seed=0, threads=1)
        b = evaluate(cfg, w, val_set, seed=0, threads=4)
        assert a.top1 == b.top1
        assert np.array_equal(a.macs, b.macs)
        for s in cfg.ats_stages:
            assert np.array_equal(a.kprime[s], b.kprime[s])

    def test_histogram(self):
        cfg = TINY.with_sampling((0,), k=3)
        _, val_set = generate(TINY_DATA)
        w = init_weights(cfg, Rng(9), dtype=np.float32)
        ev = evaluate(cfg, w, val_set, seed=0)
        hist = ev.kprime_hist(0)
        assert sum(hist.values()) == len(val_set)
