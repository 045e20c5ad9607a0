import numpy as np
import pytest

from atsvit.dataset import DatasetManifest, generate
from atsvit.flops import block_macs, model_macs, static_macs
from atsvit.model import ModelConfig, forward, init_weights
from atsvit.numerics import Rng


class TestBlockMacs:
    def test_no_drop_identity(self):
        # t_in == t_out == t collapses to 4td^2 + 2t^2 d
        for t, d in [(17, 64), (5, 8), (197, 384)]:
            attn, _ = block_macs(t, t, d, 4)
            assert attn == 4 * t * d * d + 2 * t * t * d

    def test_single_retained_row_value_mix(self):
        t_in, d = 9, 16
        attn, _ = block_macs(t_in, 1, d, 4)
        value_mix = attn - 3 * t_in * d * d - t_in * t_in * d - 1 * d * d
        assert value_mix == t_in * d  # one output row times t_in values

    def test_hand_substitution(self):
        # d=1, t_in=t_out=2, mlp_ratio=4:
        # attn = 3*2*1 + 4*1 + 2*2*1 + 2*1 = 16, mlp = 2*4*2*1 = 16
        attn, mlp = block_macs(2, 2, 1, 4)
        assert attn == 16
        assert mlp == 16

    def test_mlp_term(self):
        _, mlp = block_macs(10, 7, 32, 4)
        assert mlp == 2 * 4 * 7 * 32 * 32

    def test_rejects_growth(self):
        with pytest.raises(ValueError):
            block_macs(4, 5, 8, 4)
        with pytest.raises(ValueError):
            block_macs(4, 0, 8, 4)

    def test_quadratic_in_tokens(self):
        # doubling tokens more than triples the attention-core (A) terms
        d = 64
        def core(t):
            attn, _ = block_macs(t, t, d, 4)
            return attn - 3 * t * d * d - t * d * d  # score + value-mix terms
        assert core(34) > 3 * core(17)

    def test_head_count_is_cosmetic(self):
        # one trace costed under 1 and 4 heads: per-head widths cancel
        cfg = ModelConfig(heads=4).with_sampling((1, 3), k=6)
        w = init_weights(cfg, Rng(4), dtype=np.float64)
        trace = forward(Rng(5).uniform((32, 32, 1)), cfg, w)
        one_head = ModelConfig(heads=1).with_sampling((1, 3), k=6)
        assert model_macs(trace, one_head) == model_macs(trace, cfg)


class TestModelMacs:
    def setup_method(self):
        self.cfg = ModelConfig()
        self.weights = init_weights(self.cfg, Rng(0), dtype=np.float64)

    def test_static_architecture_constant_cost(self):
        imgs = [Rng(s).uniform((32, 32, 1)) for s in range(4)]
        totals = {model_macs(forward(i, self.cfg, self.weights), self.cfg).total_macs
                  for i in imgs}
        assert len(totals) == 1
        assert totals.pop() == static_macs(self.cfg)

    def test_report_structure(self):
        trace = forward(Rng(1).uniform((32, 32, 1)), self.cfg, self.weights)
        report = model_macs(trace, self.cfg)
        embed, head = 16 * 64 * 64, 64 * 4
        blocks = [block_macs(t_in, t_out, 64, 4) for t_in, t_out in trace.stage_counts]
        assert all(attn > 0 and mlp > 0 for attn, mlp in blocks)
        assert report.total_macs == embed + head + sum(map(sum, blocks))

    def test_dropping_tokens_reduces_cost(self):
        cfg = self.cfg.with_sampling((2, 3, 4, 5), k=4)
        w = init_weights(cfg, Rng(0), dtype=np.float64)
        img = Rng(2).uniform((32, 32, 1))
        plain = model_macs(forward(img, self.cfg, self.weights), self.cfg)
        sampled = model_macs(forward(img, cfg, w), cfg)
        assert sampled.total_macs < plain.total_macs

    def test_different_traces_different_totals(self):
        cfg = self.cfg.with_sampling((2, 3, 4, 5), k=8)
        w = init_weights(cfg, Rng(3), dtype=np.float32)
        manifest = DatasetManifest(seed=5, n_train=4, n_val=24)
        _, val = generate(manifest)
        totals = {model_macs(forward(s.image, cfg, w), cfg).total_macs
                  for s in val}
        assert len(totals) >= 2

    def test_inconsistent_trace_rejected(self):
        trace = forward(Rng(1).uniform((32, 32, 1)), self.cfg, self.weights)
        trace.stage_counts[3] = (5, 5)
        with pytest.raises(ValueError, match="chained"):
            model_macs(trace, self.cfg)


def test_budget_monotonicity_on_refinement_ladder():
    """Raising the budget along a refinement ladder (each step an integer
    multiple) never decreases the per-image total: the coarse sampling grid
    is a subset of the finer one. For arbitrary budget pairs the generalized
    inverse is provably not monotone (see the sampler counterexample test).
    """
    manifest = DatasetManifest(seed=9, n_train=4, n_val=12)
    _, val = generate(manifest)
    base = ModelConfig()
    w64 = init_weights(base, Rng(1), dtype=np.float64)
    for sample in val:
        prev = None
        for k in (1, 2, 4, 8, 16):
            cfg = base.with_sampling((2, 3, 4, 5), k=k)
            total = model_macs(forward(sample.image, cfg, w64), cfg).total_macs
            if prev is not None:
                assert total >= prev, f"k={k} cheaper than previous budget"
            prev = total
