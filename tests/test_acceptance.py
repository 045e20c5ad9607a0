"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The toy-pipeline criteria
train the default model once (a few minutes); everything else is fast. All
thresholds are pinned here, locked from the recorded reference run.
"""

import json
import time

import numpy as np
import pytest

from atsvit import autograd as ag
from atsvit.attention import attend
from atsvit.cli import main as cli_main
from atsvit.dataset import DatasetManifest, generate
from atsvit.flops import static_macs
from atsvit.model import ModelConfig, forward, init_weights
from atsvit.numerics import Rng, softmax_rows
from atsvit.sampling import (SampleResult, SamplerConfig, Scoring, build_cdf,
                             compute_scores, sample_indices, sampled_attend)
from atsvit.trainer import evaluate, train
from helpers import attention_state, mul, sum_all

# locked from the reference run (see decisions ledger): defaults-sized model,
# 1024/256 split, 30 epochs at lr 2e-3, fine-tune 8 epochs at lr 3e-4
DATA_MANIFEST = DatasetManifest(seed=42, n_train=1024, n_val=256)
TRAIN_KW = dict(epochs=30, batch_size=64, base_lr=2e-3, seed=0)
FT_KW = dict(epochs=8, batch_size=64, base_lr=3e-4, seed=1)
ATS_STAGES = (2, 3, 4, 5)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def sample_corpus():
    """1000 seeded random score vectors, N <= 16, K <= 16, mixed spikiness."""
    corpus = []
    for seed in range(1000):
        rng = Rng(seed, stream=2)
        n = 1 + rng.integers(0, 16)
        k = 1 + rng.integers(0, 16)
        u = rng.uniform((n,))
        if seed % 3 == 0:
            u = u ** 6  # concentrated scores exercise the contraction law
        total = u.sum()
        scores = u / total if total > 0 else np.full(n, 1.0 / n)
        corpus.append((scores, k))
    return corpus


def brute_force_ceil(scores, k_budget):
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


def test_criterion_01_sampler_matches_brute_force_oracle():
    start = time.time()
    mismatches = 0
    for scores, k in sample_corpus():
        res = sample_indices(build_cdf(scores), SamplerConfig(k=k))
        kept, psi = brute_force_ceil(scores, k)
        if res.kept != kept or list(res.psi) != psi:
            mismatches += 1
    elapsed = time.time() - start
    verdict(1, mismatches == 0 and elapsed < 1.0,
            f"ceil rule vs brute-force cdf scan: {mismatches} mismatches "
            f"on 1000 vectors in {elapsed:.2f}s (< 1s)")


def test_criterion_02_kprime_contraction_law():
    violations = 0
    for scores, k in sample_corpus():
        res = sample_indices(build_cdf(scores), SamplerConfig(k=k))
        if scores.max() >= 2.0 / k and not res.k_prime < k:
            violations += 1
    verdict(2, violations == 0,
            f"max score >= 2/K implies K' < K: {violations} violations on 1000 vectors")


def _block(tokens, ws, heads, result=None):
    """One pre-norm transformer block, optionally with token sampling."""
    normed = ag.layer_norm(tokens, ws["g1"], ws["b1"])
    state = attention_state(normed, ws["qw"], ws["qb"], heads)
    if result is None:
        x = ag.add(tokens, attend(state, ws["ow"], ws["ob"]))
    else:
        out = sampled_attend(state, result, ws["ow"], ws["ob"])
        x = ag.add(ag.gather_rows(tokens, result.kept), out)
    normed = ag.layer_norm(x, ws["g2"], ws["b2"])
    hidden = ag.gelu(ag.add_row(ag.matmul(normed, ws["m1w"]), ws["m1b"]))
    return ag.add(x, ag.add_row(ag.matmul(hidden, ws["m2w"]), ws["m2b"]))


def _block_weights(rng, d, ratio):
    return {
        "g1": ag.leaf(1.0 + rng.normal((d,), 0.2)), "b1": ag.leaf(rng.normal((d,), 0.2)),
        "qw": ag.leaf(rng.normal((d, 3 * d), 0.5)), "qb": ag.leaf(rng.normal((3 * d,), 0.2)),
        "ow": ag.leaf(rng.normal((d, d), 0.5)), "ob": ag.leaf(rng.normal((d,), 0.2)),
        "g2": ag.leaf(1.0 + rng.normal((d,), 0.2)), "b2": ag.leaf(rng.normal((d,), 0.2)),
        "m1w": ag.leaf(rng.normal((d, ratio * d), 0.5)), "m1b": ag.leaf(rng.normal((ratio * d,), 0.2)),
        "m2w": ag.leaf(rng.normal((ratio * d, d), 0.5)), "m2b": ag.leaf(rng.normal((d,), 0.2)),
    }


def test_criterion_03_no_drop_identity():
    worst = 0.0
    for seed in range(100):
        rng = Rng(seed, stream=3)
        t, d, heads = 2 + rng.integers(0, 9), 8, 2
        ws = _block_weights(rng, d, 2)
        tokens = rng.normal((t, d))
        keep_all = SampleResult(kept=tuple(range(t)), psi=tuple(range(1, t)))
        plain = _block(ag.leaf(tokens), ws, heads).value
        sampled = _block(ag.leaf(tokens), ws, heads, keep_all).value
        rel = np.abs(plain - sampled) / (np.abs(plain) + 1e-12)
        worst = max(worst, float(rel.max()))
    verdict(3, worst <= 1e-9,
            f"keep-all block output vs vanilla block: max relative diff "
            f"{worst:.2e} over 100 seeded cases (<= 1e-9)")


def test_criterion_04_gradient_fidelity():
    start = time.time()
    t, d, heads = 6, 8, 2
    worst = 0.0
    for seed in range(20):
        rng = Rng(seed, stream=4)
        tokens = rng.normal((t, d))
        ws = _block_weights(rng, d, 2)
        state = attention_state(
            ag.layer_norm(ag.leaf(tokens), ws["g1"], ws["b1"]),
            ws["qw"], ws["qb"], heads)
        sv = compute_scores(state.attn.value, state.v.value)
        frozen = sample_indices(sv, SamplerConfig(k=3))
        target = rng.normal((frozen.k_prime + 1, d))

        def f(x):
            out = _block(x, ws, heads, frozen)
            return sum_all(mul(out, ag.leaf(target)))

        worst = max(worst, ag.grad_check(f, tokens, h=1e-5))
    elapsed = time.time() - start
    verdict(4, worst <= 1e-6 and elapsed < 30.0,
            f"frozen-index block gradients vs central differences: max "
            f"relative error {worst:.2e} over 20 cases in {elapsed:.1f}s")


def test_criterion_05_normalization_suite():
    worst_score = 0.0
    worst_row = 0.0
    for n in (1, 4, 16, 64, 256):
        for heads in (1, 2, 4):
            rng = Rng(n * 10 + heads, stream=5)
            attn = np.stack([softmax_rows(rng.normal((n + 1, n + 1), 2.0))
                             for _ in range(heads)])
            values = np.stack([rng.normal((n + 1, 4)) for _ in range(heads)])
            for a in attn:
                worst_row = max(worst_row, float(np.abs(a.sum(axis=1) - 1).max()))
            for variant in Scoring:
                sv = compute_scores(attn, values, variant, rng=Rng(n, stream=6))
                worst_score = max(worst_score, abs(float(sv.scores.sum()) - 1.0))
    verdict(5, worst_score <= 1e-6 and worst_row <= 1e-6,
            f"score sums within {worst_score:.2e}, attention rows within "
            f"{worst_row:.2e} of 1 across all variants, N in {{1..256}}, h in {{1,2,4}}")


@pytest.fixture(scope="module")
def toy_data():
    return generate(DATA_MANIFEST)


@pytest.fixture(scope="module")
def baseline(toy_data):
    train_set, val_set = toy_data
    cfg = ModelConfig()
    weights = init_weights(cfg, Rng(0), dtype=np.float32)
    start = time.time()
    train(cfg, weights, train_set, val_set, **TRAIN_KW)
    elapsed = time.time() - start
    ev = evaluate(cfg, weights, val_set, seed=0)
    return cfg, weights, ev, elapsed


@pytest.fixture(scope="module")
def plugplay(baseline, toy_data):
    cfg, weights, _, _ = baseline
    ats_cfg = cfg.with_sampling(ATS_STAGES, k=cfg.num_patches)
    return ats_cfg, evaluate(ats_cfg, weights, toy_data[1], seed=0)


@pytest.fixture(scope="module")
def finetuned(baseline, toy_data):
    cfg, weights, _, _ = baseline
    train_set, val_set = toy_data
    ats_cfg = cfg.with_sampling(ATS_STAGES, k=cfg.num_patches)
    ft_weights = {k: ag.leaf(v.value.copy()) for k, v in weights.items()}
    train(ats_cfg, ft_weights, train_set, val_set, **FT_KW)
    return ats_cfg, ft_weights, evaluate(ats_cfg, ft_weights, val_set, seed=0)


def test_criterion_06_toy_pipeline(baseline, plugplay, finetuned):
    cfg, weights, base_ev, train_time = baseline
    ats_cfg, pp_ev = plugplay
    _, _, ft_ev = finetuned

    drop = base_ev.top1 - pp_ev.top1
    loss = max(0.0, drop)
    recovered = ft_ev.top1 >= pp_ev.top1 + loss / 2 - 1e-9 if loss > 0 else True
    ok = (base_ev.top1 >= 0.90 and train_time < 900.0
          and drop <= 0.02 + 1e-9 and recovered)
    verdict(6, ok,
            f"baseline {base_ev.top1:.4f} (>= 0.90) in {train_time:.0f}s "
            f"(< 900s); plug-and-play at K=N {pp_ev.top1:.4f} "
            f"(drop {drop * 100:.2f}pt <= 2pt); fine-tuned {ft_ev.top1:.4f} "
            f"(recovers >= half of any loss: {recovered})")


def test_criterion_07_adaptivity(finetuned, toy_data):
    # measured on the fine-tuned multi-stage model, the artifact the
    # histogram and per-image token counts describe
    _, _, ft_ev = finetuned
    val_set = toy_data[1]
    first_stage = min(ATS_STAGES)
    kprime = ft_ev.kprime[first_stage].astype(float)
    bins = len(set(kprime.tolist()))
    variance = float(kprime.var())

    clutter = np.array([s.clutter for s in val_set])
    lo, hi = np.quantile(clutter, 0.3), np.quantile(clutter, 0.7)
    mean_low = kprime[clutter <= lo].mean()
    mean_high = kprime[clutter >= hi].mean()

    ok = bins >= 3 and variance > 0 and mean_high > mean_low
    verdict(7, ok,
            f"first-stage K' histogram: {bins} bins (>= 3), variance "
            f"{variance:.2f} (> 0); mean K' high-clutter {mean_high:.2f} > "
            f"low-clutter {mean_low:.2f}")


def test_criterion_08_flops_accounting(baseline, toy_data):
    # Budgets form a refinement ladder (each step an integer multiple): the
    # coarse sampling grid is then a subset of the finer one, so the kept set
    # can only grow. For arbitrary budget pairs the generalized inverse is
    # provably not monotone; see the sampler counterexample test.
    cfg, weights, base_ev, _ = baseline
    val_set = toy_data[1]
    budgets = (1, 2, 4, 8, 16)

    assert len(set(base_ev.macs.tolist())) == 1  # static cost is constant
    baseline_macs = static_macs(cfg)

    per_budget_means = []
    totals_per_image = {i: [] for i in range(len(val_set))}
    for k in budgets:
        k_cfg = cfg.with_sampling(ATS_STAGES, k=k)
        ev = evaluate(k_cfg, weights, val_set, seed=0)
        per_budget_means.append(ev.mean_macs)
        for i, macs in enumerate(ev.macs):
            totals_per_image[i].append(int(macs))

    non_monotone = sum(
        1 for seq in totals_per_image.values()
        if any(b < a for a, b in zip(seq, seq[1:])))
    best_fraction = min(per_budget_means) / baseline_macs
    ok = non_monotone == 0 and best_fraction <= 0.6
    verdict(8, ok,
            f"per-image MACs nondecreasing along the refinement ladder "
            f"{budgets} ({non_monotone} violations); no-sampling cost "
            f"constant; best mean-MAC fraction {best_fraction:.3f} "
            f"(<= 0.6 reachable)")


def test_criterion_09_cli_determinism(tmp_path):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps({"dim": 16, "heads": 2, "depth": 3, "mlp_ratio": 2}))
    flags = ["--n-train", "16", "--n-val", "8", "--data-seed", "5"]
    blobs = {}
    for tag in ("x", "y"):
        model = tmp_path / f"m{tag}.atsw"
        evalj = tmp_path / f"e{tag}.json"
        sweep = tmp_path / f"s{tag}.csv"
        assert cli_main(["train", "--seed", "3", "--out", str(model),
                         "--epochs", "2", "--batch-size", "8", "--quiet",
                         "--config", str(arch)] + flags) == 0
        assert cli_main(["eval", "--weights", str(model), "--out", str(evalj),
                         "--ats-stages", "1,2", "--k", "8", "--quiet"]
                        + flags) == 0
        assert cli_main(["sweep", "--weights", str(model), "--out", str(sweep),
                         "--ats-stages", "1,2", "--budgets", "4,8"]
                        + flags) == 0
        blobs[tag] = (model.read_bytes() + (tmp_path / f"m{tag}.atsw.csv").read_bytes(),
                      evalj.read_bytes(), sweep.read_bytes())
    same = all(a == b for a, b in zip(blobs["x"], blobs["y"]))
    verdict(9, same,
            "train, eval, sweep outputs byte-identical across two runs "
            "with identical seeds")


def test_criterion_10_mask_nesting(baseline, toy_data):
    cfg, weights, _, _ = baseline
    ats_cfg = cfg.with_sampling(ATS_STAGES, k=8)
    val_set = toy_data[1][:100]
    violations = 0
    for i, sample in enumerate(val_set):
        trace = forward(sample.image, ats_cfg, weights, rng=Rng(0, stream=i))
        previous = set(range(ats_cfg.num_tokens))
        for stage in sorted(trace.alive):
            current = set(trace.alive[stage])
            if not current <= previous:
                violations += 1
            previous = current
    verdict(10, violations == 0,
            f"kept token sets nested across consecutive sampling stages: "
            f"{violations} violations on {len(val_set)} images")
