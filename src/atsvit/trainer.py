"""Training for the toy ViT, with or without token sampling; fine-tuning is
training with sampling stages switched on.

Decoupled-weight-decay adaptive moments (bias-corrected) under a linear
warmup plus cosine decay schedule. Runs are deterministic for a fixed seed:
batch order comes from the counter-based Rng and gradient reduction is a
fixed-order sum over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Node
from .dataset import ShapeSample
from .flops import model_macs
from .model import (ForwardTrace, ModelConfig, backward_prefix, first_stage,
                    forward, forward_prefix)
from .numerics import NonFiniteError, Rng


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class Schedule:
    base_lr: float
    total_steps: int
    warmup_steps: int = 0

    def __post_init__(self):
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("need 0 <= warmup_steps <= total_steps")


def lr_at(schedule: Schedule, step: int) -> float:
    """Linear warmup to base_lr, then cosine decay to 0 at total_steps."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if step < schedule.warmup_steps:
        return schedule.base_lr * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    progress = (step - schedule.warmup_steps) / span if span > 0 else 1.0
    return schedule.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimState:
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def optim_step(state: OptimState, params: dict[str, Node], lr: float) -> None:
    """One update: bias-corrected moments, decay applied directly to the
    parameters (decoupled) and scaled by lr."""
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.value)
        elif not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        state.m[name] = BETA1 * state.m[name] + (1 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1 - BETA2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.value = p.value - lr * (m_hat / (np.sqrt(v_hat) + EPS)
                                  + state.weight_decay * p.value)


@dataclass
class EvalResult:
    top1: float
    mean_loss: float
    mean_macs: float
    macs: np.ndarray                       # per-image totals
    kprime: dict[int, np.ndarray]          # per sampling stage, per image

    def kprime_hist(self, stage: int) -> dict[int, int]:
        vals, counts = np.unique(self.kprime[stage], return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


class _Tally:
    """One pass's per-image metrics: correct count, loss, MACs from the
    trace, and K' per sampling stage."""

    def __init__(self, cfg: ModelConfig):
        self.cfg, self.correct = cfg, 0
        self.losses: list[float] = []
        self.macs: list[int] = []
        self.kprime: dict[int, list[int]] = {s: [] for s in cfg.ats_stages}

    def add(self, trace: ForwardTrace, label: int, loss: Node) -> None:
        self.correct += int(np.argmax(trace.logits)) == label
        self.losses.append(float(loss.value))
        self.macs.append(model_macs(trace, self.cfg).total_macs)
        for stage, res in trace.samples.items():
            self.kprime[stage].append(res.k_prime)

    def result(self) -> EvalResult:
        return EvalResult(
            top1=self.correct / len(self.macs),
            mean_loss=float(np.mean(self.losses)),
            mean_macs=float(np.mean(self.macs)),
            macs=np.array(self.macs, dtype=np.int64),
            kprime={s: np.array(v, dtype=np.int64) for s, v in self.kprime.items()})


# Images per stacked forward_prefix pass in evaluate. Measured over 8, 16,
# 32 and 64 on the eval-adaptive passes; see CHANGES.md.
CHUNK = 32
# Images per recorded stacked forward_prefix pass in train. A recorded pass
# keeps what its backward reads, about 0.48 MB per image, until its walk. On
# train-baseline (seed 0, medians of 3 runs), chunks of 4, 8 and 16 ran 293,
# 335 and 356 img/s at a peak RSS of 77.5, 79.0 and 83.1 MB, against 288
# img/s and 79.3 MB when a recorded pass kept every node's value (chunk 4):
# 8 is the largest chunk whose peak RSS is not above that. See BENCH_16.json.
TRAIN_CHUNK = 8


def _chunks(n: int) -> Iterator[range]:
    for start in range(0, n, CHUNK):
        yield range(start, min(start + CHUNK, n))


def eval_rng(seed: int, i: int) -> Rng:
    """The sampling stream of validation image i. Evaluation and the masks
    command both draw from it, so the masks show what evaluation sampled."""
    return Rng(seed, stream=1000 + i)


def _require_samples(samples: list[ShapeSample], what: str) -> None:
    if not samples:
        raise ValueError(f"{what} needs at least one sample")


def evaluate(cfgs: ModelConfig | Sequence[ModelConfig],
             weights: dict[str, Node], samples: list[ShapeSample],
             seed: int = 0) -> EvalResult | list[EvalResult]:
    """Forward every sample in input order under no_grad, once per config,
    and aggregate accuracy, cost and token counts. The configs share one
    architecture. Each chunk of CHUNK images runs its sampling-independent
    prefix as one stacked pass per distinct first sampling stage, so a sweep
    computes it once per image; then each config runs each image's tail
    alone, sampling with eval_rng(seed, i), so results do not depend on
    which configs are evaluated together. One config gives one EvalResult, a
    sequence a list in its order."""
    _require_samples(samples, "evaluate")
    one = isinstance(cfgs, ModelConfig)
    cfgs = [cfgs] if one else list(cfgs)
    if any(c.arch_dict() != cfgs[0].arch_dict() for c in cfgs):
        raise ValueError("evaluate needs configs of one architecture")
    tallies = [_Tally(cfg) for cfg in cfgs]
    with ag.no_grad():
        for chunk in _chunks(len(samples)):
            images = [samples[i].image for i in chunk]
            prefixes = {}  # first sampling stage -> the chunk's prefixes
            for cfg, tally in zip(cfgs, tallies):
                stage = first_stage(cfg)
                if stage not in prefixes:
                    prefixes[stage] = forward_prefix(images, cfg, weights)
                for i, prefix in zip(chunk, prefixes[stage]):
                    s = samples[i]
                    t = forward(s.image, cfg, weights, rng=eval_rng(seed, i),
                                prefix=prefix)
                    tally.add(t, s.label, ag.cross_entropy(t.logits_node, s.label))
    results = [tally.result() for tally in tallies]
    return results[0] if one else results


def _metric_row(epoch: int, split: str, loss: float, ev: EvalResult) -> dict:
    per_stage = ";".join(f"{s}:{np.mean(v):.4f}" for s, v in sorted(ev.kprime.items()))
    return {"schema": 1, "epoch": epoch, "split": split,
            "loss": f"{loss:.6f}", "top1": f"{ev.top1:.6f}",
            "mean_kprime_per_stage": per_stage,
            "mean_macs": f"{ev.mean_macs:.1f}"}


def _train_chunk(cfg: ModelConfig, weights: dict[str, Node],
                 train_set: list[ShapeSample], ids: list[int], seed: int,
                 scale: float, tally: _Tally) -> None:
    """Add one chunk of a batch's gradients to the weights: the chunk's
    prefix as one recorded stacked pass, then each image's tail, loss and
    backward in image order, then one walk back through the prefix. Every
    weight gets its per-image contributions in image order, as if each image
    had had its own pass. The chunk's graph dies when this returns."""
    samples = [train_set[j] for j in ids]
    prefixes = forward_prefix([s.image for s in samples], cfg, weights)
    for j, sample, prefix in zip(ids, samples, prefixes):
        trace = forward(sample.image, cfg, weights, rng=Rng(seed, stream=3000 + j),
                        prefix=prefix)
        loss = ag.scale(ag.cross_entropy(trace.logits_node, sample.label), scale)
        ag.backward(loss)
        tally.add(trace, sample.label, loss)
        del trace, loss  # this image's graph, before the next one is built
    backward_prefix(prefixes)


def train(cfg: ModelConfig, weights: dict[str, Node],
          train_set: list[ShapeSample], val_set: list[ShapeSample],
          epochs: int = 30, batch_size: int = 64, base_lr: float = 5e-4,
          weight_decay: float = 0.01, seed: int = 0,
          log: bool = False) -> list[dict]:
    """Cross-entropy training loop; mutates weights in place and returns the
    per-epoch metric rows (train and val). Fine-tuning is this loop with
    sampling stages in cfg: gradients flow through the downsampled attention
    product, and the selected indices are frozen per forward pass. Each
    batch runs in chunks of TRAIN_CHUNK images (see _train_chunk); the
    gradients keep the bytes of one forward and backward per image."""
    if batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    _require_samples(train_set, "train")
    _require_samples(val_set, "train's validation pass")
    n = len(train_set)
    steps_per_epoch = math.ceil(n / batch_size)
    total_steps = epochs * steps_per_epoch
    schedule = Schedule(base_lr, total_steps,
                        warmup_steps=int(0.1 * total_steps))
    opt = OptimState(weight_decay=weight_decay)
    order_rng = Rng(seed, stream=7)
    rows: list[dict] = []
    step = 0

    for epoch in range(epochs):
        perm = order_rng.permutation(n)
        tally = _Tally(cfg)
        for b in range(steps_per_epoch):
            batch = perm[b * batch_size:(b + 1) * batch_size]
            ag.zero_grads(weights)
            for start in range(0, batch.size, TRAIN_CHUNK):
                ids = batch[start:start + TRAIN_CHUNK].tolist()
                try:
                    _train_chunk(cfg, weights, train_set, ids, seed,
                                 1.0 / batch.size, tally)
                except NonFiniteError as exc:
                    raise TrainingDiverged(
                        f"diverged at epoch {epoch}, step {step}, "
                        f"samples {ids}: {exc}") from exc
            optim_step(opt, weights, lr_at(schedule, step))
            step += 1

        train_loss = sum(tally.losses) / steps_per_epoch  # losses carry 1/batch
        train_ev = tally.result()
        rows.append(_metric_row(epoch, "train", train_loss, train_ev))
        try:
            ev = evaluate(cfg, weights, val_set, seed=seed)
        except NonFiniteError as exc:
            raise TrainingDiverged(
                f"diverged at epoch {epoch}, in the validation pass: {exc}"
            ) from exc
        rows.append(_metric_row(epoch, "val", ev.mean_loss, ev))
        if log:
            print(f"epoch {epoch:3d}  train loss {train_loss:.4f} "
                  f"acc {train_ev.top1:.3f}  val acc {ev.top1:.3f}")
    return rows
