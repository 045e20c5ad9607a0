"""Training and fine-tuning for the toy ViT, with or without token sampling.

Decoupled-weight-decay adaptive moments (bias-corrected) under a linear
warmup plus cosine decay schedule. Runs are deterministic for a fixed seed:
batch order comes from the counter-based Rng and gradient reduction is a
fixed-order sum over the batch.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import Node
from .dataset import ShapeSample
from .flops import model_macs
from .model import ForwardTrace, ModelConfig, forward
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


@dataclass
class OptimState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def optim_step(state: OptimState, params: dict[str, Node], lr: float) -> None:
    """One update: bias-corrected moments, decay applied directly to the
    parameters (decoupled) and scaled by lr."""
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.value)
        elif not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.value = p.value - lr * (m_hat / (np.sqrt(v_hat) + state.eps)
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


def _ce_from_logits(logits: np.ndarray, label: int) -> float:
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def evaluate(cfg: ModelConfig, weights: dict[str, Node],
             samples: list[ShapeSample], seed: int = 0,
             threads: int = 1) -> EvalResult:
    """Forward every sample and aggregate accuracy, cost, and token counts.

    Parallelism is across images only and results are merged in input order,
    so the outcome does not depend on the thread count. Each forward runs
    under no_grad, entered on the thread that runs it, so no graph outlives
    its image.
    """
    def run(item: tuple[int, ShapeSample]) -> ForwardTrace:
        i, s = item
        with ag.no_grad():
            return forward(s.image, cfg, weights, rng=Rng(seed, stream=1000 + i))

    work = list(enumerate(samples))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            traces = list(pool.map(run, work))
    else:
        traces = [run(w) for w in work]

    correct = 0
    losses = []
    macs = []
    kprime: dict[int, list[int]] = {s: [] for s in cfg.ats_stages}
    for s, t in zip(samples, traces):
        if int(np.argmax(t.logits)) == s.label:
            correct += 1
        losses.append(_ce_from_logits(t.logits, s.label))
        macs.append(model_macs(t, cfg).total_macs)
        for stage, res in t.samples.items():
            kprime[stage].append(res.k_prime)
    return EvalResult(
        top1=correct / len(samples),
        mean_loss=float(np.mean(losses)),
        mean_macs=float(np.mean(macs)),
        macs=np.array(macs, dtype=np.int64),
        kprime={s: np.array(v, dtype=np.int64) for s, v in kprime.items()},
    )


def _metric_row(epoch: int, split: str, loss: float, top1: float,
                cfg: ModelConfig, kprime: dict[int, float],
                mean_macs: float) -> dict:
    per_stage = ";".join(f"{s}:{kprime[s]:.4f}" for s in sorted(kprime))
    return {"schema": 1, "epoch": epoch, "split": split,
            "loss": f"{loss:.6f}", "top1": f"{top1:.6f}",
            "mean_kprime_per_stage": per_stage,
            "mean_macs": f"{mean_macs:.1f}"}


def train(cfg: ModelConfig, weights: dict[str, Node],
          train_set: list[ShapeSample], val_set: list[ShapeSample],
          epochs: int = 30, batch_size: int = 64, base_lr: float = 5e-4,
          weight_decay: float = 0.01, warmup_frac: float = 0.1,
          seed: int = 0, log: bool = False) -> list[dict]:
    """Cross-entropy training loop; mutates weights in place and returns the
    per-epoch metric rows (train and val)."""
    n = len(train_set)
    steps_per_epoch = max(1, math.ceil(n / batch_size))
    total_steps = epochs * steps_per_epoch
    schedule = Schedule(base_lr, total_steps,
                        warmup_steps=int(warmup_frac * total_steps))
    opt = OptimState(weight_decay=weight_decay)
    order_rng = Rng(seed, stream=7)
    rows: list[dict] = []
    step = 0

    for epoch in range(epochs):
        perm = order_rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        epoch_macs = 0.0
        epoch_kprime: dict[int, list[int]] = {s: [] for s in cfg.ats_stages}

        for b in range(steps_per_epoch):
            batch = perm[b * batch_size:(b + 1) * batch_size]
            if batch.size == 0:
                continue
            ag.zero_grads(weights)
            for j in batch:
                sample = train_set[int(j)]
                try:
                    trace = forward(sample.image, cfg, weights,
                                    rng=Rng(seed, stream=3000 + int(j)))
                    loss = ag.scale(ag.cross_entropy(trace.logits_node,
                                                     sample.label), 1.0 / batch.size)
                    if not np.isfinite(loss.value):
                        raise NonFiniteError("loss is not finite")
                    ag.backward(loss)
                except NonFiniteError as exc:
                    raise TrainingDiverged(
                        f"diverged at epoch {epoch}, step {step}, "
                        f"sample {int(j)}: {exc}") from exc
                epoch_loss += float(loss.value)
                if int(np.argmax(trace.logits)) == sample.label:
                    epoch_correct += 1
                epoch_macs += model_macs(trace, cfg).total_macs
                for stage, res in trace.samples.items():
                    epoch_kprime[stage].append(res.k_prime)
            optim_step(opt, weights, lr_at(schedule, step))
            step += 1

        train_kprime = {s: float(np.mean(v)) if v else 0.0
                        for s, v in epoch_kprime.items()}
        rows.append(_metric_row(epoch, "train", epoch_loss / steps_per_epoch,
                                epoch_correct / n, cfg, train_kprime,
                                epoch_macs / n))
        ev = evaluate(cfg, weights, val_set, seed=seed)
        val_kprime = {s: float(np.mean(v)) for s, v in ev.kprime.items()}
        rows.append(_metric_row(epoch, "val", ev.mean_loss, ev.top1, cfg,
                                val_kprime, ev.mean_macs))
        if log:
            print(f"epoch {epoch:3d}  train loss {epoch_loss / steps_per_epoch:.4f} "
                  f"acc {epoch_correct / n:.3f}  val acc {ev.top1:.3f}")
    return rows


def fine_tune(cfg: ModelConfig, weights: dict[str, Node],
              train_set: list[ShapeSample], val_set: list[ShapeSample],
              budget: int | None = None, **kwargs) -> list[dict]:
    """Further train with sampling active at the full budget (K equal to the
    patch count unless overridden), so evaluation can sweep smaller budgets
    afterward. Gradients flow through the downsampled attention product;
    the selected indices are frozen per forward pass."""
    k = cfg.num_patches if budget is None else budget
    ft_cfg = replace(cfg, sampler=replace(cfg.sampler, k=k))
    return train(ft_cfg, weights, train_set, val_set, **kwargs)
