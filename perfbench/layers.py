"""Which atsvit functions the traced run wraps, and the per-layer metrics
derived from its spans.

Layers are the modules of atsvit. Every timing is a share of the traced
section's wall time (traced set-up plus one traced round) in percent; a
layer's saving on a workload is bounded by that share. Shares, not seconds,
because several layers never run on some workloads, and a time that reads 0
on every run is not a measurement.
"""

from __future__ import annotations

import os

import numpy as np

from workloads import EVAL_BUDGETS, STAGES

from atsvit import (attention, autograd, cli, container, dataset, flops, model,
                    numerics, sampling, trainer)

# Op wrappers of the tape that the model, the sampler and the trainer call.
# Their self time is the tape glue: it excludes the numerics they call.
AUTOGRAD_OPS = ("leaf", "add", "add_row", "scale", "matmul", "transpose",
                "softmax_rows", "layer_norm", "gelu", "gather_rows",
                "slice_cols", "concat_cols", "concat_rows", "cross_entropy")


def _targets():
    """(module, attribute, span name, note) for every wrapped function."""
    def fn(module, attr, note=None):
        return (module, attr, f"{module.__name__.split('.')[-1]}.{attr}", note)

    return [
        fn(numerics, "assert_finite"), fn(numerics, "matmul"),
        fn(numerics, "softmax_rows"), fn(numerics, "gelu"),
        *(fn(autograd, op) for op in AUTOGRAD_OPS),
        fn(autograd, "backward"),
        fn(attention, "project_qkv"), fn(attention, "attention_matrix"),
        fn(attention, "attend"),
        fn(sampling, "compute_scores", lambda a, r: r.uniform_fallback),
        fn(sampling, "sample_indices", lambda a, r: r.k_prime),
        fn(sampling, "sampled_attend"),
        fn(model, "forward"), fn(model, "patch_embed"),
        fn(flops, "model_macs"),
        fn(trainer, "train"), fn(trainer, "optim_step"), fn(trainer, "evaluate"),
        fn(dataset, "generate", lambda a, r: len(r[0]) + len(r[1])),
        fn(container, "read", lambda a, r: os.path.getsize(a[0])),
        fn(cli, "resolve_budget"), fn(cli, "cmd_sweep"),
    ]


TARGETS = _targets()
SPAN_NAMES = [t[2] for t in TARGETS]

# Spans that cannot fire on a workload; every other wrapped function must
# fire at least once, or the traced run fails.
NEVER_FIRES = {
    "train-baseline": {"sampling.compute_scores", "sampling.sample_indices",
                       "sampling.sampled_attend", "container.read",
                       "cli.resolve_budget", "cli.cmd_sweep"},
    "eval-adaptive": {"autograd.cross_entropy", "autograd.backward",
                      "trainer.train", "trainer.optim_step",
                      "cli.resolve_budget", "cli.cmd_sweep"},
    "sweep-shared": {"autograd.cross_entropy", "autograd.backward",
                     "trainer.train", "trainer.optim_step"},
}

SHARES = ("numerics.assert_finite", "numerics.matmul", "numerics.softmax_rows",
          "numerics.gelu", "autograd.ops", "autograd.backward",
          "attention.project_qkv", "attention.attention_matrix",
          "attention.attend", "sampling.compute_scores",
          "sampling.sample_indices", "sampling.sampled_attend",
          "model.forward", "model.patch_embed", "flops.model_macs",
          "trainer.train", "trainer.optim_step", "trainer.evaluate",
          "dataset.generate", "container.read", "cli.cmd_sweep")

# Taken from eval-adaptive's per-budget passes (Workload.layer_extras);
# they read 0 on the other workloads.
EVAL_ONLY = ([f"model.wall_fraction.k{k}" for k in EVAL_BUDGETS]
             + [f"flops.mac_fraction.k{k}" for k in EVAL_BUDGETS]
             + [f"sampling.kprime_below_k.stage{s}" for s in STAGES])


def not_fired(tracer, workload: str) -> list[str]:
    fired = {name for name, s in tracer.summary().items() if s["calls"]}
    return sorted(set(SPAN_NAMES) - fired - NEVER_FIRES[workload])


def layer_metrics(tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced section lasting
    wall_s seconds."""
    summ = tracer.summary()

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def self_s(name):
        if name == "autograd.ops":
            return sum(self_s(f"autograd.{op}") for op in AUTOGRAD_OPS)
        return summ.get(name, {}).get("self_s", 0.0)

    images = calls("model.forward")
    per_img = max(images, 1)
    out = {f"{name}.self_pct": 100.0 * self_s(name) / wall_s for name in SHARES}

    op_ids = [tracer.names.index(f"autograd.{op}") for op in AUTOGRAD_OPS
              if f"autograd.{op}" in tracer.names]
    in_image = (np.isin(np.frombuffer(tracer.name_id, dtype=np.int32), op_ids)
                & (np.frombuffer(tracer.image, dtype=np.int32) >= 0))
    out["autograd.nodes_per_img"] = float(in_image.sum()) / per_img
    out["numerics.assert_finite.calls_per_img"] = calls("numerics.assert_finite") / per_img
    out["model.forward.calls"] = images

    # Stage of a sample_indices span = its position among its forward's calls.
    kprime: dict[int, list[float]] = {s: [] for s in STAGES}
    seen: dict[int, int] = {}
    for idx in tracer.spans_named("sampling.sample_indices"):
        pos = seen.get(tracer.parent[idx], 0)
        seen[tracer.parent[idx]] = pos + 1
        kprime[STAGES[pos]].append(tracer.notes[idx])
    for s, vals in kprime.items():
        out[f"sampling.kprime_mean.stage{s}"] = float(np.mean(vals)) if vals else 0.0
    scores = tracer.spans_named("sampling.compute_scores")
    out["sampling.uniform_fallback_ratio"] = (
        sum(tracer.notes[i] for i in scores) / len(scores) if scores else 0.0)

    out["dataset.generate.images"] = sum(
        tracer.notes[i] for i in tracer.spans_named("dataset.generate"))
    out["container.read.bytes"] = sum(
        tracer.notes[i] for i in tracer.spans_named("container.read"))
    budget_spans = set(tracer.spans_named("cli.resolve_budget"))
    out["cli.resolve_budget.evaluate_calls"] = sum(
        tracer.parent[i] in budget_spans for i in tracer.spans_named("trainer.evaluate"))
    out["trace.spans"] = len(tracer.start)
    out.update(dict.fromkeys(EVAL_ONLY, 0.0))
    return out
