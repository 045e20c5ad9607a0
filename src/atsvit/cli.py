"""Command-line harness: train, finetune, eval, sweep, masks.

Every command is deterministic given its flags; seeds are explicit and no
output embeds timestamps.

Emitted schemas (all carry schema=1):
  metrics CSV   epoch, split, loss, top1, mean_kprime_per_stage, mean_macs
                (mean_kprime_per_stage is "stage:mean;stage:mean", empty
                without sampling stages)
  sweep CSV     policy, scoring, k, top1, mean_macs, mac_fraction
                (mac_fraction is mean_macs over the no-sampling baseline)
  eval JSON     top1, mean_loss, mean_macs, macs_p50, macs_p90, baseline_macs,
                per-stage k_prime histograms and means, arch + runtime config
  masks         per image and sampling stage a PGM (kept patch = 255,
                dropped = 0, upscaled to image size) plus a JSON with each
                stage's raw sample result and surviving original patch ids
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import autograd as ag
from .container import ContainerError
from .dataset import DatasetManifest, generate, load_pgm, save_pgm
from .flops import static_macs
from .model import (ARCH_FIELDS, ModelConfig, init_weights, as_nodes, forward,
                    load_weights, save_weights)
from .numerics import FAST_DTYPE, NonFiniteError, Rng
from .sampling import InverseRule, Policy, Scoring
from .trainer import EvalResult, PrefixCache, TrainingDiverged, evaluate, train


def _parse_stages(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(sorted({int(t) for t in text.split(",")}))


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with architecture fields")
    p.add_argument("--ats-stages", type=str, default="",
                   help="comma-separated block indices for token sampling")
    p.add_argument("--k", type=int, default=None, help="token budget")
    p.add_argument("--policy", choices=[x.value for x in Policy],
                   default=Policy.INVERSE.value)
    p.add_argument("--scoring", choices=[x.value for x in Scoring],
                   default=Scoring.CLS_VNORM.value)
    p.add_argument("--inverse-rule", choices=[x.value for x in InverseRule],
                   default=InverseRule.CEIL.value)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-seed", type=int, default=42)
    p.add_argument("--n-train", type=int, default=1024)
    p.add_argument("--n-val", type=int, default=256)
    p.add_argument("--clutter-alpha", type=float, default=1.2)
    p.add_argument("--clutter-beta", type=float, default=2.4)
    p.add_argument("--clutter-scale", type=float, default=1.0)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--quiet", action="store_true")


def _manifest(args) -> DatasetManifest:
    return DatasetManifest(seed=args.data_seed, n_train=args.n_train,
                           n_val=args.n_val, clutter_alpha=args.clutter_alpha,
                           clutter_beta=args.clutter_beta,
                           clutter_scale=args.clutter_scale)


def _arch_config(args) -> ModelConfig:
    if not args.config:
        return ModelConfig()
    with open(args.config) as f:
        try:
            fields = json.load(f)
        except RecursionError:
            raise ValueError(f"{args.config}: config JSON nested too deeply") from None
    if not isinstance(fields, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    unknown = sorted(set(fields) - set(ARCH_FIELDS))
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys {unknown}; "
                         f"known keys are {list(ARCH_FIELDS)}")
    return ModelConfig.from_arch_dict({**ModelConfig().arch_dict(), **fields})


def _apply_runtime(cfg: ModelConfig, args) -> ModelConfig:
    stages = _parse_stages(args.ats_stages)
    k = args.k if args.k is not None else (cfg.num_patches if stages else cfg.sampler.k)
    return cfg.with_sampling(stages, k=k,
                             inverse_rule=InverseRule(args.inverse_rule),
                             policy=Policy(args.policy),
                             scoring=Scoring(args.scoring))


def write_metrics_csv(path: str, rows: list[dict]) -> None:
    fields = ["schema", "epoch", "split", "loss", "top1",
              "mean_kprime_per_stage", "mean_macs"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def write_json(path: str, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _fit(cfg: ModelConfig, weights, args) -> int:
    """Train weights under cfg (sampling stages make it a fine-tune), then
    write the weight file and its metrics CSV."""
    train_set, val_set = generate(_manifest(args))
    rows = train(cfg, weights, train_set, val_set, epochs=args.epochs,
                 batch_size=args.batch_size, base_lr=args.lr,
                 weight_decay=args.weight_decay, seed=args.seed,
                 log=not args.quiet)
    save_weights(args.out, cfg, weights)
    write_metrics_csv(args.metrics or args.out + ".csv", rows)
    return 0


def cmd_train(args) -> int:
    cfg = _apply_runtime(_arch_config(args), args)
    return _fit(cfg, init_weights(cfg, Rng(args.seed), dtype=FAST_DTYPE), args)


def cmd_finetune(args) -> int:
    arch, tensors = load_weights(args.weights)
    return _fit(_apply_runtime(arch, args), as_nodes(tensors, dtype=FAST_DTYPE), args)


def _eval_payload(cfg: ModelConfig, weights, val_set, seed: int) -> dict:
    ev = evaluate(cfg, weights, val_set, seed=seed)
    stages = {}
    for stage in cfg.ats_stages:
        hist = ev.kprime_hist(stage)
        stages[str(stage)] = {
            "hist": {str(k): v for k, v in hist.items()},
            "mean_kprime": float(np.mean(ev.kprime[stage])),
        }
    return {
        "schema": 1,
        "n_images": len(val_set),
        "top1": ev.top1,
        "mean_loss": ev.mean_loss,
        "mean_macs": ev.mean_macs,
        "macs_p50": float(np.percentile(ev.macs, 50)),
        "macs_p90": float(np.percentile(ev.macs, 90)),
        "baseline_macs": static_macs(cfg),
        "stages": stages,
        "arch": cfg.arch_dict(),
        "runtime": cfg.runtime_dict(),
    }


def cmd_eval(args) -> int:
    arch, tensors = load_weights(args.weights)
    cfg = _apply_runtime(arch, args)
    weights = as_nodes(tensors, dtype=FAST_DTYPE)
    _, val_set = generate(_manifest(args), train=False)
    payload = _eval_payload(cfg, weights, val_set, args.seed)
    write_json(args.out, payload)
    if not args.quiet:
        print(f"top1 {payload['top1']:.4f}  mean MACs {payload['mean_macs']:.0f} "
              f"({payload['mean_macs'] / payload['baseline_macs']:.3f} of baseline)")
    return 0


def resolve_budget(cfg: ModelConfig, weights, val_set, fractions: list[float],
                   seed: int, prefixes: PrefixCache | None = None
                   ) -> list[tuple[int, EvalResult]]:
    """For each fraction, the largest budget whose mean MACs stay at or below
    fraction * baseline (budget 1 if none does), paired with its result.
    Every budget in 1..num_patches is evaluated once, so the answer does not
    rest on mean MACs rising with the budget."""
    baseline = static_macs(cfg)
    scan = [(k, evaluate(cfg.with_sampling(cfg.ats_stages, k=k), weights,
                         val_set, seed=seed, prefixes=prefixes))
            for k in range(1, cfg.num_patches + 1)]
    return [max((p for p in scan if p[1].mean_macs <= frac * baseline),
                key=lambda p: p[0], default=scan[0])
            for frac in fractions]


def cmd_sweep(args) -> int:
    arch, tensors = load_weights(args.weights)
    weights = as_nodes(tensors, dtype=FAST_DTYPE)
    base_cfg = _apply_runtime(arch, args)
    stages = _parse_stages(args.ats_stages) or (2, 3, 4, 5)
    _, val_set = generate(_manifest(args), train=False)
    policies = [Policy(p) for p in args.policies.split(",")]
    scorings = [Scoring(s) for s in args.scorings.split(",")]
    baseline = static_macs(base_cfg)
    # Every config below shares its first sampling stage, so each image's
    # prefix is computed once for the whole call.
    prefixes = PrefixCache(base_cfg, weights, val_set)

    rows = []
    for policy in policies:
        for scoring in scorings:
            combo_cfg = base_cfg.with_sampling(stages, policy=policy,
                                               scoring=scoring)
            if args.mac_fraction:
                results = resolve_budget(combo_cfg, weights, val_set,
                                         _parse_float_list(args.mac_fraction),
                                         args.seed, prefixes)
            else:
                results = [(k, evaluate(combo_cfg.with_sampling(stages, k=k),
                                        weights, val_set, seed=args.seed,
                                        prefixes=prefixes))
                           for k in _parse_int_list(args.budgets)]
            for k, ev in results:
                rows.append({
                    "schema": 1,
                    "policy": policy.value,
                    "scoring": scoring.value,
                    "k": k,
                    "top1": f"{ev.top1:.6f}",
                    "mean_macs": f"{ev.mean_macs:.1f}",
                    "mac_fraction": f"{ev.mean_macs / baseline:.6f}",
                })
    fields = ["schema", "policy", "scoring", "k", "top1", "mean_macs",
              "mac_fraction"]
    with open(args.out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_masks(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    arch, tensors = load_weights(args.weights)
    cfg = _apply_runtime(arch, args)
    weights = as_nodes(tensors, dtype=FAST_DTYPE)
    if args.images:
        images = [load_pgm(p) for p in args.images]
    else:
        _, val_set = generate(_manifest(args), train=False)
        images = [s.image for s in val_set[:args.count]]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    g, p = cfg.grid_size, cfg.patch_size

    def patch_mask(original_ids) -> np.ndarray:
        grid = np.zeros((g, g), dtype=np.float64)
        for tid in original_ids:
            if tid >= 1:  # CLS has no patch and never appears spatially
                py, px = divmod(tid - 1, g)
                grid[py, px] = 1.0
        return np.kron(grid, np.ones((p, p)))

    for i, image in enumerate(images):
        with ag.no_grad():
            trace = forward(np.asarray(image, dtype=np.float64), cfg, weights,
                            rng=Rng(args.seed, stream=1000 + i))
        save_pgm(out_dir / f"img{i:03d}.pgm", np.asarray(image))
        stages_obj = {}
        alive = tuple(range(cfg.num_tokens))
        for stage in sorted(trace.samples):
            res, alive = trace.samples[stage], trace.alive[stage]
            save_pgm(out_dir / f"img{i:03d}_stage{stage}.pgm", patch_mask(alive))
            stages_obj[str(stage)] = {
                "sample": {"kept": list(res.kept), "k_prime": res.k_prime,
                           "psi": list(res.psi)},
                "kept_original": list(alive),
            }
        save_pgm(out_dir / f"img{i:03d}_final.pgm", patch_mask(alive))
        write_json(str(out_dir / f"img{i:03d}.json"),
                   {"schema": 1, "index": i, "stages": stages_obj,
                    "runtime": cfg.runtime_dict()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atsvit",
        description="Adaptive token sampling ViT: train, evaluate, sweep budgets, emit retention masks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train from scratch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--metrics", default=None, help="metrics CSV path")
    _add_model_flags(p)
    _add_data_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="fine-tune a trained model with sampling active")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    _add_model_flags(p)
    _add_data_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a weight file on the validation split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--quiet", action="store_true")
    _add_model_flags(p)
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="budget sweep over policies and scorings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--budgets", default="2,4,8,16",
                   help="comma-separated budgets")
    p.add_argument("--mac-fraction", default=None,
                   help="comma-separated target MAC fractions (overrides --budgets)")
    p.add_argument("--policies", default="inverse")
    p.add_argument("--scorings", default="cls-vnorm")
    _add_model_flags(p)
    _add_data_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("masks", help="emit per-stage retention masks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--images", nargs="*", default=None,
                   help="PGM inputs; defaults to generated validation images")
    p.add_argument("--count", type=int, default=8)
    _add_model_flags(p)
    _add_data_flags(p)
    p.set_defaults(func=cmd_masks)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContainerError, ValueError, OSError, NonFiniteError,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
