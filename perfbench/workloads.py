"""The three benchmark workloads and the checks on their outputs.

Each workload is a single-caller closed loop through a public entry point:
the next call starts only after the previous one returns. A workload has
three parts: setup (data and weights, timed as set-up), run (one round of
calls into the program, timed) and check (outside the timed region). The
workload seed picks the dataset manifest seed, and so the images; the model
seed and sampling seed stay fixed at 0, as the program's defaults have them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Entry points are called through their modules, so the tracer's wrappers
# (installed in the module namespaces) see these calls too.
from atsvit import cli, dataset, trainer
from atsvit.dataset import DatasetManifest
from atsvit.flops import model_macs, static_macs
from atsvit.model import (ForwardTrace, ModelConfig, as_nodes, forward,
                          init_weights, load_weights)
from atsvit.numerics import FAST_DTYPE, Rng
from atsvit.sampling import Policy, Scoring

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WEIGHTS_META = BENCH_DIR / "weights" / "baseline.json"

STAGES = (2, 3, 4, 5)
BATCH = 64
EVAL_BUDGETS = (16, 8, 4, 1)
SWEEP_GRID = dict(policies=("inverse", "topk", "random"),
                  scorings=("cls-vnorm", "rowsum"), budgets=(2, 4, 8, 16))
SWEEP_FRACTIONS = (0.5, 0.6, 0.8)
# One epoch of float32 training sums in BLAS order, so another BLAS build
# may move the last digits of the loss; top1 may move by a few images.
TRAIN_LOSS_RTOL = 1e-3
TRAIN_TOP1_IMAGES = 2


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; the smoke test shrinks
    them and supplies its own untrained weights file."""
    n_train: int = 1024
    n_val: int = 256
    sweep_val: int = 32
    arch: dict = field(default_factory=dict)   # ModelConfig overrides
    weights: str | None = None                 # None: the stored eval weights

    @property
    def is_default(self) -> bool:
        return self == Sizes()


def stored_weights() -> tuple[str, str]:
    meta = json.loads(WEIGHTS_META.read_text())
    return str(WEIGHTS_META.parent / meta["file"]), meta["sha256"]


def weights_path(sizes: Sizes) -> str:
    """Path of the eval weights; the stored file is checked against its
    recorded sha256 first."""
    if sizes.weights is not None:
        return sizes.weights
    path, sha = stored_weights()
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    if digest != sha:
        raise CheckFailed(f"weights file {path} has sha256 {digest}, "
                          f"recorded {sha}")
    return path


def reference(name: str, sizes: Sizes, seed: int):
    """Recorded outputs for the default sizes at seed 0, else None."""
    if not (sizes.is_default and seed == 0):
        return None
    path = REFERENCE_DIR / name
    return path.read_bytes() if path.suffix == ".csv" else json.loads(path.read_text())


def load_eval_model(sizes: Sizes):
    cfg, tensors = load_weights(weights_path(sizes))
    return cfg, as_nodes(tensors, dtype=FAST_DTYPE)


def max_macs(cfg: ModelConfig) -> int:
    """MACs of one image when every sampling stage keeps K' = k, the most it
    may keep, so a cost above this shows some K' > k."""
    counts, t = [], cfg.num_tokens
    for i in range(cfg.depth):
        t_out = min(t, cfg.sampler.k + 1) if i in cfg.ats_stages else t
        counts.append((t, t_out))
        t = t_out
    trace = ForwardTrace(stage_counts=counts, samples={}, alive={},
                         logits=np.zeros(cfg.num_classes))
    return model_macs(trace, cfg).total_macs


class Workload:
    """Defaults: rounds need no fresh input, there are no per-layer values
    beyond the trace, and no checks after the timed rounds."""

    def round_input(self, state):
        return None

    def layer_extras(self, state, outs) -> dict:
        return {}

    def final_check(self, state) -> tuple[int, int]:
        """Ops checked and failed after the timed rounds."""
        return 0, 0


class TrainBaseline(Workload):
    """trainer.train from init_weights, no sampling stages, one epoch of the
    train split at batch 64 plus the val pass train runs after each epoch."""
    name = "train-baseline"

    def setup(self, seed: int, sizes: Sizes) -> dict:
        train_set, val_set = dataset.generate(
            DatasetManifest(seed, sizes.n_train, sizes.n_val))
        cfg = ModelConfig(**sizes.arch)
        return dict(seed=seed, sizes=sizes, cfg=cfg, train=train_set,
                    val=val_set, ref=reference("train-baseline.json", sizes, seed),
                    first=None)

    def round_input(self, state):
        return init_weights(state["cfg"], Rng(0), dtype=FAST_DTYPE)

    def run(self, state, weights) -> list[dict]:
        return trainer.train(state["cfg"], weights, state["train"], state["val"],
                             epochs=1, batch_size=BATCH,
                             base_lr=2e-3, seed=0)

    def ops(self, state) -> int:
        return math.ceil(state["sizes"].n_train / BATCH)

    def images(self, state) -> int:
        return state["sizes"].n_train

    def check(self, state, rows) -> int:
        """Failed train steps: all of the round's when its rows are wrong."""
        try:
            if [r["split"] for r in rows] != ["train", "val"]:
                raise CheckFailed(f"unexpected metric rows {rows}")
            for r in rows:
                if not math.isfinite(float(r["loss"])):
                    raise CheckFailed(f"non-finite {r['split']} loss")
                if not 0.0 <= float(r["top1"]) <= 1.0:
                    raise CheckFailed(f"top1 {r['top1']} outside [0, 1]")
            if state["first"] is None:
                state["first"] = rows
            elif rows != state["first"]:
                raise CheckFailed("rounds of the same input disagree")
            if state["ref"] is not None:
                check_train_rows(rows, state["ref"]["rows"], state["sizes"])
        except CheckFailed as exc:
            print(f"check failed: {self.name}: {exc}")
            return self.ops(state)
        return 0


def check_train_rows(rows, ref_rows, sizes: Sizes) -> None:
    for r, ref in zip(rows, ref_rows, strict=True):
        n = sizes.n_train if r["split"] == "train" else sizes.n_val
        if {k: r[k] for k in ("epoch", "split", "mean_macs")} != \
                {k: ref[k] for k in ("epoch", "split", "mean_macs")}:
            raise CheckFailed(f"row {r} differs from reference {ref}")
        loss, ref_loss = float(r["loss"]), float(ref["loss"])
        if abs(loss - ref_loss) > TRAIN_LOSS_RTOL * max(1.0, abs(ref_loss)):
            raise CheckFailed(f"{r['split']} loss {loss} vs reference {ref_loss}")
        if abs(float(r["top1"]) - float(ref["top1"])) * n > TRAIN_TOP1_IMAGES + 1e-9:
            raise CheckFailed(f"{r['split']} top1 {r['top1']} vs reference {ref['top1']}")


class EvalAdaptive(Workload):
    """trainer.evaluate over the val split with fixed trained weights: one
    pass without sampling, then inverse-policy cls-vnorm sampling at STAGES
    for each budget in EVAL_BUDGETS."""
    name = "eval-adaptive"

    def setup(self, seed: int, sizes: Sizes) -> dict:
        _, val_set = dataset.generate(DatasetManifest(seed, sizes.n_train, sizes.n_val))
        cfg, weights = load_eval_model(sizes)
        cfgs = [cfg] + [cfg.with_sampling(STAGES, k=k, policy=Policy.INVERSE,
                                          scoring=Scoring.CLS_VNORM)
                        for k in EVAL_BUDGETS]
        return dict(seed=seed, sizes=sizes, cfgs=cfgs, weights=weights,
                    val=val_set, ref=reference("eval-adaptive.json", sizes, seed),
                    first=None)

    def run(self, state, _) -> list[tuple[float, trainer.EvalResult]]:
        """Per pass: its wall time and result."""
        out = []
        for cfg in state["cfgs"]:
            t0 = time.perf_counter()
            ev = trainer.evaluate(cfg, state["weights"], state["val"], seed=0)
            out.append((time.perf_counter() - t0, ev))
        return out

    def ops(self, state) -> int:
        return len(state["cfgs"]) * len(state["val"])

    images = ops

    def check(self, state, passes) -> int:
        """Failed images, summed over passes. A pass whose aggregate result
        differs from the reference or from the first round fails whole."""
        n = len(state["val"])
        expected = [state["first"]]
        if state["ref"] is not None:
            expected.append(state["ref"]["passes"])
        failed = 0
        summary = []
        for i, (cfg, (_, ev)) in enumerate(zip(state["cfgs"], passes)):
            got = eval_summary(cfg, ev)
            summary.append(got)
            if any(e is not None and got != e[i] for e in expected):
                print(f"check failed: {self.name}: pass k={got['k']} differs "
                      f"from the reference or the first round")
                failed += n
            else:
                failed += invariant_failures(cfg, ev)
        if state["first"] is None:
            state["first"] = summary
        return failed

    def layer_extras(self, state, rounds) -> dict:
        """Wall fraction and MAC fraction per budget, from the untraced
        rounds, and each stage's share of images with K' < k at k=16."""
        if not rounds:
            return {}
        base_cfg = state["cfgs"][0]
        pass_times = np.median([[dt for dt, _ in r] for r in rounds], axis=0)
        passes = rounds[0]
        baseline = static_macs(base_cfg)
        out = {}
        for i, k in enumerate(EVAL_BUDGETS, start=1):
            out[f"model.wall_fraction.k{k}"] = float(pass_times[i] / pass_times[0])
            out[f"flops.mac_fraction.k{k}"] = passes[i][1].mean_macs / baseline
        k16 = passes[1 + EVAL_BUDGETS.index(16)][1]
        for s in STAGES:
            out[f"sampling.kprime_below_k.stage{s}"] = float(np.mean(k16.kprime[s] < 16))
        return out

    def final_check(self, state, images: int = 4) -> tuple[int, int]:
        """Re-run a few images per sampled config through model.forward,
        outside the timed region. Returns the images checked and failed;
        all of a config's fail if it raises."""
        failed = 0
        for cfg in state["cfgs"][1:]:
            try:
                failed += kept_set_failures(cfg, state["weights"],
                                            state["val"][:images])
            except Exception:
                traceback.print_exc()
                failed += images
        return images * (len(state["cfgs"]) - 1), failed


def kept_set_failures(cfg: ModelConfig, weights, samples) -> int:
    """Images where CLS (token 0) is dropped at some stage, kept sets do not
    nest, K' > k, or K' differs from what evaluate reports."""
    ev = trainer.evaluate(cfg, weights, samples, seed=0)
    failed = 0
    for i, sample in enumerate(samples):
        tr = forward(sample.image, cfg, weights, rng=Rng(0, stream=1000 + i))
        alive = set(range(cfg.num_tokens))
        ok = True
        for s in cfg.ats_stages:
            res = tr.samples[s]
            ok &= res.kept[0] == 0 and 0 in tr.alive[s]
            ok &= set(tr.alive[s]) <= alive and res.k_prime <= cfg.sampler.k
            ok &= res.k_prime == ev.kprime[s][i]
            alive = set(tr.alive[s])
        failed += not ok
    return failed


def eval_summary(cfg: ModelConfig, ev) -> dict:
    return {
        "k": cfg.sampler.k if cfg.ats_stages else None,
        "top1": ev.top1,
        "macs": [int(m) for m in ev.macs],
        "kprime_hist": {str(s): {str(k): v for k, v in ev.kprime_hist(s).items()}
                        for s in cfg.ats_stages},
    }


def invariant_failures(cfg: ModelConfig, ev) -> int:
    """Images that break K' <= k, K' >= 1, nesting across stages or the MAC
    ceiling of their budget."""
    n = len(ev.macs)
    bad = np.zeros(n, dtype=bool)
    prev = None
    for s in cfg.ats_stages:
        kp = ev.kprime[s]
        bad |= (kp < 1) | (kp > cfg.sampler.k)
        if prev is not None:
            bad |= kp > prev
        prev = kp
    bad |= ev.macs > max_macs(cfg)
    return int(bad.sum())


class SweepShared(Workload):
    """cli.main(["sweep", ...]) in process, twice per round: a budget grid
    over policies x scorings x budgets, then a --mac-fraction sweep whose
    budgets come from bisection. Each call loads the weights and
    regenerates its dataset, as a user's call does."""
    name = "sweep-shared"

    def setup(self, seed: int, sizes: Sizes) -> dict:
        weights = weights_path(sizes)
        cfg, _ = load_weights(weights)
        tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=BENCH_DIR.parent)
        common = ["--weights", weights, "--ats-stages",
                  ",".join(map(str, STAGES)), "--seed", "0",
                  "--data-seed", str(seed), "--n-train", str(sizes.n_train),
                  "--n-val", str(sizes.sweep_val), "--quiet"]
        grid = Path(tmp.name) / "grid.csv"
        frac = Path(tmp.name) / "frac.csv"
        argv = [
            ["sweep", "--out", str(grid), *common,
             "--budgets", ",".join(map(str, SWEEP_GRID["budgets"])),
             "--policies", ",".join(SWEEP_GRID["policies"]),
             "--scorings", ",".join(SWEEP_GRID["scorings"])],
            ["sweep", "--out", str(frac), *common,
             "--mac-fraction", ",".join(map(str, SWEEP_FRACTIONS))],
        ]
        return dict(seed=seed, sizes=sizes, cfg=cfg.with_sampling(STAGES),
                    tmp=tmp, argv=argv, outs=(grid, frac), first=None,
                    ref=[reference(n, sizes, seed)
                         for n in ("sweep-grid.csv", "sweep-frac.csv")])

    def run(self, state, _) -> list[tuple[int, bytes]]:
        codes = [cli.main(argv) for argv in state["argv"]]
        return [(c, p.read_bytes() if p.exists() else b"")
                for c, p in zip(codes, state["outs"])]

    def ops(self, state) -> int:
        g = SWEEP_GRID
        return (len(g["policies"]) * len(g["scorings"]) * len(g["budgets"])
                + len(SWEEP_FRACTIONS))

    def images(self, state) -> int:
        return self.ops(state) * state["sizes"].sweep_val

    def check(self, state, outs) -> int:
        """Failed sweep rows."""
        g = SWEEP_GRID
        grid_keys = [(p, s, k) for p in g["policies"] for s in g["scorings"]
                     for k in g["budgets"]]
        frac_keys = [("inverse", "cls-vnorm", f) for f in SWEEP_FRACTIONS]
        failed = 0
        for call, ((code, data), keys) in enumerate(zip(outs, (grid_keys, frac_keys))):
            try:
                if code != 0:
                    raise CheckFailed(f"sweep call {call} exited {code}")
                self._check_rows(state, data, keys, call)
                if state["first"] is not None and data != state["first"][call]:
                    raise CheckFailed("rounds of the same input disagree")
                ref = state["ref"][call]
                if ref is not None and data != ref:
                    raise CheckFailed("CSV differs from the reference bytes")
            except CheckFailed as exc:
                print(f"check failed: {self.name}: call {call}: {exc}")
                failed += len(keys)
        if state["first"] is None:
            state["first"] = [d for _, d in outs]
        return failed

    def _check_rows(self, state, data: bytes, keys, call: int) -> None:
        """keys: (policy, scoring, budget) per grid row, (policy, scoring,
        target MAC fraction) per --mac-fraction row."""
        cfg = state["cfg"]
        n = state["sizes"].sweep_val
        baseline = static_macs(cfg)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != len(keys):
            raise CheckFailed(f"{len(rows)} rows, expected {len(keys)}")
        for row, (policy, scoring, target) in zip(rows, keys):
            got_k = int(row["k"])
            if (row["schema"], row["policy"], row["scoring"]) != ("1", policy, scoring):
                raise CheckFailed(f"unexpected row {row}")
            if call == 0 and got_k != target:
                raise CheckFailed(f"row budget {got_k}, expected {target}")
            if not 1 <= got_k <= cfg.num_patches:
                raise CheckFailed(f"budget {got_k} outside [1, {cfg.num_patches}]")
            top1 = float(row["top1"])
            if abs(top1 * n - round(top1 * n)) > 1e-3 or not 0 <= top1 <= 1:
                raise CheckFailed(f"top1 {top1} is not a share of {n} images")
            macs = float(row["mean_macs"])
            if macs > max_macs(cfg.with_sampling(cfg.ats_stages, k=got_k)):
                raise CheckFailed(f"mean MACs {macs} above the K'<=k ceiling")
            # mean_macs and mac_fraction are each rounded when written
            if abs(float(row["mac_fraction"]) - macs / baseline) > 1e-6:
                raise CheckFailed(f"mac_fraction {row['mac_fraction']} != "
                                  f"{macs:.1f} / {baseline}")
            if call == 1 and got_k > 1 and macs > target * baseline:
                raise CheckFailed(f"budget {got_k} exceeds MAC fraction {target}")


WORKLOADS = {w.name: w for w in (TrainBaseline(), EvalAdaptive(), SweepShared())}
