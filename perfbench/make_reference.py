"""Regenerate the benchmark's stored eval weights or its reference outputs.

    python3 perfbench/make_reference.py weights   # retrain, about 7 min on 2 cores
    python3 perfbench/make_reference.py outputs   # rewrite reference/ at seed 0

The weights follow the acceptance recipe (atsvit train, 30 epochs, lr 2e-3,
seed 0, data seed 42, batch 64). Training is deterministic for a fixed
BLAS build, so a retrain reproduces the stored file's sha256 on the same
platform. References are the outputs of one round of each workload at seed
0 with the default sizes; rewrite them only when the program's outputs are
meant to change, and say so in the change.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import import_program, pin_threads

RECIPE = ["train", "--seed", "0", "--epochs", "30", "--lr", "2e-3",
          "--batch-size", "64", "--data-seed", "42", "--quiet"]


def make_weights() -> None:
    from atsvit import cli
    import workloads
    path = workloads.WEIGHTS_META.parent / "baseline.atsw"
    with tempfile.TemporaryDirectory() as tmp:
        metrics = Path(tmp) / "metrics.csv"
        if cli.main([*RECIPE, "--out", str(path), "--metrics", str(metrics)]) != 0:
            sys.exit("error: training failed")
        with open(metrics, newline="") as f:
            final = [r for r in csv.DictReader(f) if r["split"] == "val"][-1]
    meta = {"file": path.name,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "recipe": "atsvit " + " ".join(RECIPE) + " --out baseline.atsw",
            "final_val_top1": float(final["top1"])}
    workloads.WEIGHTS_META.write_text(json.dumps(meta, indent=2) + "\n")
    print(json.dumps(meta))


def make_outputs() -> None:
    import workloads as w
    # Explicit weights turn off the reference comparison in setup.
    sizes = w.Sizes(weights=w.weights_path(w.Sizes()))
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    for wl in w.WORKLOADS.values():
        state = wl.setup(0, sizes)
        out = wl.run(state, wl.round_input(state))
        if wl.check(state, out) or wl.final_check(state)[1]:
            sys.exit(f"error: {wl.name} fails its own invariants")
        if wl.name == "train-baseline":
            (w.REFERENCE_DIR / "train-baseline.json").write_text(
                json.dumps({"rows": out}, indent=2) + "\n")
        elif wl.name == "eval-adaptive":
            passes = [w.eval_summary(cfg, ev) for cfg, (_, ev) in zip(state["cfgs"], out)]
            (w.REFERENCE_DIR / "eval-adaptive.json").write_text(
                json.dumps({"passes": passes}) + "\n")
            print(json.dumps(wl.layer_extras(state, [out])))
        else:
            for name, (_, data) in zip(("sweep-grid.csv", "sweep-frac.csv"), out):
                (w.REFERENCE_DIR / name).write_bytes(data)
        print(f"wrote reference for {wl.name}")


if __name__ == "__main__":
    if sys.argv[1:] not in (["weights"], ["outputs"]):
        sys.exit(__doc__)
    pin_threads()
    import_program()
    make_weights() if sys.argv[1] == "weights" else make_outputs()
