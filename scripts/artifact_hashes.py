#!/usr/bin/env python3
"""Byte-identity check for the CLI: run a fixed recipe of train, finetune,
eval, sweep and masks commands in process, then print one
`sha256  relative-path` line per artifact written under OUT_DIR. The recipe
runs the default architecture (4 heads) and a 2-head one, masks two PGMs
that an earlier masks command wrote, so the PGM reader is checked too, and
ends with a masks command that takes its image count from --n-val. It
also writes the raw bytes of `dataset.generate` under OUT_DIR/data: for
three manifests and each split, the images, labels and clutter levels.

Run it on two checkouts and diff the output; a refactor that keeps the
CLI's behaviour prints identical lines. The only input read from the
repository is perfbench/weights/baseline.atsw.

    PYTHONPATH=src python scripts/artifact_hashes.py OUT_DIR > hashes.txt

The lines are recorded in artifact_hashes.txt beside this script, made on
the build that RECORDED_BUILD names; tests/test_artifact_hashes.py compares
a fresh run with them on that build. A change that alters bytes on purpose
rewrites the record in the same commit and says which artifacts changed and
why:

    PYTHONPATH=src python scripts/artifact_hashes.py OUT_DIR > scripts/artifact_hashes.txt
"""

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from atsvit.cli import main as cli
from atsvit.dataset import DatasetManifest, generate

HERE = Path(__file__).resolve().parent
STORED = HERE.parent / "perfbench" / "weights" / "baseline.atsw"
RECORD = HERE / "artifact_hashes.txt"
# The numpy version, BLAS build and machine of the recorded lines; numpy's
# SIMD loops and the BLAS kernels may give other bytes elsewhere.
RECORDED_BUILD = "numpy 2.4.6, scipy-openblas 0.3.31.188.0, x86_64"
DATA = ["--n-train", "256", "--n-val", "64", "--quiet"]
STAGES = "2,3,4,5"
# One scoring that reads attention, one that sums it, one that draws from
# the Rng: each sweep evaluates them all in one call, from one prefix per
# image.
SWEEP_SCORINGS = ["--scorings", "cls-vnorm,rowsum,random-token"]
FINETUNES = {
    "ft_inverse": ["--ats-stages", STAGES],
    "ft_topk": ["--ats-stages", "1,3", "--k", "8", "--policy", "topk",
                "--scoring", "rowsum"],
    "ft_random": ["--ats-stages", "2,4", "--k", "6", "--policy", "random",
                  "--scoring", "random-token", "--inverse-rule", "nearest"],
}
EVALS = {
    "plain": [],
    "inverse_k8": ["--ats-stages", STAGES, "--k", "8"],
    "topk_k4": ["--ats-stages", "1,3", "--k", "4", "--policy", "topk"],
    # A prefix that holds block 0 whole, a partial chunk (32 + 5 images) and
    # Rng draws on both sides of the prefix. Its --n-val overrides DATA's.
    "random_s03": ["--ats-stages", "0,3", "--k", "6", "--policy", "random",
                   "--scoring", "random-token", "--n-val", "37"],
}
# The CLI's default data, one without clutter (so no fragment draws) and one
# with another seed and clutter distribution.
MANIFESTS = {
    "default": DatasetManifest(42, 256, 64),
    "no_clutter": DatasetManifest(42, 256, 64, clutter_scale=0.0),
    "seed7_beta": DatasetManifest(7, 256, 64, clutter_alpha=2.5,
                                  clutter_beta=0.8, clutter_scale=1.5),
}


def sh(args: list[str]) -> None:
    rc = cli(args)
    if rc != 0:
        sys.exit(f"atsvit {' '.join(args)} exited {rc}")


def write_data(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, manifest in MANIFESTS.items():
        for split, samples in zip(("train", "val"), generate(manifest)):
            stem = out / f"{name}_{split}"
            np.stack([s.image for s in samples]).astype("<f8").tofile(
                f"{stem}_images.bin")
            np.array([s.label for s in samples], dtype="<i8").tofile(
                f"{stem}_labels.bin")
            np.array([s.clutter for s in samples], dtype="<f8").tofile(
                f"{stem}_clutter.bin")


def run(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_data(out / "data")
    base = str(out / "train.atsw")
    sh(["train", "--out", base, "--epochs", "2"] + DATA)
    for name, flags in FINETUNES.items():
        sh(["finetune", "--weights", base, "--out", str(out / f"{name}.atsw"),
            "--epochs", "1"] + flags + DATA)

    for tag, weights in (("ft", str(out / "ft_inverse.atsw")),
                         ("stored", str(STORED))):
        for name, flags in EVALS.items():
            sh(["eval", "--weights", weights,
                "--out", str(out / f"{tag}_eval_{name}.json")] + DATA + flags)
        sh(["sweep", "--weights", weights, "--out", str(out / f"{tag}_grid.csv"),
            "--ats-stages", STAGES, "--budgets", "1,4,8,16",
            "--policies", "inverse,topk,random"] + SWEEP_SCORINGS + DATA)
        sh(["sweep", "--weights", weights, "--out", str(out / f"{tag}_frac.csv"),
            "--ats-stages", STAGES, "--mac-fraction", "0.5,0.6,0.8"]
           + SWEEP_SCORINGS + DATA)
        sh(["masks", "--weights", weights, "--out-dir", str(out / f"{tag}_masks"),
            "--ats-stages", STAGES, "--k", "8", "--count", "6"] + DATA)
    # The PGM input path: two images the stored weights' masks leg wrote.
    sh(["masks", "--weights", str(out / "ft_inverse.atsw"),
        "--out-dir", str(out / "pgm_masks"), "--ats-stages", "1,3", "--k", "6",
        "--images", str(out / "stored_masks" / "img001.pgm"),
        str(out / "stored_masks" / "img004.pgm")] + DATA)

    config = out / "heads2.json"
    config.write_text(json.dumps({"heads": 2}))
    heads2 = str(out / "heads2.atsw")
    sh(["train", "--config", str(config), "--out", heads2, "--epochs", "1"] + DATA)
    sh(["eval", "--weights", heads2, "--out", str(out / "heads2_eval_k8.json"),
        "--ats-stages", STAGES, "--k", "8"] + DATA)
    sh(["sweep", "--weights", heads2, "--out", str(out / "heads2_nearest.csv"),
        "--ats-stages", STAGES, "--budgets", "1,4,8,16",
        "--inverse-rule", "nearest"] + SWEEP_SCORINGS + DATA)
    # Without --count, masks draws min(8, --n-val) generated images.
    sh(["masks", "--weights", str(STORED), "--out-dir", str(out / "nval3_masks"),
        "--ats-stages", STAGES, "--k", "8"] + DATA + ["--n-val", "3"])


def hash_lines(out: Path) -> list[str]:
    """Run the recipe into out; one `sha256  relative-path` line per
    artifact, in path order."""
    run(out)
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(out).as_posix()}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())]


def build() -> str:
    """The numpy version, BLAS build and machine that the bytes rest on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"{platform.machine()}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", type=Path)
    print("\n".join(hash_lines(ap.parse_args().out_dir)))


if __name__ == "__main__":
    main()
