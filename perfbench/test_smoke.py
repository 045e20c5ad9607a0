"""Smoke test of the benchmark harness on a tiny model and a few images.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload runs untraced and traced, passes its own checks
and reports exactly the metric names BENCHMARK.json lists, and that the
benchmark refuses to run without the program's sources. It sets no timing
bounds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_threads()
run.import_program()

import workloads  # noqa: E402
from atsvit.model import ModelConfig, init_weights, save_weights  # noqa: E402
from atsvit.numerics import Rng  # noqa: E402

TINY_ARCH = dict(dim=16, heads=2, depth=6, mlp_ratio=2)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sizes(tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "tiny.atsw"
    cfg = ModelConfig(**TINY_ARCH)
    save_weights(str(path), cfg, init_weights(cfg, Rng(3)))
    return workloads.Sizes(n_train=8, n_val=8, sweep_val=4,
                           arch=TINY_ARCH, weights=str(path))


def test_workload_names_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs(name, trace, sizes):
    result = run.measure(workloads.WORKLOADS[name], seed=1, seconds=0.01,
                         trace=trace, sizes=sizes)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-adaptive",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
