"""Benchmark of atsvit: train, adaptive eval and budget sweep, end to end and
per layer.

    python3 perfbench/run.py --workload eval-adaptive --seed 0 --seconds 36 --trace 0

Run from a source checkout: the program is imported from ./src next to this
directory, never from an installed copy. With --trace 0 the last stdout line
holds the end-to-end metrics of untraced rounds; with --trace 1 it holds the
per-layer metrics of one traced round (see perfbench/README.md). The line
before it holds the machine and build info.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - t)")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ATS_THREADS")


def pin_threads() -> dict[str, str]:
    """One BLAS thread and one eval thread unless set, never above nproc:
    the workloads are single-caller loops over tiny matrices, and a second
    BLAS thread only adds contention on a shared machine. Must run before
    numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(min(max(n, 1), nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_program():
    """Import atsvit from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "atsvit" / "__init__.py").is_file():
        sys.exit(f"error: no atsvit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import atsvit
    if Path(atsvit.__file__).resolve().parent != SRC / "atsvit":
        sys.exit(f"error: imported atsvit from {atsvit.__file__}, not {SRC}")


def machine_info(threads: dict, seed: int, workload: str) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "atsvit").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the benchmark may run from an exported tree
    return {
        "workload": workload, "seed": seed, "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": threads, "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def import_seconds() -> float:
    """Median time to import the program and the workloads, each time in a
    fresh interpreter, since a process imports them only once."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(BENCH)])}
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run_round(wl, state):
    """One timed round. Returns its output, None if it raised, and its wall
    time."""
    args = wl.round_input(state)
    t0 = time.perf_counter()
    try:
        out = wl.run(state, args)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - t0


def failed_ops(wl, state, out) -> int:
    """Checks a round's output outside the timed region; a round that
    raised fails all its ops."""
    return wl.ops(state) if out is None else wl.check(state, out)


def run_rounds(wl, state, seconds: float):
    """Untraced rounds until another would end past `seconds`; at least one.
    Returns the outputs, wall times and failed ops."""
    outs, walls, failed, t0 = [], [], 0, time.perf_counter()
    while True:
        out, wall = run_round(wl, state)
        failed += failed_ops(wl, state, out)
        outs.append(out)
        walls.append(wall)
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return outs, walls, failed


def end_to_end(wl, state, seconds: float, first_setup: float):
    """Set-up is timed SETUP_REPEATS times (the first by the caller) and its
    median counts, plus the median import time."""
    setups = [first_setup] + [timed(wl.setup, state["seed"], state["sizes"])[1]
                              for _ in range(SETUP_REPEATS - 1)]
    _, walls, failed = run_rounds(wl, state, seconds)
    round_s = statistics.median(walls)
    values = {
        "img_per_s": wl.images(state) / round_s,
        "round_s": round_s,
        "setup_s": import_seconds() + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, len(walls) * wl.ops(state), failed


def per_layer(wl, state, seconds: float):
    """Untraced rounds for half of `seconds`, then traced set-up and one
    traced round."""
    import layers
    from tracer import Tracer
    outs, walls, failed = run_rounds(wl, state, seconds / 2)
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        tracer.install(layers.TARGETS)
        traced_state = wl.setup(state["seed"], state["sizes"])
        out, traced_round = run_round(wl, traced_state)
    wall = time.perf_counter() - t0
    failed += failed_ops(wl, state, out)
    missing = layers.not_fired(tracer, wl.name)
    if missing:
        sys.exit(f"error: traced functions never fired on {wl.name}: {missing}")
    values = layers.layer_metrics(tracer, wall)
    values.update(wl.layer_extras(state, [o for o in outs if o is not None]))
    values["trace.overhead_s"] = traced_round - statistics.median(walls)
    values["trace.wall_s"] = wall
    return values, (len(walls) + 1) * wl.ops(state), failed


def measure(wl, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """One benchmark run of workload wl; returns the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    state, setup_s = timed(wl.setup, seed, sizes)
    if trace:
        values, attempted, failed = per_layer(wl, state, seconds)
    else:
        values, attempted, failed = end_to_end(wl, state, seconds, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    checked, bad = wl.final_check(state)
    attempted, failed = attempted + checked, failed + bad
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    result = measure(workloads.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace), workloads.Sizes())
    print(json.dumps({"info": machine_info(threads, args.seed, args.workload)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
