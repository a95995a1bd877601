"""Benchmark entry point.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 20 --trace 0

runs one workload in this process against the mediankit sources in
``src/`` next to this directory and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, measured with
tracing off.  ``--trace 1`` first runs untraced, then replays the same jobs
traced, and reports the per-layer metrics (spans are written to
``.bench_out/``).  Lines before the last one give the result digest, the
failed fraction and the line count of ``src/`` for information.

``--workload all`` runs every workload, each in a fresh process, and
prints one table of their end-to-end metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("geometry", "search", "boundary", "cli")
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import harness  # noqa: E402


def set_up(name: str, seed: int, workdir: Path):
    """Set up ``SETUP_REPEATS`` times (import, inputs, fixtures, files)
    and keep the last; returns it with the median set-up time, scaled to
    the reference speed like job latencies."""
    module = importlib.import_module(f"wl_{name}")
    probe = harness.SpeedProbe()
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        wl = None
        probe.probe()
        start = perf_counter()
        lib = harness.load_library(SRC)
        wl = module.setup(lib, seed, workdir)
        times.append((perf_counter() - start) * probe.scale())
    return wl, statistics.median(times)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}"
    workdir.mkdir(exist_ok=True)
    try:
        wl, setup_s = set_up(name, seed, workdir)
        untraced = harness.run_phase(wl, harness.Tracer(False), seconds)
        phases = [untraced]
        if trace:
            tracer = harness.Tracer(True)
            traced = harness.run_phase(wl, tracer, seconds,
                                       max_jobs=untraced.attempted)
            phases.append(traced)
            tracer.dump(OUT / f"trace-{name}-{seed}.json")
            metrics = harness.per_layer_metrics(tracer, traced, untraced)
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = harness.end_to_end_metrics(untraced, setup_s, peak_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        if p.first_problem:
            print(f"FAILED {p.first_problem}", file=sys.stderr)
    print(f"# workload {name} seed {seed}: {untraced.attempted} jobs, "
          f"fail_frac {failed / attempted:.4f}")
    print(f"# unscaled: {len(untraced.latencies) / untraced.busy_s:.4f} jobs/s; "
          f"speed probe median {1000 * statistics.median(untraced.probes):.4f} ms "
          f"(latencies are scaled to {1000 * harness.REFERENCE_S:g} ms)")
    print(f"# result_digest {harness.result_digest(untraced.views)}")
    print(f"# src_lines {harness.source_lines(SRC)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, result in rows:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name:9s} fail_frac {fail_frac:.4f} (of {result['attempted']} jobs)")
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric:12s} {m['value']:12.4f} {m['unit']}")
    return 0 if all(r["failed"] == 0 for _, r in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mediankit" / "__init__.py").is_file():
        print(f"error: no mediankit sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
