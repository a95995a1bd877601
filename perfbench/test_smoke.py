"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric_with_its_unit(trace, section):
    result = run_benchmark("cli", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_JOBS
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def load_workload(name: str, tmp_path: Path):
    import importlib
    lib = harness.load_library(ROOT / "src")
    module = importlib.import_module(f"wl_{name}")
    return module.setup(lib, 3, tmp_path)


@pytest.mark.parametrize("name", ["geometry", "search", "boundary", "cli"])
def test_first_jobs_of_every_workload_pass_their_checks(name, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(ROOT)
    work = ROOT / ".bench_out" / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    wl = load_workload(name, work)
    wl = dataclasses.replace(wl, anchors=[], pool=wl.pool[:3])
    phase = harness.run_phase(wl, harness.Tracer(True), 0, max_jobs=3)
    assert (phase.attempted, phase.failed) == (3, 0), phase.first_problem


def test_corrupted_result_counts_as_failed(tmp_path):
    wl = load_workload("geometry", tmp_path)
    good = wl.pool[1]

    def corrupted(tr):
        res = good.run(tr)
        res.distances[0] += 1
        return res

    bad = dataclasses.replace(good, run=corrupted)
    wl = dataclasses.replace(wl, anchors=[], pool=[good, bad, good])
    phase = harness.run_phase(wl, harness.Tracer(False), 0, max_jobs=3)
    assert (phase.attempted, phase.failed) == (3, 1)
    assert "distance" in phase.first_problem


def test_raising_job_counts_as_failed(tmp_path):
    wl = load_workload("geometry", tmp_path)

    def raising(tr):
        raise ValueError("boom")

    bad = dataclasses.replace(wl.pool[0], run=raising)
    wl = dataclasses.replace(wl, anchors=[], pool=[bad])
    phase = harness.run_phase(wl, harness.Tracer(False), 0, max_jobs=2)
    assert (phase.attempted, phase.failed) == (2, 2)
    assert "boom" in phase.first_problem


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geometry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, check=False, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
