"""Measurement loop, tracing and metrics shared by every workload.

A workload module provides ``setup(lib, seed, workdir) -> Workload``.  The
loop runs the workload's anchor jobs once, then cycles through its job
pool until the time is up (and at least one full pass and ``MIN_JOBS``
jobs are done).  It is a closed loop: one process, one job at a time.
Each job's latency covers only the job; its check runs afterwards,
outside the latency.  Latencies are also kept scaled to a reference
speed of the host (``SpeedProbe``).

Tracing records a span around every benchmark call into a layer's public
function (``tracer.call`` / ``tracer.each``), with the enclosing job span
as parent.  With tracing off those helpers call straight through.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Optional

LAYERS = ("pocset", "structure", "subdivision", "actions", "boundary",
          "cli", "serialize")
LIBRARY_MODULES = ("config", "errors", "pocset", "structure", "subdivision",
                   "actions", "boundary", "fixtures", "serialize",
                   "verification", "cli")
MIN_JOBS = 100
REFERENCE_S = 0.002    # reference_work's duration at the speed reported
PROBE_EVERY_S = 0.025  # at most one speed probe per this much time
PROBE_WINDOW = 9       # probes in the median that gives the current speed

# per-layer time metrics: metric -> span names it sums (self time)
FUNCTION_METRICS = {
    "pocset.points.busy_s": ("pocset.points",),
    "pocset.distance.busy_s": ("pocset.distance", "pocset.separating"),
    "pocset.median.busy_s": ("pocset.median",),
    "pocset.hull_gate.busy_s": ("pocset.convex_hull", "pocset.gate_project"),
    "subdivision.subdivide.busy_s": ("subdivision.subdivide",),
    "subdivision.embed.busy_s": ("subdivision.embed",),
    "structure.rank.busy_s": ("structure.rank",),
    "structure.decompose.busy_s": ("structure.decompose",),
    "structure.automorphisms.busy_s": ("structure.automorphisms",),
    "actions.pingpong.busy_s": ("actions.pingpong",),
    "actions.classify.busy_s": ("actions.classify",),
    "actions.find_flip.busy_s": ("actions.find_flip",),
    "actions.double_skewer.busy_s": ("actions.double_skewer",),
    "boundary.validate_system.busy_s": ("boundary.validate_system",),
    "boundary.closure.busy_s": ("boundary.closure",),
    "boundary.minimal_tail.busy_s": ("boundary.minimal_tail",),
    "boundary.ubs_graph.busy_s": ("boundary.ubs_graph",),
    "boundary.ubs_poset.busy_s": ("boundary.ubs_poset",),
    "boundary.chi_vector.busy_s": ("boundary.chi_vector",),
    "cli.main.busy_s": ("cli.main",),
    "serialize.load.busy_s": ("serialize.load",),
    "serialize.dump.busy_s": ("serialize.dump",),
    "verify.busy_s": ("verify.check",),
}
# work counts read from job results over the first pass
COUNT_METRICS = (
    "pocset.points_enumerated", "subdivision.child_walls",
    "structure.automorphisms_found", "actions.words_checked",
    "actions.checks_performed", "actions.group_order_sum",
    "boundary.horizon_sum", "boundary.graph_vertices", "cli.report_bytes",
)


@dataclass
class Job:
    """``run(tracer)`` does the work and returns its result.
    ``check(result)`` returns (problems, counts, view): a list of failed
    checks, the job's work counts, and a JSON-able view of the result
    for the result digest."""

    kind: str
    label: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    anchors: list   # run once at the start of every phase
    pool: list      # then cycled through


class Tracer:
    """In-memory spans: (name, start, end, parent span index, job id,
    number of library calls covered, tag)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._parent = None
        self._job = None

    def call(self, span: str, fn, /, *args, tag=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((span, start, perf_counter(), self._parent,
                               self._job, 1, tag))

    def each(self, span: str, fn, arg_tuples, tag=None) -> list:
        """``fn(*args)`` for every args tuple, under one span that counts
        each call, so that per-call span cost stays out of tiny calls."""
        if not self.enabled:
            return [fn(*a) for a in arg_tuples]
        start = perf_counter()
        try:
            return [fn(*a) for a in arg_tuples]
        finally:
            self.spans.append((span, start, perf_counter(), self._parent,
                               self._job, len(arg_tuples), tag))

    def begin_job(self, job_id: int, kind: str, start: float) -> int:
        self.spans.append((f"job.{kind}", start, None, None, job_id, 0, None))
        self._parent = len(self.spans) - 1
        self._job = job_id
        return self._parent

    def end_job(self, index: int, end: float):
        name, start, _, parent, job, calls, tag = self.spans[index]
        self.spans[index] = (name, start, end, parent, job, calls, tag)
        self._parent = None

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (name, start, end, *_) in enumerate(self.spans)]

    def dump(self, path: Path):
        keys = ("name", "start", "end", "parent", "job", "calls", "tag")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


@dataclass
class PhaseResult:
    # (job position, seconds, seconds scaled to the reference speed)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    views: list = field(default_factory=list)
    first_problem: str = ""
    probes: list = field(default_factory=list)  # reference_work durations

    @property
    def busy_s(self) -> float:
        return sum(t for _, t, _ in self.latencies)

    def steady_latencies(self) -> list:
        """Every run job's scaled latency, replaced by the median scaled
        latency of the same job over this run's passes, so that a spell of
        a slower machine in some passes stays out of the figures."""
        by_job: dict = {}
        for pos, _, t in self.latencies:
            by_job.setdefault(pos, []).append(t)
        typical = {pos: statistics.median(ts) for pos, ts in by_job.items()}
        return [typical[pos] for pos, _, _ in self.latencies]

    def jobs_per_s(self) -> float:
        lat = self.steady_latencies()
        return len(lat) / sum(lat)


def reference_work() -> Fraction:
    """A fixed piece of interpreter work that does not touch mediankit:
    bit loops, tuples and dicts, sorting and ``Fraction`` sums, the kinds
    of work mediankit's hot paths do."""
    acc = 0
    table = {}
    for i in range(600):
        m = (i * 2654435761) & 0xFFFFFFFF
        while m:
            low = m & -m
            acc ^= low.bit_length()
            m ^= low
        table[(i, acc & 7)] = [i, acc]
    total = Fraction(0)
    for a, b in sorted(table, key=lambda t: (t[1], -t[0]))[:60]:
        total += Fraction(a + 1, b + 1)
    return total


class SpeedProbe:
    """Times ``reference_work`` between jobs.  The host's speed drifts by
    up to a factor of two over minutes (two cores shared with other
    machines' work), and interpreter-bound jobs drift with it; dividing a
    job's latency by the probe's recent median, times ``REFERENCE_S``,
    gives its latency at one fixed speed.  Probes are not part of any job's
    latency."""

    def __init__(self):
        self.samples: list = []
        self._last = float("-inf")
        reference_work()  # the first call is slower; keep it out
        for _ in range(PROBE_WINDOW):
            self.probe()

    def maybe_probe(self):
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def probe(self):
        start = perf_counter()
        reference_work()
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples[-PROBE_WINDOW:])


def load_library(src: Path) -> SimpleNamespace:
    """Import mediankit afresh from ``src`` (dropping any earlier import),
    so that each set-up pays the import again."""
    for name in [m for m in sys.modules
                 if m == "mediankit" or m.startswith("mediankit.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{m: importlib.import_module(f"mediankit.{m}")
                             for m in LIBRARY_MODULES})
    origin = Path(lib.pocset.__file__).resolve().parent
    if origin != (src / "mediankit").resolve():
        raise ImportError(f"mediankit imported from {origin}, not {src}")
    return lib


def clear_fixture_caches(lib: SimpleNamespace):
    """Drop mediankit's cached fixtures, so that the next use rebuilds
    them as a fresh process would."""
    for value in vars(lib.fixtures).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def run_phase(wl: Workload, tracer: Tracer, seconds: float,
              max_jobs: Optional[int] = None) -> PhaseResult:
    """Closed loop over the anchors and then the cycled pool."""
    out = PhaseResult()
    probe = SpeedProbe()
    first_pass = len(wl.anchors) + len(wl.pool)
    floor = max(first_pass, MIN_JOBS)
    jobs = itertools.chain(wl.anchors, itertools.cycle(wl.pool))
    start = perf_counter()
    for i, job in enumerate(jobs):
        if max_jobs is not None:
            if i >= max_jobs:
                break
        elif i >= floor and perf_counter() - start >= seconds:
            break
        pos = i if i < first_pass else \
            len(wl.anchors) + (i - len(wl.anchors)) % len(wl.pool)
        probe.maybe_probe()
        problems, counts, view = _run_job(job, i, pos, tracer, probe, out)
        out.attempted += 1
        if problems:
            out.failed += 1
            if not out.first_problem:
                out.first_problem = f"job {i} ({job.label}): {problems[0]}"
        if i < first_pass:
            for key, value in counts.items():
                out.counts[key] = out.counts.get(key, 0) + value
            out.views.append([job.kind, view])
    out.probes = probe.samples
    return out


def _run_job(job: Job, i: int, pos: int, tracer: Tracer, probe: SpeedProbe,
             out: PhaseResult):
    span = None
    start = perf_counter()
    if tracer.enabled:
        span = tracer.begin_job(i, job.kind, start)
    try:
        result = job.run(tracer)
        error = None
    except Exception:  # a raising job is a failed job; keep running
        result = None
        error = traceback.format_exc(limit=3)
    end = perf_counter()
    if span is not None:
        tracer.end_job(span, end)
    if error is not None:
        return [f"raised: {error}"], {}, None
    probe.maybe_probe()  # after a long job, so its scale sees its speed
    out.latencies.append((pos, end - start, (end - start) * probe.scale()))
    check_start = perf_counter()
    try:
        problems, counts, view = job.check(result)
    except Exception:
        problems, counts, view = [f"check raised: {traceback.format_exc(limit=3)}"], {}, None
    if tracer.enabled:
        tracer.spans.append(("verify.check", check_start, perf_counter(),
                             None, i, 1, None))
    return problems, counts, view


def end_to_end_metrics(phase: PhaseResult, setup_s: float,
                       peak_rss_mb: float) -> dict:
    lat_ms = sorted(t * 1000.0 for t in phase.steady_latencies())
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "jobs_per_s": {"value": phase.jobs_per_s(), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "job_p90_ms": {"value": deciles[8], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer_metrics(tracer: Tracer, traced: PhaseResult,
                      untraced: PhaseResult) -> dict:
    busy: dict = {}
    calls: dict = {}
    by_tag: dict = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name, _, _, _, _, n, tag = span
        busy[name] = busy.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + n
        if tag is not None:
            key = (name.split(".", 1)[0], tag)
            by_tag[key] = by_tag.get(key, 0.0) + self_s
    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for layer in LAYERS:
        prefix = layer + "."
        layer_busy = sum(v for k, v in busy.items() if k.startswith(prefix))
        put(f"{layer}.busy_s", layer_busy, "s")
        put(f"{layer}.calls", sum(v for k, v in calls.items()
                                  if k.startswith(prefix)), "count")
        put(f"{layer}.share", layer_busy / traced.busy_s, "fraction")
    for metric, names in FUNCTION_METRICS.items():
        put(metric, sum(busy.get(n, 0.0) for n in names), "s")
    put("actions.window.busy_s", by_tag.get(("actions", "window"), 0.0), "s")
    put("actions.total.busy_s", by_tag.get(("actions", "total"), 0.0), "s")
    for metric in COUNT_METRICS:
        put(metric, traced.counts.get(metric, 0), "count")
    searches = traced.counts.get("actions.searches", 0)
    put("actions.found_ratio",
        traced.counts.get("actions.witnesses", 0) / searches if searches else 0.0,
        "fraction")
    put("trace.overhead_frac",
        untraced.jobs_per_s() / traced.jobs_per_s() - 1.0, "fraction")
    return out


def result_digest(views: list) -> str:
    blob = json.dumps(views, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def source_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(src.rglob("*.py")))
