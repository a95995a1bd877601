"""Workload ``boundary``: the chain-system calculus, and no other layer.

Inputs are seeded staircase chain systems (3-8 chains, periods 1-4) and
the LINE, STAIRFLAP and CORNER4_* fixtures.  Every system gives three
jobs, each starting from the constructor arguments (so relation caches
start cold), as a user asking one question would:

* ``closure``: build, ``validate_system``, closures of tails at several
  start indices, ``minimal_tail`` per chain, ``almost_contained`` on
  closure pairs;
* ``graph``: build, ``ubs_graph`` and ``chi_vector`` of a shift map that
  ``validate_shift`` accepts (a uniform shift by the period's lcm on
  seeded systems, the translations on fixtures);
* ``poset``: build and ``ubs_poset``.

The layer serves both as a checker (all-pairs validation) and as a query
engine (closures), so a precomputation that speeds up queries but costs
validation shows up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import harness
import inputs

# (chains, lcm of the periods) of the seeded systems in one pass: every
# chain count three times, every lcm at least three times, kept below
# about a second for the whole pipeline; small and large alternate so that
# any part of a pass has the same mix
SYSTEM_PLAN = ((3, 2), (8, 3), (4, 1), (7, 3), (5, 1), (6, 3),
               (3, 3), (8, 2), (4, 3), (7, 2), (5, 2), (6, 2),
               (3, 4), (8, 1), (4, 4), (7, 1), (5, 4), (6, 1))
PERIODS_FOR_LCM = {1: (1,), 2: (1, 2), 3: (1, 3), 4: (1, 2, 4)}
FIXTURES = ("LINE", "STAIRFLAP", "CORNER4_PP", "CORNER4_PM", "CORNER4_MP",
            "CORNER4_MM")


def periods_with_lcm(rng: random.Random, n_chains: int, lcm: int) -> tuple:
    while True:
        periods = tuple(rng.choice(PERIODS_FOR_LCM[lcm]) for _ in range(n_chains))
        if math.lcm(*periods) == lcm:
            return periods


@dataclass(frozen=True)
class SystemInput:
    """Constructor arguments of one chain system plus a shift map and what
    the benchmark knows about them."""

    name: str
    chains: tuple
    zones: dict
    rows: tuple
    head: dict
    shift: object
    expected_chi: Optional[tuple]  # None: not known in advance
    fixture: bool

    def weight(self, cid: str, n: int) -> Fraction:
        c = next(c for c in self.chains if c.id == cid)
        if n < len(c.head_weights):
            return c.head_weights[n]
        return c.weights[(n - len(c.head_weights)) % c.period]


def seeded_input(lib, spec: inputs.SystemSpec) -> SystemInput:
    bd = lib.boundary
    chains = tuple(bd.Chain(cid, p, w, h) for cid, p, w, h in spec.chains)
    zones = {key: (bd.Zone(None, theta - 1, bd.TRANS), bd.Zone(theta, None, bd.SUP))
             for key, theta in spec.zones}
    ids = [c.id for c in chains]
    shift = bd.ShiftMap({c: c for c in ids}, {c: spec.lcm_period for c in ids}, 0)
    return SystemInput(spec.name, chains, zones, (), {}, shift, None, False)


def fixture_input(lib, name: str) -> SystemInput:
    """A fixture's constructor arguments, its translation and the known
    transfer characters."""
    bd, fx = lib.boundary, lib.fixtures
    S = fx.chain_system(name)
    ids = {c: c for c in S.chain_order}
    if name == "LINE":
        shift, chi = bd.ShiftMap(ids, {"H": 1}, 0), (Fraction(1),)
    elif name == "STAIRFLAP":
        shift, chi = bd.ShiftMap(ids, {"H": 1, "K": 1}, 0), None
    else:
        corner = name[len("CORNER4_"):]
        shift = fx.corner_translation(corner, "x")
        chi = (Fraction(1 if corner[0] == "P" else -1), Fraction(0))
    chains = tuple(S.chains[c] for c in S.chain_order)
    return SystemInput(name, chains, dict(S.zones), S.rows, dict(S.head),
                       shift, chi, True)


def setup(lib, seed: int, workdir) -> harness.Workload:
    """The domination DAGs come from one fixed stream, because the cost of
    a system's closures and graph depends mostly on its DAG; the seed
    draws the periods (within the planned lcm), weights and closure
    start indices."""
    rng = random.Random(f"boundary/{seed}")
    shapes = random.Random("boundary/shapes")
    harness.clear_fixture_caches(lib)
    systems = [seeded_input(lib, inputs.staircase_system(
        rng, f"staircase{pos}/{k}x{lcm}", k, periods_with_lcm(rng, k, lcm),
        shape_rng=shapes))
        for pos, (k, lcm) in enumerate(SYSTEM_PLAN)]
    fixtures = [fixture_input(lib, name) for name in FIXTURES]
    ordered = []
    for pos, system in enumerate(systems):
        ordered.append(system)
        if pos % 3 == 2:
            ordered.append(fixtures[pos // 3])
    pool = []
    for system in ordered:
        pool += [closure_job(lib, system, rng), graph_job(lib, system),
                 poset_job(lib, system)]
    return harness.Workload(anchors=[], pool=pool)


def build(tr, lib, s: SystemInput):
    bd = lib.boundary
    return tr.call("boundary.ChainSystem", bd.ChainSystem, s.chains,
                   zones=s.zones, rows=s.rows, head=s.head, name=s.name)


def closure_job(lib, s: SystemInput, rng: random.Random) -> harness.Job:
    bd = lib.boundary
    starts = sorted(rng.sample(range(0, 6), 3))

    def run(tr):
        S = build(tr, lib, s)
        report = tr.call("boundary.validate_system", bd.validate_system, S)
        seeds = [(c, n) for c in S.chain_order for n in starts]
        closures = tr.each("boundary.closure", bd.closure,
                           [(S, bd.tail(c, n)) for c, n in seeds])
        tails = tr.each("boundary.minimal_tail", bd.minimal_tail,
                        [(S, c) for c in S.chain_order])
        # per chain: later-start closure against earlier-start closure
        k = len(starts)
        pairs = [(closures[i + 1], closures[i]) for i in range(len(closures) - 1)
                 if (i + 1) % k]
        contained = tr.each("boundary.almost_contained", bd.almost_contained,
                            [(S, u, v) for u, v in pairs])
        back = tr.each("boundary.almost_contained", bd.almost_contained,
                       [(S, v, u) for u, v in pairs])
        return S, report, seeds, closures, tails, pairs, contained, back

    def check(result):
        S, report, seeds, closures, tails, pairs, contained, back = result
        problems = []
        if not report.ok:
            problems.append(f"{s.name}: fails validation: {report.failures[:1]}")
        for (c, n), U in zip(seeds, closures):
            lo_hi = U.intervals.get(c)
            if lo_hi is None or lo_hi[0] > n or lo_hi[1] is not None \
                    or not bd.is_ubs(S, U):
                problems.append(f"{s.name}: closure of tail {c}[{n}:] is wrong")
        for (u, v), fwd, bwd in zip(pairs, contained, back):
            if not subset(u, v) or not (fwd.holds and fwd.measure == 0):
                problems.append(f"{s.name}: nested closures not almost contained")
            if bwd.holds and bwd.measure != difference_mass(s, v, u):
                problems.append(f"{s.name}: almost-containment measure")
        counts = {"boundary.horizon_sum": S.horizon}
        view = {"system": s.name, "valid": report.ok,
                "closures": [U.to_json() for U in closures],
                "minimalTails": [[N, U.to_json()] for N, U in tails],
                "backMeasures": [str(b.measure) for b in back]}
        return problems, counts, view

    return harness.Job("closure", f"{s.name} closures", run, check)


def graph_job(lib, s: SystemInput) -> harness.Job:
    bd = lib.boundary

    def run(tr):
        S = build(tr, lib, s)
        G = tr.call("boundary.ubs_graph", bd.ubs_graph, S)
        chi = tr.call("boundary.chi_vector", bd.chi_vector, S, s.shift)
        return S, G, chi

    def check(result):
        S, G, chi = result
        problems = []
        edges = set(G.edges)
        if any((i, k) not in edges for i, j in edges for j2, k in edges
               if j2 == j and i != k):
            problems.append(f"{s.name}: graph edges not transitive")
        if len(G.vertices) > bd.truncation_antichain_bound(S):
            problems.append(f"{s.name}: more vertices than the antichain bound")
        expected = s.expected_chi
        if not s.fixture:
            # uniform shift by L (a multiple of every period): each tail
            # chain of a class gains L members, one period block's weight
            # L / period times
            L = s.shift.shift[S.chain_order[0]]
            expected = tuple(
                sum((L // c.period * sum(c.weights, Fraction(0))
                     for c in s.chains if rep.intervals.get(c.id, (0, 0))[1] is None),
                    Fraction(0))
                for _, rep, _ in G.vertices)
        if expected is not None and tuple(chi) != tuple(expected):
            problems.append(f"{s.name}: chi {chi}, expected {expected}")
        if s.fixture:
            problems += fixture_chi_laws(bd, S, s.shift, chi)
        counts = {"boundary.graph_vertices": len(G.vertices)}
        view = {"system": s.name, "graph": G.to_json(),
                "chi": [str(v) for v in chi]}
        return problems, counts, view

    return harness.Job("graph", f"{s.name} graph", run, check)


def poset_job(lib, s: SystemInput) -> harness.Job:
    bd = lib.boundary

    def run(tr):
        S = build(tr, lib, s)
        return S, tr.call("boundary.ubs_poset", bd.ubs_poset, S)

    def check(result):
        S, poset = result
        problems = []
        # every single class is an inseparable set of the poset, and every
        # representative contains the classes it names
        singles = {ls[0] for ls, _ in poset if len(ls) == 1}
        if len(singles) != len({lab for ls, _ in poset for lab in ls}):
            problems.append(f"{s.name}: a class is missing from the poset")
        for labels, rep in poset:
            if not rep.has_tail():
                problems.append(f"{s.name}: representative of {labels} has no tail")
        view = {"system": s.name,
                "poset": [[list(ls), rep.to_json()] for ls, rep in poset]}
        return problems, {}, view

    return harness.Job("poset", f"{s.name} poset", run, check)


def fixture_chi_laws(bd, S, g, chi) -> list:
    """Additivity over the minimal classes and doubling under g∘g."""
    problems = []
    everything = bd.closure(S, bd.union_seed(bd.tail(c, 0) for c in S.chain_order))
    total = bd.transfer_character(S, everything, g)
    if total != sum(chi, Fraction(0)):
        problems.append(f"{S.name}: chi not additive ({total} != sum {chi})")
    if bd.chi_vector(S, g.compose(g)) != tuple(2 * v for v in chi):
        problems.append(f"{S.name}: chi does not double under composition")
    return problems


def subset(u, v) -> bool:
    """Interval-wise containment of two UBS."""
    for c, (lo, hi) in u.intervals.items():
        if c not in v.intervals:
            return False
        vlo, vhi = v.intervals[c]
        if lo < vlo or (vhi is not None and (hi is None or hi > vhi)):
            return False
    return True


def difference_mass(s: SystemInput, u, v):
    """Weight of u \\ v, index by index; None when it is infinite."""
    total = Fraction(0)
    for c, (lo, hi) in u.intervals.items():
        vlo, vhi = v.intervals.get(c, (None, None))
        if hi is None:
            if vlo is None or vhi is not None:
                return None
            hi = max(lo, vlo) - 1
        for n in range(lo, hi + 1):
            if vlo is None or n < vlo or (vhi is not None and n > vhi):
                total += s.weight(c, n)
    return total
