"""Seeded random models: pocsets, convex sets, maps, chain systems, finite
posets, and the lists of them that the oracle table and the tests share.

Pocsets are sampled as median-closed subsets of a hypercube (every finite
median algebra embeds this way): sample a few seed vertices, close under
coordinatewise majority, keep the coordinates that cut the closure
properly, and dedupe coordinates inducing the same partition.  Chain
systems are sampled from a staircase family: a transitively-closed
domination DAG on the chains with path-minimal offsets, which is consistent
by construction; ``decorate`` then adds head entries and row rules, which
may break it.  ``edge_systems`` are hand-made systems at the edges of the
rule checks.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache

from . import fixtures as fx
from .actions import TotalAction, _evaluator, enumerate_words
from .boundary import (
    SUB, SUP, TRANS, Chain, ChainSystem, RowRule, ShiftMap, Zone, closure, validate_system)
from .errors import HorizonExceeded
from .pocset import WeightedPocset, convex_hull, points
from .structure import Automorphism, automorphisms
from .subdivision import subdivide

_WEIGHT_CHOICES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2),
                   Fraction(1, 3))


def _median_close(vectors: set, n: int) -> set:
    closed = set(vectors)
    changed = True
    while changed:
        changed = False
        items = sorted(closed)
        for a in items:
            for b in items:
                for c in items:
                    m = (a & b) | (b & c) | (c & a)
                    if m not in closed:
                        closed.add(m)
                        changed = True
    return closed


def random_pocset(rng: random.Random, max_walls: int = 10,
                  max_points: int = 16) -> WeightedPocset:
    while True:
        n = rng.randint(2, max_walls)
        seeds = {rng.getrandbits(n) for _ in range(rng.randint(2, 4))}
        closed = _median_close(seeds, n)
        if not 2 <= len(closed) <= max_points:
            continue
        sides = {}
        for i in range(n):
            part = frozenset(v for v in closed if v >> i & 1)
            if 0 < len(part) < len(closed):
                other = frozenset(closed - part)
                canon = part if sorted(part)[0] < sorted(other)[0] else other
                sides.setdefault(canon, part)
        if not sides:
            continue
        parts = sorted(sides.values(), key=sorted)
        if len(parts) > max_walls:
            continue
        walls = []
        order = []
        named = []
        for w, part in enumerate(parts):
            walls.append((f"h{w}", f"h{w}*", rng.choice(_WEIGHT_CHOICES)))
            named.append((part, frozenset(closed - part)))
        for a, (pa, ca) in enumerate(named):
            for b, (pb, cb) in enumerate(named):
                if a == b:
                    continue
                if pa < pb:
                    order.append((f"h{a}", f"h{b}"))
                if pa < cb:
                    order.append((f"h{a}", f"h{b}*"))
        return WeightedPocset(walls, order)


def random_pocsets(rng: random.Random, count: int, max_walls: int = 10,
                   max_points: int = 16) -> list:
    return [random_pocset(rng, max_walls, max_points) for _ in range(count)]


def partial_maps(rng: random.Random, P: WeightedPocset) -> list:
    """For at most 9 walls: the first six automorphisms, each with its
    restriction to random walls, and one unchecked scramble whose images
    can be inconsistent."""
    out = []
    if P.wall_count <= 9:
        for g in automorphisms(P)[:6]:
            out.append(g)
            kept = [w for w in P.walls if rng.random() < 0.6]
            perm = [None] * P.n
            for i, j in kept:
                perm[i], perm[j] = g.perm[i], g.perm[j]
            out.append(Automorphism(P, perm, "restricted"))
        sides = list(range(P.n))
        rng.shuffle(sides)
        perm = [s if rng.random() < 0.8 else None for s in sides]
        out.append(Automorphism(P, perm, "scrambled"))
    return out


def random_points(rng: random.Random, pts, k: int):
    pool = list(pts)
    rng.shuffle(pool)
    return pool[:k]


def random_poset(rng: random.Random, size: int) -> list:
    """A random strict partial order on range(size), as one bitmask row per
    element: the elements above it."""
    rows = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.3:
                rows[i] |= 1 << j
    for k in range(size):  # Warshall: all paths through k
        for i in range(size):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def random_system(rng: random.Random, max_chains: int = 5) -> ChainSystem:
    k = rng.randint(1, max_chains)
    ids = [chr(ord("A") + i) for i in range(k)]
    INF = 10 ** 9
    theta = [[INF] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i < j and rng.random() < 0.45:
                theta[i][j] = rng.randint(1, 3)  # chain i dominates chain j
    for m in range(k):
        for i in range(k):
            for j in range(k):
                if theta[i][m] + theta[m][j] < theta[i][j]:
                    theta[i][j] = theta[i][m] + theta[m][j]
    zones = {}
    for i in range(k):
        for j in range(k):
            if theta[i][j] < INF:
                zones[(ids[i], ids[j])] = (
                    Zone(None, theta[i][j] - 1, TRANS),
                    Zone(theta[i][j], None, SUP),
                )
    chains = []
    for cid in ids:
        period = rng.randint(1, 3)
        weights = tuple(rng.choice(_WEIGHT_CHOICES) for _ in range(period))
        head = tuple(rng.choice(_WEIGHT_CHOICES)
                     for _ in range(rng.randint(0, 2)))
        chains.append(Chain(cid, period, weights, head))
    return ChainSystem(chains, zones=zones, name="random")


def random_systems(rng: random.Random, count: int, max_chains: int = 5,
                   tries: int = 0, keep=None) -> list:
    """``count`` random systems, each decorated by ``tries`` attempts if
    ``tries`` is set."""
    out = []
    for _ in range(count):
        S = random_system(rng, max_chains)
        out.append(decorate(rng, S, tries, keep) if tries else S)
    return out


def decorate(rng: random.Random, S: ChainSystem, tries: int,
             keep=None) -> ChainSystem:
    """S plus random head entries and row rules on head-region pairs, each
    changing the relation there; one is kept only if ``keep`` (if given)
    accepts the system with it."""
    chains = [S.chains[c] for c in S.chain_order]
    rows, head = (), {}
    for _ in range(tries if len(chains) > 1 else 0):
        c, d = rng.sample(S.chain_order, 2)
        n, m = rng.randint(0, 3), rng.randint(0, 5)
        code = rng.choice([x for x in (SUB, SUP, TRANS) if x != S.rel(c, n, d, m)])
        if rng.random() < 0.5:
            cand = rows, {**head, (c, n, d, m): code}
        else:
            hi = rng.choice((None, m, m + rng.randint(0, 2)))
            cand = rows + (RowRule(c, n, d, code, m, hi),), head
        T = ChainSystem(chains, zones=S.zones, rows=cand[0], head=cand[1])
        if keep is None or keep(T):
            rows, head = cand
    return ChainSystem(chains, zones=S.zones, rows=rows, head=head)


def edge_systems() -> dict:
    """By name: ``conflict``, a row rule under a head entry on one pair;
    ``zone gap``, whose (H, K) zones leave offsets 0..2 to the (K, H) zone
    and to ``trans``; ``head cycle``, a_0 in b_0 in c_0 in a_0; and, under
    the code that rejects each, three resolvers that are not antisymmetric."""
    one = (Fraction(1),)

    def two(**rules):
        return ChainSystem([Chain("H", 1, one), Chain("K", 1, one)], **rules)

    return {
        "conflict": ChainSystem(
            [Chain("a", 1, one), Chain("b", 1, one)],
            zones={("a", "b"): (Zone(None, None, TRANS),)},
            rows=[RowRule("a", 0, "b", SUB, 3, 3)],
            head={("a", 0, "b", 3): TRANS}),
        "zone gap": ChainSystem(
            [Chain("H", 1, one), Chain("K", 2, one * 2)],
            zones={("H", "K"): (Zone(None, -1, SUB), Zone(3, None, TRANS)),
                   ("K", "H"): (Zone(-1, 0, SUB),)},
            rows=[RowRule("K", 1, "H", SUP, 4, None)]),
        "head cycle": ChainSystem(
            [Chain(c, 1, one) for c in "abc"],
            head={("a", 0, "b", 0): SUB, ("b", 0, "c", 0): SUB,
                  ("c", 0, "a", 0): SUB}),
        "HEAD_CONFLICT": two(head={("H", 0, "K", 2): SUB, ("K", 2, "H", 0): SUB}),
        "ZONES_NOT_PARTITION": two(zones={
            ("H", "K"): (Zone(None, -1, SUB), Zone(3, None, TRANS)),
            ("K", "H"): (Zone(None, None, TRANS),)}),
        "ZONE_CONFLICT": two(zones={
            ("H", "K"): (Zone(None, 0, TRANS), Zone(1, None, SUP)),
            ("K", "H"): (Zone(None, 0, TRANS), Zone(1, None, SUP))}),
    }


# -- the seeded inputs of the oracle table ------------------------------------------
#
# Each gives the argument tuples of rows of ``oracles.ORACLES`` (or
# the objects a row takes one at a time) from fixed seeds.

def seeded(offset: int = 0) -> random.Random:
    """The generator of most inputs, seeded 987123 + ``offset``."""
    return random.Random(987123 + offset)


@cache
def mixed_pocsets() -> list:
    """Forty random pocsets with mixed wall weights (made once: many rows
    read them)."""
    return random_pocsets(random.Random(20261018), 40, max_walls=9, max_points=14)


def window_pocsets() -> list:
    return [fx.window(name).pocset for name in ("F2BALL", "LINE")]


def copy_table_pocsets() -> list:
    return [fx.pocset(name) for name in ("SQUARE", "PATH3", "TRIPOD", "GRID")] + \
        random_pocsets(random.Random(20240611), 12, max_walls=6, max_points=12)


def _sample(rng: random.Random, seq, k: int) -> list:
    return list(seq) if len(seq) <= k else rng.sample(list(seq), k)


@cache
def _point_samples() -> list:
    """Per mixed and window pocset, drawn in turn from one stream of seed
    11: sampled point pairs, gates onto hulls of sampled pairs, and masks
    (random ones, points with one wall turned over, a side added or a side
    dropped, and the points themselves)."""
    rng, out = random.Random(11), []
    for P in mixed_pocsets() + window_pocsets():
        pts = points(P, fx.WINDOW_BUDGETS)
        pairs = [(P, x, y) for x in _sample(rng, pts, 12) for y in _sample(rng, pts, 12)]
        gates = []
        for _ in range(5):
            C = convex_hull(P, _sample(rng, pts, 2), fx.WINDOW_BUDGETS)
            gates += [(P, C, x) for x in _sample(rng, pts, 5)]
        masks = [rng.getrandbits(P.n) for _ in range(30)]
        for p in _sample(rng, pts, 10):
            i, j = rng.choice(P.walls)
            masks += [p.mask ^ (1 << i | 1 << j), p.mask | 1 << i | 1 << j,
                      p.mask & ~(1 << i)]
        out.append((pairs, gates, [(P, m) for m in masks + [p.mask for p in pts]]))
    return out


def point_pairs() -> list:
    return [case for pairs, _, _ in _point_samples() for case in pairs]


def point_gates() -> list:
    return [case for _, gates, _ in _point_samples() for case in gates]


def point_masks() -> list:
    return [case for _, _, masks in _point_samples() for case in masks]


def embed_cases():
    """The points of the mixed and window pocsets, each with the subdivision."""
    for P in mixed_pocsets() + window_pocsets():
        S = subdivide(P)
        yield from ((S, p) for p in points(P, fx.WINDOW_BUDGETS))


def preimage_cases():
    """Child points to pull back: the embedded points of the mixed and
    window pocsets, then every child point of those with at most 9 walls."""
    for P in mixed_pocsets() + window_pocsets():
        S = subdivide(P)
        yield from ((S, S.embed(p)) for p in points(P, fx.WINDOW_BUDGETS))
        if P.wall_count <= 9:
            yield from ((S, q) for q in points(S.child))


def cube_cases():
    """The new child points of the copy-table pocsets, each with the
    subdivision."""
    for P in copy_table_pocsets():
        S = subdivide(P)
        yield from ((S, q) for q in points(S.child) if S.is_new(q))


def image_cases():
    """Total, restricted and scrambled maps on the mixed pocsets, and the
    words of length at most 2 on the windows."""
    rng = random.Random(7)
    for P in mixed_pocsets():
        yield from ((g, p) for g in partial_maps(rng, P) for p in points(P))
    for action in map(fx.window, ("F2BALL", "LINE")):
        ev = _evaluator(action)
        yield from ((ev(w), p) for w in enumerate_words(action.gen_names(), 2)
                    for p in action.points())


def total_actions() -> list:
    """Every generating set of the SQUARE, TRIPOD and GRID automorphisms."""
    return [fx.total_action(name, gens) if gens else TotalAction(fx.pocset(name), {})
            for name in ("SQUARE", "TRIPOD", "GRID")
            for r in range(len(fx.named_automorphisms(name)) + 1)
            for gens in itertools.combinations(fx.named_automorphisms(name), r)]


def _system_fixtures() -> list:
    return [fx.chain_system(name) for name in fx.SYSTEM_FIXTURES]


def closure_systems() -> list:
    """The system fixtures, the conflict system and 30 decorated systems
    that validate."""
    return _system_fixtures() + [edge_systems()["conflict"]] + random_systems(
        seeded(), 30, max_chains=4, tries=12, keep=lambda T: validate_system(T).ok)


def index_systems() -> list:
    """The system fixtures, the conflict and zone gap systems and 8
    decorated systems."""
    edges = edge_systems()
    return _system_fixtures() + [edges["conflict"], edges["zone gap"]] + \
        random_systems(seeded(), 8, max_chains=3, tries=6)


def checked_systems() -> list:
    """The system fixtures, 30 random and 100 decorated systems (most of
    them rejected) and the edge systems."""
    rng = seeded()
    return _system_fixtures() + random_systems(rng, 30) + \
        random_systems(rng, 100, max_chains=4, tries=4) + list(edge_systems().values())


def truncated_systems() -> list:
    return _system_fixtures() + random_systems(seeded(), 20)


def closure_cases():
    """Tail, finite and mixed seeds, where the closure is stable at the
    horizon."""
    for S in closure_systems():
        seeds = [{S.chain_order[0]: (0, None), S.chain_order[-1]: (1, 2)}]
        seeds += [{c: iv} for c in S.chain_order for iv in ((0, None), (2, None), (1, 3))]
        for seed in seeds:
            try:
                closure(S, seed)
            except HorizonExceeded:
                continue
            yield S, seed


def random_posets() -> list:
    rng = seeded()
    return [(random_poset(rng, rng.randint(1, 11)),) for _ in range(30)]


def pocset_pairs(count: int, max_walls: int, max_points: int) -> list:
    rng = seeded()
    return [random_pocsets(rng, 2, max_walls, max_points) for _ in range(count)]


def uniform_shifts():
    """Pairs of uniform shifts by whole periods on random systems."""
    for S in random_systems(seeded(1), 12, max_chains=4):
        shift = [ShiftMap({c: c for c in S.chain_order},
                          {c: k * S.lcm_period for c in S.chain_order}) for k in range(4)]
        yield from ((S, shift[a], shift[b]) for a, b in ((1, 1), (1, 2), (0, 3)))


def subgroups():
    """Random pocsets acting by no automorphism, by each one and by each
    pair."""
    for P in random_pocsets(seeded(3), 12, max_walls=7, max_points=12):
        auts = automorphisms(P)[:8]
        yield from ((TotalAction(P, {f"g{i}": g for i, g in enumerate(gens)}),)
                    for r in (0, 1, 2) for gens in itertools.combinations(auts, r))
