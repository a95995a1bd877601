"""Seeded random models for the acceptance suite: pocsets, point samples,
chain systems and finite posets.

Pocsets are sampled as median-closed subsets of a hypercube (every finite
median algebra embeds this way): sample a few seed vertices, close under
coordinatewise majority, keep the coordinates that cut the closure
properly, and dedupe coordinates inducing the same partition.  Chain
systems are sampled from a staircase family: a transitively-closed
domination DAG on the chains with path-minimal offsets, which is consistent
by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .boundary import SUP, TRANS, Chain, ChainSystem, Zone
from .pocset import WeightedPocset, transitive_rows

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
        walls = [(f"h{w}", f"h{w}*", rng.choice(_WEIGHT_CHOICES)) for w in range(len(parts))]
        # h_a <= h_b (h_b*) when a's part is properly inside b's (its complement)
        order = [(f"h{a}", f"h{b}{star}") for a, pa in enumerate(parts)
                 for b, pb in enumerate(parts) if a != b
                 for star, side in (("", pb), ("*", closed - pb)) if pa < side]
        return WeightedPocset(walls, order)


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
    return transitive_rows(rows)


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
