"""Workload ``geometry``: pocset, structure and subdivision on fixtures
and seeded products of weighted trees.  Never touches actions or
boundary.

One job takes one pocset from its constructor arguments through points,
distances and separating walls on sampled pairs, medians of sampled
triples, hulls and gates, rank, decomposition (with the factors' points
and ranks), automorphisms (at most 10 walls), subdivision, embedding and
distances in the child.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import harness
import inputs

# known facts about the built-in pocsets: points, rank, factors,
# automorphisms (None: too many walls to enumerate them)
FIXTURE_FACTS = {
    "SQUARE": (4, 2, 2, 8),
    "PATH3": (4, 1, 1, 2),
    "TRIPOD": (4, 1, 1, 6),
    "GRID": (16, 2, 2, 8),
    "F2BALL": (161, 1, 1, None),
}
PRODUCTS_PER_PASS = 120
# Automorphisms are enumerated on pocsets with at most this many walls
# (the library allows 12): on unit-weight trees of 11-12 walls the search
# takes 80-380 ms depending on the shape alone, which would let the seed
# decide the job mix.  Groups are capped for the same reason.
AUTOMORPHISM_WALLS = 10
MAX_AUTOMORPHISMS = 48
PAIRS = 48
TRIPLES = 32
HULLS = 8
EMBEDS = 24


@dataclass(frozen=True)
class Samples:
    """Point positions, reduced modulo the point count at run time."""

    pairs: tuple
    triples: tuple
    hulls: tuple     # (positions spanning C, position of x)
    embeds: tuple    # pairs whose distance is taken in the child


def _samples(rng: random.Random) -> Samples:
    def r():
        return rng.randrange(1 << 30)
    return Samples(
        tuple((r(), r()) for _ in range(PAIRS)),
        tuple((r(), r(), r()) for _ in range(TRIPLES)),
        tuple((tuple(r() for _ in range(rng.randint(1, 4))), r())
              for _ in range(HULLS)),
        tuple((r(), r()) for _ in range(EMBEDS)),
    )


def fixture_spec(lib, name: str) -> inputs.PocsetSpec:
    """Constructor arguments of a built-in pocset, with its order closed."""
    P = lib.fixtures.pocset(name)
    walls = tuple((P.ids[i], P.ids[j], P.weight[i]) for i, j in P.walls)
    order = tuple((P.ids[i], P.ids[j]) for i in range(P.n) for j in range(P.n)
                  if i != j and P.up[i] >> j & 1)
    return inputs.PocsetSpec(name, walls, order, tuple(P.wall_ids),
                             *FIXTURE_FACTS[name])


def product_specs(rng: random.Random) -> list:
    """Stratified, so every seed gets the same mix: factor counts 1-3 and
    unit/mixed weights take turns, and each of those six classes gets wall
    totals spread evenly over 4-20.  The seed draws the split into
    factors, the tree shapes and the weights."""
    specs = []
    per_class = PRODUCTS_PER_PASS // 6
    for pos in range(PRODUCTS_PER_PASS):
        k = 1 + pos % 3
        mixed = (pos // 3) % 2 == 1
        low = max(4, 2 * k)
        total = low + (pos // 6) * (20 - low) // (per_class - 1)
        cuts = sorted(rng.sample(range(1, total), k - 1))
        sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
        specs.append(inputs.tree_product(
            rng, f"product{pos}/{'mixed' if mixed else 'unit'}/{sizes}",
            sizes, mixed, MAX_AUTOMORPHISMS))
    # a stride coprime to the pass length mixes small and large products,
    # so that any part of a pass has the same mix
    return [specs[pos * 7 % len(specs)] for pos in range(len(specs))]


def setup(lib, seed: int, workdir) -> harness.Workload:
    rng = random.Random(f"geometry/{seed}")
    harness.clear_fixture_caches(lib)
    specs = [fixture_spec(lib, name) for name in FIXTURE_FACTS]
    products = product_specs(rng)
    # fixtures spread through the pass, between the products
    step = len(products) // len(specs)
    for pos, spec in enumerate(specs):
        products.insert(pos * (step + 1), spec)
    pool = [make_job(lib, spec, _samples(rng)) for spec in products]
    return harness.Workload(anchors=[], pool=pool)


@dataclass
class GeometryResult:
    points: tuple
    distances: list
    separating: list
    medians: list
    hulls: list
    gates: list
    rank: int
    factor_points: list
    factor_ranks: list
    automorphisms: object
    child_walls: int
    child_weights: tuple
    child_distances: list
    child_rank: int


def make_job(lib, spec: inputs.PocsetSpec, samples: Samples) -> harness.Job:
    pc, st, sd = lib.pocset, lib.structure, lib.subdivision
    big = len(spec.walls) > lib.config.DEFAULT_BUDGETS.point_walls
    budgets = lib.fixtures.WINDOW_BUDGETS if big else lib.config.DEFAULT_BUDGETS
    with_automorphisms = len(spec.walls) <= AUTOMORPHISM_WALLS

    def run(tr):
        P = tr.call("pocset.WeightedPocset", pc.WeightedPocset,
                    spec.walls, spec.order, spec.wall_ids)
        pts = tr.call("pocset.points", pc.points, P, budgets)
        n = len(pts)
        pairs = [(P, pts[a % n], pts[b % n]) for a, b in samples.pairs]
        distances = tr.each("pocset.distance", pc.distance, pairs)
        separating = tr.each("pocset.separating", pc.separating, pairs)
        medians = tr.each("pocset.median", pc.median,
                          [(P, pts[a % n], pts[b % n], pts[c % n])
                           for a, b, c in samples.triples])
        hulls = tr.each("pocset.convex_hull", pc.convex_hull,
                        [(P, [pts[i % n] for i in span], budgets)
                         for span, _ in samples.hulls])
        gates = tr.each("pocset.gate_project", pc.gate_project,
                        [(P, C, pts[x % n])
                         for C, (_, x) in zip(hulls, samples.hulls)])
        rank = tr.call("structure.rank", st.rank, P, budgets)
        D = tr.call("structure.decompose", st.decompose, P)
        factor_points = [len(tr.call("pocset.points", pc.points, F, budgets))
                         for F in D.factors]
        factor_ranks = [tr.call("structure.rank", st.rank, F, budgets)
                        for F in D.factors]
        auts = (tr.call("structure.automorphisms", st.automorphisms, P, budgets)
                if with_automorphisms else None)
        S = tr.call("subdivision.subdivide", sd.subdivide, P)
        ends = [(pts[a % n], pts[b % n]) for a, b in samples.embeds]
        images = tr.each("subdivision.embed", S.embed,
                         [(p,) for pair in ends for p in pair])
        child_distances = tr.each(
            "pocset.distance", pc.distance,
            [(S.child, images[2 * i], images[2 * i + 1]) for i in range(len(ends))])
        child_rank = tr.call("structure.rank", st.rank, S.child,
                             lib.fixtures.WINDOW_BUDGETS)
        return GeometryResult(
            pts, distances, separating, medians, hulls, gates, rank,
            factor_points, factor_ranks, auts, S.child.wall_count,
            tuple(S.child.weight[i] for i, _ in S.child.walls),
            child_distances, child_rank)

    def check(res: GeometryResult):
        return check_geometry(spec, samples, res)

    return harness.Job("geometry", spec.name, run, check)


def check_geometry(spec: inputs.PocsetSpec, samples: Samples,
                   res: GeometryResult):
    """Checks that use plain bit operations and the generator's own
    knowledge (point count, rank, factors, weights), not mediankit."""
    problems = []
    pts = res.points
    n = len(pts)
    if n != spec.n_points or len({p.mask for p in pts}) != n:
        problems.append(f"{spec.name}: {n} points, expected {spec.n_points}")
        return problems, {}, None
    P = pts[0].pocset
    weight = spec.weights()
    walls = [(P.index[pos], P.index[neg], w) for pos, neg, w in spec.walls]

    def mass(x, y):
        return sum((w for i, _, w in walls if (x.mask ^ y.mask) >> i & 1), 0)

    for (a, b), d, sep in zip(samples.pairs, res.distances, res.separating):
        x, y = pts[a % n], pts[b % n]
        if d != mass(x, y) or d != sum((weight[h] for h in sep), 0):
            problems.append(f"{spec.name}: distance {d} != separating mass")
    for (a, b, c), m in zip(samples.triples, res.medians):
        x, y, z = pts[a % n].mask, pts[b % n].mask, pts[c % n].mask
        if any(u & v & ~m.mask for u, v in ((x, y), (y, z), (z, x))):
            problems.append(f"{spec.name}: median outside an interval")
    for C, g, (_, xpos) in zip(res.hulls, res.gates, samples.hulls):
        x = pts[xpos % n].mask
        if g.mask not in C.masks or any(x & z & ~g.mask for z in C.masks):
            problems.append(f"{spec.name}: gate law fails")
    if res.rank != spec.rank or sum(res.factor_ranks) != spec.rank:
        problems.append(f"{spec.name}: rank {res.rank}, factor ranks "
                        f"{res.factor_ranks}, expected {spec.rank}")
    if (len(res.factor_points) != spec.n_factors
            or math.prod(res.factor_points) != n):
        problems.append(f"{spec.name}: factor points {res.factor_points}")
    if res.automorphisms is not None:
        if len(res.automorphisms) != spec.n_automorphisms:
            problems.append(f"{spec.name}: {len(res.automorphisms)} "
                            f"automorphisms, expected {spec.n_automorphisms}")
        problems += _check_group(spec.name, [g.perm for g in res.automorphisms])
    if res.child_walls != 2 * len(spec.walls):
        problems.append(f"{spec.name}: child has {res.child_walls} walls")
    if max(res.child_weights) * 2 != max(weight.values()):
        problems.append(f"{spec.name}: subdivision does not halve atom mass")
    for (a, b), d in zip(samples.embeds, res.child_distances):
        if d != mass(pts[a % n], pts[b % n]):
            problems.append(f"{spec.name}: embedding changes a distance")
    if res.child_rank != spec.rank:
        problems.append(f"{spec.name}: child rank {res.child_rank}")
    counts = {
        "pocset.points_enumerated": n + sum(res.factor_points),
        "subdivision.child_walls": res.child_walls,
        "structure.automorphisms_found": len(res.automorphisms or ()),
    }
    view = {
        "pocset": spec.name, "points": n, "rank": res.rank,
        "factorPoints": res.factor_points,
        "distances": [str(d) for d in res.distances],
        "medians": [sorted(m.ids) for m in res.medians],
        "gates": [sorted(g.ids) for g in res.gates],
        "automorphisms": None if res.automorphisms is None
        else len(res.automorphisms),
        "childDistances": [str(d) for d in res.child_distances],
    }
    return problems, counts, view


def _check_group(name: str, perms: list) -> list:
    """Identity present, no repeats, closed under composing with the
    first few elements."""
    elems = set(perms)
    ident = tuple(range(len(perms[0]))) if perms else ()
    if ident not in elems or len(elems) != len(perms):
        return [f"{name}: automorphisms lack the identity or repeat"]
    for g in perms[:3]:
        for h in perms:
            if tuple(g[i] for i in h) not in elems:
                return [f"{name}: automorphisms not closed under composition"]
    return []
