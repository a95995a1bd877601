"""Seeded input generators.

Every input the benchmark feeds to mediankit is built here from plain
Python data (strings, tuples, ``Fraction``s), so the inputs do not depend
on the code under test and the same seed always gives the same inputs.
``mediankit.randomgen`` is deliberately not used: its pocsets average about
three walls and barely load the library, and a change to it would change
the load.

Each generator varies one property the library's cost depends on:

* ``tree_product``: products of 1-3 weighted trees.  The number of factors
  sets the rank, the wall total (at most 20, so default budgets apply) and
  the factor sizes set the point count (a tree with ``w`` walls has
  ``w + 1`` points, so a product has the product of those), and unit
  against mixed weights sets how many distinct weights the distance sums
  and the automorphism search see.  Trees have at most two children per
  vertex, which keeps automorphism groups small enough to enumerate.
* ``cube_action``: the 3-cube with hyperoctahedral generators.  The
  generator-set *type* fixes the generated group's order (and so the work
  an exhaustive flip search does); the seed conjugates it by a random
  signed permutation, so runs with different seeds search different words
  of groups of the same sizes.
* ``swap_product``: two or three copies of one tree with the cyclic factor
  permutation: a total action whose group has order 2 or 3, so its flip
  searches end after a few words, on a pocset of 16-64 points.
* ``staircase_system``: chain systems whose chains dominate each other
  along a random DAG with path-minimal offsets (consistent by
  construction).  The chain count sets the size of the all-pairs
  validation, and the periods (1-4) set ``lcm_period`` and with it the
  horizon every closure scans; the DAG's edge count and longest offset
  are held fixed or bounded so that the seed does not move the horizon.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

UNIT = Fraction(1)
MIXED_WEIGHTS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2),
                 Fraction(1, 3))


@dataclass(frozen=True)
class PocsetSpec:
    """Constructor arguments of a ``WeightedPocset`` plus what the
    generator knows about the result, for independent checks."""

    name: str
    walls: tuple       # (pos id, neg id, weight)
    order: tuple       # (a, b): a is contained in b
    wall_ids: tuple
    n_points: int      # known point count
    rank: int          # known rank
    n_factors: int     # known number of irreducible factors
    n_automorphisms: Optional[int] = None  # known group order

    def weights(self) -> dict:
        """Halfspace id -> weight."""
        out = {}
        for pos, neg, w in self.walls:
            out[pos] = w
            out[neg] = w
        return out


# -- trees and their products --------------------------------------------

def random_tree(rng: random.Random, n_walls: int) -> list:
    """Parent list of a random tree on ``n_walls + 1`` vertices in which
    no vertex has more than two children."""
    parent = [None]
    children = [0]
    for v in range(1, n_walls + 1):
        p = rng.choice([u for u in range(v) if children[u] < 2])
        parent.append(p)
        children[p] += 1
        children.append(0)
    return parent


def tree_halfspaces(parent: list) -> dict:
    """Edge ``v`` (to its parent) -> (subtree vertex set, its complement)."""
    n = len(parent)
    below = {v: {v} for v in range(n)}
    for v in range(n - 1, 0, -1):  # parents precede children
        below[parent[v]] |= below[v]
    everything = set(range(n))
    return {v: (frozenset(below[v]), frozenset(everything - below[v]))
            for v in range(1, n)}


def tree_parts(parent: list, weights: list, prefix: str):
    """Walls, order pairs and wall ids of a tree pocset, with halfspace
    ids ``<prefix>t<v>+`` (the subtree side) and ``<prefix>t<v>-``."""
    sides = tree_halfspaces(parent)
    walls, wall_ids, named = [], [], []
    for v, w in zip(sorted(sides), weights):
        pos, neg = f"{prefix}t{v}+", f"{prefix}t{v}-"
        walls.append((pos, neg, w))
        wall_ids.append(f"{prefix}t{v}")
        named.append((pos, sides[v][0]))
        named.append((neg, sides[v][1]))
    order = [(a, b) for a, sa in named for b, sb in named if sa < sb]
    return walls, order, wall_ids


def tree_automorphisms(parent: list, weights: list) -> tuple:
    """(canonical form, automorphism count) of a tree whose edge to
    vertex ``v`` has weight ``weights[v - 1]``, counted by the classical
    rooted-tree recursion from the centre."""
    n = len(parent)
    adj = {v: [] for v in range(n)}
    for v in range(1, n):
        w = weights[v - 1]
        adj[v].append((parent[v], w))
        adj[parent[v]].append((v, w))

    def rooted(v, came_from):
        forms, count = [], 1
        for u, w in adj[v]:
            if u != came_from:
                form, c = rooted(u, v)
                forms.append((str(w), form))
                count *= c
        forms.sort()
        for form in set(forms):
            count *= math.factorial(forms.count(form))
        return tuple(forms), count

    # centre: strip leaves layer by layer
    degree = {v: len(adj[v]) for v in range(n)}
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u, _ in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    if len(layer) == 1:
        return rooted(layer[0], None)
    a, b = layer
    w = next(w for u, w in adj[a] if u == b)
    (fa, ca), (fb, cb) = rooted(a, b), rooted(b, a)
    form = (str(w),) + tuple(sorted((fa, fb)))
    return form, ca * cb * (2 if fa == fb else 1)


def tree_product(rng: random.Random, name: str, sizes: tuple, mixed: bool,
                 max_automorphisms: int) -> PocsetSpec:
    """Product of trees with the given wall counts, redrawn until its
    automorphism group has at most ``max_automorphisms`` elements (the
    automorphism search costs in proportion to the group)."""
    while True:
        walls, order, wall_ids, forms = [], [], [], []
        n_points, n_auts = 1, 1
        for f, size in enumerate(sizes):
            parent = random_tree(rng, size)
            ws = [rng.choice(MIXED_WEIGHTS) if mixed else UNIT
                  for _ in range(size)]
            w, o, ids = tree_parts(parent, ws, f"f{f}.")
            walls += w
            order += o
            wall_ids += ids
            n_points *= size + 1
            form, count = tree_automorphisms(parent, ws)
            n_auts *= count
            forms.append(form)
        # factors are irreducible, so automorphisms of the product are
        # factor automorphisms and permutations of isomorphic factors
        for form in set(forms):
            n_auts *= math.factorial(forms.count(form))
        if n_auts <= max_automorphisms:
            return PocsetSpec(name, tuple(walls), tuple(order),
                              tuple(wall_ids), n_points, len(sizes),
                              len(sizes), n_auts)


def swap_product(rng: random.Random, name: str, size: int, copies: int):
    """``copies`` copies of one unit-weight tree, and the cyclic factor
    permutation as a halfspace-id mapping."""
    parent = random_tree(rng, size)
    walls, order, wall_ids = [], [], []
    for f in range(copies):
        w, o, ids = tree_parts(parent, [UNIT] * size, f"f{f}.")
        walls += w
        order += o
        wall_ids += ids
    shift = {}
    for pos, neg, _ in walls:
        for h in (pos, neg):
            f, rest = h.split(".", 1)
            shift[h] = f"f{(int(f[1:]) + 1) % copies}.{rest}"
    spec = PocsetSpec(name, tuple(walls), tuple(order), tuple(wall_ids),
                      (size + 1) ** copies, copies, copies)
    return spec, shift


# -- the 3-cube and its hyperoctahedral actions -----------------------------

CUBE_AXES = ("x", "y", "z")

# A signed permutation is (perm, signs): axis i goes to axis perm[i], with
# its + side landing on the + side when signs[i] is 1.  Each type is a
# generator set on fixed axes, named by the order of the group it
# generates and its generator count.  A cube has no flips, so a flip search
# covers the whole group; how many words that takes depends on the
# generator set, from about 10 words per group element to about 100.
CUBE_GENERATOR_TYPES = (
    ("48/3a", (((2, 1, 0), (-1, 1, 1)), ((1, 0, 2), (-1, -1, 1)),
               ((0, 1, 2), (-1, 1, -1)))),
    ("48/3b", (((1, 2, 0), (1, 1, -1)), ((1, 0, 2), (1, -1, -1)),
               ((1, 2, 0), (-1, -1, 1)))),
    ("48/2", (((1, 2, 0), (1, 1, -1)), ((1, 0, 2), (1, -1, -1)))),
    ("24/3", (((0, 1, 2), (1, -1, 1)), ((2, 0, 1), (-1, -1, 1)),
              ((0, 1, 2), (1, 1, -1)))),
    ("16/3", (((0, 1, 2), (-1, 1, -1)), ((1, 0, 2), (-1, -1, -1)),
              ((0, 1, 2), (-1, -1, -1)))),
)


def cube_spec() -> PocsetSpec:
    walls = tuple((f"{a}+", f"{a}-", UNIT) for a in CUBE_AXES)
    return PocsetSpec("CUBE3", walls, (), CUBE_AXES, 8, 3, 3, 48)


def _signed_map(perm, signs) -> dict:
    out = {}
    for i, a in enumerate(CUBE_AXES):
        b = CUBE_AXES[perm[i]]
        plus, minus = (f"{b}+", f"{b}-") if signs[i] == 1 else (f"{b}-", f"{b}+")
        out[f"{a}+"] = plus
        out[f"{a}-"] = minus
    return out


def cube_action(rng: random.Random, type_index: int):
    """Generator mappings (name -> halfspace-id mapping) of one generator
    type, conjugated by a random signed permutation."""
    label, gens = CUBE_GENERATOR_TYPES[type_index]
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    c = _signed_map(perm, signs)
    c_inv = {v: k for k, v in c.items()}
    out = {}
    for pos, (gp, gs) in enumerate(gens):
        g = _signed_map(gp, gs)
        out[f"g{pos}"] = {h: c[g[c_inv[h]]] for h in c}  # c g c^-1
    return label, out


# -- staircase chain systems -------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """Constructor arguments of a ``ChainSystem`` as plain data."""

    name: str
    chains: tuple   # (id, period, weights, head weights)
    zones: tuple    # ((from, to), offset threshold): sup from there on
    lcm_period: int


DAG_DENSITY = 0.45   # share of chain pairs joined by a domination edge
MAX_OFFSET = 4       # longest path-minimal offset of a drawn DAG


def staircase_system(rng: random.Random, name: str, n_chains: int,
                     periods: tuple,
                     shape_rng: Optional[random.Random] = None) -> SystemSpec:
    """Chains ``A, B, ...``; chain i dominates chain j (its element n
    contains element m of j for m - n >= theta) along a random DAG whose
    offsets are path-minimal, so the relation is consistent.  The DAG has
    exactly ``DAG_DENSITY`` of the possible edges, every chain one head
    weight, and DAGs whose longest offset exceeds ``MAX_OFFSET`` are
    redrawn: offsets set the head extent and with it the horizon, so
    this keeps the cost of a system with given chains and periods steady.
    The DAG is drawn from ``shape_rng`` when given (the weights still come
    from ``rng``), so that callers can hold the shapes fixed.
    """
    shape_rng = shape_rng or rng
    ids = [chr(ord("A") + i) for i in range(n_chains)]
    pairs = [(i, j) for i in range(n_chains) for j in range(i + 1, n_chains)]
    inf = 10 ** 9
    while True:
        theta = [[inf] * n_chains for _ in range(n_chains)]
        for i, j in shape_rng.sample(pairs, round(DAG_DENSITY * len(pairs))):
            theta[i][j] = shape_rng.randint(1, 3)
        for m in range(n_chains):
            for i in range(n_chains):
                for j in range(n_chains):
                    if theta[i][m] + theta[m][j] < theta[i][j]:
                        theta[i][j] = theta[i][m] + theta[m][j]
        if max((t for row in theta for t in row if t < inf), default=0) <= MAX_OFFSET:
            break
    zones = tuple(((ids[i], ids[j]), theta[i][j])
                  for i in range(n_chains) for j in range(n_chains)
                  if theta[i][j] < inf)
    chains = []
    for cid, period in zip(ids, periods):
        weights = tuple(rng.choice(MIXED_WEIGHTS) for _ in range(period))
        chains.append((cid, period, weights, (rng.choice(MIXED_WEIGHTS),)))
    return SystemSpec(name, tuple(chains), zones, math.lcm(*periods))
