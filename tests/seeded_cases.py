"""Seeded inputs of the oracle table and of the tests that share them.

Each function gives the argument tuples of rows of ``test_oracles.ORACLES``
(or the objects a row takes one at a time), or a list of models, from
fixed seeds.  Random pocsets come from ``randomgen.random_pocset`` and
random chain systems from ``randomgen.random_system``; ``decorate`` adds
head entries and row rules to a system, which may break it, and
``edge_systems`` are hand-made systems at the edges of the rule checks.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache

from mediankit import fixtures as fx
from mediankit.actions import (
    TotalAction, WindowAction, enumerate_words, parse_word)
from mediankit.boundary import (
    SUB, SUP, TRANS, UBS, _INVERSE, Chain, ChainSystem, RowRule, ShiftMap, Zone, closure,
    validate_system, validate_system_rules)
from mediankit.pocset import (
    ConvexSet, WeightedPocset, _iter_bits, convex_hull, halfspace_point_masks, points)
from mediankit.randomgen import random_pocset, random_poset, random_system
from mediankit.structure import Automorphism, automorphisms, decompose, pocset_product
from mediankit.subdivision import subdivide
from references import (
    composed_map, expand_letters, pair_order, resolve, transversality_pairwise, wall_list)


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
        code = rng.choice([x for x in (SUB, SUP, TRANS) if x != resolve(S, c, n, d, m)])
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
    the code that rejects each, three resolvers that are not antisymmetric
    and a head entry and a row rule of negative index."""
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
        "NEGATIVE_INDEX": two(head={("H", -1, "K", 0): SUB},
                              rows=[RowRule("K", -3, "H", SUP, 0, None)]),
    }


# -- pocsets, points, maps and actions ---------------------------------------

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
    return small_fixtures() + random_pocsets(random.Random(20240611), 12, 6, 12)


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
        yield from ((composed_map(action, w), p)
                    for w in enumerate_words(action.gen_names(), 2) for p in action.points())


@cache
def partial_actions() -> list:
    """The windows, and the restricted maps of the mixed pocsets as window
    actions, drawn from a generator seeded 8 (a scrambled map fails the
    check that building an action makes)."""
    rng = random.Random(8)
    return [fx.window(name) for name in ("F2BALL", "LINE")] + [
        WindowAction(P, {"g": g}) for P in mixed_pocsets()
        for g in partial_maps(rng, P) if None in g.perm and g.name == "restricted"]


def stabilizer_cases():
    """Every word of length at most 2 on the partial actions, with every
    side whose image it leaves undefined and that side or its complement
    as the forbidden image."""
    for action in partial_actions():
        P = action.pocset
        for w in enumerate_words(action.gen_names(), 2):
            gu = composed_map(action, w)
            yield from ((action, w, side, forbidden) for side in range(P.n)
                        if gu.perm[side] is None for forbidden in (side, P.star[side]))


def word_image_cases():
    """(action, word, whether its letters cancel) for the words of length
    at most 3 on the partial actions, and the expansions of the letter
    words of length at most 3 of a ping-pong search on F2BALL whose
    letters, a b and b^-1 a, cancel where B follows A."""
    for action in partial_actions():
        yield from ((action, w, False) for w in enumerate_words(action.gen_names(), 3))
    W = fx.window("F2BALL")
    letters = {"A": parse_word("a b", W.gen_names()), "B": parse_word("b^-1 a", W.gen_names())}
    for u in enumerate_words(("A", "B"), 3):
        word = expand_letters(u, letters)
        yield W, word, len(word) < 2 * len(u)


def inversion_cases():
    """(action, word): the words of length at most 3 on the partial and
    total actions, and on each action with generators, its first generator
    g to the powers 5, -8 and 33, and g^3 h^-2 g^6 for its last one h."""
    for action in partial_actions() + total_actions():
        names = action.gen_names()
        yield from ((action, w) for w in enumerate_words(names, 3))
        if names:
            g, h = names[0], names[-1]
            for word in (((g, 1),) * 5, ((g, -1),) * 8, ((g, 1),) * 33,
                         ((g, 1),) * 3 + ((h, -1),) * 2 + ((g, 1),) * 6):
                yield action, word


def bit_matrices() -> list:
    """(rows, width): the point masks of the mixed and window pocsets, no
    rows, and random rows of a generator seeded 18, some wider than they
    are many, some narrower, and more of them than one chunk of
    ``pocset.transpose``."""
    rng = random.Random(18)
    out = [([p.mask for p in points(P, fx.WINDOW_BUDGETS)], P.n)
           for P in mixed_pocsets() + window_pocsets()]
    out += [([], width) for width in (0, 1, 9)]
    return out + [([rng.getrandbits(width) for _ in range(count)], width)
                  for count, width in ((2, 0), (3, 70), (70, 3), (40, 40), (5000, 6))]


def halfspace_sets():
    """(P, point masks of i, point masks of j) for 40 ordered pairs of
    halfspaces of each mixed pocset and of the LINE window, and 40 pairs
    i, j* with i < j properly nested, drawn from a generator seeded 13.
    F2BALL's point pairs are too many for the reference."""
    rng = random.Random(13)
    for P in mixed_pocsets() + [fx.window("LINE").pocset]:
        masks = halfspace_point_masks(P, fx.WINDOW_BUDGETS)
        pairs = _sample(rng, [(i, j) for i in range(P.n) for j in range(P.n)], 40)
        nested = [(i, P.star[j]) for i in range(P.n) for j in _iter_bits(P.up[i] & ~(1 << i))]
        yield from ((P, masks[i], masks[j]) for i, j in pairs + _sample(rng, nested, 40))


def certificate_pairs() -> list:
    """(P, g, h) for every ordered pair of halfspaces of each mixed pocset,
    and 150 ordered pairs of the LINE window drawn from a generator seeded
    25 (all 1,764 would take seconds in the reference)."""
    line = fx.window("LINE").pocset
    return ([(P, g, h) for P in mixed_pocsets() for g in P.ids for h in P.ids]
            + [(line, g, h) for g, h in _sample(
                random.Random(25), list(itertools.product(line.ids, repeat=2)), 150)])


def random_trees(rng: random.Random, count: int, max_edges: int) -> list:
    """Weighted trees of 1 to ``max_edges`` edges: edge v joins vertex
    v + 1 to an earlier vertex, and its side ``e{v}+`` is the subtree that
    v + 1 roots."""
    out = []
    for _ in range(count):
        m = rng.randint(1, max_edges)
        above = [set()]  # vertex x and its ancestors but the root
        for v in range(m):
            above.append(above[rng.randrange(v + 1)] | {v + 1})
        order = [(f"e{v}+", f"e{u}+" if u + 1 in above[v + 1] else f"e{u}-")
                 for u in range(m) for v in range(m)
                 if u != v and v + 1 not in above[u + 1]]
        out.append(WeightedPocset([(f"e{v}+", f"e{v}-", rng.choice((1, 2, Fraction(1, 2))))
                                   for v in range(m)], order))
    return out


def facing_pocsets() -> list:
    """Random pocsets, of up to 12 walls too, where strong separation
    fails between a candidate and an earlier member; trees; and products
    of two trees, whose walls from different factors are all transverse."""
    trees = random_trees(seeded(6), 30, 9)
    return random_pocsets(seeded(4), 30) + random_pocsets(seeded(12), 100, 12, 24) + \
        trees + [pocset_product(trees[k:k + 2]) for k in range(0, 10, 2)]


def total_actions() -> list:
    """Every generating set of the SQUARE, TRIPOD and GRID automorphisms."""
    return [fx.total_action(name, gens) if gens else TotalAction(fx.pocset(name), {})
            for name in ("SQUARE", "TRIPOD", "GRID")
            for r in range(len(fx.named_automorphisms(name)) + 1)
            for gens in itertools.combinations(fx.named_automorphisms(name), r)]


def subgroups():
    """Random pocsets acting by no automorphism, by each one and by each
    pair."""
    for P in random_pocsets(seeded(3), 12, max_walls=7, max_points=12):
        auts = automorphisms(P)[:8]
        yield from ((TotalAction(P, {f"g{i}": g for i, g in enumerate(gens)}),)
                    for r in (0, 1, 2) for gens in itertools.combinations(auts, r))


def cube_actions() -> list:
    """The 3-cube acted on by each of its 48 automorphisms and by 40
    seeded pairs of them."""
    P = WeightedPocset([(f"{a}+", f"{a}-", Fraction(1)) for a in "xyz"], wall_ids="xyz")
    auts = automorphisms(P)
    rng = seeded()
    pairs = [rng.sample(auts, 2) for _ in range(40)]
    return [TotalAction(P, {f"g{i}": g for i, g in enumerate(gens)})
            for gens in [[g] for g in auts] + pairs]


def pocset_pairs(count: int, max_walls: int, max_points: int) -> list:
    rng = seeded()
    return [random_pocsets(rng, 2, max_walls, max_points) for _ in range(count)]


def random_posets() -> list:
    rng = seeded()
    return [(random_poset(rng, rng.randint(1, 11)),) for _ in range(30)]


# -- chain systems -----------------------------------------------------------

def _system_fixtures() -> list:
    return [fx.chain_system(name) for name in fx.SYSTEM_FIXTURES]


def closure_systems() -> list:
    """The system fixtures, the conflict system, 30 decorated systems that
    validate and the gap systems of G = 3, 8 (head extent past 4
    lcm_period + 4) and 12."""
    return _system_fixtures() + [edge_systems()["conflict"]] + random_systems(
        seeded(), 30, max_chains=4, tries=12, keep=lambda T: validate_system(T).ok) + \
        [gap_system(G) for G in (3, 8, 12)]


def staircase(theta: int, head: int) -> ChainSystem:
    """Chains A, B, C of periods 1, 2, 3 and ``head`` head weights, each
    containing the later chains' elements from offset ``theta`` on, with
    the zones ``(None, theta - 1, trans)`` and ``(theta, None, sup)`` given
    only from the earlier chain, as the benchmark's staircases have them."""
    steps = (Zone(None, theta - 1, TRANS), Zone(theta, None, SUP))
    return ChainSystem(
        [Chain(c, p, tuple(Fraction(k + 1, p) for k in range(p)), (Fraction(1, 3),) * head)
         for c, p in zip("ABC", (1, 2, 3))],
        zones={pair: steps for pair in itertools.combinations("ABC", 2)},
        name=f"STAIR{theta}")


def index_systems() -> list:
    """The system fixtures, the conflict and zone gap systems, 8 decorated
    systems, two staircases, one stepping at offset 0, one at its chains'
    head extent 4 (one below the system's), and a system of three zones
    given only from K to H."""
    edges = edge_systems()
    one_way = ChainSystem(
        [Chain("H", 1, (Fraction(1),), (Fraction(2),) * 2), Chain("K", 2, (Fraction(1),) * 2)],
        zones={("K", "H"): (Zone(None, -3, SUP), Zone(-2, 1, TRANS), Zone(2, None, SUB))},
        name="ONE WAY")
    return _system_fixtures() + [edges["conflict"], edges["zone gap"]] + \
        random_systems(seeded(), 8, max_chains=3, tries=6) + \
        [staircase(0, 1), staircase(4, 4), one_way]


def checked_systems() -> list:
    """The system fixtures, 30 random and 100 decorated systems (most of
    them rejected) and the edge systems."""
    rng = seeded()
    return _system_fixtures() + random_systems(rng, 30) + \
        random_systems(rng, 100, max_chains=4, tries=4) + list(edge_systems().values())


def validated_systems() -> list:
    """The checked systems, the long-head systems, gap systems, the spread
    triples and 40 random systems of up to 4 chains with 8 head entries
    and row rules tried each, kept or not, many of them intransitive."""
    return checked_systems() + long_head_systems() + [gap_system(G) for G in (3, 9, 12)] + \
        spread_triples() + random_systems(seeded(12), 40, max_chains=4, tries=8)


def poset_systems() -> list:
    """The checked systems that pass validation, 30 random systems of up
    to 5 chains, gap systems with D listed first, whose one class's
    candidate holds C only from G past its start, and the later-start
    system."""
    return [S for S in checked_systems() if validate_system(S).ok] + \
        random_systems(seeded(8), 30, max_chains=5) + [gap_system(G, "DC") for G in (3, 12)] + \
        [later_start_system()]


def later_start_system() -> ChainSystem:
    """Chains A, B and C of period 1 and weight 1: A_n and C_m transverse
    up to offset m - n = 2 and C_m in A_n from 3, B_n and C_m transverse up
    to 0 and C_m in B_n from 1, and B_m in A_0 for m >= 4.  Every vertex's
    minimal tail starts at 0, but the tails of A and C at 0 close to a set
    holding B's, so {A, C} has its representative A[1:] C[1:] at N = 1."""
    one = (Fraction(1),)
    return ChainSystem([Chain(c, 1, one) for c in "ABC"], zones={
        ("A", "C"): (Zone(None, 2, TRANS), Zone(3, None, SUP)),
        ("B", "C"): (Zone(None, 0, TRANS), Zone(1, None, SUP))},
        rows=(RowRule("A", 0, "B", SUP, 4, None),), name="LATER_START")


def truncated_systems() -> list:
    return _system_fixtures() + random_systems(seeded(), 20)


def closure_cases():
    """On the closure systems: tail, finite and mixed seeds, an empty
    interval (``hi < lo``), seeds at both edges of the horizon window,
    tails from around 2 head_extent, where closures move with the seed,
    alone and on two chains (never moved), and tails starting at, and just
    past, horizon + E + 2 lcm_period + 1 (the length of the index tables
    sized by the period) and one period below it, alone and next to a
    finite interval: all past the window, so they pin the horizon errors."""
    for S in closure_systems():
        first, last, T, E = S.chain_order[0], S.chain_order[-1], S.horizon, S.head_extent
        seeds = [{first: (0, None), last: (1, 2)}, {c: (1, None) for c in S.chain_order},
                 {first: (0, None), last: (4, 2)}, {first: (1, T - 1)}, {first: (1, T)},
                 {last: (T, None)}, {last: (T + 1, None)}]
        for c in S.chain_order:
            seeds += [{c: (0, None)}, {c: (2, None)}, {c: (1, 3)}, {c: (4, 2)}]
            seeds += [{c: (lo, None)} for lo in (E + 1, 2 * E - 1, 2 * E, 2 * E + 1) if lo <= T]
        if 2 * E + 3 <= T:
            seeds += [{first: (2 * E + 1, None), last: (2 * E + 3, None)},
                      {first: (2 * E + 2, 2 * E + 2), last: (2 * E + 1, None)}]
        scan = T + E + 2 * S.lcm_period + 1
        for scan in (scan - S.lcm_period, scan):
            for lo in (scan, scan + 1):
                seeds += [{first: (lo, None)}, {first: (1, 3), last: (lo, None)},
                          {last: (1, 3), first: (lo, None)}]
        yield from ((S, seed) for seed in seeds)


def deep_flap(k: int, periods: tuple) -> ChainSystem:
    """STAIRFLAP with the flap K inside h_0 .. h_{k-1} (one row rule each)
    instead of h_0 alone: the closure of H's tail from n < k holds K's
    tail, from k on it does not, so H's minimal tail starts at k."""
    return ChainSystem(
        [Chain(c, p, tuple(Fraction(i + 1, 2) for i in range(p)))
         for c, p in zip("HK", periods)],
        zones=fx.stairflap().zones,
        rows=[RowRule("H", n, "K", SUP, 0, None) for n in range(k)], name=f"FLAP{k}")


def tail_systems() -> list:
    """The system fixtures, 20 random systems, 20 decorated systems that
    validate and six deep flaps, whose minimal tails start at 2 to 7."""
    rng = seeded()
    decorated = random_systems(rng, 20, max_chains=4, tries=8,
                               keep=lambda T: validate_system(T).ok)
    flaps = [deep_flap(k, periods) for k, periods in
             zip(range(2, 8), ((1, 1), (2, 1), (1, 3), (2, 3), (3, 2), (1, 2)))]
    return _system_fixtures() + random_systems(rng, 20, max_chains=4) + decorated + flaps


def tail_closure_pairs():
    """Pairs of closures of tails of the tail systems: from 0, 1 and 3 on
    one chain, from 0 on all."""
    for S in tail_systems():
        seeds = [{c: (n, None)} for c in S.chain_order for n in (0, 1, 3)]
        closures = [closure(S, seed) for seed in seeds + [{c: (0, None) for c in S.chain_order}]]
        yield from ((S, U, V) for U in closures for V in closures)


def mass_cases():
    """The chains of the tail systems with non-empty index intervals: in
    the head, across its end, and from the head's end and just past it
    over 1, 2 and 40 blocks, with and without a remainder."""
    for S in tail_systems():
        for c in S.chains.values():
            h, p = len(c.head_weights), c.period
            intervals = [(0, h - 1), (h - 1, h + p)] + [
                (lo, lo + k * p + r - 1) for lo in (h, h + 1) for k in (1, 2, 40)
                for r in (0, p - 1)]
            yield from ((c, lo, hi) for lo, hi in intervals if 0 <= lo <= hi)


def long_head_systems() -> list:
    """Systems whose head extent E = B + 1 passes 5 lcm_period + 4 (all but
    some of B = 12), so that ``rel`` reads rows past horizon + lcm_period,
    where the index tables sized by the period ended: for each zone bound
    B in 12, 30 and 57, two systems of two or three chains of period 1 or
    2, with three zones per chain pair cut at random offsets within B, six
    head entries at random indices up to B (none mirroring another) and
    four row rules, one of them of index 0 reaching B.  All pass
    ``validate_system_rules``."""
    rng, codes, out = seeded(7), (SUB, SUP, TRANS), []
    for B in (12, 30, 57):
        for _ in range(2):
            ids = "HKM"[:rng.randint(2, 3)]
            chains = [Chain(c, p, tuple(Fraction(k + 1, p) for k in range(p)))
                      for c, p in zip(ids, (rng.randint(1, 2) for _ in ids))]
            zones = {}
            for c, d in itertools.combinations(ids, 2):
                a, b = sorted(rng.sample(range(1 - B, B - 1), 2))
                zones[c, d] = (Zone(None, a, rng.choice(codes)),
                               Zone(a + 1, b, rng.choice(codes)),
                               Zone(b + 1, None, rng.choice(codes)))
            head = {}
            for _ in range(6):
                c, d = rng.sample(ids, 2)
                n, m = rng.randint(0, B), rng.randint(0, B)
                if (d, m, c, n) not in head:
                    head[c, n, d, m] = rng.choice(codes)
            rows = []
            for k in range(4):
                c, d = rng.sample(ids, 2)
                lo = rng.randint(0, B)
                hi = B if k == 0 else rng.choice((None, rng.randint(lo, B)))
                rows.append(RowRule(c, 0 if k == 0 else rng.randint(0, B), d,
                                    rng.choice(codes), lo, hi))
            out.append(ChainSystem(chains, zones=zones, rows=rows, head=head, name=f"LONG{B}"))
    assert all(validate_system_rules(S).ok and S.head_extent == B + 1
               for S, B in zip(out, (12, 12, 30, 30, 57, 57)))
    return out


def gap_system(G: int, order: str = "CD") -> ChainSystem:
    """Chains C and D of period 1 and weight 1, listed in ``order``, where
    C_n contains D_m for m >= n, lies in it for m <= n - G and is
    transverse to it between: zones ``sub`` up to offset -G, ``trans`` to
    -1 and ``sup`` from 0 on.  Its head extent G + 1 passes the horizon's
    4 lcm_period + 4 from G = 8 on, so a closure reaches past the horizon."""
    one = (Fraction(1),)
    return ChainSystem([Chain(c, 1, one) for c in order], zones={("C", "D"): (
        Zone(None, -G, SUB), Zone(1 - G, -1, TRANS), Zone(0, None, SUP))}, name=f"GAP{G}")


def spread_triples() -> list:
    """Two systems of chains A, B, C of period 1 whose only failing triples
    lie past depth E = ``head_extent``: A_n contains B_m from offset g on,
    B_m contains C_r from offset g on, and A_n and C_r are transverse (g = 5,
    E = 6, a triple at 0, 5, 10), or contain each other from offset 2g on
    except that a row rule makes A_2g transverse to every C_r (g = 3,
    E = 7, a triple at 6, 9, 12)."""
    one = (Fraction(1),)
    chains = [Chain(c, 1, one) for c in "ABC"]

    def step(g):
        return (Zone(None, g - 1, TRANS), Zone(g, None, SUP))

    return [ChainSystem(chains, zones={("A", "B"): step(5), ("B", "C"): step(5),
                                       ("A", "C"): (Zone(None, None, TRANS),)}, name="SPREAD5"),
            ChainSystem(chains, zones={("A", "B"): step(3), ("B", "C"): step(3),
                                       ("A", "C"): step(6)},
                        rows=[RowRule("A", 6, "C", TRANS)], name="SPREAD3")]


def rel_cases():
    """Per chain pair of the closure, tail and checked systems that pass
    the rule checks, and of the long-head systems: the indices 0 to
    3 head_extent, D = horizon + lcm_period and D + 1, D + E + lcm_period + 1
    (the depth and the length of the index tables sized by the period)
    and 10^9."""
    systems = closure_systems() + tail_systems() + checked_systems()
    for S in [S for S in systems if validate_system_rules(S).ok] + long_head_systems():
        depth = S.horizon + S.lcm_period
        idx = [*range(3 * S.head_extent + 1), depth, depth + 1,
               depth + S.head_extent + S.lcm_period + 1, 10 ** 9]
        yield from ((S, c, d, idx) for c, d in itertools.permutations(S.chain_order, 2))


def _renamed(S: ChainSystem, names: dict) -> ChainSystem:
    """S with chain c renamed ``names[c]``, the chains listed by new name."""
    return ChainSystem(
        sorted((replace(S.chains[c], id=names[c]) for c in S.chain_order), key=lambda c: c.id),
        zones={(names[c], names[d]): zs for (c, d), zs in S.zones.items()},
        rows=[replace(r, chain=names[r.chain], other=names[r.other]) for r in S.rows],
        head={(names[c], n, names[d], m): code for (c, n, d, m), code in S.head.items()})


def unpreserved_cases():
    """Arguments of ``boundary._unpreserved`` as its callers make them, on
    the system fixtures, 12 random and 12 decorated systems that validate.
    As ``validate_shift`` does, one period block from ``min_index`` or the
    head extent on: uniform shifts by one period, by 1000 and by
    -(head_extent + 4) from that ``min_index``; and three random chain
    permutations per system, each with shifts in -3..3 from ``min_index``
    0 to 3 past the largest negative one, with shifts down to
    ``-min_index`` from ``min_index`` = head_extent + 4 (image rows in the
    head), and, on the first 12 systems, with shifts of 0, 997 or 1000.  As
    ``verify_system_map`` does, from the block past both heads and every
    shift: each system to a copy with renamed chains, under the renaming
    and under a random permutation, each unshifted and with shifts in
    0..3; and the corner rotations."""
    rng = seeded(8)
    systems = _system_fixtures() + random_systems(rng, 12, max_chains=4) + random_systems(
        rng, 12, max_chains=4, tries=8, keep=lambda T: validate_system(T).ok)
    for pos, S in enumerate(systems):
        ids, E, L = S.chain_order, S.head_extent, S.lcm_period
        deep = E + 4
        maps = [ShiftMap(dict(zip(ids, ids)), {c: k for c in ids}, max(0, -k))
                for k in (L, 1000, -deep)]
        for _ in range(3):
            tau = dict(zip(ids, rng.sample(ids, len(ids))))
            shift = {c: rng.randint(-3, 3) for c in ids}
            maps.append(ShiftMap(tau, shift, max(0, -min(shift.values())) + rng.randint(0, 3)))
            maps.append(ShiftMap(tau, {c: rng.choice((-deep, 1 - deep, 0, 2)) for c in ids}, deep))
            if pos < 12:
                maps.append(ShiftMap(tau, {c: rng.choice((0, 997, 1000)) for c in ids}))
        for g in maps:
            base = max(g.min_index, E) + L
            yield S, S, g, range(base, base + L)
        names = dict(zip(ids, rng.sample([c.lower() for c in ids], len(ids))))
        T = _renamed(S, names)
        for tau in (names, dict(zip(ids, rng.sample(list(names.values()), len(ids))))):
            for shift in ({c: 0 for c in ids}, {c: rng.randint(0, 3) for c in ids}):
                base = E + max(shift.values())
                yield S, T, ShiftMap(tau, shift), range(base, base + 2 * max(L, T.lcm_period))
    for corner in fx.CORNERS:
        S1, S2 = fx.corner_system(corner), fx.corner_system(fx.corner_rotation(corner)[0])
        yield S1, S2, fx.corner_rotation(corner)[1], range(1, 3)


def _source_chain(rng: random.Random, cid: str) -> Chain:
    """Period 3 or 5, weights 1 or 2; a head of 0 to 3 random weights, or of
    25 that continue the block backwards, the last one raised half the time."""
    p = rng.choice((3, 5))
    block = tuple(Fraction(rng.choice((1, 1, 2))) for _ in range(p))
    head = [Fraction(rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        head = [block[(k - 25) % p] for k in range(25)]
        head[-1] += rng.random() < 0.5
    return Chain(cid, p, block, tuple(head))


def _image_chain(rng: random.Random, c: Chain, s: int, cid: str, period: int,
                 extra: int) -> Chain:
    """A chain whose index k + s weighs what c's index k does, for
    k >= max(0, -s): random weights at the indices below s, a head ending
    ``extra`` past the image of c's head end, and a block of ``period``
    weights read off c from there on."""
    def w(k):
        return c.weight(k - s) if k >= s else Fraction(rng.randint(1, 2))

    h = max(len(c.head_weights) + s + extra, 0)
    return Chain(cid, period, tuple(w(k) for k in range(h, h + period)),
                 tuple(w(k) for k in range(h)))


def system_map_cases():
    """Arguments of ``verify_system_map``: a system of two source chains H
    and K, half of the time with a zone cut in -3..3 on (H, K), mapped to a
    system of chains h and k.  Each image chain weighs at k + s what its
    chain does at k, of the chain's period or the other one of 3 and 5 (two
    sequences of periods 3 and 5 that agree on 5 indices may part at the
    sixth or seventh), with a head that ends where its chain's does, 25
    indices later, or (for a head of 25) 25 earlier; the image zone is
    moved by the spread of the shifts.  Then, each at random: the last head
    weight, the first one compared or one block weight of an image raised,
    the image zone left unmoved.  The shifts of H and K are drawn from 0 and
    ±1..±7, each value of H's 8 times; 8 maps shift both by ±1000; 6 maps
    send both to h.  Last, under uniform shifts in -2..2: a chain of period
    3 or 5 whose image, of the other period, agrees with it on 6 indices
    past both heads and parts at the seventh; and a chain whose last head
    weight, its 25th, breaks its period, with an image that has none of it
    in its head."""
    rng = seeded(9)
    small = [0, *range(1, 8), *range(-7, 0)]
    shifts = [(sH, rng.choice(small)) for sH in small for _ in range(8)]
    shifts += [(k, k) for k in (1000, -1000) for _ in range(4)] + [(0, 0)] * 6
    for pos, (sH, sK) in enumerate(shifts):
        chains = [_source_chain(rng, c) for c in "HK"]
        shift = {"H": sH, "K": sK}
        tau = {"H": "h", "K": "k"} if rng.random() < 0.5 else {"H": "k", "K": "h"}
        images = sorted((_image_chain(
            rng, c, shift[c.id], tau[c.id], c.period if rng.random() < 0.5 else 8 - c.period,
            rng.choice((0, 0, 25) + ((-25,) if len(c.head_weights) == 25 else ())))
            for c in chains), key=lambda c: c.id)
        if rng.random() < 0.3:
            k = rng.randrange(2)
            c, head, block = images[k], list(images[k].head_weights), list(images[k].weights)
            first = max(shift[next(d for d in tau if tau[d] == c.id)], 0)
            where = rng.choice([i for i in (first, len(head) - 1) if first <= i < len(head)] or [None])
            if where is None or rng.random() < 0.3:
                block[rng.randrange(c.period)] += 1
            else:
                head[where] += 1
            images[k] = replace(c, head_weights=tuple(head), weights=tuple(block))
        zones1 = zones2 = {}
        if rng.random() < 0.5:
            a = rng.randint(-3, 3)
            b = a + (sK - sH if rng.random() < 0.75 else 0)
            zones1 = {("H", "K"): (Zone(None, a, SUB), Zone(a + 1, None, TRANS))}
            zones2 = {(tau["H"], tau["K"]): (Zone(None, b, SUB), Zone(b + 1, None, TRANS))}
        if pos >= len(shifts) - 6:
            tau = {"H": "h", "K": "h"}
        yield (ChainSystem(chains, zones=zones1), ChainSystem(images, zones=zones2),
               ShiftMap(tau, shift, max(0, -sH, -sK)))
    block, K = tuple(map(Fraction, (1, 2, 1, 1, 2))), Chain("K", 1, (Fraction(1),))
    late = Chain("H", 3, block[:3], tuple(block[(k - 25) % 3] for k in range(24)) + (Fraction(3),))
    for H, period, extra in ((Chain("H", 3, block[:3], (Fraction(2),)), 5, 0),
                             (Chain("H", 5, block, (Fraction(2),)), 3, 0), (late, 3, -25)):
        for s in (0, 1, 2, -1, -2):
            yield (ChainSystem([H, K]),
                   ChainSystem([_image_chain(rng, H, s, "h", period, extra),
                                _image_chain(rng, K, s, "k", 1, 0)]),
                   ShiftMap({"H": "h", "K": "k"}, {"H": s, "K": s}, max(0, -s)))


def _unit_weights(S: ChainSystem) -> ChainSystem:
    """S with every weight 1, so that every shift map keeps its weights."""
    return ChainSystem(
        [replace(S.chains[c], weights=(Fraction(1),) * S.chains[c].period,
                 head_weights=(Fraction(1),) * len(S.chains[c].head_weights))
         for c in S.chain_order], zones=S.zones, rows=S.rows, head=S.head, name=S.name)


def head_rule_system(rng: random.Random, order: str) -> ChainSystem:
    """Chains A and B, listed in ``order``, of period 1 or 2 and unit
    weights, transverse but for row rules by which B's first h elements,
    h in 3..5, contain every element of A; so a map that moves B's image
    down into its first h elements breaks the relation there alone."""
    h = rng.randint(3, 5)
    chains = {c: Chain(c, p, (Fraction(1),) * p) for c, p in zip("AB", rng.choices((1, 2), k=2))}
    return ChainSystem([chains[c] for c in order],
                       rows=[RowRule("B", i, "A", SUP, 0, None) for i in range(h)],
                       name=f"HEADRULE{h}")


def shift_check_cases():
    """Arguments (S1, S2, g, block) of the shift check: block None for a
    map of one system S1 = S2, which ``validate_shift`` checks, else a
    block of ``_unpreserved`` between two systems.  Those of
    ``unpreserved_cases``; uniform shifts by 1 and 2 on the fixtures and 20
    random systems, whose weights past the head may not keep; three random
    chain permutations with shifts in 0..3 on the same systems with unit
    weights, whose relation may break past the heads; on 24 head-rule
    systems of either chain order, B shifted by -k, k = 6..9, from
    ``min_index`` k and A by 0..2, so that B's image columns or rows (in
    the other order) fall among its first elements; and the system map
    cases that send the chains apart, on ``verify_system_map``'s block."""
    for S1, S2, g, block in unpreserved_cases():
        yield S1, S2, g, None if S1 is S2 else block
    rng = seeded(10)
    systems = _system_fixtures() + random_systems(rng, 20, max_chains=4)
    for S in systems:
        ids = S.chain_order
        for k in (1, 2):
            yield S, S, ShiftMap(dict(zip(ids, ids)), {c: k for c in ids}), None
        U = _unit_weights(S)
        for _ in range(3):
            tau = dict(zip(ids, rng.sample(ids, len(ids))))
            yield U, U, ShiftMap(tau, {c: rng.randint(0, 3) for c in ids}), None
    for pos in range(24):
        S, k = head_rule_system(rng, "AB" if pos % 2 else "BA"), rng.randint(6, 9)
        yield S, S, ShiftMap({"A": "A", "B": "B"}, {"A": rng.randint(0, 2), "B": -k}, k), None
    for S1, S2, g in system_map_cases():
        if len(set(g.tau.values())) == len(g.tau):
            base = max(S1.head_extent, S2.head_extent) + max(map(abs, g.shift.values()))
            yield S1, S2, g, range(base, base + 2 * max(S1.lcm_period, S2.lcm_period))


def differs_cases():
    """Arguments (a, b, intervals) of ``boundary._differs``: two clamped
    profiles of one relation f over the offsets -8..8, read on ranges
    [p0, p1] of width 0..6, one of them changed at one position in a third
    of the cases, and one or two intervals each starting in a range
    (some empty).  f keeps its code from one position to the next with
    probability 0.7, so f often changes at one profile's top; when the
    other's range ends below it, the two differ only at that top and past
    it."""
    rng = seeded(19)
    for _ in range(3000):
        f = [rng.choice((SUB, SUP, TRANS))]
        for _ in range(16):
            f.append(f[-1] if rng.random() < 0.7 else rng.choice((SUB, SUP, TRANS)))
        profiles = []
        for _ in range(2):
            p0 = rng.randint(-8, 2)
            codes = f[p0 + 8:p0 + 8 + rng.randint(0, 6) + 1]
            if rng.random() < 1 / 3:
                codes[rng.randrange(len(codes))] = rng.choice((SUB, SUP, TRANS))
            profiles.append((sum(1 << k for k, c in enumerate(codes) if c == SUB),
                             sum(1 << k for k, c in enumerate(codes) if c == SUP),
                             p0, p0 + len(codes) - 1))
        intervals = []
        for _ in range(rng.randint(1, 2)):
            p0, p1 = rng.choice(profiles)[2:]
            lo = rng.randint(p0, p1)
            intervals.append((lo, lo + rng.randint(-1, 10)))
        yield profiles[0], profiles[1], tuple(intervals)


def _random_zones(rng: random.Random, count: int) -> tuple:
    """A partition of the offsets into ``count`` zones of random codes, cut
    at random offsets in -8..8."""
    cuts = sorted(rng.sample(range(-8, 8), count - 1))
    return tuple(Zone(lo, hi, rng.choice((SUB, SUP, TRANS)))
                 for lo, hi in zip([None] + [b + 1 for b in cuts], cuts + [None]))


def _mirrored(zones: tuple) -> tuple:
    """The zone list of the other order of a pair that agrees with ``zones``."""
    return tuple(Zone(None if z.hi is None else -z.hi, None if z.lo is None else -z.lo,
                      _INVERSE[z.rel]) for z in reversed(zones))


def zone_conflict_cases():
    """(S, c, d) for both orders of the two chains of 200 systems whose
    (H, K) zones are a random partition of 1 to 4 zones, each taken with
    three (K, H) lists: its mirror, which agrees; the mirror with one
    zone's code changed, the lowest zone's one time in four, so the
    conflict lies in that zone's range (for the lowest zone, from
    -horizon on); and another random partition."""
    rng, one = seeded(10), (Fraction(1),)
    chains = [Chain("H", 1, one), Chain("K", 1, one)]
    for _ in range(200):
        zones = _random_zones(rng, rng.randint(1, 4))
        changed = list(_mirrored(zones))
        k = 0 if rng.random() < 0.25 else rng.randrange(len(changed))
        changed[k] = replace(changed[k], rel=rng.choice(
            [code for code in (SUB, SUP, TRANS) if code != changed[k].rel]))
        for other in (_mirrored(zones), tuple(changed), _random_zones(rng, rng.randint(1, 4))):
            S = ChainSystem(chains, zones={("H", "K"): zones, ("K", "H"): other})
            yield from ((S, "H", "K"), (S, "K", "H"))


def uniform_shifts():
    """Pairs of uniform shifts by whole periods on random systems."""
    for S in random_systems(seeded(1), 12, max_chains=4):
        shift = [ShiftMap({c: c for c in S.chain_order},
                          {c: k * S.lcm_period for c in S.chain_order}) for k in range(4)]
        yield from ((S, shift[a], shift[b]) for a, b in ((1, 1), (1, 2), (0, 3)))


def transfer_cases():
    """Arguments (S, U, g) of ``boundary._transfer`` on 40 random systems of
    up to 5 chains, whose weights differ from chain to chain and within a
    period, 40 maps each: a random chain permutation τ (the identity one
    time in four), shifts in -6..6 (both ±1000 one time in ten) from
    ``min_index`` max(0, -least shift) plus 0..3, and a UBS meeting each
    chain in a tail from 0..12 half of the time, in a finite piece a
    quarter of it, with one tail at least.  τ keeps the tails of about
    three in five."""
    rng = seeded(20)
    for S in random_systems(rng, 40, max_chains=5):
        ids = S.chain_order
        for _ in range(40):
            tau = dict(zip(ids, ids if rng.random() < 0.25 else rng.sample(ids, len(ids))))
            big = rng.random() < 0.1
            shift = {c: rng.choice((-1000, 1000)) if big else rng.randint(-6, 6) for c in ids}
            g = ShiftMap(tau, shift, max(0, -min(shift.values())) + rng.randint(0, 3))
            intervals = {}
            for c in ids:
                lo, kind = rng.randint(0, 12), rng.random()
                if kind < 0.75:
                    intervals[c] = (lo, None if kind < 0.5 else lo + rng.randint(0, 5))
            if all(hi is not None for _, hi in intervals.values()):
                intervals[rng.choice(ids)] = (rng.randint(0, 12), None)
            yield S, UBS(intervals), g


# -- order rows: every construction path, maps and halfspace pairs -----------

def order_pocsets() -> list:
    """The pocset fixtures and 40 random pocsets of at most 8 walls."""
    return [fx.pocset(name) for name in fx.POCSET_FIXTURES] + \
        random_pocsets(random.Random(11), 40, 8)


def small_fixtures() -> list:
    return [fx.pocset(name) for name in list(fx.POCSET_FIXTURES)[:4]]


def products() -> list:
    """Ten products of three random pocsets of at most 4 walls."""
    return [pocset_product(random_pocsets(random.Random(seed), 3, 4)) for seed in range(10)]


def child_cases() -> list:
    """The order pocsets, and the children of 8 random pocsets, whose own
    children are then children of children."""
    return [(P,) for P in order_pocsets() +
            [subdivide(P).child for P in random_pocsets(random.Random(12), 8, 5)]]


def rank_cases() -> list:
    """Pocsets of at most 12 walls with a transverse pair, each with where
    it comes from: 20 products of two or three random trees, each factor
    one class of twins; out of 200 random pocsets, the children of the
    first 20 of at most 6 walls, whose walls come in twin pairs, and those
    whose walls with a transverse partner have pairwise distinct rows."""
    rng = seeded(27)
    products = []
    while len(products) < 20:
        trees = random_trees(rng, rng.randint(2, 3), 5)
        if sum(T.wall_count for T in trees) <= 12:
            products.append((pocset_product(trees), "tree product"))
    children, twin_free = [], []
    for P in random_pocsets(rng, 200, max_walls=12, max_points=64):
        active = [row for row in transversality_pairwise(P)[0] if row]
        if active and P.wall_count <= 6 and len(children) < 20:
            children.append((subdivide(P).child, "subdivision child"))
        if active and len(set(active)) == len(active):
            twin_free.append((P, "twin-free random"))
    return products + children + twin_free


def product_cases() -> list:
    """Products of 1, 2, 3 and 12 random pocsets under the default prefixes
    (twelve sort as f0., f1., f10., f11., f2., ...), and of TRIPOD and PATH3
    under two given ones."""
    rng = random.Random(13)
    out = [(random_pocsets(rng, count, 4), None) for count in (1, 2, 3, 12)]
    return out + [([fx.pocset("TRIPOD"), fx.pocset("PATH3")], ["y.", "x."])]


def _relabelled(P, rng):
    """P with unit weights and its halfspaces renamed at random, so that
    the search meets the walls in another order and from either side."""
    names = list(P.ids)
    rng.shuffle(names)
    new = {h: f"x{k:02d}" for k, h in enumerate(names)}
    return WeightedPocset([(new[a], new[b], Fraction(1)) for a, b, _ in wall_list(P)],
                          [(new[a], new[b]) for a, b in pair_order(P)])


def automorphism_cases() -> list:
    """Four fixtures, 30 random pocsets, 8 products and 120 relabelled
    random pocsets."""
    rng = random.Random(14)
    cases = small_fixtures() + random_pocsets(random.Random(15), 30, 8)
    cases += [pocset_product(random_pocsets(random.Random(seed), 2, 3)) for seed in range(8)]
    cases += [_relabelled(P, rng) for P in random_pocsets(random.Random(16), 120, 7)]
    return [(P,) for P in cases]


def _scrambles(P, rng):
    """Maps of P: random permutations, star-commuting weight-keeping wall
    shuffles (which may break order), collisions, and restrictions of these
    to random walls, or to all but one halfspace."""
    out = []
    for _ in range(6):
        perm = list(range(P.n))
        rng.shuffle(perm)
        out.append(perm)
        by_weight = {}
        for i, j in P.walls:
            by_weight.setdefault(P.weight[i], []).append((i, j))
        perm = [None] * P.n
        for group in by_weight.values():
            images = group[:]
            rng.shuffle(images)
            for (i, j), (k, l) in zip(group, images):
                k, l = (k, l) if rng.random() < 0.5 else (l, k)
                perm[i], perm[j] = k, l
        out.append(perm)
        if P.n > 2:
            clash = perm[:]
            clash[0] = clash[1]
            out.append(clash)
    for perm in list(out):
        part = perm[:]
        for i, j in P.walls:
            if rng.random() < 0.4:
                part[i] = part[j] = None
        out.append(part)
        one_sided = perm[:]
        one_sided[rng.randrange(P.n)] = None
        out.append(one_sided)
    return out


def map_cases():
    """The scrambles and automorphisms of four fixtures and 30 random
    pocsets; then each window generator (the only maps of pocsets with more
    than 8 walls), and the generator with the images of two incomparable
    walls swapped, which breaks order."""
    rng = random.Random(16)
    for P in small_fixtures() + random_pocsets(random.Random(17), 30, 8):
        yield from ((P, perm) for perm in _scrambles(P, rng) + [list(g.perm)
                                                               for g in automorphisms(P)])
    for g in (g for name in fx.WINDOW_FIXTURES for g in fx.window(name).gens.values()):
        P, broken = g.pocset, list(g.perm)
        a = next(i for i, b in enumerate(broken) if b is not None)
        c = next(i for i, b in enumerate(broken) if b is not None and not P.leq_idx(a, i)
                 and not P.leq_idx(i, a) and P.star[i] != a)
        broken[a], broken[c] = broken[c], broken[a]
        sa, sc = P.star[a], P.star[c]
        broken[sa], broken[sc] = broken[sc], broken[sa]
        yield from ((P, list(g.perm)), (P, broken))


def lift_cases():
    """Every automorphism of the pocsets of ``automorphism_cases``, all
    within ``aut_walls``; then the total scrambles of four fixtures and 30
    random pocsets, most of them no automorphism."""
    for (P,) in automorphism_cases():
        yield from ((P, list(g.perm)) for g in automorphisms(P))
    rng = random.Random(18)
    for P in small_fixtures() + random_pocsets(random.Random(19), 30, 8):
        yield from ((P, perm) for perm in _scrambles(P, rng) if None not in perm)


def convex_pairs():
    """On four fixtures and 40 random pocsets, 20 times a pair of random
    convex sets and a pair of points."""
    rng = random.Random(24)
    for P in small_fixtures() + random_pocsets(random.Random(25), 40, 8):
        pts = points(P)
        for _ in range(20):
            A = ConvexSet(P, rng.sample(pts, rng.randint(1, len(pts))))
            B = ConvexSet(P, rng.sample(pts, rng.randint(1, len(pts))))
            yield from ((P, A, B), (P, rng.choice(pts), rng.choice(pts)))


def four_wall_paths() -> list:
    """An irreducible pocset with h0 three non-transversality steps from
    h3, and its product with SQUARE."""
    path = WeightedPocset([(f"h{i}", f"h{i}*", Fraction(1)) for i in range(4)],
                          [("h2", "h0"), ("h2", "h1"), ("h3", "h1")])
    return [path, pocset_product([path, fx.pocset("SQUARE")])]


def halfspace_pairs(seed: int, extra=()):
    """On the order pocsets, 60 random pocsets, the products and ``extra``:
    every ordered pair of halfspaces of a pocset of at most 40, else 400
    pairs drawn from a generator seeded ``seed``."""
    rng = random.Random(seed)
    for P in order_pocsets() + random_pocsets(random.Random(18), 60, 8) + products() + \
            list(extra):
        if P.n <= 40:
            yield from ((P, h, k) for h in P.ids for k in P.ids)
        else:
            yield from ((P, rng.choice(P.ids), rng.choice(P.ids)) for _ in range(400))


def _unit_walls(*names):
    return [(h, h + "*", Fraction(1)) for h in names]


def invalid_pair_inputs(seed: int, count: int) -> list:
    """Pair input breaking the axioms: cycles, a halfspace below or above
    its complement, a lone fixed-point wall, non-positive weights, and
    random pocsets with one to three random pairs added."""
    out = [
        WeightedPocset(_unit_walls("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")]),
        WeightedPocset(_unit_walls("a", "b"), [("a", "b"), ("b", "a*")]),
        WeightedPocset(_unit_walls("a", "b"), [("a", "a*")]),
        WeightedPocset(_unit_walls("a", "b"), [("a*", "a"), ("b", "a")]),
        WeightedPocset([("a", "a", Fraction(1))]),
        WeightedPocset([("a", "a", Fraction(1))] + _unit_walls("b"), [("b", "a")]),
        WeightedPocset([("a", "a*", Fraction(0)), ("b", "b*", Fraction(-2)),
                        ("c", "c*", Fraction(1, 2))], [("a", "b")]),
    ]
    rng = random.Random(seed)
    for P in random_pocsets(random.Random(seed), count, 6):
        extra = [(rng.choice(P.ids), rng.choice(P.ids)) for _ in range(rng.randint(1, 3))]
        out.append(WeightedPocset(wall_list(P), pair_order(P) + extra))
    return out


def construction_cases() -> list:
    """Pocsets from every construction path: pair input (valid and
    invalid), subdivisions (F2BALL's too, of 640 halfspaces),
    subdivisions of subdivisions, factors, products, and a product of
    irreducible factors (each one its own factor, so the product reads
    the rows of pair-built pocsets) under prefixes that sort the parts
    backwards, so that the product's index reorders the concatenation."""
    base = order_pocsets() + random_pocsets(random.Random(21), 40, 8)
    prods = products()
    out = base + prods + invalid_pair_inputs(22, 80)
    out += [subdivide(P).child for P in base if P.n <= 40]
    out.append(subdivide(fx.pocset("F2BALL")).child)
    out += [subdivide(subdivide(P).child).child
            for P in random_pocsets(random.Random(23), 5, 4)]
    irreducible = [F for T in random_trees(random.Random(24), 4, 6) + [fx.pocset("TRIPOD")]
                   for F in decompose(T).factors]
    out.append(pocset_product(irreducible, [f"p{k}." for k in range(len(irreducible), 0, -1)]))
    return out + [F for P in base + prods for F in decompose(P).factors]


# -- pair input and reports -----------------------------------------------------

def f2ball_generating_pairs() -> list:
    """F2BALL's generating pairs, as its fixture gives them: each cone in
    its parent's cone, and out of each sibling's."""
    cones = fx._f2_vertices(fx.F2_RADIUS)[1:]
    order = [("w" + v + "+", "w" + v[:-1] + "+") for v in cones if len(v) > 1]
    order += [("w" + v + "+", "w" + u + "-") for v in cones for u in cones
              if u != v and u[:-1] == v[:-1]]
    return order


def pair_input_cases() -> list:
    """(kind, walls, order) pair input: the closed order of each order
    pocset (F2BALL's 25,440 pairs among them) shuffled, shuffled with a
    third of its pairs repeated, and with one pair kept of each couple of
    star reversals; F2BALL's 480 generating pairs and its closed order as
    it stands."""
    rng = seeded(30)
    out = []
    for P in order_pocsets():
        walls, pairs = wall_list(P), pair_order(P)
        star = {P.ids[i]: P.ids[j] for i, j in enumerate(P.star)}
        out.append(("shuffled", walls, rng.sample(pairs, len(pairs))))
        repeated = pairs + rng.choices(pairs, k=len(pairs) // 3) if pairs else []
        out.append(("repeated", walls, rng.sample(repeated, len(repeated))))
        out.append(("star-incomplete", walls,
                    [(a, b) for a, b in pairs if rng.choice(((a, b), (star[b], star[a])))
                     == (a, b)]))
    F = fx.pocset("F2BALL")
    out.append(("F2BALL generating", wall_list(F), f2ball_generating_pairs()))
    out.append(("F2BALL closed", wall_list(F), pair_order(F)))
    return out


# strings with the characters JSON escapes or that a format would read
REPORT_STRINGS = ("h1", "a*", "wab+", 'say "hi"', "back\\slash", "tab\there\nline\x1f",
                  "café ∂ 𝔥", "100% %s", "")


def _report_value(rng: random.Random, depth: int):
    """A report value of one of ten shapes; containers nest to depth 4."""
    def strings(k):
        return [rng.choice(REPORT_STRINGS) for _ in range(k)]

    shape = rng.randrange(10 if depth < 4 else 3)
    if shape == 0:
        return rng.choice(REPORT_STRINGS)
    if shape == 1:
        return rng.choice((0, 1, -12, 10 ** 20, True, False, None, [True, 1], [0, False, 1]))
    if shape == 2:
        return rng.choice((0.5, 1e-07, -0.0, float("nan"), float("inf"), -float("inf")))
    if shape == 3:
        return strings(rng.randrange(5))
    if shape == 4:  # rows of one length, a few of them tuples
        k = rng.randint(1, 3)
        return [strings(k) if rng.random() < 0.8 else tuple(strings(k))
                for _ in range(rng.randint(1, 4))]
    if shape == 5:  # ragged rows, or rows one of which holds a non-string
        rows = [strings(rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            rows[rng.randrange(len(rows))][0] = rng.choice((1, 7, True, None))
        return rows
    if shape == 6:
        return {h: _report_value(rng, depth + 1) for h in strings(rng.randrange(4))}
    if shape == 7:  # keys of one sortable kind other than str
        keys = rng.choice(([2, 1, 10], [0.5, -1.0], [None], [True, False]))
        return {k: _report_value(rng, depth + 1) for k in keys[:rng.randint(1, len(keys))]}
    items = [_report_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return tuple(items) if shape == 8 else items


def report_cases() -> list:
    """600 report-like trees: a command name and a random verdict."""
    rng = seeded(31)
    return [({"command": rng.choice(REPORT_STRINGS), "verdict": _report_value(rng, 1)},)
            for _ in range(600)]
