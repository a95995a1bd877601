"""Order rows of derived pocsets and mask comparisons against the pair code
they replaced, kept here.

The references are the earlier implementations: subdivision children,
decomposition factors and products built from name pairs through the pair
constructor (and so closed by Warshall), ``down`` rows by transposing
``up``, the automorphism search whose ``extend_ok`` compared the order pair
by pair, ``Automorphism.check``'s all-pairs order walk, ``dump_pocset``'s
n² order scan and the pairwise transversality test.  Inputs are the five
pocset fixtures and seeded random pocsets with mixed wall weights.
"""

import random
from fractions import Fraction

import pytest

from mediankit import fixtures as fx
from mediankit import randomgen as rg
from mediankit.errors import NotAnAutomorphism
from mediankit.pocset import WeightedPocset
from mediankit.serialize import dump_pocset
from mediankit.structure import (
    Automorphism, _transversality_adjacency, automorphisms, decompose,
    pocset_product, transverse)
from mediankit.subdivision import subdivide


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def random_pocsets(seed, count, max_walls=8):
    rng = random.Random(seed)
    return [rg.random_pocset(rng, max_walls=max_walls) for _ in range(count)]


def pocsets():
    return [fx.pocset(name) for name in fx.POCSET_FIXTURES] + random_pocsets(11, 40)


def wall_list(P):
    return [(P.ids[i], P.ids[j], P.weight[i]) for i, j in P.walls]


def pair_order(P):
    return [(P.ids[i], P.ids[j]) for i in range(P.n) for j in range(P.n)
            if i != j and P.leq_idx(i, j)]


def assert_same_pocset(Q, R):
    assert Q.ids == R.ids and Q.star == R.star and Q.weight == R.weight
    assert Q.walls == R.walls and Q.wall_ids == R.wall_ids
    assert Q.up == R.up and Q.down == R.down


# -- references -------------------------------------------------------------

def ref_down(P):
    down = [0] * P.n
    for i in range(P.n):
        for j in bits(P.up[i]):
            down[j] |= 1 << i
    return tuple(down)


def ref_child(P):
    walls, order, wall_ids = [], [], []
    for i in range(P.n):
        h, hs = P.ids[i], P.ids[P.star[i]]
        if i < P.star[i]:
            walls += [(h + "-", hs + "+", P.weight[i] / 2), (h + "+", hs + "-", P.weight[i] / 2)]
            wall_ids += [h + "-", h + "+"]
        order.append((h + "-", h + "+"))
        for j in bits(P.up[i] & ~(1 << i)):
            order += [(h + a, P.ids[j] + b) for a in "-+" for b in "-+"]
    return WeightedPocset(walls, order, wall_ids=wall_ids)


def ref_factor(P, F):
    """The factor with F's halfspaces, built from P's name pairs."""
    ids = set(F.ids)
    order = [(a, b) for a in ids for b in ids if a != b and P.leq(a, b)]
    return WeightedPocset(wall_list(F), order, wall_ids=F.wall_ids)


def ref_product(parts, prefixes):
    walls, order, wall_ids = [], [], []
    for pref, Q in zip(prefixes, parts):
        walls += [(pref + a, pref + b, w) for a, b, w in wall_list(Q)]
        wall_ids += [pref + w for w in Q.wall_ids]
        order += [(pref + a, pref + b) for a, b in pair_order(Q)]
    return WeightedPocset(walls, order, wall_ids=wall_ids)


def incomparable(P, i, j):
    return not (P.leq_idx(i, j) or P.leq_idx(j, i))


def ref_adjacency(P):
    reps = [i for i, _ in P.walls]
    adj = [0] * len(reps)
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            i, k = reps[a], reps[b]
            if incomparable(P, i, k) and incomparable(P, i, P.star[k]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def ref_automorphisms(P):
    """The search with the pair-by-pair ``extend_ok``; sorted permutations."""
    reps = [i for i, _ in P.walls]
    found = []
    perm = [None] * P.n

    def extend_ok(i, gi):
        for j in range(P.n):
            gj = perm[j]
            if gj is not None and (P.leq_idx(i, j) != P.leq_idx(gi, gj)
                                   or P.leq_idx(j, i) != P.leq_idx(gj, gi)):
                return False
        return True

    def rec(w, used):
        if w == len(reps):
            found.append(tuple(perm))
            return
        i = reps[w]
        for wb, k in enumerate(reps):
            if used >> wb & 1 or P.weight[i] != P.weight[k]:
                continue
            for gi in (k, P.star[k]):
                if extend_ok(i, gi) and extend_ok(P.star[i], P.star[gi]):
                    perm[i], perm[P.star[i]] = gi, P.star[gi]
                    rec(w + 1, used | 1 << wb)
                    perm[i] = perm[P.star[i]] = None

    rec(0, 0)
    return sorted(found)


def ref_check(g):
    """The message the all-pairs check raised, or None."""
    P, perm = g.pocset, g.perm
    domain = [a for a, b in enumerate(perm) if b is not None]
    if len({perm[a] for a in domain}) != len(domain):
        return f"{g.name}: not injective"
    for a in domain:
        b = perm[a]
        if perm[P.star[a]] != P.star[b]:
            return f"{g.name}: does not commute with star"
        if P.weight[a] != P.weight[b]:
            return f"{g.name}: does not preserve weights"
    for a in domain:
        for c in domain:
            if P.leq_idx(a, c) != P.leq_idx(perm[a], perm[c]):
                return f"{g.name}: does not preserve order"
    return None


def verdict(g):
    try:
        g.check()
    except NotAnAutomorphism as exc:
        return str(exc)
    return None


# -- tests ------------------------------------------------------------------

def test_pair_input_down_rows_are_the_transpose():
    for P in pocsets():
        assert P.down == ref_down(P)
        assert_same_pocset(WeightedPocset.from_rows(wall_list(P), P.up, P.wall_ids), P)


def test_subdivision_child_rows_match_the_pair_built_child():
    for P in pocsets():
        S = subdivide(P)
        ref = ref_child(P)
        assert_same_pocset(S.child, ref)
        assert S.copies == tuple((ref.index[h + "-"], ref.index[h + "+"]) for h in P.ids)


def test_subdivision_of_a_subdivision_matches():
    for P in random_pocsets(12, 8, max_walls=5):
        child = subdivide(P).child
        assert_same_pocset(subdivide(child).child, ref_child(child))


def test_factor_rows_match_pair_built_factors():
    products = [pocset_product(random_pocsets(seed, 3, max_walls=4)) for seed in range(10)]
    for P in pocsets() + products:
        D = decompose(P)
        assert sorted(h for F in D.factors for h in F.ids) == sorted(P.ids)
        for fi, F in enumerate(D.factors):
            # comparable walls are not transverse, so they share a factor
            members = sum(1 << P.index[h] for h in F.ids)
            assert all(P.up[P.index[h]] & ~members == 0 for h in F.ids)
            assert_same_pocset(F, ref_factor(P, F))
            assert all(D.assignment[h] == (fi, h) for h in F.ids)


def test_product_rows_match_the_pair_built_product():
    rng = random.Random(13)
    for count in (1, 2, 3, 12):
        parts = [rg.random_pocset(rng, max_walls=4) for _ in range(count)]
        # twelve default prefixes sort as f0., f1., f10., f11., f2., ...
        prefixes = [f"f{i}." for i in range(count)]
        assert_same_pocset(pocset_product(parts), ref_product(parts, prefixes))
    parts = [fx.pocset("TRIPOD"), fx.pocset("PATH3")]
    assert_same_pocset(pocset_product(parts, ["y.", "x."]), ref_product(parts, ["y.", "x."]))


def test_transversality_matches_pairwise():
    for P in pocsets():
        assert _transversality_adjacency(P) == ref_adjacency(P)
        if P.n <= 40:
            for i in range(P.n):
                for j in range(P.n):
                    ref = i != j and P.star[i] != j and incomparable(P, i, j) \
                        and incomparable(P, i, P.star[j])
                    assert transverse(P, P.ids[i], P.ids[j]) == ref


def test_dump_pocset_order_matches_the_pair_scan():
    for P in pocsets():
        assert dump_pocset(P)["order"] == sorted([a, b] for a, b in pair_order(P))


def relabelled(P, rng):
    """P with unit weights and its halfspaces renamed at random, so that
    the search meets the walls in another order and from either side."""
    names = list(P.ids)
    rng.shuffle(names)
    new = {h: f"x{k:02d}" for k, h in enumerate(names)}
    return WeightedPocset([(new[a], new[b], Fraction(1)) for a, b, _ in wall_list(P)],
                          [(new[a], new[b]) for a, b in pair_order(P)])


def test_automorphisms_match_the_pairwise_search():
    rng = random.Random(14)
    cases = [fx.pocset(name) for name in ("SQUARE", "PATH3", "TRIPOD", "GRID")]
    cases += random_pocsets(15, 30)
    cases += [pocset_product(random_pocsets(seed, 2, max_walls=3)) for seed in range(8)]
    cases += [relabelled(P, rng) for P in random_pocsets(16, 120, max_walls=7)]
    for P in cases:
        assert [g.perm for g in automorphisms(P)] == ref_automorphisms(P), P


def scrambles(P, rng):
    """Maps of P: random permutations, star-commuting weight-keeping wall
    shuffles (which may break order), collisions, and restrictions of these
    to random walls, or to single halfspaces."""
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


def test_check_verdicts_match_the_pairwise_walk():
    rng = random.Random(16)
    messages = set()
    for P in pocsets()[:4] + random_pocsets(17, 30):
        maps = scrambles(P, rng) + [list(g.perm) for g in automorphisms(P)]
        for perm in maps:
            g = Automorphism(P, perm, "g")
            assert verdict(g) == ref_check(g), (P, perm)
            messages.add(verdict(g))
    assert messages == {None, "g: not injective", "g: does not commute with star",
                        "g: does not preserve weights", "g: does not preserve order"}


@pytest.mark.parametrize("name", fx.WINDOW_FIXTURES)
def test_window_generators_pass_both_checks(name):
    for g in fx.window(name).gens.values():
        assert verdict(g) is None and ref_check(g) is None
        P = g.pocset
        broken = list(g.perm)
        a = next(i for i, b in enumerate(broken) if b is not None)
        c = next(i for i, b in enumerate(broken) if b is not None and not P.leq_idx(a, i)
                 and not P.leq_idx(i, a) and P.star[i] != a)
        broken[a], broken[c] = broken[c], broken[a]
        sa, sc = P.star[a], P.star[c]
        broken[sa], broken[sc] = broken[sc], broken[sa]
        h = Automorphism(P, broken, "h")
        assert verdict(h) == ref_check(h) == "h: does not preserve order"
