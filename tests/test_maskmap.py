"""Every user of ``pocset.MaskMap`` against a per-bit reference kept here.

The references are the loops the mask maps and the weight groups replaced:
one step per set bit or per wall.  Inputs are seeded random pocsets with
mixed wall weights and the F2BALL and LINE windows.
"""

import pickle
import random
from fractions import Fraction

from mediankit import actions as ac
from mediankit import fixtures as fx
from mediankit import randomgen as rg
from mediankit.pocset import (
    Point, convex_hull, distance, gate_project, is_ultrafilter, points)
from mediankit.structure import Automorphism, automorphisms
from mediankit.subdivision import subdivide


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def ref_distance(P, x, y):
    total = Fraction(0)
    for i, _ in P.walls:
        if (x.mask ^ y.mask) >> i & 1:
            total += P.weight[i]
    return total


def ref_embed(S, p):
    mask = 0
    for i in bits(p.mask):
        minus, plus = S.copies[i]
        mask |= 1 << minus | 1 << plus
    return mask


def ref_gate(P, C, x):
    mask = 0
    for i, j in P.walls:
        if C.sigma >> i & 1:
            mask |= 1 << i
        elif C.sigma >> j & 1:
            mask |= 1 << j
        else:
            mask |= x.mask & (1 << i | 1 << j)
    return mask


def ref_preimage(S, q):
    mask = 0
    for i, j in S.parent.walls:
        for side in (i, j):
            minus, plus = S.copies[side]
            if q.mask >> minus & 1 and q.mask >> plus & 1:
                mask |= 1 << side
                break
        else:
            return None
    return mask


def ref_star(P, mask):
    out = 0
    for i in bits(mask):
        out |= 1 << P.star[i]
    return out


def ref_is_ultrafilter(P, mask):
    if any(mask >> i & 1 == mask >> j & 1 for i, j in P.walls):
        return False
    return all(P.up[b] & ~mask == 0 for b in bits(mask))


def ref_points(P):
    """Wall-by-wall backtracking with the star images taken bit by bit."""
    out = []

    def rec(w, chosen, banned):
        while w < len(P.walls) and any(chosen >> s & 1 for s in P.walls[w]):
            w += 1
        if w == len(P.walls):
            out.append(chosen)
            return
        for side in P.walls[w]:
            forced = P.up[side]
            if not (banned >> side & 1 or forced & banned):
                rec(w + 1, chosen | forced, banned | ref_star(P, forced))

    rec(0, 0, 0)
    return sorted(out)


def ref_image(g, p):
    """The up-closure of the defined images: (mask, outcome)."""
    P = g.pocset
    closed = 0
    for i in bits(p.mask):
        if g.perm[i] is not None:
            closed |= P.up[g.perm[i]]
    sides = [(closed >> i & 1) + (closed >> j & 1) for i, j in P.walls]
    if 2 in sides:
        return closed, "inconsistent"
    if 0 in sides:
        return closed, "outside"
    return closed, "point"


def inputs():
    rng = random.Random(20261018)
    out = [rg.random_pocset(rng, max_walls=9, max_points=14) for _ in range(40)]
    return out + [fx.window("F2BALL").pocset, fx.window("LINE").pocset]


POCSETS = inputs()


def sample(rng, seq, k):
    return list(seq) if len(seq) <= k else rng.sample(list(seq), k)


def test_random_inputs_mix_weights():
    assert sum(len({P.weight[i] for i, _ in P.walls}) > 1 for P in POCSETS) >= 20


def test_points_distance_embed_and_ultrafilters_match_per_bit():
    rng = random.Random(11)
    verdicts = set()  # (is an ultrafilter, has one side of every wall)
    for P in POCSETS:
        pts = points(P, fx.WINDOW_BUDGETS)
        assert [p.mask for p in pts] == ref_points(P)
        for x in sample(rng, pts, 12):
            for y in sample(rng, pts, 12):
                assert distance(P, x, y) == ref_distance(P, x, y)
        for _ in range(5):
            C = convex_hull(P, sample(rng, pts, 2), fx.WINDOW_BUDGETS)
            for x in sample(rng, pts, 5):
                assert gate_project(P, C, x).mask == ref_gate(P, C, x)
        S = subdivide(P)
        for p in pts:
            assert S.embed(p).mask == ref_embed(S, p)
            assert S.preimage(S.embed(p)) == p
        if P.wall_count <= 9:
            for q in points(S.child):
                got = S.preimage(q)
                assert (got and got.mask) == ref_preimage(S, q)
        # non-ultrafilters: random masks, and points with one wall turned
        # over, a side added or a side dropped
        masks = [rng.getrandbits(P.n) for _ in range(30)]
        for p in sample(rng, pts, 10):
            i, j = rng.choice(P.walls)
            masks += [p.mask ^ (1 << i | 1 << j), p.mask | 1 << i | 1 << j,
                      p.mask & ~(1 << i)]
        for m in masks + [p.mask for p in pts]:
            assert P.star_map(m) == ref_star(P, m)
            assert is_ultrafilter(P, m) == ref_is_ultrafilter(P, m)
            verdicts.add((ref_is_ultrafilter(P, m),
                          ref_star(P, m) == ((1 << P.n) - 1) ^ m))
    assert verdicts == {(True, True), (False, True), (False, False)}


def partial_maps(P, rng):
    """Checked total and window maps, the restrictions of the total ones to
    random walls, and unchecked scrambles whose images can be inconsistent."""
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


def test_apply_point_matches_per_bit_on_total_and_partial_maps():
    rng = random.Random(7)
    seen = {"point": 0, "inconsistent": 0, "outside": 0}
    total_points = 0
    for P in POCSETS[:-2]:
        pts = points(P)
        for g in partial_maps(P, rng):
            for p in pts:
                closed, outcome = ref_image(g, p)
                q = g.apply_point(p)
                assert (q and q.mask) == (closed if outcome == "point" else None)
                seen[outcome] += 1
                total_points += None not in g.perm and outcome == "point"
    for name in ("F2BALL", "LINE"):
        action = fx.window(name)
        pts = action.points()
        ev = ac._evaluator(action)
        for word in ac.enumerate_words(action.gen_names(), 2):
            g = ev(word)
            for p in pts:
                closed, outcome = ref_image(g, p)
                q = g.apply_point(p)
                assert (q and q.mask) == (closed if outcome == "point" else None)
                seen[outcome] += 1
    assert total_points and all(seen.values()), seen


def test_is_lineal_matches_per_bit_star_images():
    for P in POCSETS[:-2]:
        pts = points(P)
        masks = {p.mask for p in pts}
        want = [(p.mask, ref_star(P, p.mask)) for p in pts
                if ref_star(P, p.mask) in masks and p.mask < ref_star(P, p.mask)]
        got = [(x.mask, y.mask) for x, y in ac.is_lineal(P).pairs]
        assert got == want


def test_values_with_filled_memos_still_pickle():
    action = fx.window("LINE")
    S = subdivide(action.pocset)
    pts = action.points()
    images = [(g.apply_point(p), S.embed(p)) for g in action.gens.values() for p in pts]
    action2, S2 = pickle.loads(pickle.dumps((action, S)))
    images2 = [(g.apply_point(Point(action2.pocset, p.mask)),
                S2.embed(Point(S2.parent, p.mask)))
               for g in action2.gens.values() for p in pts]
    assert [(q and q.mask, e.mask) for q, e in images] == \
        [(q and q.mask, e.mask) for q, e in images2]
