"""Order rows of derived pocsets and mask comparisons against the pair code
they replaced, kept here.

The references are the earlier implementations: subdivision children,
decomposition factors and products built from name pairs through the pair
constructor (and so closed by Warshall), ``down`` rows by transposing
``up``, the automorphism search whose ``extend_ok`` compared the order pair
by pair, ``Automorphism.check``'s all-pairs order walk, ``dump_pocset``'s
n² order scan, the pairwise transversality test, the per-wall and
per-halfspace loops of ``strongly_separated``, ``sector_halfspace`` and
``separating``, and ``validate``'s pair-by-pair order walk with its three
checks that construction makes unreachable and its four point-level checks
that the order axioms make unreachable.  Inputs are the five pocset
fixtures and seeded random pocsets with mixed wall weights, and for
``validate`` also their derived pocsets and invalid pair input.
"""

import random
from fractions import Fraction

import pytest

from mediankit import fixtures as fx
from mediankit import randomgen as rg
from mediankit.actions import SectorResult, sector_halfspace, strongly_separated
from mediankit.config import DEFAULT_BUDGETS
from mediankit.errors import NotAnAutomorphism, NotTransverse
from mediankit.pocset import (
    ConvexSet, WeightedPocset, halfspace_point_masks, points, separating, validate)
from mediankit.serialize import dump_pocset
from mediankit.structure import (
    Automorphism, _transversality_adjacency, automorphisms, decompose,
    pocset_product, transverse)
from mediankit.subdivision import subdivide


def bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def random_pocsets(seed, count, max_walls=8):
    return rg.random_pocsets(random.Random(seed), count, max_walls)


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


def ref_strongly_separated(P, h, k):
    """Disjointness, then no wall transverse to both, wall by wall."""
    hi, ki = P.idx(h), P.idx(k)
    if not P.leq_idx(hi, P.star[ki]):
        return False
    for j, _ in P.walls:
        jid = P.ids[j]
        if jid in (h, k) or P.star[j] in (hi, ki):
            continue
        if transverse(P, jid, h) and transverse(P, jid, k):
            return False
    return True


def ref_sector_halfspace(P, h, k, fallbacks):
    """The sector scan halfspace by halfspace, and the partition from the
    non-transversals of h pair by pair, confirmed factor by factor; where
    that fails, the kind of the factor-based answer goes to ``fallbacks``."""
    if not transverse(P, h, k):
        raise NotTransverse(f"{h} and {k} are not transverse")
    hi, ki = P.idx(h), P.idx(k)
    four = {hi, P.star[hi], ki, P.star[ki]}
    for s1 in (hi, P.star[hi]):
        for s2 in (ki, P.star[ki]):
            for j in range(P.n):
                if j not in four and P.leq_idx(j, s1) and P.leq_idx(j, s2):
                    return SectorResult("HALFSPACE", halfspace=P.ids[j],
                                        sector=(P.ids[s1], P.ids[s2]))
    not_trans_h = {j for j in range(P.n) if not transverse(P, P.ids[j], h)}
    part1 = {j for j in range(P.n)
             if any(P.leq_idx(j, b) or P.leq_idx(b, j) for b in not_trans_h)}
    part2 = set(range(P.n)) - part1
    ids1 = tuple(sorted(P.ids[j] for j in part1))
    ids2 = tuple(sorted(P.ids[j] for j in part2))
    D = decompose(P)
    by_factor = {}
    for hid in P.ids:
        by_factor.setdefault(D.assignment[hid][0], set()).add(hid)
    union_check = set()
    for ids in by_factor.values():
        if ids <= set(ids1):
            union_check |= ids
    if part2 and union_check == set(ids1):
        return SectorResult("PRODUCT", partition=(ids1, ids2))
    # the envelope was degenerate or cut a factor, which the earlier code
    # raised as an internal error: h's and k's factors decide
    fh, fk = D.assignment[h][0], D.assignment[k][0]
    res = SectorResult("NEITHER") if fh == fk else SectorResult(
        "PRODUCT", partition=(tuple(sorted(by_factor[fh])),
                              tuple(sorted(set(P.ids) - by_factor[fh]))))
    fallbacks.append(res.kind)
    return res


def ref_validate(P, budgets=DEFAULT_BUDGETS):
    """``validate`` as it was: the axioms pair by pair through ``leq_idx``,
    with the involution, star-reversal and wall-weight checks, and the
    empty, full, faithfulness and transversality checks on point sets."""
    rep = {"ok": True, "failures": [], "notes": []}

    def fail(code, detail):
        rep["ok"] = False
        rep["failures"].append({"code": code, "detail": detail})

    n = P.n
    for i in range(n):
        if P.star[i] == i:
            fail("STAR_FIXED_POINT", f"{P.ids[i]} is its own complement")
        if P.star[P.star[i]] != i:
            fail("STAR_NOT_INVOLUTION", P.ids[i])
    for i in range(n):
        si = P.star[i]
        if si != i and (P.leq_idx(i, si) or P.leq_idx(si, i)):
            fail("COMPARABLE_WITH_COMPLEMENT", f"{P.ids[i]} is comparable with {P.ids[si]}")
    for i in range(n):
        for j in bits(P.up[i]):
            if i != j and P.leq_idx(j, i):
                fail("NOT_ANTISYMMETRIC", f"{P.ids[i]} <= {P.ids[j]} <= {P.ids[i]}")
            if not P.leq_idx(P.star[j], P.star[i]):
                fail("STAR_NOT_ORDER_REVERSING", f"({P.ids[i]}, {P.ids[j]})")
    for i, j in P.walls:
        if P.weight[i] <= 0:
            fail("NONPOSITIVE_WEIGHT", P.ids[i])
        if P.weight[i] != P.weight[j]:
            fail("WALL_WEIGHT_MISMATCH", P.ids[i])
    if not rep["ok"]:
        return rep
    if P.wall_count > budgets.point_walls:
        rep["notes"].append(f"point-level checks skipped: {P.wall_count} walls exceed cap "
                            f"{budgets.point_walls}")
        return rep
    pts = points(P, budgets)
    hmasks = halfspace_point_masks(P, budgets)
    for i in range(n):
        if hmasks[i] == 0:
            fail("EMPTY_HALFSPACE", P.ids[i])
        if hmasks[P.star[i]] == 0:
            fail("FULL_HALFSPACE", P.ids[i])
    for i in range(n):
        for j in range(n):
            if i != j and P.leq_idx(i, j) != (hmasks[i] & ~hmasks[j] == 0):
                fail("ORDER_NOT_FAITHFUL", f"({P.ids[i]}, {P.ids[j]})")
    for a in range(len(P.walls)):
        i = P.walls[a][0]
        for b in range(a + 1, len(P.walls)):
            k = P.walls[b][0]
            sectors_ok = all(hmasks[x] & hmasks[y] for x in (i, P.star[i])
                             for y in (k, P.star[k]))
            if sectors_ok != transverse(P, P.ids[i], P.ids[k]):
                fail("TRANSVERSALITY_MISMATCH", f"({P.ids[i]}, {P.ids[k]})")
    rep["notes"].append(f"{len(pts)} points enumerated; separation holds")
    return rep


def ref_separating(P, A, B):
    """The halfspaces containing B whose complements contain A, one by one."""
    out = []
    for i in range(P.n):
        if B.sigma >> i & 1 and A.sigma >> P.star[i] & 1:
            out.append(P.ids[i])
    return tuple(sorted(out))


def unit_walls(*names):
    return [(h, h + "*", Fraction(1)) for h in names]


def invalid_pair_inputs(seed, count):
    """Pair input breaking the axioms: cycles, a halfspace below or above
    its complement, a lone fixed-point wall, non-positive weights, and
    random pocsets with one to three random pairs added."""
    out = [
        WeightedPocset(unit_walls("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")]),
        WeightedPocset(unit_walls("a", "b"), [("a", "b"), ("b", "a*")]),
        WeightedPocset(unit_walls("a", "b"), [("a", "a*")]),
        WeightedPocset(unit_walls("a", "b"), [("a*", "a"), ("b", "a")]),
        WeightedPocset([("a", "a", Fraction(1))]),
        WeightedPocset([("a", "a", Fraction(1))] + unit_walls("b"), [("b", "a")]),
        WeightedPocset([("a", "a*", Fraction(0)), ("b", "b*", Fraction(-2)),
                        ("c", "c*", Fraction(1, 2))], [("a", "b")]),
    ]
    rng = random.Random(seed)
    for P in random_pocsets(seed, count, max_walls=6):
        extra = [(rng.choice(P.ids), rng.choice(P.ids)) for _ in range(rng.randint(1, 3))]
        out.append(WeightedPocset(wall_list(P), pair_order(P) + extra))
    return out


def construction_cases():
    """Pocsets from every construction path: pair input (valid and
    invalid), subdivisions, factors and products."""
    base = pocsets() + random_pocsets(21, 40)
    products = [pocset_product(random_pocsets(seed, 3, max_walls=4)) for seed in range(10)]
    out = base + products + invalid_pair_inputs(22, 80)
    out += [subdivide(P).child for P in base if P.n <= 40]
    out += [subdivide(subdivide(P).child).child for P in random_pocsets(23, 5, max_walls=4)]
    out += [F for P in base + products for F in decompose(P).factors]
    return out


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except NotTransverse as exc:
        return type(exc).__name__, str(exc)


def halfspace_pairs(P, rng):
    """Every ordered pair of halfspaces of a small pocset; 400 seeded pairs
    of a large one."""
    if P.n <= 40:
        return [(h, k) for h in P.ids for k in P.ids]
    return [(rng.choice(P.ids), rng.choice(P.ids)) for _ in range(400)]


def separation_cases():
    products = [pocset_product(random_pocsets(seed, 3, max_walls=4)) for seed in range(10)]
    return pocsets() + random_pocsets(18, 60) + products


def verdict(g):
    try:
        g.check()
    except NotAnAutomorphism as exc:
        return str(exc)
    return None


def ref_f2ball():
    """The tree ball from every nesting and disjointness pair of cones."""
    cones = fx._f2_vertices(fx.F2_RADIUS)[1:]
    walls = [("w" + v + "+", "w" + v + "-", Fraction(1)) for v in cones]
    order = []
    for v in cones:
        for u in cones:
            if u != v and v.startswith(u):
                order.append(("w" + v + "+", "w" + u + "+"))
            elif not v.startswith(u) and not u.startswith(v):
                order.append(("w" + v + "+", "w" + u + "-"))
    return WeightedPocset(walls, order, wall_ids=["w" + v for v in cones])


# -- tests ------------------------------------------------------------------

def test_f2ball_from_generating_pairs_matches_all_pairs():
    assert_same_pocset(fx.f2ball(), ref_f2ball())


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
        parts = rg.random_pocsets(rng, count, max_walls=4)
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


def test_construction_makes_the_deleted_checks_unreachable():
    """Every path gives an involutive star, rows that star reverses (so the
    down rows are the transpose), and one weight per wall."""
    for P in construction_cases():
        assert all(P.star[P.star[i]] == i for i in range(P.n)), P
        assert all(P.up[P.star[j]] >> P.star[i] & 1
                   for i in range(P.n) for j in bits(P.up[i])), P
        assert P.down == ref_down(P), P
        assert all(P.weight[i] == P.weight[j] for i, j in P.walls), P


def test_validate_reports_match_the_pair_walk():
    codes = set()
    for P in construction_cases():
        got = validate(P).to_json()
        assert got == ref_validate(P), P
        codes |= {f["code"] for f in got["failures"]}
    assert codes == {"STAR_FIXED_POINT", "COMPARABLE_WITH_COMPLEMENT", "NOT_ANTISYMMETRIC",
                     "NONPOSITIVE_WEIGHT"}


def test_separating_matches_the_halfspace_loop():
    rng = random.Random(24)
    for P in pocsets()[:4] + random_pocsets(25, 40):
        pts = points(P)
        for _ in range(20):
            A = ConvexSet(P, rng.sample(pts, rng.randint(1, len(pts))))
            B = ConvexSet(P, rng.sample(pts, rng.randint(1, len(pts))))
            assert separating(P, A, B) == ref_separating(P, A, B)
            x, y = rng.choice(pts), rng.choice(pts)
            assert separating(P, x, y) == ref_separating(P, ConvexSet(P, [x]), ConvexSet(P, [y]))


def test_strongly_separated_matches_the_wall_loop():
    rng = random.Random(19)
    seen = set()
    for P in separation_cases():
        for h, k in halfspace_pairs(P, rng):
            got = strongly_separated(P, h, k)
            assert got == ref_strongly_separated(P, h, k), (P, h, k)
            seen.add((got, P.leq(h, P.star_of(k))))
    # disjoint pairs fall on both sides, so the wall test decides some
    assert seen == {(False, False), (False, True), (True, True)}


def four_wall_path():
    """Irreducible, with h0 three non-transversality steps from h3."""
    return WeightedPocset([(f"h{i}", f"h{i}*", Fraction(1)) for i in range(4)],
                          [("h2", "h0"), ("h2", "h1"), ("h3", "h1")])


def test_sector_halfspace_matches_the_halfspace_loop():
    rng = random.Random(20)
    seen, fallbacks = set(), []
    path = four_wall_path()
    for P in separation_cases() + [path, pocset_product([path, fx.pocset("SQUARE")])]:
        for h, k in halfspace_pairs(P, rng):
            got = outcome(sector_halfspace, P, h, k)
            assert got == outcome(ref_sector_halfspace, P, h, k, fallbacks), (P, h, k)
            seen.add(got.kind if isinstance(got, SectorResult) else got[0])
    # some irreducible pocsets have transverse pairs with neither, and some
    # products a factor that reaches past the 2-step envelope of h
    assert seen == {"HALFSPACE", "PRODUCT", "NEITHER", "NotTransverse"}
    assert set(fallbacks) == {"NEITHER", "PRODUCT"}
