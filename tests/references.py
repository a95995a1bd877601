"""The independent reference of every fast path that the oracle table
(``test_oracles.py``) checks, written from the definition: bit by bit, by
child names, by name pairs through the pair constructor, pair by pair
through ``leq_idx`` or the chain-system rules (``resolve``), or by
enumeration.  The
references that ``mediankit acceptance`` runs too stay in
``mediankit.oracles``.
"""

import itertools
import json
from fractions import Fraction
from functools import cache, reduce
from operator import or_

from mediankit.actions import (
    FlipResult, SectorResult, Word, enumerate_words, invert_word, reduce_word)
from mediankit.boundary import (
    SUB, SUP, TRANS, UBS, _INVERSE, almost_contained, closure, tail, ubs_graph, union_seed,
    validate_system_rules)
from mediankit.config import DEFAULT_BUDGETS
from mediankit.errors import HorizonExceeded, InvalidInput, NotAnAutomorphism, NotTransverse
from mediankit.pocset import (
    Point, WeightedPocset, _iter_bits, halfspace_point_masks, points)
from mediankit.structure import Automorphism, decompose, transverse


# -- pocsets bit by bit, per wall and pair by pair --------------------------------

def star_image(P: WeightedPocset, mask: int) -> int:
    return sum(1 << P.star[i] for i in _iter_bits(mask))


def between_members(P: WeightedPocset, mask: int) -> tuple:
    """The ids of the halfspaces lying above one member and below one."""
    return tuple(sorted(P.ids[k] for k in range(P.n)
                        if any(P.leq_idx(a, k) for a in _iter_bits(mask))
                        and any(P.leq_idx(k, b) for b in _iter_bits(mask))))


def is_ultrafilter_per_bit(P: WeightedPocset, mask: int) -> bool:
    """One side of every wall, and the up-set of every side held."""
    if any(mask >> i & 1 == mask >> j & 1 for i, j in P.walls):
        return False
    return all(P.up[b] & ~mask == 0 for b in _iter_bits(mask))


def points_per_bit(P: WeightedPocset) -> list:
    """Wall-by-wall backtracking with star images taken bit by bit."""
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
                rec(w + 1, chosen | forced, banned | star_image(P, forced))

    rec(0, 0, 0)
    return sorted(out)


def point_sides(P: WeightedPocset) -> list:
    """Per halfspace, the mask of the points (enumerated bit by bit) in it."""
    pts = points_per_bit(P)
    return [sum(1 << k for k, m in enumerate(pts) if m >> i & 1) for i in range(P.n)]


def gate_per_wall(P: WeightedPocset, C, x: Point) -> int:
    """The side of each wall that C holds, else the side x holds."""
    mask = 0
    for i, j in P.walls:
        wall = 1 << i | 1 << j
        mask |= C.sigma & wall or x.mask & wall
    return mask


def image_per_bit(g: Automorphism, p: Point) -> tuple:
    """The up-closure of the defined images of p's halfspaces if it is a
    point, else None; and whether it is a ``point``, ``inconsistent`` or
    ``outside`` the window."""
    P = g.pocset
    closed = reduce(or_, (P.up[g.perm[i]] for i in _iter_bits(p.mask) if g.perm[i] is not None), 0)
    sides = [(closed >> i & 1) + (closed >> j & 1) for i, j in P.walls]
    if 2 in sides:
        return None, "inconsistent"
    return (None, "outside") if 0 in sides else (closed, "point")


def lineal_pairs(P: WeightedPocset) -> list:
    """Point pairs whose star images, bit by bit, are each other."""
    masks = [p.mask for p in points(P)]
    return [(m, star_image(P, m)) for m in masks
            if star_image(P, m) in masks and m < star_image(P, m)]


def shape(Q) -> tuple:
    """All that a pocset holds: ids, involution, weights, walls and rows."""
    return Q.ids, Q.star, Q.weight, Q.walls, Q.wall_ids, Q.up, Q.down


def wall_list(P) -> list:
    return [(P.ids[i], P.ids[j], P.weight[i]) for i, j in P.walls]


def pair_order(P) -> list:
    """The order as name pairs, read pair by pair."""
    return [(P.ids[i], P.ids[j]) for i in range(P.n) for j in range(P.n)
            if i != j and P.leq_idx(i, j)]


def up_rows_by_names(walls, order) -> tuple:
    """The up rows of pair input, closed by names: each halfspace is below
    itself, each pair comes with its star reversal, and then Warshall's
    loop over sets of names (a relation closed under star reversal stays
    so under transitivity, as paths reverse)."""
    star = {}
    for pos, neg, _ in walls:
        star[pos], star[neg] = neg, pos
    ids = sorted(star)
    above = {h: {h} for h in ids}
    for a, b in order:
        above[a].add(b)
        above[star[b]].add(star[a])
    for k in ids:
        for h in ids:
            if k in above[h]:
                above[h] |= above[k]
    return tuple(sum(1 << ids.index(b) for b in above[h]) for h in ids)


def separating_per_halfspace(P: WeightedPocset, A, B) -> tuple:
    """The halfspaces holding all of B whose complements hold all of A, one
    by one; A and B are points or convex sets."""
    a, b = (X.mask if isinstance(X, Point) else X.sigma for X in (A, B))
    return tuple(sorted(P.ids[i] for i in range(P.n) if b >> i & 1 and a >> P.star[i] & 1))


def _incomparable(P, i, j) -> bool:
    return not (P.leq_idx(i, j) or P.leq_idx(j, i))


def transversality_pairwise(P: WeightedPocset) -> tuple:
    """Per wall, the mask of walls whose sides are all incomparable with its
    own; and, for at most 40 halfspaces, ``transverse`` of every ordered
    pair, both pair by pair."""
    reps = [i for i, _ in P.walls]
    adj = [sum(1 << b for b, k in enumerate(reps) if k != i and _incomparable(P, i, k)
               and _incomparable(P, i, P.star[k])) for i in reps]
    pairs = [i != j and P.star[i] != j and _incomparable(P, i, j)
             and _incomparable(P, i, P.star[j])
             for i in range(P.n) for j in range(P.n)] if P.n <= 40 else []
    return adj, pairs


def rank_by_families(P: WeightedPocset) -> int:
    """The size of the largest family of pairwise transverse walls, over
    families of growing size, each pair through ``transverse``; at most 12
    walls.  A family is a subfamily of a larger one, so the first size with
    no family ends the search."""
    assert P.wall_count <= 12
    reps = [P.ids[i] for i, _ in P.walls]
    best = min(len(reps), 1)
    for size in range(2, len(reps) + 1):
        if not any(all(transverse(P, h, k) for h, k in itertools.combinations(family, 2))
                   for family in itertools.combinations(reps, size)):
            break
        best = size
    return best


# -- derived pocsets by name pairs ----------------------------------------------
#
# Built through the pair constructor from names, as the code did before
# ``from_rows``: ``<parent>-``/``<parent>+`` children, factors as the
# components of the pairwise non-transversality graph, prefixed products.

def child_by_names(P: WeightedPocset) -> WeightedPocset:
    walls, order, wall_ids = [], [], []
    for i in range(P.n):
        h, hs = P.ids[i], P.ids[P.star[i]]
        if i < P.star[i]:
            walls += [(h + "-", hs + "+", P.weight[i] / 2), (h + "+", hs + "-", P.weight[i] / 2)]
            wall_ids += [h + "-", h + "+"]
        order.append((h + "-", h + "+"))
        for j in _iter_bits(P.up[i] & ~(1 << i)):
            order += [(h + a, P.ids[j] + b) for a in "-+" for b in "-+"]
    return WeightedPocset(walls, order, wall_ids=wall_ids)


def factors_by_names(P: WeightedPocset) -> list:
    """The components of the non-transversality graph, ordered by least
    wall id, each built from P's name pairs."""
    adj = transversality_pairwise(P)[0]
    left, comps = set(range(len(P.walls))), []
    while left:
        comp, todo = set(), [min(left)]
        while todo:
            a = todo.pop()
            if a not in comp:
                comp.add(a)
                todo += [b for b in left if b != a and not adj[a] >> b & 1]
        left -= comp
        comps.append(sorted(comp))
    comps.sort(key=lambda c: min(P.wall_ids[a] for a in c))
    out = []
    for comp in comps:
        ids = {P.ids[i] for a in comp for i in P.walls[a]}
        out.append(WeightedPocset([wall_list(P)[a] for a in comp],
                                  [(a, b) for a, b in pair_order(P) if a in ids and b in ids],
                                  wall_ids=[P.wall_ids[a] for a in comp]))
    return out


def product_by_names(parts, prefixes) -> WeightedPocset:
    walls, order, wall_ids = [], [], []
    for pref, Q in zip(prefixes, parts):
        walls += [(pref + a, pref + b, w) for a, b, w in wall_list(Q)]
        wall_ids += [pref + w for w in Q.wall_ids]
        order += [(pref + a, pref + b) for a, b in pair_order(Q)]
    return WeightedPocset(walls, order, wall_ids=wall_ids)


# -- order walks pair by pair -----------------------------------------------------

def automorphisms_pairwise(P: WeightedPocset) -> list:
    """The search with an ``extend_ok`` that compares the order pair by
    pair; sorted permutations."""
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


def check_pairwise(P: WeightedPocset, perm) -> None:
    """Raise what ``Automorphism.check`` raises for the map ``g`` with
    ``perm``, from an all-pairs walk of the order."""
    domain = [a for a, b in enumerate(perm) if b is not None]
    if len({perm[a] for a in domain}) != len(domain):
        raise NotAnAutomorphism("g: not injective")
    for a in domain:
        if perm[P.star[a]] != P.star[perm[a]]:
            raise NotAnAutomorphism("g: does not commute with star")
        if P.weight[a] != P.weight[perm[a]]:
            raise NotAnAutomorphism("g: does not preserve weights")
    if any(P.leq_idx(a, c) != P.leq_idx(perm[a], perm[c]) for a in domain for c in domain):
        raise NotAnAutomorphism("g: does not preserve order")


def strongly_separated_per_wall(P: WeightedPocset, h: str, k: str) -> bool:
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


def sector_per_halfspace(P: WeightedPocset, h: str, k: str, fallbacks=None) -> SectorResult:
    """The sector scan halfspace by halfspace, and the partition from the
    non-transversals of h pair by pair, confirmed factor by factor; where
    that fails, h's and k's factors decide, and the kind of that answer
    goes to ``fallbacks``."""
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
    if part2 and set(ids1) == set().union(*(ids for ids in by_factor.values()
                                           if ids <= set(ids1))):
        return SectorResult("PRODUCT", partition=(ids1, ids2))
    fh, fk = D.assignment[h][0], D.assignment[k][0]
    res = SectorResult("NEITHER") if fh == fk else SectorResult(
        "PRODUCT", partition=(tuple(sorted(by_factor[fh])),
                              tuple(sorted(set(P.ids) - by_factor[fh]))))
    if fallbacks is not None:
        fallbacks.append(res.kind)
    return res


def validate_pairwise(P: WeightedPocset, budgets=DEFAULT_BUDGETS) -> dict:
    """``validate`` as it was, less the three checks that
    ``test_construction_makes_the_deleted_checks_unreachable`` shows
    construction makes unreachable: the axioms pair by pair through
    ``leq_idx``, and the empty, full, faithfulness and transversality
    checks on point sets."""
    rep = {"ok": True, "failures": [], "notes": []}

    def fail(code, detail):
        rep["ok"] = False
        rep["failures"].append({"code": code, "detail": detail})

    n = P.n
    for i in range(n):
        if P.star[i] == i:
            fail("STAR_FIXED_POINT", f"{P.ids[i]} is its own complement")
    for i in range(n):
        si = P.star[i]
        if si != i and (P.leq_idx(i, si) or P.leq_idx(si, i)):
            fail("COMPARABLE_WITH_COMPLEMENT", f"{P.ids[i]} is comparable with {P.ids[si]}")
    for i in range(n):
        for j in _iter_bits(P.up[i]):
            if i != j and P.leq_idx(j, i):
                fail("NOT_ANTISYMMETRIC", f"{P.ids[i]} <= {P.ids[j]} <= {P.ids[i]}")
    for i, _ in P.walls:
        if P.weight[i] <= 0:
            fail("NONPOSITIVE_WEIGHT", P.ids[i])
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


# -- subdivision by child names -------------------------------------------------
#
# Child halfspaces are named ``<parent>-`` and ``<parent>+``; these find
# them by name, independent of ``Subdivision.copies``.

def _copies_by_name(S, h: str) -> int:
    return 1 << S.child.idx(h + "-") | 1 << S.child.idx(h + "+")


def embed_by_name(S, p: Point) -> int:
    return sum(_copies_by_name(S, S.parent.ids[i])
               for i in range(S.parent.n) if p.mask >> i & 1)


def preimage_by_name(S, q: Point):
    """The parent point whose halfspaces have both copies in q, or None."""
    mask = 0
    for i, _ in S.parent.walls:
        h, hs = S.parent.ids[i], S.parent.ids[S.parent.star[i]]
        if (h + "-") in q and (h + "+") in q:
            mask |= 1 << i
        elif (hs + "-") in q and (hs + "+") in q:
            mask |= 1 << S.parent.star[i]
        else:
            return None
    return mask


def cube_by_name(S, q: Point) -> tuple:
    """The cube at a new point: its sides (a parent halfspace per wall
    whose two plus copies q holds), then for every sign vector the
    midpoint, then for every vector without 0 the vertex."""
    C, ids = S.child, S.parent.ids
    sides = [ids[i] for i, _ in S.parent.walls
             if (ids[i] + "+") in q and (ids[S.parent.star[i]] + "+") in q]
    mids, verts = [], []
    for signs in itertools.product((-1, 0, 1), repeat=len(sides)):
        mask = q.mask
        for h, s in zip(sides, signs):
            hs = S.parent.star_of(h)
            mask &= ~(_copies_by_name(S, h) | _copies_by_name(S, hs))
            keep = {0: (h + "+", hs + "+"), 1: (h + "-", h + "+"),
                    -1: (hs + "-", hs + "+")}[s]
            for cid in keep:
                mask |= 1 << C.idx(cid)
        mids.append(mask)
        if 0 not in signs:
            verts.append(preimage_by_name(S, Point(C, mask)))
    return sides, mids, verts


# -- chain systems pair by pair through the rules, or by definition ------------

def resolve(S, ci: str, n: int, cj: str, m: int) -> str:
    """The relation of (ci, n) to (cj, m) read off the rules, first match
    wins: on one chain by index order; else the head entry, its mirror,
    the row rules in order (either way round), the (ci, cj) zones by
    m - n, the (cj, ci) zones by n - m; else ``trans``."""
    if ci == cj:
        return SUP if n <= m else SUB
    direct = S.head.get((ci, n, cj, m))
    if direct is not None:
        return direct
    mirror = S.head.get((cj, m, ci, n))
    if mirror is not None:
        return _INVERSE[mirror]
    for r in S.rows:
        if r.chain == ci and r.index == n and r.other == cj \
                and r.lo <= m and (r.hi is None or m <= r.hi):
            return r.rel
        if r.chain == cj and r.index == m and r.other == ci \
                and r.lo <= n and (r.hi is None or n <= r.hi):
            return _INVERSE[r.rel]
    for z in S.zones.get((ci, cj), ()):
        if in_zone(z, m - n):
            return z.rel
    for z in S.zones.get((cj, ci), ()):
        if in_zone(z, n - m):
            return _INVERSE[z.rel]
    return TRANS


def in_zone(z, d: int) -> bool:
    return (z.lo is None or d >= z.lo) and (z.hi is None or d <= z.hi)


def zone_conflict_walk(S, ci: str, cj: str):
    """The ``ZONE_CONFLICT`` check as it was: the first offset d, walking
    [-horizon, horizon], where the (ci, cj) zone of d is not inverse to the
    (cj, ci) zone of -d; or None."""
    for d in range(-S.horizon, S.horizon + 1):
        a = next(z.rel for z in S.zones[(ci, cj)] if in_zone(z, d))
        b = next(z.rel for z in S.zones[(cj, ci)] if in_zone(z, -d))
        if a != _INVERSE[b]:
            return d
    return None


def shift_check_by_pairs(S, g) -> None:
    """``validate_shift`` as it was: weights at every index of two period
    blocks, then the relation pair by pair (``unpreserved_by_pairs``) on
    one block, from one period block past the head and ``min_index``."""
    if sorted(g.tau) != sorted(S.chain_order) or sorted(g.tau.values()) != sorted(S.chain_order):
        raise InvalidInput("shift map must permute the chains")
    L = S.lcm_period
    base = max(g.min_index, S.head_extent) + L
    for c in S.chain_order:
        if any(S.weight(c, n) != S.weight(g.tau[c], n + g.shift[c])
               for n in range(base, base + 2 * L)):
            raise InvalidInput(f"shift map does not preserve weights on chain {c}")
    pair = unpreserved_by_pairs(S, S, g, range(base, base + L))
    if pair:
        raise InvalidInput("shift map does not preserve the relation on (%s, %s)" % pair)


def unpreserved_mismatches(S1, S2, g, block: range):
    """The pair loop of ``boundary._unpreserved`` as it was: per (ci, cj) in
    ``permutations`` order and n in ``block``, through ``rel``, the columns
    m from the block's start to n + E1 and within E2 of the image row's own
    index n + si - sj, cut at the larger head extent plus the spread of the
    shifts past the block's end; each (ci, cj, n, m) whose relation in S1
    differs from its image's under g in S2."""
    E1, E2, shifts = S1.head_extent, S2.head_extent, g.shift.values()
    lo = block.start
    hi = block.stop + max(E1, E2) + max(shifts, default=0) - min(shifts, default=0)
    for ci, cj in itertools.permutations(S1.chain_order, 2):
        ti, si, tj, sj = g.tau[ci], g.shift[ci], g.tau[cj], g.shift[cj]
        for n in block:
            o, near = n + si - sj, min(max(n + E1, E2 - sj) + 1, hi)
            for m in (*range(lo, near), *range(max(o - E2, near), min(o + E2 + 1, hi))):
                if S1.rel(ci, n, cj, m) != S2.rel(ti, n + si, tj, m + sj):
                    yield ci, cj, n, m


def differs_per_position(a, b, intervals) -> bool:
    """``boundary._differs`` position by position: whether the clamped
    profiles a and b hold other codes at some position of some interval."""
    def codes(profile, p):
        sub, sup, p0, p1 = profile
        k = min(max(p, p0), p1) - p0
        return sub >> k & 1, sup >> k & 1
    return any(codes(a, p) != codes(b, p) for lo, hi in intervals for p in range(lo, hi + 1))


def unpreserved_by_pairs(S1, S2, g, block: range):
    """The first (ci, cj) of ``unpreserved_mismatches``, or None."""
    return next((pair[:2] for pair in unpreserved_mismatches(S1, S2, g, block)), None)


def system_map_by_range(S1, S2, m) -> bool:
    """``verify_system_map`` as it was: weights for every n from
    max(0, -shift) to two period blocks past both heads and every shift,
    then the relation pair by pair (``unpreserved_by_pairs``)."""
    if sorted(m.tau) != sorted(S1.chain_order) or \
            sorted(m.tau.values()) != sorted(S2.chain_order):
        return False
    base = max(S1.head_extent, S2.head_extent) + \
        max((abs(v) for v in m.shift.values()), default=0)
    top = base + 2 * max(S1.lcm_period, S2.lcm_period)
    if any(S1.weight(c, n) != S2.weight(m.tau[c], n + m.shift[c])
           for c in S1.chain_order for n in range(max(0, -m.shift[c]), top)):
        return False
    return unpreserved_by_pairs(S1, S2, m, range(base, top)) is None


def unpreserved_pairwise(S1, S2, g, block: range):
    """``boundary._unpreserved`` pair by pair through ``resolve``: the first
    (ci, cj) in ``permutations`` order where some n in ``block`` and m from
    its start to the larger head extent plus the spread of the shifts past
    its end relate otherwise in S1 than their images under g in S2."""
    shifts = g.shift.values()
    reach = max(S1.head_extent, S2.head_extent) + max(shifts) - min(shifts)
    for ci, cj in itertools.permutations(S1.chain_order, 2):
        ti, si, tj, sj = g.tau[ci], g.shift[ci], g.tau[cj], g.shift[cj]
        for n in block:
            for m in range(block.start, block.stop + reach):
                if resolve(S1, ci, n, cj, m) != resolve(S2, ti, n + si, tj, m + sj):
                    return ci, cj
    return None


def closure_depth(S, seed: dict) -> int:
    """R = max(x, E) + E, x the seed's largest start or finite end and E
    the head extent: the depth from which a closure's chains are constant
    (``boundary`` module docstring).  Empty intervals are dropped."""
    x = max((lo if hi is None else hi for lo, hi in seed.values() if hi is None or hi >= lo),
            default=0)
    return max(x, S.head_extent) + S.head_extent


def closure_oracle(S, seed: dict) -> set:
    """Inseparable closure of the chain intervals ``seed`` up to depth
    R = ``closure_depth``, pair by pair through ``resolve``: the (c, n) with
    n <= R that contain one seed member and are contained in one, members
    taken up to R + head_extent (past which the relation of an index up to
    R to them no longer changes).  Empty intervals are dropped; a tail
    starting past the horizon, or a finite interval ending at or past it,
    raises ``HorizonExceeded`` naming its chain, the first in chain order."""
    T = S.horizon
    seed = {c: (lo, hi) for c, (lo, hi) in sorted(seed.items()) if hi is None or hi >= lo}
    for c, (lo, hi) in seed.items():
        if lo > T or (hi is not None and hi >= T):
            raise HorizonExceeded(f"seed interval on chain {c} leaves the window of horizon {T}")
    R = closure_depth(S, seed)
    members = [(d, m) for d, (lo, hi) in seed.items()
               for m in range(max(lo, 0), (R + S.head_extent if hi is None else hi) + 1)]

    def inside(x, y):
        return x == y or resolve(S, *x, *y) == SUB

    return {(c, n) for c in S.chain_order for n in range(R + 1)
            if any(inside((c, n), y) for y in members)
            and any(inside(y, (c, n)) for y in members)}


def rel_index(S, c: str, d: str, want: str, depth: int) -> list:
    """``ChainSystem.index`` through ``resolve``: entry m <= depth + E is
    the mask of the n <= depth with rel((c, n), (d, m)) == want."""
    return [sum(1 << n for n in range(depth + 1) if resolve(S, c, n, d, m) == want)
            for m in range(depth + S.head_extent + 1)]


def rel_up_rows(S, elems) -> list:
    """Row i holds the elements strictly containing elems[i], read pair by
    pair through ``resolve``."""
    return [sum(1 << j for j, (cj, m) in enumerate(elems)
                if (n > m if ci == cj else resolve(S, ci, n, cj, m) == SUB))
            for ci, n in elems]


def truncation(S, T: int) -> list:
    return [(c, n) for c in S.chain_order for n in range(T + 1)]


def pairwise_validate_system(S):
    """``validate_system`` pair by pair through ``resolve`` on the truncation,
    with the antisymmetry and periodicity checks that the rule checks make
    unreachable."""
    rep = validate_system_rules(S)
    if not rep.ok:
        return rep
    elems = truncation(S, S.horizon)
    rel = [[resolve(S, ci, n, cj, m) for cj, m in elems] for ci, n in elems]
    down = [0] * len(elems)
    for i, (ci, n) in enumerate(elems):
        for j, (cj, m) in enumerate(elems):
            if ci == cj:
                if n < m:
                    down[i] |= 1 << j
                continue
            if rel[j][i] != _INVERSE[rel[i][j]]:
                rep.fail("REL_NOT_ANTISYMMETRIC", f"{(ci, n)} vs {(cj, m)}")
            if rel[i][j] == SUP:
                down[i] |= 1 << j
    for i in range(len(elems)):
        extra = reduce(or_, (down[j] for j in _iter_bits(down[i])), 0) & ~down[i]
        if extra:
            j = (extra & -extra).bit_length() - 1
            rep.fail("REL_NOT_TRANSITIVE", f"{elems[i]} should contain {elems[j]}")
    L = S.lcm_period
    block = range(S.head_extent + L, S.head_extent + 2 * L)
    for ci, cj, n, m in itertools.product(S.chain_order, S.chain_order, block, block):
        if ci < cj and resolve(S, ci, n, cj, m) != resolve(S, ci, n + L, cj, m + L):
            rep.fail("NOT_PERIODIC", f"({ci},{n}) vs ({cj},{m})")
    if rep.ok:
        rep.notes.append(
            f"truncation to depth {S.horizon} is a pocset-compatible partial order")
    return rep


def minimal_tail_by_containment(S, cid: str) -> tuple:
    """``minimal_tail`` by its definition: the first start whose tail
    closure almost contains, and is almost contained in, every later one
    up to two periods past the head."""
    top = S.head_extent + 2 * S.lcm_period
    cls = [closure(S, tail(cid, M)) for M in range(top + 2)]
    for start in range(top + 1):
        if all(equivalent_by_containment(S, cls[start], cls[M]) for M in range(start, top + 2)):
            return start, cls[start]
    raise HorizonExceeded(f"tail closures of {cid} do not stabilize")


def poset_by_closures(S) -> list:
    """``ubs_poset`` set by set: each vertex set of ``ubs_graph(S)`` that no
    edge path u -> z -> w joins through an outside z, with the closure of
    its vertices' tails at the first N from the largest minimal-tail start
    on whose tail set holds exactly the set's vertices' tail sets, each
    closed through ``closure``."""
    G = ubs_graph(S)
    n, edges = len(G.vertices), set(G.edges)
    out = []
    for mask in range(1, 1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        outside = [z for z in range(n) if not mask >> z & 1]
        if any((u, z) in edges and (z, w) in edges
               for z in outside for u in chosen for w in chosen):
            continue
        for N in range(max(G.starts, default=0), S.tail_depth + 1):
            cand = poset_candidate(S, G, chosen, N)
            if cand is not None:
                out.append((tuple(G.vertices[i][0] for i in chosen), cand))
                break
        else:
            raise HorizonExceeded(
                f"no representative for vertex set {chosen} within horizon")
    return out


def poset_candidate(S, G, chosen: list, N: int):
    """The closure of the tails at N of the vertices ``chosen`` of the graph
    ``G``, if its tail set holds exactly theirs, else None."""
    cand = closure(S, union_seed([tail(G.vertices[i][2], N) for i in chosen]))
    if [i for i, (_, rep, _) in enumerate(G.vertices) if rep.tails() <= cand.tails()] == chosen:
        return cand
    return None


def equivalent_by_containment(S, U, V) -> bool:
    return almost_contained(S, U, V).holds and almost_contained(S, V, U).holds


def transfer_by_containment(S, U, g):
    """``boundary._transfer`` through UBSs: the deep representative Ω (U's
    tails from depth E + L + ``min_index`` + max |s| + 2 on), its preimage
    g^{-1}Ω cut at ``min_index``, then nu(g^{-1}Ω \\ Ω) − nu(Ω \\ g^{-1}Ω)
    by two ``almost_contained`` calls, or None when either fails."""
    if not U.has_tail():
        raise InvalidInput("transfer characters need a UBS with a tail")
    jump = max(abs(s) for s in g.shift.values()) if g.shift else 0
    depth = S.head_extent + S.lcm_period + g.min_index + jump + 2
    omega = UBS({c: (max(lo, depth), None) for c, (lo, hi) in U.intervals.items() if hi is None})
    inv_tau = {t: c for c, t in g.tau.items()}
    pre = UBS({inv_tau[t]: (max(lo - g.shift[inv_tau[t]], g.min_index), hi)
               for t, (lo, hi) in omega.intervals.items()})
    gained, lost = almost_contained(S, pre, omega), almost_contained(S, omega, pre)
    return gained.measure - lost.measure if gained.holds and lost.holds else None


def mass_per_index(chain, lo: int, hi: int) -> Fraction:
    """The weights of the indices lo..hi, added one by one."""
    return sum((chain.weight(n) for n in range(lo, hi + 1)), Fraction(0))


def transpose_rows(rows, width=None) -> list:
    """Column i < ``width`` (by default, the number of rows) of the bit
    matrix ``rows``, bit by bit."""
    return [sum(1 << j for j, r in enumerate(rows) if r >> i & 1)
            for i in range(len(rows) if width is None else width)]


# -- actions --------------------------------------------------------------------

@cache
def composed_map(action, word) -> Automorphism:
    """The whole map of ``word``, composing letter maps left to right: (a, b)
    is the element ab, whose rightmost factor acts first.  Each inverse is
    built from its generator, and words sharing a prefix share its map."""
    if not word:
        return Automorphism.identity(action.pocset)
    name, sign = word[-1]
    g = action.gens[name]
    return composed_map(action, word[:-1]).compose(g if sign > 0 else g.inverse())


def evaluate(action, word):
    """The word's map as a product read left to right, through the action's
    letter table: (a, b) is the element ab, whose rightmost factor acts
    first."""
    g = action.identity()
    for tok in word:
        g = g.compose(action.letters[tok])
    return g


def expand_letters(u, letters) -> Word:
    """The reduced word of the letter word ``u`` whose letters name the
    generator words ``letters``, each inverse letter by its word inverted."""
    out = []
    for name, sign in u:
        out.extend(letters[name] if sign == 1 else invert_word(letters[name]))
    return reduce_word(tuple(out))


def inversions_by_composite(action, word) -> tuple:
    """``wall_inversions`` through the word's whole map (``composed_map``):
    the ids of the walls whose lower side it maps to the upper one, and the
    count of walls whose lower side it leaves undefined."""
    P, g = action.pocset, composed_map(action, word)
    return (tuple(w for w, (i, j) in zip(P.wall_ids, P.walls) if g.perm[i] == j),
            sum(g.perm[i] is None for i, _ in P.walls))


def composite_images(action, word, cancelled) -> tuple:
    """The images of every halfspace and, bit by bit, of every point under
    the composed map of ``word``."""
    g = composed_map(action, word)
    return g.perm, [image_per_bit(g, p)[0] for p in action.points()]


def closure_group(action) -> list:
    """The generated group by left multiplication, sorted by permutation."""
    gens = list(action.gens.values()) + [g.inverse() for g in action.gens.values()]
    seen, frontier = {}, [Automorphism.identity(action.pocset)]
    while frontier:
        seen.update((g.perm, g) for g in frontier)
        frontier = list({h.perm: h for h in (s.compose(g) for g in frontier for s in gens)
                         if h.perm not in seen}.values())
    return [seen[p] for p in sorted(seen)]


def orbits_by_group(action) -> tuple:
    """The orbit {g p : g in ``closure_group(action)``} of each point p,
    each image read bit by bit, as its masks in increasing order, by p's
    mask; and the least orbit, by size and then least mask."""
    group = closure_group(action)
    orbits = {p.mask: tuple(sorted({image_per_bit(g, p)[0] for g in group}))
              for p in action.points()}
    return orbits, min(orbits.values(), key=lambda orbit: (len(orbit), orbit[0]))


def brute_total_flip(action, h: str) -> FlipResult:
    """Total-action flip search by evaluating reduced words shortest-first
    until every group element has been met, each at its first word; else
    the points every group element keeps in the image of h*."""
    P = action.pocset
    hs = P.star[P.idx(h)]
    group = closure_group(action)
    seen = set()
    words = itertools.chain(
        [()], enumerate_words(action.gen_names(), 2 * len(group) + 1))
    for word in words:
        g = evaluate(action, word)
        if g.perm in seen:
            continue
        seen.add(g.perm)
        img = g.apply_idx(hs)
        if P.leq_idx(img, P.star[hs]) and img != P.idx(h):
            return FlipResult("FLIPPED", word=word)
        if len(seen) == len(group):
            break
    sides = point_sides(P)
    return FlipResult("INVARIANT_SET", invariant_set=tuple(
        p for k, p in enumerate(action.points())
        if all(sides[g.apply_idx(hs)] >> k & 1 for g in group)))


def first_facing_tuple(P: WeightedPocset, n: int, strong: bool) -> tuple:
    """The first n pairwise disjoint halfspaces in id order, by name, each
    pair also strongly separated wall by wall if ``strong``, or () when
    there are none."""
    @cache
    def ok(a: str, b: str) -> bool:
        return strongly_separated_per_wall(P, a, b) if strong else P.leq(a, P.star_of(b))

    return next((t for t in itertools.combinations(P.ids, n)
                 if all(ok(a, b) for a, b in itertools.combinations(t, 2))), ())


def stabilizer_per_point(action, word, side: int, forbidden: int) -> bool:
    """Whether some window point with a defined image under the composed
    map of ``word`` lies in ``side`` exactly when its image misses
    ``forbidden``, point by point."""
    return any((p >> side & 1) != (q >> forbidden & 1)
               for p, q in defined_images(action, composed_map(action, word)))


@cache
def defined_images(action, gu: Automorphism) -> tuple:
    """(point, image) masks of the window points with a defined image."""
    return tuple((p.mask, q.mask) for p in action.points()
                 if (q := gu.apply_point(p)) is not None)


def separating_mass(P: WeightedPocset, x: Point, y: Point) -> Fraction:
    """The weight of the walls separating two points, wall by wall: the
    reference for ``pocset.distance``, which sums by weight group."""
    return sum((P.weight[i] for i, _ in P.walls if (x.mask ^ y.mask) >> i & 1),
               Fraction(0))


def gap_by_pairs(P: WeightedPocset, amask: int, bmask: int) -> Fraction:
    """The least wall-by-wall distance between a point of ``amask`` and
    one of ``bmask``."""
    pts = points(P, DEFAULT_BUDGETS.with_(point_walls=P.wall_count))
    return min((separating_mass(P, pts[i], pts[j]) for i in _iter_bits(amask)
                for j in _iter_bits(bmask)), default=Fraction(0))


# -- reports ------------------------------------------------------------------

def indented_by_stdlib(obj) -> str:
    """The report text of ``cli._indented``, by the stdlib's own encoder."""
    return json.dumps(obj, sort_keys=True, indent=2)
