"""One independent reference per fast path, and the table that runs them.

Each fast path (mask maps, weight groups, order rows, the copy table, the
relation index with its suffix tables and closure memo, memoised words,
the group table) keeps one reference here, written from the definition:
bit by bit, by child names, pair by pair through ``ChainSystem.rel``, or by
enumeration; the distance reference is ``verification.separating_mass``,
shared with the certificate checks.  ``ORACLES`` runs each against its
fast path on seeded cases, one ``Row`` per fast path; law rows compare the
two sides of an identity instead.  Only the tests and the acceptance
suite import this module; the other commands import ``verification``
alone, so they compile none of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable

from . import fixtures as fx
from . import randomgen as rg
from .actions import FlipResult, enumerate_words, facing_tuple, find_flip, is_lineal, min_orbit
from .boundary import (
    SUB, SUP, _INVERSE, _truncation_rows, chi_vector, closure, is_ubs, min_chain_cover, tail,
    truncation_antichain_bound, validate_system, validate_system_rules)
from .pocset import (
    Point, WeightedPocset, _iter_bits, distance, gate_project, halfspace_point_masks,
    inseparable_closure, is_ultrafilter, median, points, separating)
from .structure import Automorphism, pocset_product, rank
from .subdivision import atom_mass, cube_at, subdivide
from .verification import separating_mass


# -- points, medians, distances -------------------------------------------------

def medians(P: WeightedPocset, pts) -> list:
    """The median of every triple of ``pts`` (with repeats), as masks."""
    return [median(P, x, y, z).mask
            for x, y, z in itertools.combinations_with_replacement(pts, 3)]


def interval_medians(P: WeightedPocset, pts) -> list:
    """For every triple of ``pts`` (with repeats), the one point common to
    its three pairwise intervals, else None; an interval is enumerated as
    the points holding every halfspace both ends hold."""
    pos = {p.mask: i for i, p in enumerate(pts)}
    between = {}
    for a, b in itertools.combinations_with_replacement(pts, 2):
        common = a.mask & b.mask
        between[a.mask, b.mask] = sum(1 << pos[c.mask] for c in pts
                                      if common & ~c.mask == 0)
    out = []
    for x, y, z in itertools.combinations_with_replacement(pts, 3):
        inter = between[x.mask, y.mask] & between[y.mask, z.mask] & \
            between[x.mask, z.mask]
        out.append(pts[inter.bit_length() - 1].mask
                   if inter and not inter & (inter - 1) else None)
    return out


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
        if C.sigma >> i & 1:
            mask |= 1 << i
        elif C.sigma >> j & 1:
            mask |= 1 << j
        else:
            mask |= x.mask & (1 << i | 1 << j)
    return mask


def image_per_bit(g: Automorphism, p: Point) -> tuple:
    """The up-closure of the defined images of p's halfspaces if it is a
    point, else None; and whether it is a ``point``, ``inconsistent`` or
    ``outside`` the window."""
    P = g.pocset
    closed = 0
    for i in _iter_bits(p.mask):
        if g.perm[i] is not None:
            closed |= P.up[g.perm[i]]
    sides = [(closed >> i & 1) + (closed >> j & 1) for i, j in P.walls]
    if 2 in sides:
        return None, "inconsistent"
    return (None, "outside") if 0 in sides else (closed, "point")


def lineal_pairs(P: WeightedPocset) -> list:
    """Point pairs whose star images, bit by bit, are each other."""
    masks = [p.mask for p in points(P)]
    return [(m, star_image(P, m)) for m in masks
            if star_image(P, m) in masks and m < star_image(P, m)]


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


# -- chain systems pair by pair through rel -------------------------------------

def closure_oracle(S, seed: dict, T: int) -> set:
    """Inseparable closure of the chain intervals ``seed`` up to depth ``T``,
    pair by pair through ``S.rel``: the (c, n) with n <= T that contain one
    seed member and are contained in one, members taken up to the index
    T + head_extent + lcm_period + 1 (the depth closures scan to)."""
    scan = T + S.head_extent + S.lcm_period + 1
    members = [(d, m) for d, (lo, hi) in seed.items()
               for m in range(max(lo, 0), (scan if hi is None else min(hi, scan)) + 1)]

    def inside(x, y):
        return x == y or S.rel(*x, *y) == SUB

    return {(c, n) for c in S.chain_order for n in range(T + 1)
            if any(inside((c, n), y) for y in members)
            and any(inside(y, (c, n)) for y in members)}


def rel_index(S, c: str, d: str, want: str) -> list:
    """``ChainSystem.index`` through ``rel``: entry m is the mask of the
    n <= index_depth with rel((c, n), (d, m)) == want."""
    return [sum(1 << n for n in range(S.index_depth + 1) if S.rel(c, n, d, m) == want)
            for m in range(S.index_scan + 1)]


def rel_up_rows(S, elems) -> list:
    """Row i holds the elements strictly containing elems[i], read pair by
    pair through ``rel``."""
    return [sum(1 << j for j, (cj, m) in enumerate(elems)
                if (n > m if ci == cj else S.rel(ci, n, cj, m) == SUB))
            for ci, n in elems]


def _truncation(S, T: int) -> list:
    return [(c, n) for c in S.chain_order for n in range(T + 1)]


def pairwise_validate_system(S):
    """``validate_system`` pair by pair through ``rel`` on the truncation,
    with the antisymmetry and periodicity checks that the rule checks make
    unreachable."""
    rep = validate_system_rules(S)
    if not rep.ok:
        return rep
    elems = _truncation(S, S.horizon)
    rel = [[S.rel(ci, n, cj, m) for cj, m in elems] for ci, n in elems]
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
        if ci < cj and S.rel(ci, n, cj, m) != S.rel(ci, n + L, cj, m + L):
            rep.fail("NOT_PERIODIC", f"({ci},{n}) vs ({cj},{m})")
    if rep.ok:
        rep.notes.append(
            f"truncation to depth {S.horizon} is a pocset-compatible partial order")
    return rep


def max_antichain_brute(rows) -> int:
    """Exhaustive maximum antichain of a strict partial order given as
    bitmask rows; for small posets."""
    best = 0
    for mask in range(1 << len(rows)):
        if mask.bit_count() > best and all(rows[a] & mask == 0 for a in _iter_bits(mask)):
            best = mask.bit_count()
    return best


def _transpose(rows) -> list:
    return [sum(1 << j for j, r in enumerate(rows) if r >> i & 1)
            for i in range(len(rows))]


# -- actions --------------------------------------------------------------------

def closure_group(action) -> list:
    """The generated group by left multiplication, sorted by permutation."""
    gens = list(action.gens.values()) + [g.inverse() for g in action.gens.values()]
    seen, frontier = {}, [Automorphism.identity(action.pocset)]
    while frontier:
        seen.update((g.perm, g) for g in frontier)
        frontier = list({h.perm: h for h in (s.compose(g) for g in frontier for s in gens)
                         if h.perm not in seen}.values())
    return [seen[p] for p in sorted(seen)]


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
        g = action.evaluate(word)
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


def first_facing_triple(P: WeightedPocset) -> tuple:
    """The first three pairwise disjoint halfspaces in id order, by name,
    or () when there are none."""
    return next((t for t in itertools.combinations(P.ids, 3)
                 if all(P.leq(a, P.star_of(b))
                        for a, b in itertools.combinations(t, 2))), ())


# -- the table ------------------------------------------------------------------

def _each(items) -> list:
    return [(x,) for x in items]


def _mask(p):
    return None if p is None else p.mask


def _members(S, seed) -> set:
    return {(c, n) for c, (lo, hi) in closure(S, seed).intervals.items()
            for n in range(lo, S.horizon + 1) if hi is None or n <= hi}


def _cube(S, q) -> tuple:
    cube = cube_at(S, q)
    signs = list(itertools.product((-1, 0, 1), repeat=cube.k))
    return ([S.parent.ids[i] for i in cube.wall_sides],
            [cube.midpoint(s).mask for s in signs],
            [cube.vertex(s).mask for s in signs if 0 not in s])


def _image_kinds(case, q) -> list:
    """A point image, also under a total map, or why there is none."""
    if q is None:
        return [image_per_bit(*case)[1]]
    return ["point"] + (["total"] if None not in case[0].perm else [])


def wall_mass(P, ids) -> Fraction:
    return sum((P.weight[P.idx(h)] for h in ids), Fraction(0))


def _product_distances(A, B) -> dict:
    prod = pocset_product([A, B])
    pts = points(prod)
    return {(frozenset(x.ids), frozenset(y.ids)): distance(prod, x, y)
            for x in pts for y in pts}


def _factor_distances(A, B) -> dict:
    """Over pairs of factor points, named as product points: the sum of
    the factor distances."""
    pairs = [(a, b, frozenset(["f0." + h for h in a.ids] + ["f1." + h for h in b.ids]))
             for a in points(A) for b in points(B)]
    return {(u, v): distance(A, a, c) + distance(B, b, d)
            for a, b, u in pairs for c, d, v in pairs}


def embedded_distances(S, pts) -> tuple:
    """The child distances of the embedded pairs of ``pts``, and the child
    atom mass; a subdivision keeps the first and halves the second."""
    return ([distance(S.child, S.embed(x), S.embed(y))
             for x, y in itertools.combinations(pts, 2)], atom_mass(S.child))


def halved_distances(P, pts) -> tuple:
    return ([distance(P, x, y) for x, y in itertools.combinations(pts, 2)],
            atom_mass(P) / 2)


@dataclass(frozen=True)
class Row:
    """A fast path and its reference, compared on every argument tuple that
    ``cases()`` gives from the seeded inputs of ``randomgen``.  There are at
    least ``min_cases`` tuples, and the labels ``kinds(case, expected)``
    gives over all of them are exactly the keys of ``want``, each occurring
    at least its value times."""
    name: str
    fast: Callable
    oracle: Callable
    cases: Callable
    min_cases: int
    kinds: Callable = lambda case, expected: ()
    want: dict = field(default_factory=dict)


ORACLES = (
    Row("median", medians, interval_medians,
        lambda: [(P, points(P)) for P in rg.random_pocsets(rg.seeded(), 20, 8, 12)], 20),
    Row("distance", distance, separating_mass, rg.point_pairs, 1724),
    Row("points", lambda P: [p.mask for p in points(P, fx.WINDOW_BUDGETS)], points_per_bit,
        lambda: _each(rg.mixed_pocsets() + rg.window_pocsets()), 42),
    Row("halfspace_point_masks", lambda P: list(halfspace_point_masks(P, fx.WINDOW_BUDGETS)),
        point_sides, lambda: _each(rg.mixed_pocsets() + rg.window_pocsets()), 42),
    Row("up_map", lambda P, m: P.up_map(m),
        lambda P, m: reduce(or_, (P.up[i] for i in _iter_bits(m)), 0),
        rg.point_masks, 2276),
    Row("inseparable_closure",
        lambda P, m: inseparable_closure(P, [P.ids[i] for i in _iter_bits(m)]), between_members,
        lambda: [(P, m) for P, m in rg.point_masks() if P.n <= 18], 1973),
    Row("separating", lambda P, x, y: wall_mass(P, separating(P, x, y)), separating_mass,
        rg.point_pairs, 1724),
    Row("gate_project", lambda P, C, x: gate_project(P, C, x).mask, gate_per_wall,
        rg.point_gates, 765),
    Row("star_map", lambda P, m: P.star_map(m), star_image, rg.point_masks, 2276),
    Row("is_ultrafilter", is_ultrafilter, is_ultrafilter_per_bit, rg.point_masks, 2276,
        lambda case, uf: [(uf, star_image(*case) == ((1 << case[0].n) - 1) ^ case[1])],
        {(True, True): 1, (False, True): 1, (False, False): 1}),
    Row("embed", lambda S, p: S.embed(p).mask, embed_by_name, rg.embed_cases, 392),
    Row("preimage", lambda S, q: _mask(S.preimage(q)), preimage_by_name,
        rg.preimage_cases, 952),
    Row("is_new", lambda S, q: S.is_new(q), lambda S, q: preimage_by_name(S, q) is None,
        rg.preimage_cases, 952, lambda case, new: [new], {True: 1, False: 1}),
    Row("cube_at", _cube, cube_by_name, rg.cube_cases, 85),
    Row("apply_point", lambda g, p: _mask(g.apply_point(p)),
        lambda g, p: image_per_bit(g, p)[0], rg.image_cases, 3685, _image_kinds,
        {"point": 1, "inconsistent": 1, "outside": 1, "total": 1}),
    Row("is_lineal", lambda P: [(x.mask, y.mask) for x, y in is_lineal(P).pairs],
        lineal_pairs, lambda: _each(rg.mixed_pocsets()), 40),
    Row("group", lambda act: [g.perm for g in act.group()],
        lambda act: [g.perm for g in closure_group(act)],
        lambda: _each(rg.total_actions()), 24),
    Row("total_flip", lambda act, h: find_flip(act, h).to_json(),
        lambda act, h: brute_total_flip(act, h).to_json(),
        lambda: [(act, h) for act in rg.total_actions() for h in act.pocset.ids], 136,
        lambda case, res: [res["kind"]], {"FLIPPED": 1, "INVARIANT_SET": 1}),
    Row("facing_triple", lambda P: facing_tuple(P, 3).tuple_ids, first_facing_triple,
        lambda: _each(rg.random_pocsets(rg.seeded(), 10, 6, 12)
                         + rg.random_pocsets(rg.seeded(4), 30)), 40,
        lambda case, found: ["FOUND" if found else "NOT_FOUND"], {"FOUND": 1, "NOT_FOUND": 1}),
    Row("law: closures are idempotent UBSs",
        lambda S, seed: (closure(S, closure(S, seed).intervals), is_ubs(S, closure(S, seed))),
        lambda S, seed: (closure(S, seed), True), lambda: [
            (S, tail(S.chain_order[0], 2)) for S in rg.random_systems(rg.seeded(), 15, 4)], 15),
    Row("closure", _members, lambda S, seed: closure_oracle(S, seed, S.horizon),
        rg.closure_cases, 299,
        lambda case, members: ["decorated" if case[0].head or case[0].rows else "plain"],
        {"decorated": 100, "plain": 1}),
    Row("relation_index", lambda S, c, d, want: S.index(c, d, want), rel_index,
        lambda: [(S, c, d, want) for S in rg.index_systems() for c in S.chain_order
                    for d in S.chain_order if c != d for want in (SUB, SUP)], 92),
    Row("validate_system", lambda S: validate_system(S).to_json(),
        lambda S: pairwise_validate_system(S).to_json(),
        lambda: _each(rg.checked_systems()), 143,
        lambda case, rep: ["accepted" if rep["ok"] else "rejected"]
        + [f["code"] for f in rep["failures"]],
        {"accepted": 1, "rejected": 50, "REL_NOT_TRANSITIVE": 1, "HEAD_CONFLICT": 1,
         "ZONE_CONFLICT": 1, "ZONES_NOT_PARTITION": 1}),
    Row("antichain_bound", truncation_antichain_bound,
        lambda S: min_chain_cover(rel_up_rows(S, _truncation(S, S.tail_depth))),
        lambda: _each(rg.checked_systems()), 143),
    Row("truncation_rows", lambda S: _truncation_rows(S, S.tail_depth),
        lambda S: _transpose(rel_up_rows(S, _truncation(S, S.tail_depth))),
        lambda: _each(rg.truncated_systems()), 27),
    Row("dilworth", lambda rows: (min_chain_cover(rows), min_chain_cover(_transpose(rows))),
        lambda rows: (max_antichain_brute(rows),) * 2, rg.random_posets, 30),
    # laws of the paper, left side against right side
    Row("law: chi is a homomorphism", lambda S, g, h: chi_vector(S, g.compose(h)),
        lambda S, g, h: tuple(a + b for a, b in zip(chi_vector(S, g), chi_vector(S, h))),
        rg.uniform_shifts, 36),
    Row("law: rank adds over products", lambda A, B: rank(pocset_product([A, B])),
        lambda A, B: rank(A) + rank(B), lambda: rg.pocset_pairs(20, 5, 10), 20),
    Row("law: points biject and distances add over products", _product_distances,
        _factor_distances, lambda: rg.pocset_pairs(10, 4, 8), 10),
    Row("law: subdivision is isometric and halves the atom mass",
        lambda P: embedded_distances(subdivide(P), points(P)),
        lambda P: halved_distances(P, points(P)),
        lambda: _each(rg.random_pocsets(rg.seeded(2), 20, max_walls=8)), 20),
    Row("law: minimum orbits have at most 2^rank points",
        lambda act: len(min_orbit(act).orbit) <= 2 ** rank(act.pocset),
        lambda act: True, rg.subgroups, 102),
)
