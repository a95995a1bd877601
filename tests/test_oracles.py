"""The oracle table: every fast path against its one independent reference
(in ``references.py``, or in ``mediankit.oracles`` where the acceptance
suite runs it too), or one side of a law against the other, on the seeded
cases of ``seeded_cases.py``; one test id per row."""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Callable

import pytest

from mediankit import fixtures as fx
from mediankit.actions import (
    WordImages, _set_distance, _stabilizer_excluded, facing_tuple, find_flip, is_lineal,
    min_orbit, sector_halfspace, strongly_separated, wall_inversions)
from mediankit.cli import _indented
from mediankit.boundary import (
    SUB, SUP, _differs, _transfer, _truncation_rows, _unpreserved, _zone_conflict, chi_vector,
    closure, equivalent, is_ubs, min_chain_cover, minimal_tail, tail, truncation_antichain_bound,
    ubs_graph, ubs_poset, validate_shift, validate_system, verify_system_map)
from mediankit.errors import MedianKitError
from mediankit.oracles import (
    embedded_distances, halved_distances, interval_medians, max_antichain_brute, medians)
from mediankit.pocset import (
    WeightedPocset, _iter_bits, distance, gate_project, halfspace_point_masks,
    inseparable_closure, is_ultrafilter, points, separating, transpose, validate)
from mediankit.serialize import dump_pocset
from mediankit.structure import (
    Automorphism, _transversality_adjacency, automorphisms, decompose, pocset_product, rank,
    transverse)
from mediankit.subdivision import cube_at, lift, subdivide
from mediankit.verification import verify_skewer

import seeded_cases as sc
from references import (
    automorphisms_pairwise, between_members, brute_total_flip, check_pairwise, child_by_names,
    closure_depth, closure_group, closure_oracle, composed_map, composite_images, cube_by_name,
    defined_images, differs_per_position, embed_by_name, equivalent_by_containment,
    factors_by_names, first_facing_tuple, gap_by_pairs,
    gate_per_wall, image_per_bit, indented_by_stdlib, inversions_by_composite,
    is_ultrafilter_per_bit, lineal_pairs, mass_per_index,
    minimal_tail_by_containment, orbits_by_group, pair_order, pairwise_validate_system,
    point_sides, points_per_bit, poset_by_closures, poset_candidate, preimage_by_name,
    product_by_names, rank_by_families,
    rel_index, rel_up_rows, resolve, sector_per_halfspace, separating_mass,
    separating_per_halfspace, shape, shift_check_by_pairs, stabilizer_per_point, star_image,
    strongly_separated_per_wall, system_map_by_range, transfer_by_containment, transpose_rows,
    transversality_pairwise, truncation, unpreserved_by_pairs, unpreserved_mismatches,
    unpreserved_pairwise, up_rows_by_names, validate_pairwise, zone_conflict_walk)


@dataclass(frozen=True)
class Row:
    """A fast path and its reference, compared on every argument tuple that
    ``cases()`` gives.  There are at least ``min_cases`` tuples, and the
    labels ``kinds(case, expected)`` gives over all of them are exactly the
    keys of ``want``, each occurring at least its value times."""
    name: str
    fast: Callable
    oracle: Callable
    cases: Callable
    min_cases: int
    kinds: Callable = lambda case, expected: ()
    want: dict = field(default_factory=dict)


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except MedianKitError as exc:
        return type(exc).__name__, str(exc)


def _each(items) -> list:
    return [(x,) for x in items]


def _wall_rows(P, adj) -> list:
    """Rows kept at lower sides, as masks over wall positions; an upper
    side has no row."""
    wall_at = {i: a for a, (i, _) in enumerate(P.walls)}
    assert not any(adj[j] for _, j in P.walls if j not in wall_at)
    return [sum(1 << wall_at[k] for k in _iter_bits(adj[i])) for i in wall_at]


def _mask(p):
    return None if p is None else p.mask


def _members(S, seed) -> set:
    """The closure's members up to the depth ``closure_depth``."""
    return {(c, n) for c, (lo, hi) in closure(S, seed).intervals.items()
            for n in range(lo, closure_depth(S, seed) + 1) if hi is None or n <= hi}


def _validate_kinds(case, rep) -> list:
    """The verdict and each code once; whether a failing transitivity check ran
    again at the horizon after failing at 3 head_extent below it."""
    S = case[0]
    codes = list(dict.fromkeys(f["code"] for f in rep["failures"]))
    deep = "REL_NOT_TRANSITIVE" in codes and 3 * S.head_extent < S.horizon
    return ["accepted" if rep["ok"] else "rejected"] + codes + ["rerun at horizon"] * deep


def _tail_sets(S, c) -> list:
    """The tail sets of the closures of c's tails from 0 to one past
    ``tail_depth``."""
    return [closure(S, tail(c, M)).tails() for M in range(S.tail_depth + 2)]


def _mass_kinds(case, mass) -> list:
    """Where the interval lies against the chain's head; whether it spans
    40 blocks."""
    c, lo, hi = case
    h = len(c.head_weights)
    where = "head" if hi < h else "across the head" if lo < h else "past the head"
    return [where] + (["40 blocks"] if hi - max(lo, h) >= 40 * c.period - 1 else [])


def _unpreserved_kinds(case, pair) -> list:
    """The outcome, alone and with each feature of the case that has it: a
    map between two systems, a negative shift, an image row in the head,
    a shift of at least 997."""
    S1, S2, g, block = case
    shifts = g.shift.values()
    outcome = "preserved" if pair is None else "unpreserved"
    features = [name for name, has in (
        ("S1 != S2", S1 is not S2), ("negative shift", min(shifts) < 0),
        ("image row in the head", block.start + min(shifts) < S2.head_extent),
        ("shift 10^3", max(shifts) >= 997)) if has]
    return [outcome] + [f"{name}, {outcome}" for name in features]


def _shift_check(S1, S2, g, block):
    """``validate_shift``'s outcome on a map of one system (block None),
    else the pair ``_unpreserved`` names on the block."""
    return outcome(validate_shift, S1, g) if block is None else _unpreserved(S1, S2, g, block)


def _shift_check_by_pairs(S1, S2, g, block):
    return outcome(shift_check_by_pairs, S1, g) if block is None else \
        unpreserved_by_pairs(S1, S2, g, block)


def _shift_check_kinds(case, expected) -> list:
    """The check (a shift map or an isomorphism) and its verdict; for a
    broken relation, where the image pairs of the first failing chain pair
    that differ lie against S2's head: past it only, in its columns only,
    or some in its rows; for broken weights, whether the relation keeps."""
    S1, S2, g, block = case
    check = "shift map" if block is None else "isomorphism"
    if expected is None:
        return [f"{check} preserved"]
    if block is None:
        block = range(max(g.min_index, S1.head_extent) + S1.lcm_period,
                      max(g.min_index, S1.head_extent) + 2 * S1.lcm_period)
    pairs = list(unpreserved_mismatches(S1, S2, g, block))
    if "weights" in str(expected):
        return ["weights, relation kept" if not pairs else "weights"]
    E2, first = S2.head_extent, pairs[0][:2]
    images = [(n + g.shift[ci], m + g.shift[cj]) for ci, cj, n, m in pairs if (ci, cj) == first]
    where = "rows in the head" if any(N < E2 for N, _ in images) else \
        "columns in the head only" if all(M < E2 for _, M in images) else \
        "past the heads only" if all(M >= E2 for _, M in images) else "columns in and past the head"
    return [f"{check} unpreserved", f"{check}, {where}"]


def _differs_kinds(case, differ) -> list:
    """Whether the profiles differ, and whether they differ only off both
    ranges less their top positions: at a top or past it, where reading
    each range but its top would miss the difference."""
    a, b, intervals = case
    if not differ:
        return ["equal"]
    inner = [p for lo, hi in intervals for p in range(lo, hi + 1)
             if any(p0 <= p < p1 for p0, p1 in (a[2:], b[2:]))]
    only_top = not differs_per_position(a, b, [(p, p) for p in inner])
    return ["differ"] + ["differ at a top or past it only"] * only_top


def _system_map_kinds(case, verdict) -> list:
    """The verdict, alone and with each feature of the case that has it:
    a chain whose image has another period, a longer head on either side,
    a negative shift, a shift of 10^3, two chains sent to one."""
    S1, S2, g = case
    shifts = g.shift.values()
    features = [name for name, has in (
        ("periods 3 and 5", any(S1.chains[c].period != S2.chains[d].period
                                for c, d in g.tau.items())),
        ("head in S1", S1.head_extent > S2.head_extent),
        ("head in S2", S2.head_extent > S1.head_extent),
        ("negative shift", min(shifts) < 0), ("shift 10^3", max(map(abs, shifts)) == 1000),
        ("non-permutation", len(set(g.tau.values())) < len(g.tau))) if has]
    return [verdict] + [(name, verdict) for name in features]


def _poset_kinds(case, poset) -> list:
    """One label per kept and per dropped vertex set; one per kept set whose
    representative needs an N past the largest minimal-tail start; one if
    the graph has an edge path of length 2."""
    S = case[0]
    G = ubs_graph(S)
    edges, dropped = set(G.edges), (1 << len(G.vertices)) - 1 - len(poset)
    path = any((j, k) in edges for _, j in edges for k in range(len(G.vertices)))
    index = {label: i for i, (label, _, _) in enumerate(G.vertices)}
    later = sum(poset_candidate(S, G, [index[v] for v in labels],
                                max(G.starts, default=0)) is None for labels, _ in poset)
    return ["kept"] * len(poset) + ["dropped"] * dropped + ["later start"] * later + \
        ["two-edge path"] * path


def _cube(S, q) -> tuple:
    cube = cube_at(S, q)
    signs = list(itertools.product((-1, 0, 1), repeat=cube.k))
    return ([S.parent.ids[i] for i in cube.wall_sides],
            [cube.midpoint(s).mask for s in signs],
            [S.preimage(cube.midpoint(s)).mask for s in signs if 0 not in s])


def _image_kinds(case, q) -> list:
    """A point image, also under a total map, or why there is none."""
    if q is None:
        return [image_per_bit(*case)[1]]
    return ["point"] + (["total"] if None not in case[0].perm else [])


def _orbit_kinds(case, orbit) -> list:
    sizes = [len(o) for o in set(orbits_by_group(case[0])[0].values())]
    return [f"size {len(orbit)}"] + ["tied least size"] * (sizes.count(len(orbit)) > 1)


def _word_images(action, word, cancelled) -> tuple:
    """The engine's images of every halfspace and every point."""
    images = WordImages(action, range(action.pocset.n))
    return images(word), [_mask(images.point(word, p.mask)) for p in action.points()]


def _word_image_kinds(case, images) -> list:
    """Whether some point has an image, some halfspace or point leaves the
    window, some point maps to an inconsistent set; a cancelled expansion."""
    action, word, cancelled = case
    g = composed_map(action, word)
    why = {image_per_bit(g, p)[1] for p, q in zip(action.points(), images[1]) if q is None}
    return ["defined"] * any(q is not None for q in images[1]) \
        + ["left the window"] * (None in images[0] or "outside" in why) \
        + ["inconsistent point"] * ("inconsistent" in why) + ["cancelled expansion"] * cancelled


def _child(P) -> tuple:
    S = subdivide(P)
    return shape(S.child), S.copies


def _child_by_names(P) -> tuple:
    C = child_by_names(P)
    return shape(C), tuple((C.index[h + "-"], C.index[h + "+"]) for h in P.ids)


def _factors(P) -> list:
    D = decompose(P)
    return [(shape(F), [D.assignment[h] for h in F.ids]) for F in D.factors]


def _sector_kinds(case, res) -> list:
    """The answer's kind; for a product or neither, also whether h's and
    k's factors decided it where the envelope partition failed."""
    if isinstance(res, tuple):
        return [res[0]]
    fallbacks = []
    if res.kind != "HALFSPACE":
        sector_per_halfspace(*case, fallbacks)
    return [res.kind] + ["fallback " + kind for kind in fallbacks]


def _certificate_gap(P, g, h) -> str:
    """The least distance from g's points to those of h*, pair by pair."""
    masks = halfspace_point_masks(P, fx.WINDOW_BUDGETS)
    return str(gap_by_pairs(P, masks[P.idx(g)], masks[P.star[P.idx(h)]]))


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


def _report_kinds(case, text) -> set:
    """What the report's tree holds that an encoder could get wrong: rows
    of one length k of strings, ragged rows, rows holding an int; empty
    containers, tuples, nesting 4 deep; keys that are not strings; NaN,
    inf and -0.0; True next to 1 in one list; characters that strings
    escape or a format would read."""
    kinds = set()

    def walk(x, depth):
        if type(x) is str:
            kinds.update(label for label, has in (
                ("quote", '"' in x), ("backslash", "\\" in x),
                ("control", any(c < " " for c in x)), ("non-ASCII", any(c > "~" for c in x)),
                ("%", "%" in x)) if has)
        elif type(x) is float:
            kinds.update(label for label, has in (
                ("NaN", x != x), ("inf", math.isinf(x)),
                ("-0.0", x == 0 and math.copysign(1, x) < 0)) if has)
        elif isinstance(x, (list, tuple, dict)):
            kinds.update(label for label, has in (
                ("empty", not x), ("tuple", type(x) is tuple), ("nesting", depth == 4),
                ("non-str key", type(x) is dict and any(type(k) is not str for k in x)),
                ("True next to 1", type(x) is list and any(v is True for v in x)
                 and any(type(v) is int and v == 1 for v in x))) if has)
            rows = list(x) if type(x) is not dict and x and all(
                type(r) in (list, tuple) and r for r in x) else []
            lengths = {len(r) for r in rows}
            if rows and all(type(v) is str for r in rows for v in r):
                if len(lengths) > 1:
                    kinds.add("ragged rows")
                elif len(rows[0]) <= 3:
                    kinds.add(f"rows k={len(rows[0])}")
            elif rows and len(lengths) == 1 and any(type(v) is int for r in rows for v in r):
                kinds.add("rows holding ints")
            for v in (x.values() if type(x) is dict else x):
                walk(v, depth + 1)

    walk(case[0], 0)
    return kinds


ORACLES = (
    Row("median", medians, interval_medians,
        lambda: [(P, points(P)) for P in sc.random_pocsets(sc.seeded(), 20, 8, 12)], 20),
    Row("distance", distance, separating_mass, sc.point_pairs, 1724),
    Row("points", lambda P: [p.mask for p in points(P, fx.WINDOW_BUDGETS)], points_per_bit,
        lambda: _each(sc.mixed_pocsets() + sc.window_pocsets()), 42),
    Row("halfspace_point_masks", lambda P: list(halfspace_point_masks(P, fx.WINDOW_BUDGETS)),
        point_sides, lambda: _each(sc.mixed_pocsets() + sc.window_pocsets()), 42),
    Row("transpose", transpose, transpose_rows, sc.bit_matrices, 50),
    Row("up_map", lambda P, m: P.up_map(m),
        lambda P, m: reduce(or_, (P.up[i] for i in _iter_bits(m)), 0),
        sc.point_masks, 2276),
    Row("inseparable_closure",
        lambda P, m: inseparable_closure(P, [P.ids[i] for i in _iter_bits(m)]), between_members,
        lambda: [(P, m) for P, m in sc.point_masks() if P.n <= 18], 1973),
    Row("separating", separating, separating_per_halfspace,
        lambda: sc.point_pairs() + list(sc.convex_pairs()), 3484),
    Row("gate_project", lambda P, C, x: gate_project(P, C, x).mask, gate_per_wall,
        sc.point_gates, 765),
    Row("star_map", lambda P, m: P.star_map(m), star_image, sc.point_masks, 2276),
    Row("is_ultrafilter", is_ultrafilter, is_ultrafilter_per_bit, sc.point_masks, 2276,
        lambda case, uf: [(uf, star_image(*case) == ((1 << case[0].n) - 1) ^ case[1])],
        {(True, True): 1, (False, True): 1, (False, False): 1}),
    Row("embed", lambda S, p: S.embed(p).mask, embed_by_name, sc.embed_cases, 392),
    Row("preimage", lambda S, q: _mask(S.preimage(q)), preimage_by_name,
        sc.preimage_cases, 952),
    Row("is_new", lambda S, q: S.is_new(q), lambda S, q: preimage_by_name(S, q) is None,
        sc.preimage_cases, 952, lambda case, new: [new], {True: 1, False: 1}),
    Row("cube_at", _cube, cube_by_name, sc.cube_cases, 85),
    Row("child_rows", _child, _child_by_names, sc.child_cases, 53),
    Row("factor_rows", _factors,
        lambda P: [(shape(F), [(fi, h) for h in F.ids])
                   for fi, F in enumerate(factors_by_names(P))],
        lambda: _each(sc.order_pocsets() + sc.products()), 55),
    Row("product_rows", lambda parts, pre: shape(pocset_product(parts, pre)),
        lambda parts, pre: shape(product_by_names(
            parts, pre or [f"f{i}." for i in range(len(parts))])),
        sc.product_cases, 5),
    Row("transversality",
        lambda P: (_wall_rows(P, _transversality_adjacency(P)),
                   [transverse(P, h, k) for h in P.ids for k in P.ids] if P.n <= 40 else []),
        transversality_pairwise, lambda: _each(sc.order_pocsets()), 45),
    Row("rank", lambda P, source: rank(P), lambda P, source: rank_by_families(P),
        sc.rank_cases, 92, lambda case, r: [case[1]] + ["rank 3 or more"] * (r >= 3),
        {"subdivision child": 20, "tree product": 20, "twin-free random": 50,
         "rank 3 or more": 35}),
    Row("pair_rows", lambda kind, walls, order: WeightedPocset(walls, order).up,
        lambda kind, walls, order: up_rows_by_names(walls, order), sc.pair_input_cases, 137,
        lambda case, rows: [case[0]],
        {"shuffled": 45, "repeated": 45, "star-incomplete": 45, "F2BALL generating": 1,
         "F2BALL closed": 1}),
    Row("indented_report", _indented, indented_by_stdlib, sc.report_cases, 600,
        _report_kinds,
        {"rows k=1": 25, "rows k=2": 25, "rows k=3": 20, "ragged rows": 25,
         "rows holding ints": 4, "empty": 50, "tuple": 70, "nesting": 25, "non-str key": 50,
         "NaN": 10, "inf": 20, "-0.0": 10, "True next to 1": 8, "quote": 90,
         "backslash": 100, "control": 100, "non-ASCII": 100, "%": 90}),
    Row("dump_pocset_order", lambda P: dump_pocset(P)["order"],
        lambda P: sorted([a, b] for a, b in pair_order(P)), lambda: _each(sc.order_pocsets()),
        45),
    Row("automorphisms", lambda P: [g.perm for g in automorphisms(P)], automorphisms_pairwise,
        sc.automorphism_cases, 162),
    Row("check", lambda P, perm: outcome(Automorphism(P, perm, "g").check),
        lambda P, perm: outcome(check_pairwise, P, perm), sc.map_cases, 1816,
        lambda case, res: [(case[0].wall_count > 8, res and res[1])],
        {(False, None): 1, (False, "g: not injective"): 1,
         (False, "g: does not commute with star"): 1, (False, "g: does not preserve weights"): 1,
         (False, "g: does not preserve order"): 1,
         (True, None): 3, (True, "g: does not preserve order"): 3}),
    Row("lift", lambda P, perm: outcome(lambda: lift(subdivide(P), Automorphism(P, perm, "g")).check()),
        lambda P, perm: outcome(check_pairwise, P, perm), sc.lift_cases, 1241,
        lambda case, res: [res and res[1]],
        {None: 859, "g: not injective": 1, "g: does not commute with star": 1,
         "g: does not preserve weights": 1, "g: does not preserve order": 1}),
    Row("validate", lambda P: validate(P).to_json(), validate_pairwise,
        lambda: _each(sc.construction_cases()), 406,
        lambda case, rep: [f["code"] for f in rep["failures"]],
        {"STAR_FIXED_POINT": 1, "COMPARABLE_WITH_COMPLEMENT": 1, "NOT_ANTISYMMETRIC": 1,
         "NONPOSITIVE_WEIGHT": 1}),
    Row("strongly_separated", strongly_separated, strongly_separated_per_wall,
        lambda: sc.halfspace_pairs(19), 3924,
        lambda case, sep: [(sep, case[0].leq(case[1], case[0].star_of(case[2])))],
        {(False, False): 1, (False, True): 1, (True, True): 1}),
    Row("sector_halfspace", lambda P, h, k: outcome(sector_halfspace, P, h, k),
        lambda P, h, k: outcome(sector_per_halfspace, P, h, k),
        lambda: sc.halfspace_pairs(20, sc.four_wall_paths()), 4132,
        _sector_kinds, {"HALFSPACE": 1, "PRODUCT": 1, "NEITHER": 1, "NotTransverse": 1,
                        "fallback PRODUCT": 1, "fallback NEITHER": 1}),
    Row("apply_point", lambda g, p: _mask(g.apply_point(p)),
        lambda g, p: image_per_bit(g, p)[0], sc.image_cases, 3685, _image_kinds,
        {"point": 1, "inconsistent": 1, "outside": 1, "total": 1}),
    Row("is_lineal", lambda P: [(x.mask, y.mask) for x, y in is_lineal(P).pairs],
        lineal_pairs, lambda: _each(sc.mixed_pocsets()), 40),
    Row("group", lambda act: [g.perm for g in act.group()],
        lambda act: [g.perm for g in closure_group(act)],
        lambda: _each(sc.total_actions()), 24),
    Row("min_orbit", lambda act: tuple(p.mask for p in min_orbit(act).orbit),
        lambda act: orbits_by_group(act)[1],
        lambda: list(sc.subgroups()) + _each(sc.cube_actions()), 190, _orbit_kinds,
        {"size 1": 60, "size 2": 45, "size 4": 40, "size 8": 25, "tied least size": 95}),
    Row("total_flip", lambda act, h: find_flip(act, h).to_json(),
        lambda act, h: brute_total_flip(act, h).to_json(),
        lambda: [(act, h) for act in sc.total_actions() for h in act.pocset.ids], 136,
        lambda case, res: [res["kind"]], {"FLIPPED": 1, "INVARIANT_SET": 1}),
    Row("facing_triple", lambda P: facing_tuple(P, 3).tuple_ids,
        lambda P: first_facing_tuple(P, 3, False),
        lambda: _each(sc.random_pocsets(sc.seeded(), 10, 6, 12)
                         + sc.random_pocsets(sc.seeded(4), 30)), 40,
        lambda case, found: ["FOUND" if found else "NOT_FOUND"], {"FOUND": 1, "NOT_FOUND": 1}),
    Row("facing_tuple", lambda P: [facing_tuple(P, n, strong=True).tuple_ids for n in (3, 4)],
        lambda P: [first_facing_tuple(P, n, True) for n in (3, 4)],
        lambda: _each(sc.facing_pocsets()), 165,
        lambda case, found: ["FOUND" if found[1] else "NOT_FOUND"], {"FOUND": 1, "NOT_FOUND": 1}),
    # checked maps keep order both ways, so no point image is inconsistent:
    # the kind is labelled and must not occur
    Row("word_images", _word_images, composite_images, sc.word_image_cases, 392,
        _word_image_kinds, {"defined": 200, "left the window": 390, "cancelled expansion": 12}),
    Row("wall_inversions", wall_inversions, inversions_by_composite, sc.inversion_cases, 2284,
        lambda case, res: ["inverted"] * bool(res[0]) + ["undecided"] * bool(res[1])
        + ["run of 33"] * (len(case[1]) == 33),
        {"inverted": 700, "undecided": 530, "run of 33": 70}),
    Row("stabilizer_excluded",
        lambda act, w, side, forbidden: _stabilizer_excluded(WordImages(act), w, side, forbidden),
        stabilizer_per_point, sc.stabilizer_cases, 7640,
        lambda case, excluded: [(excluded, bool(defined_images(case[0], composed_map(*case[:2]))))],
        {(True, True): 1, (False, True): 1, (False, False): 1}),
    Row("skewer_gap", lambda P, a, b: _set_distance(P, a, b, fx.WINDOW_BUDGETS), gap_by_pairs,
        sc.halfspace_sets, 1106, lambda case, gap: [(case[1] & case[2] == 0, gap > 0)],
        {(True, True): 1, (False, False): 1}),
    Row("skewer_certificate_gap", lambda P, g, h: verify_skewer(P, h, h, g)["gapToComplement"],
        _certificate_gap, sc.certificate_pairs, 1600,
        lambda case, gap: ["0" if gap == "0" else "fraction" if "/" in gap else "whole"],
        {"0": 1000, "whole": 150, "fraction": 200}),
    Row("law: closures are idempotent UBSs",
        lambda S, seed: (closure(S, closure(S, seed).intervals), is_ubs(S, closure(S, seed))),
        lambda S, seed: (closure(S, seed), True), lambda: [
            (S, tail(S.chain_order[0], 2)) for S in sc.random_systems(sc.seeded(), 15, 4)], 15),
    Row("closure", lambda S, seed: outcome(_members, S, seed),
        lambda S, seed: outcome(closure_oracle, S, seed), sc.closure_cases, 1070,
        lambda case, members: ["decorated" if case[0].head or case[0].rows else "plain"]
        + (["HorizonExceeded"] if isinstance(members, tuple) else [])
        + (["gap"] if case[0].name.startswith("GAP") else []),
        {"decorated": 300, "plain": 1, "HorizonExceeded": 300, "gap": 90}),
    Row("minimal_tail", lambda S, c: outcome(minimal_tail, S, c),
        lambda S, c: outcome(minimal_tail_by_containment, S, c),
        lambda: [(S, c) for S in sc.tail_systems() for c in S.chain_order], 112,
        lambda case, res: [res[0] if res[0] < 2 else "at least 2"],
        {0: 1, 1: 1, "at least 2": 6}),
    Row("law: tail sets of tail closures shrink as the start grows", _tail_sets,
        lambda S, c: list(itertools.accumulate(_tail_sets(S, c), and_)),
        lambda: [(S, c) for S in sc.tail_systems() for c in S.chain_order], 112,
        lambda case, sets: ["shrinks" if sets[0] != sets[-1] else "constant"],
        {"shrinks": 8, "constant": 1}),
    Row("interval_mass", lambda c, lo, hi: c.mass(lo, hi), mass_per_index, sc.mass_cases,
        1440, _mass_kinds, {"head": 50, "across the head": 50, "past the head": 1300,
                            "40 blocks": 400}),
    Row("equivalent", equivalent, equivalent_by_containment, sc.tail_closure_pairs, 2987,
        lambda case, eq: [eq], {True: 1, False: 1}),
    Row("transfer", _transfer, transfer_by_containment, sc.transfer_cases, 1600,
        lambda case, chi: ["moved" if chi is None else "preserved"],
        {"preserved": 500, "moved": 500}),
    Row("rel", lambda S, c, d, idx: [S.rel(c, n, d, m) for n in idx for m in idx],
        lambda S, c, d, idx: [resolve(S, c, n, d, m) for n in idx for m in idx], sc.rel_cases,
        1150, lambda case, rels: ["long head" if case[0].head_extent > 5 * case[0].lcm_period + 4
                                  else "direct"], {"direct": 1100, "long head": 20}),
    Row("unpreserved", _unpreserved, unpreserved_pairwise, sc.unpreserved_cases, 440,
        _unpreserved_kinds,
        {"preserved": 250, "unpreserved": 120, "S1 != S2, preserved": 80,
         "S1 != S2, unpreserved": 30, "negative shift, preserved": 80,
         "negative shift, unpreserved": 60, "image row in the head, preserved": 4,
         "image row in the head, unpreserved": 8, "shift 10^3, preserved": 40,
         "shift 10^3, unpreserved": 10}),
    Row("differs", _differs, differs_per_position, sc.differs_cases, 3000, _differs_kinds,
        {"equal": 1200, "differ": 1700, "differ at a top or past it only": 400}),
    Row("shift_check", _shift_check, _shift_check_by_pairs, sc.shift_check_cases, 740,
        _shift_check_kinds,
        {"shift map preserved": 200, "weights, relation kept": 60, "weights": 70,
         "shift map unpreserved": 50, "shift map, past the heads only": 30,
         "shift map, columns in the head only": 10, "shift map, rows in the head": 10,
         "isomorphism preserved": 180, "isomorphism unpreserved": 40,
         "isomorphism, past the heads only": 40}),
    Row("system_map", verify_system_map, system_map_by_range, sc.system_map_cases, 149,
        _system_map_kinds,
        {True: 25, False: 90, ("periods 3 and 5", True): 5, ("periods 3 and 5", False): 60,
         ("head in S1", True): 5, ("head in S1", False): 10, ("head in S2", True): 15,
         ("head in S2", False): 30, ("negative shift", True): 15, ("negative shift", False): 40,
         ("shift 10^3", True): 2, ("shift 10^3", False): 2, ("non-permutation", False): 6}),
    Row("zone_conflict", _zone_conflict, zone_conflict_walk, sc.zone_conflict_cases, 1200,
        lambda case, d: ["agree" if d is None else "conflict at -horizon"
                         if d == -case[0].horizon else "conflict above -horizon"],
        {"agree": 300, "conflict at -horizon": 300, "conflict above -horizon": 150}),
    Row("relation_index", lambda S, c, d, want, depth: S.index(c, d, depth)[want == SUP],
        rel_index, lambda: [(S, c, d, want, depth) for S in sc.index_systems()
                            for c in S.chain_order for d in S.chain_order if c != d
                            for depth in sorted({0, 3 * S.head_extent, S.horizon + S.lcm_period})
                            for want in (SUB, SUP)], 340),
    Row("ubs_poset", ubs_poset, poset_by_closures, lambda: _each(sc.poset_systems()), 90,
        _poset_kinds, {"kept": 700, "dropped": 120, "later start": 1, "two-edge path": 20}),
    Row("validate_system", lambda S: validate_system(S).to_json(),
        lambda S: pairwise_validate_system(S).to_json(),
        lambda: _each(sc.validated_systems()), 190, _validate_kinds,
        {"accepted": 70, "rejected": 110, "REL_NOT_TRANSITIVE": 100, "HEAD_CONFLICT": 1,
         "ZONE_CONFLICT": 1, "ZONES_NOT_PARTITION": 1, "NEGATIVE_INDEX": 1,
         "rerun at horizon": 80}),
    Row("antichain_bound", truncation_antichain_bound,
        lambda S: min_chain_cover(rel_up_rows(S, truncation(S, S.tail_depth))),
        lambda: _each(sc.validated_systems()), 190),
    Row("truncation_rows", lambda S: _truncation_rows(S, S.tail_depth),
        lambda S: transpose_rows(rel_up_rows(S, truncation(S, S.tail_depth))),
        lambda: _each(sc.truncated_systems()), 27),
    Row("dilworth", lambda rows: (min_chain_cover(rows), min_chain_cover(transpose_rows(rows))),
        lambda rows: (max_antichain_brute(rows),) * 2, sc.random_posets, 30),
    # laws of the paper, left side against right side
    Row("law: chi is a homomorphism", lambda S, g, h: chi_vector(S, g.compose(h)),
        lambda S, g, h: tuple(a + b for a, b in zip(chi_vector(S, g), chi_vector(S, h))),
        sc.uniform_shifts, 36),
    Row("law: rank adds over products", lambda A, B: rank(pocset_product([A, B])),
        lambda A, B: rank(A) + rank(B), lambda: sc.pocset_pairs(20, 5, 10), 20),
    Row("law: subdivision keeps the rank", lambda P: rank(subdivide(P).child), rank,
        lambda: _each(sc.order_pocsets()), 45),
    Row("law: points biject and distances add over products", _product_distances,
        _factor_distances, lambda: sc.pocset_pairs(10, 4, 8), 10),
    Row("law: subdivision is isometric and halves the atom mass",
        lambda P: embedded_distances(subdivide(P), points(P)),
        lambda P: halved_distances(P, points(P)),
        lambda: _each(sc.random_pocsets(sc.seeded(2), 20, max_walls=8)), 20),
    Row("law: minimum orbits have at most 2^rank points",
        lambda act: len(min_orbit(act).orbit) <= 2 ** rank(act.pocset),
        lambda act: True, sc.subgroups, 102),
)


@pytest.mark.parametrize("row", ORACLES, ids=[row.name for row in ORACLES])
def test_fast_path_matches_its_reference(row):
    count, kinds = 0, Counter()
    for case in row.cases():
        expected = row.oracle(*case)
        assert row.fast(*case) == expected, (row.name, case)
        kinds.update(row.kinds(case, expected))
        count += 1
    assert count >= row.min_cases
    assert kinds.keys() == row.want.keys()
    assert all(kinds[k] >= n for k, n in row.want.items()), kinds
