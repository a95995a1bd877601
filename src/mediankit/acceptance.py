"""The acceptance suite: thirteen exactly-toleranced criteria.

Each criterion is a function returning a CriterionResult; ``run_all``
executes them in order and prints one pass/fail line per criterion.  All
comparisons are exact rational or structural equalities; there are no
floating-point tolerances anywhere.  Random instances use fixed seeds, so
the suite is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import boundary as bd
from . import fixtures as fx
from . import randomgen as rg
from .actions import (
    double_skewer,
    min_orbit,
    parse_word,
    pingpong,
    strongly_separated,
    word_str,
    TotalAction,
)
from .config import Budgets, DEFAULT_BUDGETS
from .oracles import (
    embedded_distances, halved_distances, interval_medians, max_antichain_brute, medians,
    wall_mass)
from .pocset import (
    Point,
    WeightedPocset,
    convex_hull,
    distance,
    gate_project,
    halfspace_point_masks,
    points,
    separating,
)
from .structure import automorphisms, decompose, pocset_product, rank
from .subdivision import cube_at, lift, subdivide

SEED = 20260808


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json(self):
        return {"index": self.index, "name": self.name, "passed": self.passed,
                "details": self.details, "seconds": round(self.seconds, 3)}


def _fixture_pocsets():
    return [(name, fx.pocset(name)) for name in fx.POCSET_FIXTURES]


def _budget_for(P: WeightedPocset) -> Budgets:
    if P.wall_count > DEFAULT_BUDGETS.point_walls:
        return fx.WINDOW_BUDGETS
    return DEFAULT_BUDGETS


def criterion_1() -> CriterionResult:
    """Median oracle equivalence on fixtures and 100 random pocsets."""
    rng = random.Random(SEED)
    checked = []
    ok = True
    for name, P in _fixture_pocsets():
        pts = points(P, _budget_for(P))
        good = medians(P, pts) == interval_medians(P, pts)
        checked.append(name)
        ok = ok and good
    for i in range(100):
        P = rg.random_pocset(rng, max_walls=10, max_points=16)
        pts = points(P, DEFAULT_BUDGETS)
        if medians(P, pts) != interval_medians(P, pts):
            ok = False
            checked.append(f"random#{i}:FAIL")
    return CriterionResult(1, "median oracle equivalence", ok,
                           {"fixtures": checked[:5], "randomPocsets": 100})


def criterion_2() -> CriterionResult:
    """Separating-wall mass equals the distance, exactly, for all pairs."""
    ok = True
    pairs = 0
    for name, P in _fixture_pocsets():
        budgets = _budget_for(P)
        pts = points(P, budgets)
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if wall_mass(P, separating(P, pts[a], pts[b])) != \
                        distance(P, pts[a], pts[b]):
                    ok = False
                pairs += 1
    return CriterionResult(2, "metric-measure identity", ok, {"pairs": pairs})


def criterion_3() -> CriterionResult:
    """Gate law on 1000 random (C, x) instances."""
    rng = random.Random(SEED + 3)
    ok = True
    runs = 0
    while runs < 1000:
        P = rg.random_pocset(rng, max_walls=8, max_points=14)
        pts = points(P)
        for _ in range(10):
            if runs >= 1000:
                break
            k = rng.randint(1, min(4, len(pts)))
            C = convex_hull(P, rg.random_points(rng, pts, k))
            x = rng.choice(pts)
            gate = gate_project(P, C, x)
            for z in C.points:
                if (x.mask & z.mask) & ~gate.mask:
                    ok = False  # gate outside I(x, z)
            runs += 1
    return CriterionResult(3, "gate law", ok, {"instances": runs})


def criterion_4() -> CriterionResult:
    """GRID round-trip plus 100 random two-factor products."""
    details = {}
    G = fx.grid()
    D = decompose(G)
    ok = len(D.factors) == 2
    details["gridFactors"] = len(D.factors)
    pts = points(G)
    ok = ok and len(pts) == 16
    f_pts = [points(F) for F in D.factors]
    ok = ok and len(f_pts[0]) * len(f_pts[1]) == len(pts) == 16
    # distances add over the factor split
    split = {}
    for p in pts:
        key = []
        for F in D.factors:
            mask = 0
            for h in F.ids:
                if h in p:
                    mask |= 1 << F.idx(h)
            key.append(mask)
        split[p.mask] = key
    for a in pts:
        for b in pts:
            lhs = distance(G, a, b)
            rhs = sum(
                distance(F, Point(F, split[a.mask][i]), Point(F, split[b.mask][i]))
                for i, F in enumerate(D.factors))
            if lhs != rhs:
                ok = False
    r = rank(G)
    ok = ok and r == 2 and sum(rank(F) for F in D.factors) == r
    details["rank"] = r

    rng = random.Random(SEED + 4)
    recovered = 0
    for _ in range(100):
        while True:
            A = rg.random_pocset(rng, max_walls=5, max_points=10)
            if len(decompose(A).factors) == 1:
                break
        while True:
            B = rg.random_pocset(rng, max_walls=5, max_points=10)
            if len(decompose(B).factors) == 1:
                break
        prod = pocset_product([A, B], prefixes=["x.", "y."])
        DD = decompose(prod)
        sets = sorted(frozenset(F.ids) for F in DD.factors)
        want = sorted([frozenset("x." + h for h in A.ids),
                       frozenset("y." + h for h in B.ids)])
        if sets == want and rank(prod) == rank(A) + rank(B):
            recovered += 1
    ok = ok and recovered == 100
    details["randomProductsRecovered"] = recovered
    return CriterionResult(4, "product round-trip and rank additivity", ok, details)


def criterion_5() -> CriterionResult:
    """Subdivision suite on all fixtures plus the one-wall pocset."""
    ok = True
    details = {}
    cases = _fixture_pocsets()
    cases.append(("ONEWALL", WeightedPocset([("a", "a*", Fraction(1))])))
    for name, P in cases:
        budgets = _budget_for(P)
        S = subdivide(P)
        pts = points(P, budgets)
        if embedded_distances(S, pts) != halved_distances(P, pts):
            ok = False
        if P.walls and rank(S.child, fx.WINDOW_BUDGETS) != rank(P, fx.WINDOW_BUDGETS):
            ok = False
        if name == "SQUARE":
            child_points = points(S.child, _budget_for(S.child))
            details["squarePrimePoints"] = len(child_points)
            ok = ok and len(child_points) == 9
            # the canonical cube at each new point: 3^k distinct midpoints,
            # with parent points at its vertices
            for cube in (cube_at(S, x) for x in child_points if S.is_new(x)):
                mids = {s: cube.midpoint(s) for s in itertools.product((-1, 0, 1), repeat=cube.k)}
                ok = ok and len({m.mask for m in mids.values()}) == 3 ** cube.k and all(
                    S.preimage(m) is not None for s, m in mids.items() if 0 not in s)
        # every wall-inverting automorphism lifts to one without inversions
        if P.wall_count <= DEFAULT_BUDGETS.aut_walls:
            for g in automorphisms(P):
                inverts = any(g.apply_idx(i) == P.star[i] for i, _ in P.walls)
                if not inverts:
                    continue
                lifted = lift(S, g)
                C = S.child
                if any(lifted.apply_idx(i) == C.star[i] for i, _ in C.walls):
                    ok = False
    return CriterionResult(5, "subdivision suite", ok, details)


def _all_subgroups(group):
    """One action per subgroup of a small group given as a list of
    automorphisms: the first that generates it, which has its orbits."""
    subgroups = {}
    for r in range(0, min(3, len(group)) + 1):
        for gens in itertools.combinations(group, r):
            act = TotalAction(group[0].pocset, {f"s{i}": g for i, g in enumerate(gens)})
            subgroups.setdefault(frozenset(g.perm for g in act.group()), act)
    return subgroups.values()


def criterion_6() -> CriterionResult:
    """Minimum orbit of every subgroup is at most 2^rank; tight on SQUARE."""
    ok = True
    details = {}
    for name in ("SQUARE", "PATH3", "TRIPOD", "GRID"):
        P = fx.pocset(name)
        group = list(automorphisms(P))
        r = rank(P)
        for act in _all_subgroups(group):
            if min_orbit(act).size > 2 ** r:
                ok = False
        details[name] = {"groupOrder": len(group), "rank": r}
    full = fx.total_action("SQUARE")
    tight = min_orbit(full).size
    details["squareMinOrbit"] = tight
    ok = ok and tight == 4
    return CriterionResult(6, "orbit bound with tight square witness", ok, details)


def criterion_7() -> CriterionResult:
    """Strong separation matches irreducibility on TRIPOD and GRID."""
    T = fx.tripod()
    pairs = [(h, k) for h in T.ids for k in T.ids
             if h < k and strongly_separated(T, h, k)]
    tripod_ok = bool(pairs) and len(decompose(T).factors) == 1
    G = fx.grid()
    gpairs = [(h, k) for h in G.ids for k in G.ids
              if h < k and strongly_separated(G, h, k)]
    grid_ok = not gpairs and len(decompose(G).factors) == 2
    return CriterionResult(
        7, "strong separation vs irreducibility", tripod_ok and grid_ok,
        {"tripodPairs": len(pairs), "gridPairs": len(gpairs)})


def criterion_8() -> CriterionResult:
    """F2BALL ping-pong certificate, complete to word length 4."""
    W = fx.f2ball_window()
    a = parse_word("a", W.gen_names())
    b = parse_word("b", W.gen_names())
    cert = pingpong(W, a, b, "wA+", "wB+", max_len=4)
    ok = (cert.verified and cert.stabilizer_trivial and cert.depth == 4
          and cert.words_checked == 160 and cert.checks_performed == 972
          and cert.base_inclusions == 12)
    return CriterionResult(8, "ping-pong certificate", ok, {
        "wordsChecked": cert.words_checked,
        "checksPerformed": cert.checks_performed,
        "facingTuple": list(cert.facing_tuple),
    })


def criterion_9() -> CriterionResult:
    """STAIRFLAP reproduces the quoted closure behaviors and its graph."""
    S = fx.stairflap()
    details = {}
    cl0 = bd.closure(S, bd.tail("H", 0))
    contains_all_k = cl0.intervals.get("K") == (0, None)
    minimal_h = bd.minimal_tail(S, "H")
    cl1 = bd.closure(S, bd.tail("H", 1))
    non_minimal = not bd.equivalent(S, cl0, minimal_h[1])
    k1 = bd.closure(S, bd.tail("K", 1))
    k_min = bd.equivalent(S, k1, bd.minimal_tail(S, "K")[1])
    h1_min = bd.equivalent(S, cl1, minimal_h[1])
    G = bd.ubs_graph(S)
    graph_ok = (len(G.vertices) == 2 and G.edges == ((0, 1),)
                and G.vertices[0][2] == "H" and G.vertices[1][2] == "K")
    details["closureTail0ContainsAllK"] = contains_all_k
    details["closureTail0Minimal"] = not non_minimal
    details["indexOneTailsMinimal"] = h1_min and k_min
    details["graph"] = G.to_json()["edges"]
    ok = contains_all_k and non_minimal and h1_min and k_min and graph_ok
    return CriterionResult(9, "STAIRFLAP fixture fidelity", ok, details)


def criterion_10() -> CriterionResult:
    """Graph laws on 200 random systems; Dilworth vs brute antichain."""
    rng = random.Random(SEED + 10)
    ok = True
    for _ in range(200):
        S = rg.random_system(rng, max_chains=5)
        if not bd.validate_system(S).ok:
            ok = False
            continue
        G = bd.ubs_graph(S)  # raises if DAG/reachability/bound laws fail
        n = len(G.vertices)
        adj = {(i, j) for i, j in G.edges}
        for i, j in adj:
            for j2, k in adj:
                if j2 == j and (i, k) not in adj and i != k:
                    ok = False
        if n > bd.truncation_antichain_bound(S):
            ok = False
    dil_ok = True
    for _ in range(60):
        size = rng.randint(1, 12)
        rows = rg.random_poset(rng, size)
        if bd.min_chain_cover(rows) != max_antichain_brute(rows):
            dil_ok = False
    ok = ok and dil_ok
    return CriterionResult(10, "UBS graph laws and Dilworth", ok,
                           {"systems": 200, "posets": 60})


def criterion_11() -> CriterionResult:
    """Transfer characters: identity, additivity, doubling, exact values."""
    ok = True
    details = {}
    L = fx.line_system()
    S = fx.stairflap()
    idL = bd.identity_shift(L)
    idS = bd.identity_shift(S)
    gL = bd.ShiftMap({"H": "H"}, {"H": 1}, 0)
    gS = bd.ShiftMap({"H": "H", "K": "K"}, {"H": 1, "K": 1}, 0)
    ok = ok and bd.chi_vector(L, idL) == (0,)
    ok = ok and bd.chi_vector(S, idS) == (0, 0)
    line_chi = bd.chi_vector(L, gL)
    ok = ok and line_chi == (Fraction(1),)
    details["lineChi"] = str(line_chi[0])
    # additivity over minimal classes on the non-minimal closure
    big = bd.closure(S, bd.tail("H", 0))
    GS = bd.ubs_graph(S)
    total = bd.transfer_character(S, big, gS)
    parts = [bd.transfer_character(S, rep, gS) for _, rep, _ in GS.vertices]
    ok = ok and total == sum(parts)
    details["additivity"] = f"{total} = {'+'.join(str(p) for p in parts)}"
    # doubling under composition
    ok = ok and bd.chi_vector(L, gL.compose(gL)) == (2 * line_chi[0],)
    vecS = bd.chi_vector(S, gS)
    ok = ok and bd.chi_vector(S, gS.compose(gS)) == tuple(2 * v for v in vecS)
    # CORNER4 horizontal translation
    C = fx.corner_system("PP")
    tx = fx.corner_translation("PP", "x")
    corner = bd.chi_vector(C, tx)
    ok = ok and corner == (Fraction(1), Fraction(0))
    details["cornerChi"] = [str(v) for v in corner]
    return CriterionResult(11, "transfer characters", ok, details)


def criterion_12() -> CriterionResult:
    """Four corners: translations preserve, the rotation 4-cycles."""
    ok = True
    details = {}
    for corner in fx.CORNERS:
        S = fx.corner_system(corner)
        for pos, axis in enumerate(("x", "y")):
            g = fx.corner_translation(corner, axis)
            if any(g.tau[c] != c for c in g.tau):
                ok = False
            vec = bd.chi_vector(S, g)  # raises CLASS_PERMUTED if not trivial
            if abs(vec[pos]) != 1 or vec[1 - pos] != 0:
                ok = False
            sign = 1 if corner[pos] == "P" else -1
            if vec[pos] != sign:
                ok = False
    seq = ["PP"]
    maps = []
    cur = "PP"
    for _ in range(4):
        nxt, m = fx.corner_rotation(cur)
        if not bd.verify_system_map(fx.corner_system(cur),
                                    fx.corner_system(nxt), m):
            ok = False
        maps.append(m)
        cur = nxt
        seq.append(cur)
    ok = ok and seq == ["PP", "MP", "MM", "PM", "PP"]
    composed = maps[0]
    for m in maps[1:]:
        composed = m.compose(composed)
    ok = ok and composed.is_identity()
    details["cycle"] = seq
    return CriterionResult(12, "four corners", ok, details)


def criterion_13() -> CriterionResult:
    """Skewering words on LINE and F2BALL, both conditions re-verified."""
    ok = True
    details = {}
    LINE = fx.line_window()
    res = double_skewer(LINE, "w10+", "w10+", max_len=2)
    ok = ok and res.kind == "SKEWERED" and len(res.word) <= 2
    details["line"] = word_str(res.word) if res.word else None
    W = fx.f2ball_window()
    res2 = double_skewer(W, "waa+", "wa+", max_len=3)
    ok = ok and res2.kind == "SKEWERED" and res2.word == (("a", 1), ("a", 1))
    details["f2ball"] = word_str(res2.word) if res2.word else None
    # re-verify both displayed conditions from raw point sets
    for action, r in ((LINE, res), (W, res2)):
        P = action.pocset
        masks = halfspace_point_masks(P, action.budgets)
        gi = P.idx(r.image)
        hi = P.idx(r.h)
        ki = P.idx(r.k)
        if not (P.leq_idx(hi, ki) and masks[gi] & ~masks[hi] == 0
                and masks[gi] != masks[hi]):
            ok = False
        if not (r.gap is not None and r.gap > 0
                and masks[gi] & masks[P.star[hi]] == 0):
            ok = False
    return CriterionResult(13, "skewering words", ok, details)


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]


def run_all() -> list:
    results = []
    for fn in CRITERIA:
        t0 = time.time()
        res = fn()
        res.seconds = time.time() - t0
        results.append(res)
        state = "PASS" if res.passed else "FAIL"
        print(f"{state}  criterion {res.index:2d}  {res.name}  "
              f"[{res.seconds:.2f}s]", file=sys.stderr)
    return results
