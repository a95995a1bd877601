"""Core median geometry: validation, points, medians, distances, gates."""

import itertools
from fractions import Fraction

import pytest

from mediankit import fixtures as fx
from mediankit import randomgen as rg
from mediankit.config import Budgets
from mediankit.errors import EmptyInput, InvalidInput, WallBudgetExceeded
from mediankit.pocset import (
    ConvexSet,
    WeightedPocset,
    convex_hull,
    distance,
    gate_pair,
    gate_project,
    halfspace_point_masks,
    inseparable_closure,
    interval,
    median,
    point_from_ids,
    points,
    separating,
    validate,
)
from mediankit.serialize import load_pocset

import seeded_cases as sc

ONE = Fraction(1)


def pt(P, *ids):
    return point_from_ids(P, ids)


# -- validation ---------------------------------------------------------------

def test_square_fixture_is_valid(square):
    assert validate(square).ok


def test_star_fixed_point_is_flagged():
    P = WeightedPocset([("a", "a", ONE), ("b", "b*", ONE)])
    rep = validate(P)
    assert not rep.ok
    assert any(f["code"] == "STAR_FIXED_POINT" for f in rep.failures)


def test_a_halfspace_named_by_two_walls_is_rejected():
    """Also when one of the walls is a fixed point, whose name is checked
    once: the star of every built pocset is an involution."""
    for walls, name in (([("a", "b", ONE), ("a", "a", ONE)], "a"),
                        ([("a", "a", ONE), ("b", "a", ONE)], "a"),
                        ([("a", "a", ONE), ("a", "a", ONE)], "a"),
                        ([("a", "b", ONE), ("c", "b", ONE)], "b")):
        with pytest.raises(InvalidInput) as exc:
            WeightedPocset(walls)
        assert str(exc.value) == f"duplicate halfspace id {name!r}"


def test_halfspace_comparable_with_complement_is_flagged():
    P = WeightedPocset([("a", "a*", ONE), ("b", "b*", ONE)], [("a", "a*")])
    rep = validate(P)
    assert not rep.ok
    assert any(f["code"] == "COMPARABLE_WITH_COMPLEMENT" for f in rep.failures)


def test_nonpositive_weight_is_flagged():
    P = WeightedPocset([("a", "a*", Fraction(0))])
    assert any(f["code"] == "NONPOSITIVE_WEIGHT" for f in validate(P).failures)


def test_validation_of_random_pocsets(rng):
    for _ in range(25):
        P = rg.random_pocset(rng)
        assert validate(P).ok


# -- point enumeration ----------------------------------------------------------

def test_square_has_four_points(square):
    assert len(points(square)) == 4


def test_path3_has_four_points(path3):
    assert len(points(path3)) == 4


def test_tripod_has_center_and_three_leaves(tripod):
    pts = points(tripod)
    assert len(pts) == 4
    center = pt(tripod, "h1*", "h2*", "h3*")
    assert center in pts


def test_enumeration_is_deterministic(square):
    pts = points(square)
    assert [p.mask for p in pts] == sorted(p.mask for p in pts)


def test_wall_budget_guard():
    from mediankit import serialize as se
    W = se.load_pocset(se.dump_pocset(fx.f2ball()))  # fresh, uncached copy
    with pytest.raises(WallBudgetExceeded):
        points(W)  # 160 walls exceed the default cap of 20


def test_a_path_longer_than_the_recursion_limit_enumerates():
    """A search path meets each of the 1,100 walls in turn, one level each:
    a recursive search would pass Python's recursion limit."""
    P = load_pocset(sc.long_path(1100))
    pts = points(P, Budgets(point_walls=1100))
    assert len(pts) == 1101
    assert {p.ids for p in pts} == {
        tuple(sorted(P.ids[2 * w + (w >= k)] for w in range(1100))) for k in range(1101)}


def test_cached_points_still_respect_the_budgets():
    P = fx.grid()
    assert len(points(P)) == 16
    with pytest.raises(WallBudgetExceeded, match="enumeration cap 1"):
        points(P, Budgets(point_walls=1))
    with pytest.raises(WallBudgetExceeded, match="max_points"):
        points(P, Budgets(max_points=15))
    with pytest.raises(WallBudgetExceeded, match="enumeration cap 1"):
        halfspace_point_masks(P, Budgets(point_walls=1))


def test_no_wall_pocset_is_a_single_point():
    P = WeightedPocset([])
    assert len(points(P)) == 1


# -- median ---------------------------------------------------------------------

def test_median_of_repeated_point_is_forced(square):
    x = pt(square, "a", "b")
    y = pt(square, "a*", "b*")
    assert median(square, x, x, y) == x


def test_square_median_majority(square):
    m = median(square, pt(square, "a", "b"), pt(square, "a", "b*"),
               pt(square, "a*", "b"))
    assert m == pt(square, "a", "b")


def test_tripod_median_of_leaves_is_center(tripod):
    leaves = [pt(tripod, "h1", "h2*", "h3*"),
              pt(tripod, "h2", "h1*", "h3*"),
              pt(tripod, "h3", "h1*", "h2*")]
    m = median(tripod, *leaves)
    assert m == pt(tripod, "h1*", "h2*", "h3*")


def test_median_is_symmetric(rng):
    P = rg.random_pocset(rng)
    pts = points(P)
    for _ in range(50):
        x, y, z = (rng.choice(pts) for _ in range(3))
        base = median(P, x, y, z)
        for perm in itertools.permutations((x, y, z)):
            assert median(P, *perm) == base


# -- distance ---------------------------------------------------------------------

def test_distance_to_self_is_zero(square):
    x = pt(square, "a", "b")
    assert distance(square, x, x) == 0


def test_square_diagonal_distance(square):
    assert distance(square, pt(square, "a", "b"), pt(square, "a*", "b*")) == 2


def test_weighted_square_distance():
    P = WeightedPocset([("a", "a*", Fraction(3, 2)), ("b", "b*", ONE)])
    x = point_from_ids(P, ["a", "b"])
    y = point_from_ids(P, ["a*", "b*"])
    assert distance(P, x, y) == Fraction(5, 2)


def test_metric_axioms_on_random_pocsets(rng):
    for _ in range(10):
        P = rg.random_pocset(rng, max_walls=8, max_points=12)
        pts = points(P)
        for x in pts:
            for y in pts:
                d = distance(P, x, y)
                assert d == distance(P, y, x)
                assert (d == 0) == (x == y)
                for z in pts:
                    assert distance(P, x, z) + distance(P, z, y) >= d


def test_distance_splits_at_median(rng):
    P = rg.random_pocset(rng)
    pts = points(P)
    for _ in range(40):
        x, y, z = (rng.choice(pts) for _ in range(3))
        m = median(P, x, y, z)
        assert distance(P, x, y) == distance(P, x, m) + distance(P, m, y)


def test_weights_are_stored_as_fractions():
    """Other numbers are converted once per wall; a Fraction is kept as
    given, for both sides of its wall."""
    half = Fraction(1, 2)
    P = WeightedPocset([("a", "a*", 2), ("b", "b*", "1/3"), ("c", "c*", half)])
    assert P.weight == (Fraction(2),) * 2 + (Fraction(1, 3),) * 2 + (half,) * 2
    assert all(type(w) is Fraction for w in P.weight)
    assert P.weight[4] is half and P.weight[5] is half


# -- separating -----------------------------------------------------------------

def test_separating_of_equal_points_is_empty(square):
    x = pt(square, "a", "b")
    assert separating(square, x, x) == ()


def test_tripod_separating_leaves(tripod):
    leaf1 = pt(tripod, "h1", "h2*", "h3*")
    leaf2 = pt(tripod, "h2", "h1*", "h3*")
    assert separating(tripod, leaf1, leaf2) == ("h1*", "h2")


def test_disjoint_convex_sets_are_separated_in_path3(path3):
    pts = points(path3)
    subsets = []
    for k in (1, 2):
        for sub in itertools.combinations(pts, k):
            C = convex_hull(path3, sub)
            subsets.append(C)
    for A in subsets:
        for B in subsets:
            if set(A.masks) & set(B.masks):
                continue
            assert separating(path3, A, B)


def test_separating_requires_nonempty_inputs(square):
    with pytest.raises(EmptyInput):
        separating(square, ConvexSet(square, []), ConvexSet(square, []))


def test_separating_a_point_from_an_empty_set_raises(square):
    x = pt(square, "a", "b")
    for A, B in ((x, []), ([], x), (x, ConvexSet(square, []))):
        with pytest.raises(EmptyInput):
            separating(square, A, B)


# -- interval -------------------------------------------------------------------

def test_interval_of_point_with_itself(square):
    x = pt(square, "a", "b")
    assert interval(square, x, x).masks == (x.mask,)


def test_square_diagonal_interval_is_everything(square):
    got = interval(square, pt(square, "a", "b"), pt(square, "a*", "b*"))
    assert len(got) == 4


def test_path3_endpoint_interval_is_everything(path3):
    x = pt(path3, "h1", "h2", "h3")
    y = pt(path3, "h1*", "h2*", "h3*")
    assert len(interval(path3, x, y)) == 4


def test_intervals_are_convex(rng):
    P = rg.random_pocset(rng)
    pts = points(P)
    for _ in range(10):
        x, y = rng.choice(pts), rng.choice(pts)
        I = interval(P, x, y)
        assert convex_hull(P, I.points).masks == I.masks


# -- gates ------------------------------------------------------------------------

def test_gate_of_a_member_is_itself(square):
    x = pt(square, "a", "b")
    C = convex_hull(square, [x, pt(square, "a", "b*")])
    assert gate_project(square, C, x) == x


def test_tripod_gate_example(tripod):
    center = pt(tripod, "h1*", "h2*", "h3*")
    leaf1 = pt(tripod, "h1", "h2*", "h3*")
    leaf2 = pt(tripod, "h2", "h1*", "h3*")
    C = ConvexSet(tripod, [center, leaf1])
    assert gate_project(tripod, C, leaf2) == center


def test_gate_law_brute_force(rng):
    for _ in range(20):
        P = rg.random_pocset(rng)
        pts = points(P)
        C = convex_hull(P, rg.random_points(rng, pts, rng.randint(1, 3)))
        x = rng.choice(pts)
        g = gate_project(P, C, x)
        for z in C.points:
            assert (x.mask & z.mask) & ~g.mask == 0  # g in I(x, z)


def test_gate_pair_realizes_distance(path3):
    pts = points(path3)
    A = convex_hull(path3, [pts[0]])
    B = convex_hull(path3, [pts[-1], pts[-2]])
    x, y = gate_pair(path3, A, B)
    best = min(distance(path3, p, q) for p in A.points for q in B.points)
    assert distance(path3, x, y) == best


def test_gate_pair_on_random_disjoint_convex_sets(rng):
    for _ in range(15):
        P = rg.random_pocset(rng)
        pts = points(P)
        A = convex_hull(P, rg.random_points(rng, pts, 2))
        B = convex_hull(P, rg.random_points(rng, pts, 2))
        x, y = gate_pair(P, A, B)
        best = min(distance(P, p, q) for p in A.points for q in B.points)
        assert distance(P, x, y) == best


# -- hulls and closures ------------------------------------------------------------

def test_hull_of_single_point(square):
    x = pt(square, "a", "b")
    assert convex_hull(square, [x]).masks == (x.mask,)


def test_square_hull_of_diagonal_is_everything(square):
    got = convex_hull(square, [pt(square, "a", "b"), pt(square, "a*", "b*")])
    assert len(got) == 4


def test_hull_contains_input_and_is_idempotent(rng):
    for _ in range(15):
        P = rg.random_pocset(rng)
        pts = points(P)
        S = rg.random_points(rng, pts, rng.randint(1, 4))
        H = convex_hull(P, S)
        assert set(p.mask for p in S) <= set(H.masks)
        assert convex_hull(P, H.points).masks == H.masks


def test_inseparable_closure_examples(path3):
    assert inseparable_closure(path3, []) == ()
    assert inseparable_closure(path3, ["h1", "h3"]) == ("h1", "h2", "h3")
    assert inseparable_closure(path3, ["h2"]) == ("h2",)


def test_inseparable_closure_is_idempotent(rng):
    for _ in range(15):
        P = rg.random_pocset(rng)
        S = [P.ids[i] for i in range(P.n) if rng.random() < 0.4]
        c1 = inseparable_closure(P, S)
        assert set(S) <= set(c1)
        assert inseparable_closure(P, c1) == c1


# -- Helly and the chain bound ------------------------------------------------------

def test_helly_on_fixtures_and_random(rng):
    cases = [fx.square(), fx.path3(), fx.tripod(), fx.grid()]
    cases += [rg.random_pocset(rng) for _ in range(5)]
    for P in cases:
        pts = points(P)
        for _ in range(10):
            sets = [convex_hull(P, rg.random_points(rng, pts, 2))
                    for _ in range(3)]
            pairwise = all(
                set(A.masks) & set(B.masks)
                for A in sets for B in sets)
            if pairwise:
                common = set(sets[0].masks)
                for C in sets[1:]:
                    common &= set(C.masks)
                assert common


def _maximal_chains(P):
    tops = [i for i in range(P.n) if P.up[i] == 1 << i]
    out = []

    def rec(chain):
        i = chain[-1]
        below = [j for j in range(P.n) if j != i and P.leq_idx(j, i)
                 and all(P.leq_idx(j, c) for c in chain)]
        direct = [j for j in below
                  if not any(k != j and P.leq_idx(j, k) and P.leq_idx(k, i)
                             for k in below)]
        if not direct:
            out.append(list(chain))
            return
        for j in direct:
            rec(chain + [j])

    for t in tops:
        rec([t])
    return out


def test_chain_bound_literal_form(rng):
    """Chains whose extreme complement-sides share a point are bounded by
    twice the rank; in discrete models the hypothesis never fires, which the
    test also confirms (h1* and hk are disjoint for every chain)."""
    from mediankit.structure import rank

    for _ in range(10):
        P = rg.random_pocset(rng, max_walls=8, max_points=12)
        r = rank(P)
        masks = [0] * P.n
        for pos, p in enumerate(points(P)):
            for i in range(P.n):
                if p.mask >> i & 1:
                    masks[i] |= 1 << pos
        for chain in _maximal_chains(P):
            top, bottom = chain[0], chain[-1]
            shares = masks[P.star[top]] & masks[bottom] != 0
            if shares:
                assert len(chain) <= 2 * r
            else:
                assert masks[P.star[top]] & masks[bottom] == 0


def test_separating_mass_equals_convex_set_distance(rng):
    """For gate-convex (here: all convex) sets, the mass of the separating
    walls is the distance realized by a gate pair."""
    disjoint = 0
    for _ in range(15):
        P = rg.random_pocset(rng)
        pts = points(P)
        A = convex_hull(P, rg.random_points(rng, pts, 2))
        B = convex_hull(P, rg.random_points(rng, pts, 2))
        if set(A.masks) & set(B.masks):
            continue
        disjoint += 1
        mass = sum((P.weight[P.idx(h)] for h in separating(P, A, B)),
                   Fraction(0))
        best = min(distance(P, a, b) for a in A.points for b in B.points)
        assert mass == best
    assert disjoint
