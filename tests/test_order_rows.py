"""Order rows as construction leaves them: the F2BALL tree ball from its
generating pairs against all pairs, and the axioms that every construction
path makes hold, so that ``validate`` and ``points`` need not check them,
and ``separating`` of two points against the halfspace loop on their
singleton convex sets.
Each derived pocset (built by ``from_rows``) and each reader of the rows is
compared with its pair-by-pair reference in the oracle table
(``test_oracles.py``)."""

from fractions import Fraction

from mediankit import fixtures as fx
from mediankit.pocset import ConvexSet, Point, WeightedPocset, _iter_bits, separating

import seeded_cases as sc
from references import separating_per_halfspace, shape


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


def test_f2ball_from_generating_pairs_matches_all_pairs():
    assert shape(fx.f2ball()) == shape(ref_f2ball())


def test_construction_makes_the_deleted_checks_unreachable():
    """Every path gives an involutive star, transitive rows that star
    reverses, down rows equal to the transpose of the up rows (derived
    pocsets map theirs from the parent's), and one weight per wall."""
    for P in sc.construction_cases():
        assert all(P.star[P.star[i]] == i for i in range(P.n)), P
        assert all(P.up_map(P.up[i]) == P.up[i] for i in range(P.n)), P
        assert all(P.up[P.star[j]] >> P.star[i] & 1
                   for i in range(P.n) for j in _iter_bits(P.up[i])), P
        assert P.down == tuple(sum(1 << i for i in range(P.n) if P.up[i] >> j & 1)
                               for j in range(P.n)), P
        assert all(P.weight[i] == P.weight[j] for i, j in P.walls), P


def test_separating_matches_the_halfspace_loop():
    """Two points are separated by the walls that separate their singleton
    convex sets (the oracle row compares each input kind with itself)."""
    pairs = [(P, x, y) for P, x, y in sc.convex_pairs() if isinstance(x, Point)]
    assert len(pairs) == 880
    for P, x, y in pairs:
        assert separating(P, x, y) == \
            separating_per_halfspace(P, ConvexSet(P, [x]), ConvexSet(P, [y])), (P, x, y)
