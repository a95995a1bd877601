"""Rank, transversality, decomposition and automorphism groups."""

import time
from fractions import Fraction

import pytest

from mediankit import fixtures as fx
from mediankit import randomgen as rg
from mediankit.actions import TotalAction
from mediankit.config import DEFAULT_BUDGETS
from mediankit.errors import NotAnAutomorphism, WallBudgetExceeded
from mediankit.pocset import WeightedPocset, points, validate
from mediankit.structure import (
    Automorphism,
    automorphisms,
    decompose,
    factor_permutation,
    pocset_product,
    rank,
    transverse,
)
from mediankit.subdivision import subdivide

ONE = Fraction(1)


def test_transversality_examples(square, path3):
    assert transverse(square, "a", "b")
    assert not transverse(path3, "h1", "h2")
    assert not transverse(square, "a", "a")
    assert not transverse(square, "a", "a*")


def test_rank_examples(square, grid):
    single = WeightedPocset([])
    assert rank(single) == 0
    assert rank(square) == 2
    assert rank(grid) == 2


def test_rank_of_tree_is_one():
    assert rank(fx.f2ball()) == 1


def test_rank_of_a_subdivided_eight_factor_product_is_fast():
    """The six child walls of each PATH3 factor are twins, so the clique
    search runs over eight walls, not 48."""
    P = subdivide(pocset_product([fx.pocset("PATH3")] * 8)).child
    start = time.perf_counter()
    assert rank(P) == 8
    assert time.perf_counter() - start < 0.1


def test_the_clique_budget_counts_twins():
    """The budget counts every wall with a transverse partner, twins
    included, and not the eight walls that the search runs over."""
    P = subdivide(pocset_product([fx.pocset("PATH3")] * 8)).child
    with pytest.raises(WallBudgetExceeded) as exc:
        rank(P, DEFAULT_BUDGETS.with_(clique_walls=47))
    assert str(exc.value) == "48 mutually transverse-capable walls exceed clique cap"
    assert rank(P, DEFAULT_BUDGETS.with_(clique_walls=48)) == 8


def test_decompose_square(square):
    D = decompose(square)
    assert len(D.factors) == 2
    assert all(F.wall_count == 1 for F in D.factors)


def test_decompose_tripod_is_irreducible(tripod):
    assert len(decompose(tripod).factors) == 1


@pytest.mark.parametrize("name", ["TRIPOD", "F2BALL"])
def test_an_irreducible_pocset_is_its_own_factor(name):
    """No copy is built, so the factor answers from P's caches: its points
    are P's tuple, not a second enumeration."""
    P = fx.pocset(name)
    pts = points(P, fx.WINDOW_BUDGETS)
    D = decompose(P)
    assert len(D.factors) == 1 and D.factors[0] is P
    assert D.assignment == {h: (0, h) for h in P.ids}
    assert points(D.factors[0], fx.WINDOW_BUDGETS) is pts


def test_decompose_grid(grid):
    D = decompose(grid)
    assert len(D.factors) == 2
    assert sorted(sorted(F.ids) for F in D.factors) == [
        sorted(["x.h1", "x.h1*", "x.h2", "x.h2*", "x.h3", "x.h3*"]),
        sorted(["y.h1", "y.h1*", "y.h2", "y.h2*", "y.h3", "y.h3*"]),
    ]


def test_factors_are_standalone_pocsets(grid):
    for F in decompose(grid).factors:
        assert validate(F).ok
        assert rank(F) == 1


def test_decompose_recovers_random_irreducible_factors(rng):
    made = 0
    while made < 15:
        A = rg.random_pocset(rng, max_walls=5, max_points=10)
        B = rg.random_pocset(rng, max_walls=5, max_points=10)
        if len(decompose(A).factors) != 1 or len(decompose(B).factors) != 1:
            continue
        made += 1
        prod = pocset_product([A, B], prefixes=["x.", "y."])
        D = decompose(prod)
        got = sorted(frozenset(F.ids) for F in D.factors)
        want = sorted([frozenset("x." + h for h in A.ids),
                       frozenset("y." + h for h in B.ids)])
        assert got == want


def test_square_automorphism_group_is_dihedral(square):
    auts = automorphisms(square)
    assert len(auts) == 8
    assert any(g.is_identity() for g in auts)


def test_unequal_weights_kill_the_swap():
    P = WeightedPocset([("a", "a*", Fraction(3, 2)), ("b", "b*", ONE)])
    auts = automorphisms(P)
    assert len(auts) == 4
    for g in auts:
        assert g.apply("a") in ("a", "a*")


def test_tripod_automorphisms(tripod):
    assert len(automorphisms(tripod)) == 6  # leaf permutations


def test_automorphism_budget():
    with pytest.raises(WallBudgetExceeded):
        automorphisms(fx.f2ball())


def test_automorphisms_form_a_group(square):
    auts = automorphisms(square)
    perms = {g.perm for g in auts}
    for g in auts:
        assert g.inverse().perm in perms
        for h in auts:
            assert g.compose(h).perm in perms


def test_factor_permutation_examples(square):
    D = decompose(square)
    ident = Automorphism.identity(square)
    assert factor_permutation(square, D, ident) == (0, 1)
    swap = fx.named_automorphisms("SQUARE")["swap"]
    assert factor_permutation(square, D, swap) == (1, 0)


def test_grid_factor_preserving_reflection(grid):
    D = decompose(grid)
    flipx = fx.named_automorphisms("GRID")["flipx"]
    assert factor_permutation(grid, D, flipx) == (0, 1)
    swap = fx.named_automorphisms("GRID")["swapxy"]
    assert factor_permutation(grid, D, swap) == (1, 0)


def test_factor_permutation_respects_composition(grid):
    D = decompose(grid)
    named = fx.named_automorphisms("GRID")
    g, h = named["swapxy"], named["flipx"]
    pg = factor_permutation(grid, D, g)
    ph = factor_permutation(grid, D, h)
    pgh = factor_permutation(grid, D, g.compose(h))
    assert pgh == tuple(pg[ph[i]] for i in range(len(pg)))


def test_bad_mapping_raises(square):
    """The action that takes the map checks it."""
    g = Automorphism.from_mapping(square, {"a": "a", "b": "a"})
    with pytest.raises(NotAnAutomorphism, match="not injective"):
        TotalAction(square, {"g": g})


def test_a_failed_check_records_nothing(square):
    g = Automorphism.from_mapping(square, {"a": "a", "b": "a"}, "g")
    for _ in range(2):
        with pytest.raises(NotAnAutomorphism, match="^g: not injective$"):
            g.check()


def test_total_rejects_a_partial_map_that_passed(square):
    g = Automorphism.from_mapping(square, {"a": "b"}, "g")
    g.check()
    for _ in range(2):
        with pytest.raises(NotAnAutomorphism, match="^g: undefined on part of the pocset$"):
            g.check(total=True)
    g.check()


def test_composites_and_inverses_of_checked_maps_start_unchecked(square, checks_run):
    rot = Automorphism.from_mapping(square, {"a": "b", "b": "a*"}, "rot")
    swap = Automorphism.from_mapping(square, {"a": "b", "b": "a"}, "swap")
    for g in (rot, swap):
        g.check()
        g.check()
    made = [rot.compose(swap), rot.inverse(), swap.compose(rot).inverse()]
    for g in made:
        g.check(total=True)
    assert checks_run == [rot, swap, *made]
