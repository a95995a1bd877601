"""Barycentric subdivision: splitting, lifts, canonical cubes, towers."""

import itertools
from fractions import Fraction

import pytest

from mediankit import fixtures as fx
from mediankit.actions import TotalAction, min_orbit
from mediankit.errors import NotANewPoint, WallBudgetExceeded
from mediankit.pocset import (
    WeightedPocset,
    convex_hull,
    distance,
    gate_project,
    points,
    validate,
)
from mediankit.structure import Automorphism, automorphisms, rank
from mediankit.subdivision import (
    atom_mass,
    cube_at,
    lift,
    subdivide,
    tower,
)

import seeded_cases as sc
from references import embed_by_name, preimage_by_name

ONE = Fraction(1)


def one_wall():
    return WeightedPocset([("a", "a*", ONE)])


def test_one_wall_subdivision():
    S = subdivide(one_wall())
    assert validate(S.child).ok
    assert len(points(S.child)) == 3
    assert set(S.child.weight) == {Fraction(1, 2)}


def test_square_subdivision_is_three_by_three(square):
    S = subdivide(square)
    assert len(points(S.child)) == 9


def test_rank_preserved_on_fixtures():
    for name in ("SQUARE", "PATH3", "TRIPOD", "GRID"):
        P = fx.pocset(name)
        S = subdivide(P)
        assert rank(S.child) == rank(P)


def test_atom_mass_halves_exactly(square):
    S = subdivide(square)
    assert atom_mass(S.child) == atom_mass(square) / 2


def test_embedding_is_isometric(grid):
    S = subdivide(grid)
    pts = points(grid)
    for x, y in itertools.combinations(pts, 2):
        assert distance(grid, x, y) == distance(S.child, S.embed(x), S.embed(y))


def test_involution_crosses_the_split(square):
    S = subdivide(square)
    C = S.child
    assert C.star_of("a-") == "a*+"
    assert C.star_of("a+") == "a*-"


def test_lift_of_identity(square):
    S = subdivide(square)
    g = lift(S, Automorphism.identity(square))
    assert g.is_identity()


def test_point_swap_lift_fixes_midpoint_without_inversion():
    P = one_wall()
    S = subdivide(P)
    swap = Automorphism.from_mapping(P, {"a": "a*"}, "swap")
    lifted = lift(S, swap)
    C = S.child
    for i, _ in C.walls:
        assert lifted.apply_idx(i) != C.star[i]
    midpoint = [p for p in points(C) if S.is_new(p)]
    assert len(midpoint) == 1
    assert lifted.apply_point(midpoint[0]) == midpoint[0]


def test_rotation_lifts_to_rotation(square):
    S = subdivide(square)
    rot = fx.named_automorphisms("SQUARE")["rot"]
    lifted = lift(S, rot)
    # orbit structure of {-1,0,1}^2 under a quarter turn: center fixed,
    # two 4-orbits
    pts = points(S.child)
    orbits = set()
    seen = set()
    for p in pts:
        if p.mask in seen:
            continue
        orbit = {p.mask}
        q = lifted.apply_point(p)
        while q.mask not in orbit:
            orbit.add(q.mask)
            q = lifted.apply_point(q)
        seen |= orbit
        orbits.add(len(orbit))
    assert orbits == {1, 4}


def test_lift_is_a_homomorphism(square):
    S = subdivide(square)
    named = fx.named_automorphisms("SQUARE")
    g, h = named["rot"], named["swap"]
    assert lift(S, g.compose(h)).perm == lift(S, g).compose(lift(S, h)).perm


def test_cube_at_midpoint_of_one_wall():
    S = subdivide(one_wall())
    mid = [p for p in points(S.child) if S.is_new(p)][0]
    cube = cube_at(S, mid)
    assert cube.k == 1
    got = {cube.midpoint((s,)).mask for s in (-1, 0, 1)}
    assert got == {p.mask for p in points(S.child)}


def test_cube_at_center_of_square(square):
    S = subdivide(square)
    new = [p for p in points(S.child) if S.is_new(p)]
    dims = sorted(cube_at(S, p).k for p in new)
    assert dims == [1, 1, 1, 1, 2]
    center = [p for p in new if cube_at(S, p).k == 2][0]
    cube = cube_at(S, center)
    verts = {S.preimage(cube.midpoint(signs)).mask
             for signs in itertools.product((-1, 1), repeat=2)}
    assert verts == {p.mask for p in points(square)}
    assert cube.midpoint((0, 0)) == center


def test_cube_images_are_gate_convex(square):
    S = subdivide(square)
    C = S.child
    new = [p for p in points(C) if S.is_new(p)]
    for p in new:
        cube = cube_at(S, p)
        image = convex_hull(
            C, [cube.midpoint(s) for s in
                itertools.product((-1, 0, 1), repeat=cube.k)])
        assert len(image) == 3 ** cube.k
        for x in points(C):
            gate_project(C, image, x)  # raises if not gate-convex


def test_cube_at_rejects_embedded_points(square):
    S = subdivide(square)
    p = S.embed(points(square)[0])
    with pytest.raises(NotANewPoint):
        cube_at(S, p)


def test_hull_recovery(square, path3, tripod):
    for P in (square, path3, tripod):
        S = subdivide(P)
        embedded = [S.embed(p) for p in points(P)]
        hull = convex_hull(S.child, embedded)
        assert len(hull) == len(points(S.child))


def test_tower_depths():
    P = one_wall()
    assert tower(P, 0) == []
    stages = tower(P, 2)
    assert len(points(stages[-1].child)) == 5
    assert set(stages[-1].child.weight) == {Fraction(1, 4)}
    x, y = points(P)
    dx = distance(P, x, y)
    for S in stages:
        x, y = S.embed(x), S.embed(y)
    assert distance(stages[-1].child, x, y) == dx


def test_tower_atom_mass(square):
    stages = tower(square, 3)
    assert atom_mass(stages[-1].child) == Fraction(1, 8)
    assert rank(stages[-1].child) == 2


def test_tower_budget():
    with pytest.raises(WallBudgetExceeded):
        tower(fx.grid(), 12)


def test_common_fixed_point_iff_lifted(square):
    """A set of automorphisms has a common fixed point among the original
    and once-subdivided points iff the lifted set fixes a point."""
    S = subdivide(square)
    named = fx.named_automorphisms("SQUARE")
    for gens in (["rot"], ["swap"], ["rot", "swap"], ["flipa"]):
        gs = [named[n] for n in gens]
        lifted = [lift(S, g) for g in gs]
        orig_fixed = [
            p for p in points(square) if all(g.apply_point(p) == p for g in gs)]
        child_fixed = [
            p for p in points(S.child)
            if all(g.apply_point(p) == p for g in lifted)]
        assert bool(child_fixed) == bool(
            orig_fixed or [p for p in child_fixed if S.is_new(p)])
        if orig_fixed:
            embedded = {S.embed(p).mask for p in orig_fixed}
            assert embedded <= {p.mask for p in child_fixed}


def test_finite_orbit_witness_from_canonical_cube(square):
    """The full dihedral action fixes the center of the subdivision; the
    canonical cube there carries the tight 4-point orbit."""
    S = subdivide(square)
    named = fx.named_automorphisms("SQUARE")
    lifted = {n: lift(S, g) for n, g in named.items()}
    fixed = [p for p in points(S.child)
             if all(g.apply_point(p) == p for g in lifted.values())]
    assert len(fixed) == 1 and S.is_new(fixed[0])
    cube = cube_at(S, fixed[0])
    verts = {S.preimage(cube.midpoint(s)).mask
             for s in itertools.product((-1, 1), repeat=cube.k)}
    assert len(verts) <= 2 ** rank(square)
    orbit = min_orbit(TotalAction(square, named))
    assert {p.mask for p in orbit.orbit} == verts


# -- the copy table against the name-based rule ----------------------------
#
# ``references`` finds child copies by name, ``<parent>-`` and ``<parent>+``,
# as the module did before ``Subdivision.copies``, and so does the lift
# below.  The table must agree with them on every point and lift; the
# ``cube_at`` row of the oracle table checks every cube coordinate.

def _copy_table_pocsets():
    ids = ["SQUARE", "PATH3", "TRIPOD", "GRID"] + [f"random{k}" for k in range(12)]
    return [pytest.param(P, id=i) for P, i in zip(sc.copy_table_pocsets(), ids, strict=True)]


@pytest.mark.parametrize("P", _copy_table_pocsets())
def test_copy_table_matches_names(P):
    S = subdivide(P)
    C = S.child
    for p in points(P):
        assert S.embed(p).mask == embed_by_name(S, p)
    for q in points(C):
        ref = preimage_by_name(S, q)
        pre = S.preimage(q)
        assert (None if pre is None else pre.mask) == ref
        assert S.is_new(q) == (ref is None)
    for g in automorphisms(P)[:24]:
        assert lift(S, g).perm == tuple(C.idx(g.apply(cid[:-1]) + cid[-1]) for cid in C.ids)
