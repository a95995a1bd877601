"""Barycentric subdivision: split every wall into two half-weight walls.

In finite positive-weight models every wall is an atom, so the subdivision
splits them all.  Child halfspaces are named ``<parent>-`` and ``<parent>+``
with the order rule: child j < child j' iff the parents are strictly
ordered, or j, j' are the minus and plus copies of one parent.  The child's
rows are the parent's mapped through the copies: for a valid parent, the
up-set of ``h-`` is both copies of each halfspace strictly above ``h``,
plus ``h-`` and ``h+``; that of ``h+`` is the same with ``h+`` alone.  The
down-sets mirror them: both copies of each halfspace strictly below ``h``,
plus ``h-`` for ``h-`` and both copies for ``h+``.  No closure runs.  The
involution swaps copies across the wall: ``(a-)* = (a*)+``.  Only
:func:`subdivide` builds these names; everything after it works on child
indices through the table ``Subdivision.copies``.

Original points embed by taking both copies of each member halfspace; the
embedding is isometric.  New points are the cube midpoints; ``cube_at``
recovers the canonical cube around a new point.

A variant splitting only a sub-family of walls (needed when some walls
carry no mass) has no finite counterpart here and is out of scope; likewise
the continuum limit of the tower is represented only by its finite stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .config import Budgets, DEFAULT_BUDGETS
from .errors import InvalidInput, NotANewPoint, NotAnAutomorphism, WallBudgetExceeded
from .pocset import MaskMap, Point, WeightedPocset, is_ultrafilter
from .structure import Automorphism

MINUS = "-"
PLUS = "+"


@dataclass
class Subdivision:
    parent: WeightedPocset
    child: WeightedPocset
    # parent halfspace index -> (index of its minus copy, index of its plus
    # copy) in the child; the only map between parent and child indices
    copies: tuple
    # a parent mask -> the child mask of both copies of its halfspaces: the
    # embedding, and the map the child's rows were read through
    both: MaskMap = field(repr=False, compare=False)

    def embed(self, p: Point) -> Point:
        return Point(self.child, self.both(p.mask))

    def preimage(self, q: Point) -> Optional[Point]:
        """The original point embedding to q, or None when q is new.  An
        embedded point holds both copies of its halfspaces and neither copy
        of the others, so its plus copies name its preimage; a new q embeds
        from no mask at all, so the comparison rejects it whatever its minus
        copies hold."""
        mask = sum(1 << i for i, (_, plus) in enumerate(self.copies) if q.mask >> plus & 1)
        return Point(self.parent, mask) if self.both(mask) == q.mask else None

    def is_new(self, q: Point) -> bool:
        return self.preimage(q) is None


def subdivide(P: WeightedPocset) -> Subdivision:
    walls = []
    wall_ids = []
    for i, j in P.walls:
        h, hs = P.ids[i], P.ids[j]
        # child walls: {h-, (h*)+} and {h+, (h*)-}
        half = P.weight[i] / 2
        walls += [(h + MINUS, hs + PLUS, half), (h + PLUS, hs + MINUS, half)]
        wall_ids += [h + MINUS, h + PLUS]
    index = {h: k for k, h in enumerate(sorted(h + s for h in P.ids for s in (MINUS, PLUS)))}
    copies = tuple((index[h + MINUS], index[h + PLUS]) for h in P.ids)
    both = MaskMap(tuple(1 << minus | 1 << plus for minus, plus in copies))
    up = [0] * len(index)
    down = [0] * len(index)
    for i, (minus, plus) in enumerate(copies):
        above = both(P.up[i] & ~(1 << i))
        up[minus] = above | 1 << minus | 1 << plus
        up[plus] = above | 1 << plus
        below = both(P.down[i] & ~(1 << i))
        down[minus] = below | 1 << minus
        down[plus] = below | 1 << minus | 1 << plus
    return Subdivision(P, WeightedPocset.from_rows(walls, up, down, wall_ids), copies, both)


def lift(S: Subdivision, g: Automorphism) -> Automorphism:
    """Canonical sign-preserving extension; never has wall inversions.  It
    is ``g`` conjugated by the ``copies`` table, through which the child's
    rows are the parent's, so it keeps star, weights and order exactly when
    ``g`` does: checking ``g`` checks it."""
    if g.pocset is not S.parent:
        raise NotAnAutomorphism("lift() requires an automorphism of the parent")
    g.check(total=True)
    perm = [0] * S.child.n
    for i, (minus, plus) in enumerate(S.copies):
        perm[minus], perm[plus] = S.copies[g.apply_idx(i)]
    return Automorphism(S.child, perm, name=f"{g.name}'")


class CanonicalCube:
    """The cube around a new point and its midpoint map into the child; the
    parent point at a vertex is ``sub.preimage`` of its midpoint."""

    __slots__ = ("sub", "k", "wall_sides", "center")

    def __init__(self, sub: Subdivision, wall_sides: tuple, center: Point):
        self.sub = sub
        self.k = len(wall_sides)
        self.wall_sides = wall_sides  # one parent halfspace index per zero wall
        self.center = center

    def midpoint(self, signs: tuple) -> Point:
        """ι̂_x: a {−1,0,1}-vector to a point of the subdivision.

        Midpoint state on a wall is {h+, (h*)+}; +1 flips it to the deep
        side {h-, h+}, -1 to {(h*)-, (h*)+}.
        """
        S = self.sub
        mask = self.center.mask
        for i, s in zip(self.wall_sides, signs):
            j = S.parent.star[i]
            mask &= ~S.both(1 << i | 1 << j)
            if s == 0:
                mask |= 1 << S.copies[i][1] | 1 << S.copies[j][1]
            else:
                mask |= S.both(1 << (i if s == 1 else j))
        if not is_ultrafilter(S.child, mask):
            raise NotANewPoint("internal: cube coordinate produced a non-point")
        return Point(S.child, mask)


def cube_at(S: Subdivision, x: Point) -> CanonicalCube:
    """The canonical cube centred at a new point of the subdivision."""
    if x.pocset is not S.child or not S.is_new(x):
        raise NotANewPoint("cube_at() requires a point not in the image of the parent")
    sides = tuple(i for i, j in S.parent.walls
                  if x.mask >> S.copies[i][1] & 1 and x.mask >> S.copies[j][1] & 1)
    return CanonicalCube(S, sides, x)


def atom_mass(P: WeightedPocset) -> Fraction:
    """a(X): the largest wall weight (every wall is an atom here)."""
    if not P.walls:
        return Fraction(0)
    return max(P.weight[i] for i, _ in P.walls)


def tower(P: WeightedPocset, n: int, budgets: Budgets = DEFAULT_BUDGETS) -> list[Subdivision]:
    """Iterated subdivisions X_0 ... X_n with composable embeddings.  The
    ``tower_walls`` budget, max(64 * ``point_walls``, 4096), caps the walls
    of X_n (2^n times P's); its error reports the first stage past it."""
    if n < 0:
        raise InvalidInput(f"tower depth {n} is negative")
    tower_walls, walls, depth = max(budgets.point_walls * 64, 4096), P.wall_count, 0
    while depth < n and 0 < walls <= tower_walls:
        walls, depth = walls * 2, depth + 1
    if walls > tower_walls:
        raise WallBudgetExceeded(
            f"{P.wall_count} walls at depth {n} exceed the tower budget",
            budget="tower_walls", limit=tower_walls, reached=walls)
    stages = []
    current = P
    for _ in range(n):
        S = subdivide(current)
        stages.append(S)
        current = S.child
    return stages
