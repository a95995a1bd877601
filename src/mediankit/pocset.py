"""Finite weighted pocsets and their ultrafilter points.

A pocset here is a finite poset of halfspaces with a fixed-point-free,
order-reversing involution ``*``; each halfspace is incomparable with its
complement.  The space attached to a pocset is its set of ultrafilters:
subsets containing exactly one side of every wall and closed upward.  All
median geometry (medians, intervals, distances, gates, hulls) is computed
directly on ultrafilters encoded as integer bitsets over a canonical
halfspace ordering.

Wall weights are exact ``fractions.Fraction`` values, so every metric
identity (``d(x,y)`` equals the mass of the separating walls, equality of
distances, zero tests) is decidable.  No floating point is used anywhere.

Everything is immutable after construction; all functions are pure and may
be called concurrently.  Enumerations are cached on the pocset object; the
cache is write-once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .config import Budgets, DEFAULT_BUDGETS
from .errors import EmptyInput, InvalidInput, WallBudgetExceeded


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the set bit positions of each byte value
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256))


class MaskMap:
    """The map sending a mask of ``len(images)`` bits to the OR of
    ``images[i]`` over its set bits.  Each byte position memoises the images
    of the byte values met there, each computed when first met: memos stay
    small for maps applied once, and a map applied often costs one lookup
    per byte."""

    __slots__ = ("images", "memos")

    def __init__(self, images: Sequence[int]):
        self.images = images
        self.memos = [{} for _ in range((len(images) + 7) // 8)]

    def __call__(self, mask: int) -> int:
        out = 0
        memos = self.memos
        for pos, byte in enumerate(mask.to_bytes(len(memos), "little")):
            if byte:
                memo = memos[pos]
                img = memo.get(byte)
                if img is None:
                    img = 0
                    base = pos << 3
                    for b in _BYTE_BITS[byte]:
                        img |= self.images[base + b]
                    memo[byte] = img
                out |= img
        return out


class WeightedPocset:
    """Finite set of halfspaces with involution, partial order and weights.

    ``order`` pairs ``(a, b)`` mean ``a`` is contained in ``b``.  Pair
    input (files, fixtures, :mod:`randomgen`) is closed here under
    reflexivity, transitivity and the star-reversal rule; the constructor
    tolerates axiom violations (a fixed point of the involution, a
    halfspace comparable with its complement) so that :func:`validate` can
    report them.  Derived pocsets (subdivisions, factors, products) arrive
    closed, as rows, through :meth:`from_rows`.
    """

    __slots__ = (
        "ids", "index", "star", "up", "down", "weight", "walls",
        "wall_ids", "star_map", "up_map",
        "_points", "_hmasks", "_rank", "_weight_groups",
    )

    def __init__(
        self,
        walls: Iterable[tuple[str, str, Fraction]],
        order: Iterable[tuple[str, str]] = (),
        wall_ids: Optional[Sequence[str]] = None,
    ):
        self._set_walls(walls, wall_ids)
        n = self.n
        up = [1 << i for i in range(n)]
        for a, b in order:
            if a not in self.index or b not in self.index:
                raise InvalidInput(f"order pair ({a!r}, {b!r}) names unknown halfspace")
            i, j = self.index[a], self.index[b]
            up[i] |= 1 << j
            up[self.star[j]] |= 1 << self.star[i]  # order-reversing involution
        # transitive closure (Warshall over bitmask rows)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in _iter_bits(up[i]):
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        self._set_rows(up)

    @classmethod
    def from_rows(cls, walls: Iterable[tuple[str, str, Fraction]], up: Sequence[int],
                  wall_ids: Optional[Sequence[str]] = None) -> "WeightedPocset":
        """The pocset whose halfspace k of the canonical index (ids in
        sorted order) has the up-set ``up[k]``.  The rows must already be
        closed (reflexive, transitive, star-reversing); no closure runs."""
        P = cls.__new__(cls)
        P._set_walls(walls, wall_ids)
        P._set_rows(up)
        return P

    def _set_walls(self, walls, wall_ids):
        """Everything but the order: ids, involution, weights, walls."""
        wall_list = list(walls)
        ids = []
        star_by_id = {}
        weight_by_id = {}
        seen = set()
        for pos, neg, w in wall_list:
            # a fixed-point wall names its one halfspace once
            names = (pos,) if pos == neg else (pos, neg)
            for h in names:
                if h in seen:
                    raise InvalidInput(f"duplicate halfspace id {h!r}")
                seen.add(h)
            ids += names
            star_by_id[pos] = neg
            star_by_id[neg] = pos
            weight_by_id[pos] = Fraction(w)
            weight_by_id[neg] = Fraction(w)
        self.ids = tuple(sorted(ids))
        self.index = {h: i for i, h in enumerate(self.ids)}
        self.star = tuple(self.index[star_by_id[h]] for h in self.ids)
        self.weight = tuple(weight_by_id[h] for h in self.ids)
        pairs = []
        used = set()
        for i in range(self.n):
            j = self.star[i]
            if i not in used and j not in used:
                pairs.append((min(i, j), max(i, j)))
                used.update((i, j))
        self.walls = tuple(sorted(pairs))
        self.star_map = MaskMap(tuple([1 << j for j in self.star]))
        if wall_ids is not None:
            if len(wall_ids) != len(wall_list):
                raise InvalidInput("wall_ids length mismatch")
            by_pos = {self.index[pos]: wid for (pos, neg, _), wid in zip(wall_list, wall_ids)}
            by_pos.update({self.star[i]: wid for i, wid in list(by_pos.items())})
            self.wall_ids = tuple(by_pos.get(i) or by_pos.get(j) for i, j in self.walls)
        else:
            self.wall_ids = tuple(self.ids[i] for i, _ in self.walls)
        self._points = None
        self._hmasks = None
        self._rank = None
        self._weight_groups = None  # built by the first distance

    def _set_rows(self, up: Sequence[int]):
        """Store closed up-rows; i <= j iff j* <= i*, so the down-row of j
        is the star image of the up-row of j*."""
        self.up = tuple(up)
        self.down = tuple(self.star_map(up[s]) for s in self.star)
        self.up_map = MaskMap(self.up)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def wall_count(self) -> int:
        return len(self.walls)

    def idx(self, h: str) -> int:
        try:
            return self.index[h]
        except KeyError:
            raise InvalidInput(f"unknown halfspace {h!r}") from None

    def star_of(self, h: str) -> str:
        return self.ids[self.star[self.idx(h)]]

    def leq(self, a: str, b: str) -> bool:
        """True when halfspace ``a`` is contained in halfspace ``b``."""
        return bool(self.up[self.idx(a)] >> self.idx(b) & 1)

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def __repr__(self):
        return f"WeightedPocset({self.wall_count} walls, {self.n} halfspaces)"


class Point:
    """An ultrafilter on a pocset, encoded as a bitset of halfspaces."""

    __slots__ = ("pocset", "mask")

    def __init__(self, pocset: WeightedPocset, mask: int):
        self.pocset = pocset
        self.mask = mask

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.pocset.ids[i] for i in _iter_bits(self.mask))

    def __contains__(self, h: str) -> bool:
        return bool(self.mask >> self.pocset.idx(h) & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and other.pocset is self.pocset
            and other.mask == self.mask
        )

    def __hash__(self):
        return hash((id(self.pocset), self.mask))

    def __repr__(self):
        return "Point{" + ",".join(self.ids) + "}"


class ConvexSet:
    """A set of points together with its co-ultrafilter.

    ``sigma`` is the set of halfspaces containing every member, the data
    that determines a convex set.
    """

    __slots__ = ("pocset", "masks", "sigma")

    def __init__(self, pocset: WeightedPocset, points: Iterable[Point]):
        masks = sorted({p.mask for p in points})
        self.pocset = pocset
        self.masks = tuple(masks)
        sigma = (1 << pocset.n) - 1 if masks else 0
        for m in masks:
            sigma &= m
        self.sigma = sigma

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(Point(self.pocset, m) for m in self.masks)

    def __len__(self):
        return len(self.masks)

    def __contains__(self, p: Point) -> bool:
        return p.mask in set(self.masks)

    def __repr__(self):
        return f"ConvexSet({len(self.masks)} points)"


@dataclass
class ValidationReport:
    ok: bool
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, code: str, detail: str):
        self.ok = False
        self.failures.append({"code": code, "detail": detail})

    def to_json(self):
        return {"ok": self.ok, "failures": self.failures, "notes": self.notes}


# -- validation -----------------------------------------------------------

def validate(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> ValidationReport:
    """Check all pocset axioms; violations are reported, never raised."""
    rep = ValidationReport(ok=True)
    n = P.n
    for i in range(n):
        if P.star[i] == i:
            rep.fail("STAR_FIXED_POINT", f"{P.ids[i]} is its own complement")
        if P.star[P.star[i]] != i:
            rep.fail("STAR_NOT_INVOLUTION", P.ids[i])
    for i in range(n):
        si = P.star[i]
        if si != i and (P.leq_idx(i, si) or P.leq_idx(si, i)):
            rep.fail("COMPARABLE_WITH_COMPLEMENT",
                     f"{P.ids[i]} is comparable with {P.ids[si]}")
    for i in range(n):
        for j in _iter_bits(P.up[i]):
            if i != j and P.leq_idx(j, i):
                rep.fail("NOT_ANTISYMMETRIC", f"{P.ids[i]} <= {P.ids[j]} <= {P.ids[i]}")
            # order-reversal of star is enforced by construction; re-check
            if not P.leq_idx(P.star[j], P.star[i]):
                rep.fail("STAR_NOT_ORDER_REVERSING", f"({P.ids[i]}, {P.ids[j]})")
    for i, j in P.walls:
        if P.weight[i] <= 0:
            rep.fail("NONPOSITIVE_WEIGHT", P.ids[i])
        if P.weight[i] != P.weight[j]:
            rep.fail("WALL_WEIGHT_MISMATCH", P.ids[i])
    if not rep.ok:
        return rep
    if P.wall_count <= budgets.point_walls:
        pts = points(P, budgets)
        hmasks = halfspace_point_masks(P, budgets)
        for i in range(n):
            if hmasks[i] == 0:
                rep.fail("EMPTY_HALFSPACE", P.ids[i])
            if hmasks[P.star[i]] == 0:
                rep.fail("FULL_HALFSPACE", P.ids[i])
        # declared order must agree with containment of realized point sets
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                set_le = hmasks[i] & ~hmasks[j] == 0
                if P.leq_idx(i, j) != set_le:
                    rep.fail("ORDER_NOT_FAITHFUL", f"({P.ids[i]}, {P.ids[j]})")
        # transversality (all four incomparabilities) must match the four
        # sectors being nonempty
        for a in range(len(P.walls)):
            i = P.walls[a][0]
            for b in range(a + 1, len(P.walls)):
                k = P.walls[b][0]
                sectors_ok = all(
                    hmasks[x] & hmasks[y] != 0
                    for x in (i, P.star[i])
                    for y in (k, P.star[k])
                )
                incomp = not (P.up[i] | P.down[i]) & (1 << k | 1 << P.star[k])
                if sectors_ok != incomp:
                    rep.fail("TRANSVERSALITY_MISMATCH", f"({P.ids[i]}, {P.ids[k]})")
        rep.notes.append(f"{len(pts)} points enumerated; separation holds")
    else:
        rep.notes.append(
            f"point-level checks skipped: {P.wall_count} walls exceed cap "
            f"{budgets.point_walls}"
        )
    return rep


def ensure_valid(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> None:
    rep = validate(P, budgets)
    if not rep.ok:
        raise InvalidInput("pocset fails validation", report=rep.to_json())


# -- point enumeration ----------------------------------------------------

def points(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> tuple[Point, ...]:
    """Enumerate all ultrafilters, in increasing bitmask order.

    Wall-by-wall backtracking with up-closure propagation; the search tree
    has one leaf per ultrafilter, so the cost is proportional to the output
    rather than ``2^walls``.
    """
    if P.wall_count > budgets.point_walls:
        raise WallBudgetExceeded(
            f"{P.wall_count} walls exceed enumeration cap {budgets.point_walls}")
    if P._points is not None:
        if len(P._points) > budgets.max_points:
            raise WallBudgetExceeded("point enumeration exceeded max_points cap")
        return P._points
    up = P.up
    walls = P.walls
    out: list[int] = []

    def rec(w: int, chosen: int, banned: int):
        while w < len(walls) and (chosen >> walls[w][0] & 1 or chosen >> walls[w][1] & 1):
            w += 1
        if w == len(walls):
            out.append(chosen)
            if len(out) > budgets.max_points:
                raise WallBudgetExceeded("point enumeration exceeded max_points cap")
            return
        for side in walls[w]:
            if banned >> side & 1:
                continue
            forced = up[side]
            if forced & banned:
                continue
            rec(w + 1, chosen | forced, banned | P.star_map(forced))

    rec(0, 0, 0)
    P._points = tuple(Point(P, m) for m in sorted(out))
    return P._points


def halfspace_point_masks(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> tuple[int, ...]:
    """For each halfspace, the bitmask of enumerated points lying in it."""
    pts = points(P, budgets)
    if P._hmasks is not None:
        return P._hmasks
    masks = [0] * P.n
    for pos, p in enumerate(pts):
        for i in _iter_bits(p.mask):
            masks[i] |= 1 << pos
    P._hmasks = tuple(masks)
    return P._hmasks


def point_from_ids(P: WeightedPocset, ids: Iterable[str]) -> Point:
    mask = 0
    for h in ids:
        mask |= 1 << P.idx(h)
    if not is_ultrafilter(P, mask):
        raise InvalidInput(f"{sorted(ids)} is not an ultrafilter")
    return Point(P, mask)


def is_ultrafilter(P: WeightedPocset, mask: int) -> bool:
    """One side of every wall (the star images are the other sides) and
    closed upward."""
    return P.star_map(mask) == ((1 << P.n) - 1) ^ mask and P.up_map(mask) == mask


# -- median geometry ------------------------------------------------------

def median(P: WeightedPocset, x: Point, y: Point, z: Point) -> Point:
    """Majority vote: the unique point of I(x,y) ∩ I(y,z) ∩ I(z,x)."""
    return Point(P, (x.mask & y.mask) | (y.mask & z.mask) | (z.mask & x.mask))


def distance(P: WeightedPocset, x: Point, y: Point) -> Fraction:
    """Total weight of the walls separating x from y (each wall once),
    summed by weight group: each weight as an integer over the common
    denominator, times the number of separating walls of that weight."""
    if P._weight_groups is None:
        D = lcm(*(w.denominator for w in P.weight))
        groups: dict = {}
        for i, _ in P.walls:
            k = P.weight[i].numerator * D // P.weight[i].denominator
            groups[k] = groups.get(k, 0) | 1 << i
        P._weight_groups = D, tuple(groups.items())
    D, groups = P._weight_groups
    diff = x.mask ^ y.mask
    return Fraction(sum(k * (diff & m).bit_count() for k, m in groups), D)


def interval(P: WeightedPocset, x: Point, y: Point,
             budgets: Budgets = DEFAULT_BUDGETS) -> ConvexSet:
    """All points z whose ultrafilter contains σ_x ∩ σ_y."""
    common = x.mask & y.mask
    members = [p for p in points(P, budgets) if common & ~p.mask == 0]
    return ConvexSet(P, members)


def _as_convex(P: WeightedPocset, C) -> ConvexSet:
    if isinstance(C, ConvexSet):
        return C
    if isinstance(C, Point):
        return ConvexSet(P, [C])
    return ConvexSet(P, list(C))


def separating(P: WeightedPocset, A, B) -> tuple[str, ...]:
    """The halfspaces containing B whose complements contain A."""
    A = _as_convex(P, A)
    B = _as_convex(P, B)
    if not A.masks or not B.masks:
        raise EmptyInput("separating() requires nonempty sets")
    out = []
    for i in range(P.n):
        if B.sigma >> i & 1 and A.sigma >> P.star[i] & 1:
            out.append(P.ids[i])
    return tuple(sorted(out))


def gate_project(P: WeightedPocset, C, x: Point) -> Point:
    """The gate of x in C: per wall, C's side when C lies in one side,
    otherwise x's side."""
    C = _as_convex(P, C)
    if not C.masks:
        raise EmptyInput("gate_project() requires a nonempty convex set")
    # sigma's sides, and x's side of each wall where sigma holds neither
    mask = C.sigma | x.mask & ~P.star_map(C.sigma)
    gate = Point(P, mask)
    if not is_ultrafilter(P, mask):
        raise InvalidInput("gate projection produced a non-point; input not convex?")
    return gate


def gate_pair(P: WeightedPocset, C, D) -> tuple[Point, Point]:
    """A pair of gates (x, x') realizing d(C, D)."""
    C = _as_convex(P, C)
    D = _as_convex(P, D)
    if not C.masks or not D.masks:
        raise EmptyInput("gate_pair() requires nonempty convex sets")
    x = Point(P, C.masks[0])
    for _ in range(2 * P.wall_count + 2):
        x2 = gate_project(P, D, x)
        x3 = gate_project(P, C, x2)
        if x3.mask == x.mask:
            return x3, x2
        x = x3
    raise InvalidInput("gate_pair did not stabilize; inputs not gate-convex?")


def convex_hull(P: WeightedPocset, S: Iterable[Point],
                budgets: Budgets = DEFAULT_BUDGETS) -> ConvexSet:
    """Smallest convex superset: the intersection of all halfspaces
    containing S."""
    members = list(S)
    if not members:
        raise EmptyInput("convex_hull() requires a nonempty set")
    sigma = (1 << P.n) - 1
    for p in members:
        sigma &= p.mask
    hull = [p for p in points(P, budgets) if sigma & ~p.mask == 0]
    return ConvexSet(P, hull)


def inseparable_closure(P: WeightedPocset, S: Iterable[str]) -> tuple[str, ...]:
    """Everything between two members of S: one pass suffices."""
    idxs = [P.idx(h) for h in S]
    if not idxs:
        return ()
    smask = 0
    for i in idxs:
        smask |= 1 << i
    above = P.up_map(smask)  # halfspaces lying above some member
    out = [j for j in _iter_bits(above) if P.up[j] & smask]
    return tuple(sorted(P.ids[j] for j in out))
