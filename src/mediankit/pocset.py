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
from functools import reduce
from math import lcm
from operator import and_, or_
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


def transpose(rows: Sequence[int], width: int) -> list:
    """Column k < ``width`` of the bit matrix ``rows``: the mask of the rows
    holding bit k.  Each chunk of rows is written as bit strings, lowest bit
    first, whose columns ``zip`` reads and ``int`` turns back into masks."""
    chunk = 4096  # bounds the strings alive at once, for up to 2^20 points
    cols = [0] * width
    fmt = f"0{width}b"
    for start in range(0, len(rows), chunk):
        bits = [format(r, fmt)[::-1] for r in rows[start:start + chunk]]
        for k, col in zip(range(width), zip(*bits)):
            cols[k] |= int("".join(col)[::-1], 2) << start
    return cols


def transitive_rows(rows: Sequence[int]) -> list:
    """The transitive closure of a relation given as bitmask rows (row i
    holds the j related to i): each round ORs into every row the rows of
    its members, through one ``MaskMap``, until no row changes.  A round
    doubles the path lengths covered, so about log2(len(rows)) rounds."""
    rows = list(rows)
    while True:
        step = MaskMap(rows)
        closed = [r | step(r) for r in rows]
        if closed == rows:
            return rows
        rows = closed


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
        index, star = self.index, self.star
        # ORs of precomputed bits (the star map's images are the star
        # bits): no shift allocates a new int per pair
        bit = [1 << i for i in range(self.n)]
        star_bit = self.star_map.images
        up = bit.copy()
        for a, b in order:
            try:
                i, j = index[a], index[b]
            except KeyError:
                raise InvalidInput(f"order pair ({a!r}, {b!r}) names unknown halfspace") from None
            up[i] |= bit[j]
            up[star[j]] |= star_bit[i]  # order-reversing involution
        self.up = tuple(transitive_rows(up))
        # i <= j iff j* <= i*, so the down-row of j is the star image of
        # the up-row of j*
        self.down = tuple(self.star_map(self.up[s]) for s in star)
        self.up_map = MaskMap(self.up)

    @classmethod
    def from_rows(cls, walls: Iterable[tuple[str, str, Fraction]], up: Sequence[int],
                  down: Sequence[int],
                  wall_ids: Optional[Sequence[str]] = None) -> "WeightedPocset":
        """The pocset whose halfspace k of the canonical index (ids in
        sorted order) has the up-set ``up[k]`` and the down-set
        ``down[k]``.  The rows must already be closed (reflexive,
        transitive, star-reversing) and ``down`` must be the transpose of
        ``up``; a derived pocset maps both from its parent's rows, and no
        closure runs."""
        P = cls.__new__(cls)
        P._set_walls(walls, wall_ids)
        P.up, P.down = tuple(up), tuple(down)
        P.up_map = MaskMap(P.up)
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
            # callers mostly pass Fractions, which need no conversion
            weight_by_id[pos] = weight_by_id[neg] = w if type(w) is Fraction else Fraction(w)
        self.ids = tuple(sorted(ids))
        self.index = {h: i for i, h in enumerate(self.ids)}
        self.star = tuple(self.index[star_by_id[h]] for h in self.ids)
        self.weight = tuple(weight_by_id[h] for h in self.ids)
        self.walls = tuple((i, j) for i, j in enumerate(self.star) if i <= j)
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
        self._weight_groups = None  # built by the first weight_groups

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
        self.sigma = reduce(and_, masks, (1 << pocset.n) - 1) if masks else 0

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
    """Check all pocset axioms, reading rows; violations are reported, never
    raised.  Construction makes three axioms hold, so they are not checked:
    ``*`` is an involution, as ``_set_walls`` rejects every repeated name;
    ``*`` reverses the order, as the pair constructor adds (j*, i*) with
    every (i, j), its closure keeps that symmetry, and ``from_rows`` takes
    closed rows; both sides of a wall weigh the same, as ``_set_walls``
    gives them one weight.

    Once the row checks pass, the point-level axioms hold too, so they are
    not checked either.  ``up(h) ∪ up(k*)`` is consistent (holds no ``x``
    with ``x*``) unless ``h <= k``: ``x >= h`` and ``x* >= k*`` give
    ``h <= x <= k``, while ``x, x* >= h`` would put ``h`` below ``h*``.  A
    consistent up-closed set ``U`` extends wall by wall to an ultrafilter:
    if ``U`` holds neither side of a wall, adding ``up(h)`` is consistent,
    as an ``x >= h`` with ``x*`` in ``U`` would put ``h*`` in ``U``.  So
    every halfspace is nonempty and misses a point, ``h <= k`` exactly when
    ``h``'s points lie in ``k``, and a pair's four sectors are nonempty
    exactly when its walls are incomparable.  Points are still enumerated
    up to ``point_walls`` walls, for the note and the ``max_points``
    budget."""
    rep = ValidationReport(ok=True)
    n = P.n
    for i in range(n):
        if P.star[i] == i:
            rep.fail("STAR_FIXED_POINT", f"{P.ids[i]} is its own complement")
    for i in range(n):
        si = P.star[i]
        if si != i and (P.up[i] | P.down[i]) >> si & 1:
            rep.fail("COMPARABLE_WITH_COMPLEMENT",
                     f"{P.ids[i]} is comparable with {P.ids[si]}")
    for i in range(n):
        for j in _iter_bits(P.up[i] & P.down[i] & ~(1 << i)):
            rep.fail("NOT_ANTISYMMETRIC", f"{P.ids[i]} <= {P.ids[j]} <= {P.ids[i]}")
    for i, _ in P.walls:
        if P.weight[i] <= 0:
            rep.fail("NONPOSITIVE_WEIGHT", P.ids[i])
    if not rep.ok:
        return rep
    if P.wall_count <= budgets.point_walls:
        pts = points(P, budgets)
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
    rather than ``2^walls``.  No side is ever pruned, as the rows of every
    constructor are transitive and star-reversing, invalid input included:
    ``chosen`` is up-closed, so a side whose complement is chosen has its
    wall skipped, and an ``x >= side`` whose complement ``x*`` is chosen
    gives ``side* >= x*``, so ``side*`` is chosen and the wall skipped too.
    """
    if P.wall_count > budgets.point_walls:
        raise WallBudgetExceeded(
            f"{P.wall_count} walls exceed enumeration cap {budgets.point_walls}",
            budget="point_walls", limit=budgets.point_walls, reached=P.wall_count)
    if P._points is not None:
        if len(P._points) > budgets.max_points:
            raise WallBudgetExceeded("point enumeration exceeded max_points cap",
                                     budget="max_points", limit=budgets.max_points,
                                     reached=len(P._points))
        return P._points
    up = P.up
    walls = P.walls
    out: list[int] = []

    def rec(w: int, chosen: int):
        while w < len(walls) and (chosen >> walls[w][0] & 1 or chosen >> walls[w][1] & 1):
            w += 1
        if w == len(walls):
            out.append(chosen)
            if len(out) > budgets.max_points:
                raise WallBudgetExceeded("point enumeration exceeded max_points cap",
                                         budget="max_points", limit=budgets.max_points,
                                         reached=len(out))
            return
        for side in walls[w]:
            rec(w + 1, chosen | up[side])

    rec(0, 0)
    P._points = tuple(Point(P, m) for m in sorted(out))
    return P._points


def halfspace_point_masks(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> tuple[int, ...]:
    """For each halfspace, the bitmask of enumerated points lying in it."""
    pts = points(P, budgets)
    if P._hmasks is None:
        P._hmasks = tuple(transpose([p.mask for p in pts], P.n))
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
    D, groups = P._weight_groups or weight_groups(P)
    diff = x.mask ^ y.mask
    return Fraction(sum(k * (diff & m).bit_count() for k, m in groups), D)


def weight_groups(P: WeightedPocset) -> tuple:
    """The common denominator D of the weights, and (k, mask) for each
    weight k/D, the mask holding the lower side of every wall of that
    weight; built once per pocset."""
    if P._weight_groups is None:
        D = lcm(*(w.denominator for w in P.weight))
        groups: dict = {}
        for i, _ in P.walls:
            k = P.weight[i].numerator * D // P.weight[i].denominator
            groups[k] = groups.get(k, 0) | 1 << i
        P._weight_groups = D, tuple(groups.items())
    return P._weight_groups


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


def _sigma(P: WeightedPocset, C) -> Optional[int]:
    """The co-ultrafilter of C, None when C is empty; a point's is its
    own mask, so a point needs no ``ConvexSet``."""
    if isinstance(C, Point):
        return C.mask
    C = _as_convex(P, C)
    return C.sigma if C.masks else None


def separating(P: WeightedPocset, A, B) -> tuple[str, ...]:
    """The halfspaces containing B whose complements contain A."""
    a, b = _sigma(P, A), _sigma(P, B)
    if a is None or b is None:
        raise EmptyInput("separating() requires nonempty sets")
    return tuple(P.ids[i] for i in _iter_bits(b & P.star_map(a)))


def gate_project(P: WeightedPocset, C, x: Point) -> Point:
    """The gate of x in C: per wall, C's side when C lies in one side,
    otherwise x's side."""
    sigma = _sigma(P, C)
    if sigma is None:
        raise EmptyInput("gate_project() requires a nonempty convex set")
    # sigma's sides, and x's side of each wall where sigma holds neither
    mask = sigma | x.mask & ~P.star_map(sigma)
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
    sigma = reduce(and_, (p.mask for p in members), (1 << P.n) - 1)
    hull = [p for p in points(P, budgets) if sigma & ~p.mask == 0]
    return ConvexSet(P, hull)


def inseparable_closure(P: WeightedPocset, S: Iterable[str]) -> tuple[str, ...]:
    """Everything between two members of S: one pass suffices."""
    idxs = [P.idx(h) for h in S]
    if not idxs:
        return ()
    smask = reduce(or_, (1 << i for i in idxs))
    above = P.up_map(smask)  # halfspaces lying above some member
    out = [j for j in _iter_bits(above) if P.up[j] & smask]
    return tuple(sorted(P.ids[j] for j in out))
