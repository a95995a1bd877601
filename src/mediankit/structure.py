"""Rank, transversality, product decomposition and automorphisms.

The rank of a pocset is the maximal size of a pairwise-transverse family of
walls (a clique in the wall transversality graph).  A pocset splits as a
product exactly along the connected components of the complementary
(non-transversality) graph; factors are materialized as standalone pocsets
so downstream code never needs the parent.  The graph is read off the
order rows with no map, one row per wall kept at the wall's lower side
(``_transversality_adjacency``); ``P.walls`` is sorted by lower side, so
cliques, components and factor walls come in wall order.  ``rank``
searches one wall per class of twins (walls with equal rows).

For finite models every isometry of the point space is induced by a
halfspace permutation (halfspaces and points determine each other), so
enumerating pocset automorphisms enumerates all isometries; this is relied
on implicitly, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .config import Budgets, DEFAULT_BUDGETS
from .errors import InvalidInput, NotAnAutomorphism, WallBudgetExceeded
from .pocset import MaskMap, Point, WeightedPocset, _iter_bits


def transverse(P: WeightedPocset, h: str, k: str) -> bool:
    """True when all four sectors of the two walls are nonempty.

    Order-theoretically: every element of {h, h*} is incomparable with every
    element of {k, k*}.  Validation asserts this matches sector
    nonemptiness whenever points are enumerable.
    """
    i, j = P.idx(h), P.idx(k)
    return not (P.up[i] | P.down[i]) & (1 << j | 1 << P.star[j])


def _transversality_adjacency(P: WeightedPocset) -> list[int]:
    """At each wall's lower side ``i``, the mask of the lower sides of the
    walls transverse to it; 0 at upper sides.  ``down[i]`` is the star
    image of ``up[i*]``, so ``up[i] | up[i*] | down[i] | down[i*]`` is
    star-closed: it holds a side of a wall exactly when it holds the
    wall's lower side, and its lower sides are the walls with a side
    comparable with ``i``, its own wall included."""
    lower = sum(1 << i for i, _ in P.walls)
    up, down = P.up, P.down
    adj = [0] * P.n
    for i, j in P.walls:
        adj[i] = lower & ~(up[i] | up[j] | down[i] | down[j])
    return adj


def rank(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> int:
    """Maximum clique size in the wall transversality graph; 0 iff a point.

    Walls with equal adjacency rows are twins: a wall is never in its own
    row, so no two twins are transverse, and a clique holds at most one of
    them, which any other can replace.  So the search runs over the first
    wall of each distinct row alone (tree factors and the copies of a
    subdivided wall are twins).  The ``clique_walls`` budget counts the
    active walls (those with a transverse partner) before this collapse."""
    if P._rank is not None:
        return P._rank
    adj = _transversality_adjacency(P)
    active = [i for i, _ in P.walls if adj[i]]
    if not active:
        P._rank = 1 if P.walls else 0
        return P._rank
    if len(active) > budgets.clique_walls:
        raise WallBudgetExceeded(
            f"{len(active)} mutually transverse-capable walls exceed clique cap",
            budget="clique_walls", limit=budgets.clique_walls, reached=len(active))
    firsts = {}  # per distinct row, the bit of its first wall
    for i in active:
        firsts.setdefault(adj[i], 1 << i)
    best = 1

    def bb(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        for v in _iter_bits(cand):
            cand ^= 1 << v
            if size + 1 + (cand & adj[v]).bit_count() <= best:
                continue
            best = max(best, size + 1)
            bb(cand & adj[v], size + 1)

    bb(sum(firsts.values()), 0)
    P._rank = best
    return best


@dataclass
class Decomposition:
    """Irreducible factors plus the assignment of parent halfspaces."""

    factors: tuple[WeightedPocset, ...]
    assignment: dict  # parent halfspace id -> (factor index, factor halfspace id)

    def to_json(self):
        return {
            "factors": [
                {"halfspaces": sorted(f.ids)} for f in self.factors
            ],
            "assignment": {h: [fi, fh] for h, (fi, fh) in sorted(self.assignment.items())},
        }


def decompose(P: WeightedPocset) -> Decomposition:
    """Split along connected components of the non-transversality graph.
    An irreducible P is its own only factor: a copy would have P's ids,
    rows, weights and wall ids, and would enumerate its points again."""
    if not P.walls:
        raise InvalidInput("decompose() needs at least one wall")
    adj = _transversality_adjacency(P)
    wall_at = {i: a for a, (i, _) in enumerate(P.walls)}  # lower side -> wall
    comps = []  # lower-side masks of the non-transversality components
    left = sum(1 << i for i in wall_at)
    while left:
        comp = frontier = left & -left
        while frontier:
            u = (frontier & -frontier).bit_length() - 1
            frontier ^= 1 << u
            grown = left & ~adj[u] & ~comp
            comp |= grown
            frontier |= grown
        left &= ~comp
        comps.append(comp)
    if len(comps) == 1:
        return Decomposition((P,), {h: (0, h) for h in P.ids})
    # deterministic factor order: by least wall id in the component
    comps.sort(key=lambda c: min(P.wall_ids[wall_at[i]] for i in _iter_bits(c)))
    # a factor's ids are a sorted subsequence of P's, so the k-th member of
    # a factor is its halfspace k
    members = [sorted({h for i in _iter_bits(c) for h in (i, P.star[i])}) for c in comps]
    # parent halfspace -> its bit in its own factor; comparable walls are not
    # transverse, so a row never leaves its factor and needs no mask
    local = [0] * P.n
    for mem in members:
        for k, i in enumerate(mem):
            local[i] = 1 << k
    to_factor = MaskMap(tuple(local))
    factors = []
    for c, mem in zip(comps, members):
        walls = [(P.ids[i], P.ids[P.star[i]], P.weight[i]) for i in _iter_bits(c)]
        factors.append(WeightedPocset.from_rows(
            walls, [to_factor(P.up[i]) for i in mem], [to_factor(P.down[i]) for i in mem],
            [P.wall_ids[wall_at[i]] for i in _iter_bits(c)]))
    return Decomposition(tuple(factors), {P.ids[i]: (fi, P.ids[i])
                                          for fi, mem in enumerate(members) for i in mem})


def pocset_product(parts: Sequence[WeightedPocset],
                   prefixes: Optional[Sequence[str]] = None) -> WeightedPocset:
    """Disjoint union of halfspaces with all cross-pairs transverse."""
    if prefixes is None:
        prefixes = [f"f{i}." for i in range(len(parts))]
    walls = []
    wall_ids = []
    names = []
    ups, downs = [], []  # rows over the concatenated halfspaces of the parts
    for pref, Q in zip(prefixes, parts):
        walls += [(pref + Q.ids[i], pref + Q.ids[j], Q.weight[i]) for i, j in Q.walls]
        wall_ids += [pref + wi for wi in Q.wall_ids]
        ups += [row << len(names) for row in Q.up]
        downs += [row << len(names) for row in Q.down]
        names += [pref + h for h in Q.ids]
    index = {h: k for k, h in enumerate(sorted(names))}  # the product's own index
    to_index = MaskMap(tuple(1 << index[h] for h in names))
    up = [row for _, row in sorted(zip(names, map(to_index, ups)))]
    down = [row for _, row in sorted(zip(names, map(to_index, downs)))]
    return WeightedPocset.from_rows(walls, up, down, wall_ids)


class Automorphism:
    """A structure-preserving halfspace map: ``perm[i]`` is the image of
    halfspace ``i``, or None where a window map is undefined.  ``check``,
    run by each ``actions.Action`` that takes the map, records a pass on the
    map itself, so no caller tracks what was checked; composites and
    inverses of checked maps preserve structure by construction and start
    unchecked."""

    __slots__ = ("pocset", "perm", "name", "_up_map", "_image", "_passed")

    def __init__(self, pocset: WeightedPocset, perm: Sequence[Optional[int]],
                 name: str = ""):
        self.pocset = pocset
        self.perm = tuple(perm)
        self.name = name
        self._up_map = None  # built by the first image_point
        self._image = None  # built by the first image
        self._passed = False  # set by the first check that passes

    @classmethod
    def from_mapping(cls, P: WeightedPocset, mapping: dict,
                     name: str = "") -> "Automorphism":
        """The map of ``mapping`` (halfspace id to id), closed under star."""
        perm = [None] * P.n
        for a, b in mapping.items():
            perm[P.idx(a)] = P.idx(b)
        for a, b in enumerate(list(perm)):
            if b is not None:
                sa, sb = P.star[a], P.star[b]
                if perm[sa] not in (None, sb):
                    raise NotAnAutomorphism(f"{name}: star images conflict")
                perm[sa] = sb
        return cls(P, perm, name)

    @classmethod
    def identity(cls, P: WeightedPocset) -> "Automorphism":
        return cls(P, range(P.n), "id")

    def check(self, total: bool = False):
        """Raise NotAnAutomorphism unless the map is injective, commutes
        with star, keeps weights and keeps order both ways on its domain,
        and, with ``total``, is defined everywhere.  A map never changes
        (``perm`` is a tuple), so it records a pass, and a later call that
        passes the ``total`` rule returns at once; a failure records nothing."""
        if total and None in self.perm:
            raise NotAnAutomorphism(f"{self.name}: undefined on part of the pocset")
        if self._passed:
            return
        P, perm = self.pocset, self.perm
        domain = [a for a, b in enumerate(perm) if b is not None]
        if len({perm[a] for a in domain}) != len(domain):
            raise NotAnAutomorphism(f"{self.name}: not injective")
        for a in domain:
            b = perm[a]
            if perm[P.star[a]] != P.star[b]:
                raise NotAnAutomorphism(f"{self.name}: does not commute with star")
            if P.weight[a] != P.weight[b]:
                raise NotAnAutomorphism(f"{self.name}: does not preserve weights")
        # image(up[a]) is the image of the part of a's up-set in the domain
        img = self.image((1 << P.n) - 1)
        for a in domain:
            if self.image(P.up[a]) != P.up[perm[a]] & img:
                raise NotAnAutomorphism(f"{self.name}: does not preserve order")
        self._passed = True

    @property
    def image(self) -> MaskMap:
        """Halfspace sets to their images, undefined entries dropped."""
        if self._image is None:
            self._image = MaskMap(tuple(0 if b is None else 1 << b for b in self.perm))
        return self._image

    def apply_idx(self, i: int) -> Optional[int]:
        return self.perm[i]

    def apply(self, h: str) -> str:
        return self.pocset.ids[self.perm[self.pocset.idx(h)]]

    def apply_point(self, p: Point) -> Optional[Point]:
        return self.image_point(p.mask)

    def image_point(self, mask: int) -> Optional[Point]:
        """Map the halfspaces of ``mask`` where defined, close upward, and
        accept only a complete consistent orientation, else None: both
        sides (inconsistent) or neither (out of window).  A total map takes
        ultrafilters to ultrafilters, so it never gives None.  A window
        map's images carry window resolution only: a point pinned at the
        window boundary may map to itself though the translation moves it."""
        P, n = self.pocset, self.pocset.n
        if self._up_map is None:  # up[j] and, above bit n, its star image down[j*]
            self._up_map = MaskMap(tuple(0 if j is None else P.up[j] | P.down[P.star[j]] << n
                                         for j in self.perm))
        both, full = self._up_map(mask), (1 << n) - 1
        return Point(P, both & full) if both >> n == full ^ both & full else None

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self ∘ other: apply ``other`` first; defined where both steps are."""
        return Automorphism(
            self.pocset,
            tuple(None if j is None else self.perm[j] for j in other.perm),
            name=f"{self.name}*{other.name}",
        )

    def inverse(self) -> "Automorphism":
        inv = [None] * len(self.perm)
        for i, v in enumerate(self.perm):
            if v is not None:
                inv[v] = i
        return Automorphism(self.pocset, inv, name=f"{self.name}^-1")

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.perm))

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and other.pocset is self.pocset
            and other.perm == self.perm
        )

    def __hash__(self):
        return hash((id(self.pocset), self.perm))

    def __repr__(self):
        return f"Automorphism({self.name or self.perm})"


def automorphisms(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> tuple[Automorphism, ...]:
    """All structure-preserving halfspace permutations, in lexicographic
    order of their permutation tuples.  Forms a group."""
    if P.wall_count > budgets.aut_walls:
        raise WallBudgetExceeded(
            f"{P.wall_count} walls exceed automorphism cap {budgets.aut_walls}",
            budget="aut_walls", limit=budgets.aut_walls, reached=P.wall_count)
    reps = [i for i, _ in P.walls]
    nw = len(reps)
    found: list[Automorphism] = []
    perm = [None] * P.n  # read only on the assigned halfspaces
    # every automorphism keeps these; they prune before any row is compared
    sig = [(w, u.bit_count(), d.bit_count()) for w, u, d in zip(P.weight, P.up, P.down)]

    def extend_ok(i: int, gi: int, dom: int, img: int) -> bool:
        """i -> gi keeps order both ways with the assigned halfspaces
        ``dom`` and their images ``img``.  It also covers i* -> gi*: the
        rows are star-symmetric and ``dom`` is a union of walls."""
        for rows in (P.up, P.down):
            image = 0
            for j in _iter_bits(rows[i] & dom):
                image |= 1 << perm[j]
            if image != rows[gi] & img:
                return False
        return True

    def rec(w: int, used_walls: int, dom: int, img: int):
        if w == nw:
            found.append(Automorphism(P, list(perm)))
            return
        i = reps[w]
        si = P.star[i]
        for wb in range(nw):
            if used_walls >> wb & 1:
                continue
            k = reps[wb]
            for gi in (k, P.star[k]):
                if sig[i] != sig[gi] or not extend_ok(i, gi, dom, img):
                    continue
                perm[i] = gi
                perm[si] = P.star[gi]
                rec(w + 1, used_walls | 1 << wb, dom | 1 << i | 1 << si,
                    img | 1 << gi | 1 << P.star[gi])

    rec(0, 0, 0, 0)
    out = sorted(found, key=lambda g: g.perm)
    for pos, g in enumerate(out):
        g.name = "id" if g.is_identity() else f"g{pos}"
    return tuple(out)


def factor_permutation(P: WeightedPocset, D: Decomposition, g: Automorphism) -> tuple[int, ...]:
    """The permutation of factor indices induced by an automorphism."""
    g.check(total=True)
    out = []
    for fi, F in enumerate(D.factors):
        images = {D.assignment[g.apply(h)][0] for h in F.ids}
        if len(images) != 1:
            raise NotAnAutomorphism(
                f"image of factor {fi} meets several factors: {sorted(images)}")
        out.append(images.pop())
    perm = tuple(out)
    if sorted(perm) != list(range(len(D.factors))):
        raise NotAnAutomorphism("induced factor map is not a permutation")
    return perm
