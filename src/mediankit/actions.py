"""Group actions as words in total or window-restricted automorphisms.

Total actions act on a whole finite pocset.  Window actions act on a finite
fragment of a conceptually infinite pocset through partial, injective,
structure-preserving halfspace maps; evaluation outside the visible domain
is detected and never silent.  A window can certify positives (a verified
flip, skewer or free-group certificate) but can never certify absence, so
definitive negatives are only reported for total actions.

Search results are re-verified by direct set computation before being
reported; the search bookkeeping is never trusted.  Words are enumerated
shortest-first, ties broken lexicographically, so every search is
deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .config import Budgets, DEFAULT_BUDGETS
from .errors import (
    InclusionFailed,
    InvalidInput,
    NotAnAutomorphism,
    NotFacing,
    NotTransverse,
    OutOfWindow,
    WallBudgetExceeded,
)
from .pocset import (
    Point,
    WeightedPocset,
    _iter_bits,
    distance,
    halfspace_point_masks,
    points,
)
from .structure import Automorphism, decompose, rank, transverse as _transverse

Word = tuple  # tuple[tuple[str, int], ...]


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse ``"a a b^-1"`` or comma-separated tokens; when every generator
    name is a single character, a compact run like ``"aab"`` also parses."""
    text = text.strip()
    if not text:
        return ()
    tokens = [t for chunk in text.split(",") for t in chunk.split()] or [text]
    if len(tokens) == 1 and tokens[0] not in names and "^" not in tokens[0] \
            and all(len(n) == 1 for n in names):
        tokens = list(tokens[0])
    out = []
    for tok in tokens:
        name, _, exp = tok.partition("^")
        e = 1
        if exp:
            try:
                e = int(exp)
            except ValueError:
                raise InvalidInput(f"bad exponent in word token {tok!r}")
        if name not in names:
            raise InvalidInput(f"unknown generator {name!r} in word")
        sign = 1 if e > 0 else -1
        out.extend([(name, sign)] * abs(e))
    return tuple(out)


def word_str(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(n if e == 1 else f"{n}^-1" for n, e in word)


def reduce_word(word: Word) -> Word:
    out: list = []
    for tok in word:
        if out and out[-1][0] == tok[0] and out[-1][1] == -tok[1]:
            out.pop()
        else:
            out.append(tok)
    return tuple(out)


def _alphabet(names: Sequence[str]) -> list:
    """Letters in search order: each generator, then its inverse."""
    return [(n, s) for n in names for s in (1, -1)]


def enumerate_words(names: Sequence[str], max_len: int):
    """Nontrivial reduced words over the generators and their inverses, by
    length then lexicographic order."""
    alphabet = _alphabet(names)
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for tok in alphabet:
                if w and w[-1][0] == tok[0] and w[-1][1] == -tok[1]:
                    continue
                nw = w + (tok,)
                nxt.append(nw)
                yield nw
        frontier = nxt


class Action:
    """A pocset with named generators: ``Automorphism``s, which in a window
    action may be undefined on part of the pocset."""

    def __init__(self, pocset: WeightedPocset, gens: dict,
                 budgets: Budgets = DEFAULT_BUDGETS):
        self.pocset = pocset
        self.gens = dict(gens)  # name -> map
        self.budgets = budgets
        holes = [n for n, g in self.gens.items() if None in g.perm]
        if self.kind == "total" and holes:  # its negatives are definitive
            raise NotAnAutomorphism(f"{holes[0]}: undefined on part of the pocset")

    def gen_names(self) -> tuple:
        return tuple(self.gens)

    def identity(self) -> Automorphism:
        return Automorphism.identity(self.pocset)

    def step(self, tok):
        """The map of one letter: a generator or its inverse."""
        g = self.gens[tok[0]]
        return g if tok[1] > 0 else g.inverse()

    def evaluate(self, word: Word):
        """The word reads as a product left-to-right: (a, b) is the element
        ab, whose rightmost factor acts first."""
        g = self.identity()
        for tok in word:
            g = g.compose(self.step(tok))
        return g

    def points(self):
        return points(self.pocset, self.budgets)


class TotalAction(Action):
    """A finite pocset together with named total automorphisms.  The
    generated group is computed once, on first use, and serves ``group``
    and every flip search."""

    kind = "total"

    def group(self) -> list:
        """The generated group, sorted by permutation; raises when the
        budget is hit."""
        return sorted((g for _, g in self.elements), key=lambda g: g.perm)

    @cached_property
    def elements(self) -> list:
        """(word, element) for every group element, with its shortlex-least
        word, in shortlex order of the words; raises, and stores nothing,
        when the budget is hit.  Breadth-first search that extends each
        parent, in shortlex order, by the letters in alphabet order: a
        prefix of a shortlex-least word is shortlex-least, so the first word
        reaching an element is its least."""
        steps = [(tok, self.step(tok)) for tok in _alphabet(self.gen_names())]
        ident = self.identity()
        seen = {ident.perm}
        frontier = [((), ident)]
        out = list(frontier)
        while frontier:
            nxt = []
            for word, g in frontier:
                for tok, s in steps:
                    h = g.compose(s)
                    if h.perm not in seen:
                        if len(seen) >= self.budgets.group_order:
                            raise WallBudgetExceeded("generated group exceeds budget")
                        seen.add(h.perm)
                        nxt.append((word + (tok,), h))
            out += nxt
            frontier = nxt
        return out


class WindowAction(Action):
    """A window pocset with named partial automorphisms."""

    kind = "window"


def _depth(action: Optional[Action], max_len: Optional[int]) -> Optional[int]:
    """The word length a search runs to: ``max_len``, or the action's budget
    when it is None; a negative length is invalid input, with or without an
    action."""
    if max_len is None:
        return action.budgets.word_length if action else None
    if max_len < 0:
        raise InvalidInput(f"word length {max_len} is negative")
    return max_len


def _evaluator(action: Action):
    """``action.evaluate`` for the words of one search, memoised for that
    search: ev(w) = ev(w[:-1]) ∘ step(w[-1]) is evaluate's left fold, so
    results are the same while words sharing a prefix share its map."""
    memo = {(): action.identity()}
    steps = {}

    def ev(word: Word):
        g = memo.get(word)
        if g is None:
            tok = word[-1]
            if tok not in steps:
                steps[tok] = action.step(tok)
            g = memo[word] = ev(word[:-1]).compose(steps[tok])
        return g

    return ev


# -- wall inversions -------------------------------------------------------

def wall_inversions(action: Action, word: Word) -> tuple:
    """Walls 𝔴 with g𝔴 flipped onto itself: g𝔥 = 𝔥*.

    For window actions only walls with visible images are decided; the
    count of undecided walls is returned alongside.
    """
    P = action.pocset
    g = action.evaluate(word)
    inverted = []
    undecided = 0
    for pos, (i, j) in enumerate(P.walls):
        img = g.apply_idx(i)
        if img is None:
            undecided += 1
        elif img == P.star[i]:
            inverted.append(P.wall_ids[pos])
    return tuple(inverted), undecided


# -- orbits ----------------------------------------------------------------

@dataclass
class OrbitResult:
    orbit: tuple
    size: int

    def to_json(self):
        return {"size": self.size, "orbit": [sorted(p.ids) for p in self.orbit]}


def min_orbit(action: TotalAction) -> OrbitResult:
    """A minimum-size orbit of points under the generated group."""
    if action.kind != "total":
        raise InvalidInput("min_orbit() requires a total action")
    pts = action.points()
    pos = {p.mask: i for i, p in enumerate(pts)}
    parent = list(range(len(pts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in action.gens.values():
        for i, p in enumerate(pts):
            q = g.apply_point(p)
            a, b = find(i), find(pos[q.mask])
            if a != b:
                parent[a] = b
    comps = {}
    for i in range(len(pts)):
        comps.setdefault(find(i), []).append(i)
    best = min(comps.values(), key=lambda c: (len(c), pts[c[0]].mask))
    return OrbitResult(tuple(pts[i] for i in best), len(best))


# -- flipping ---------------------------------------------------------------

@dataclass
class FlipResult:
    kind: str  # FLIPPED | INVARIANT_SET | INCONCLUSIVE
    word: Optional[Word] = None
    invariant_set: Optional[tuple] = None
    depth: Optional[int] = None
    skipped: int = 0

    def to_json(self):
        out = {"kind": self.kind, "skippedWords": self.skipped}
        if self.word is not None:
            out["word"] = word_str(self.word)
        if self.invariant_set is not None:
            out["invariantSet"] = [sorted(p.ids) for p in self.invariant_set]
        if self.depth is not None:
            out["depth"] = self.depth
        return out


def _halfspace_disjoint(P: WeightedPocset, i: int, j: int) -> bool:
    """Point sets of two halfspaces are disjoint iff i ⊆ j*."""
    return P.leq_idx(i, P.star[j])


def find_flip(action: Action, h: str, max_len: Optional[int] = None) -> FlipResult:
    """Search for g with g𝔥* disjoint from 𝔥* and g𝔥* ≠ 𝔥.

    Total actions exhaust the generated group, ignoring ``max_len``: each
    element is tried once, with its shortlex-least word, so a positive
    carries the shortlex-least flipping word and a negative is definitive
    and comes with the invariant convex set ⋂ g𝔥*.  Window actions search
    words up to ``max_len`` and otherwise return INCONCLUSIVE.

    In continuous models the flippability dichotomy needs a thickness
    hypothesis (real trees carry singleton halfspaces that nothing flips);
    finite positive-weight models have no thin halfspaces, so no such
    counterexample is representable here.
    """
    depth = _depth(action, max_len)
    P = action.pocset
    hs = P.star[P.idx(h)]
    if action.kind == "total":
        elements = action.elements
        masks = halfspace_point_masks(P, action.budgets)
        for word, g in elements:
            img = g.apply_idx(hs)
            if _halfspace_disjoint(P, img, hs) and img != P.idx(h):
                assert masks[img] & masks[hs] == 0
                return FlipResult("FLIPPED", word=word)
        pts = action.points()
        inter = (1 << len(pts)) - 1
        for _, g in elements:
            inter &= masks[g.apply_idx(hs)]
        members = tuple(pts[i] for i in _iter_bits(inter))
        return FlipResult("INVARIANT_SET", invariant_set=members)
    ev = _evaluator(action)
    skipped = 0
    for word in enumerate_words(action.gen_names(), depth):
        img = ev(word).apply_idx(hs)
        if img is None:
            skipped += 1
            continue
        if _halfspace_disjoint(P, img, hs) and img != P.idx(h):
            masks = halfspace_point_masks(P, action.budgets)
            assert masks[img] & masks[hs] == 0
            return FlipResult("FLIPPED", word=word, skipped=skipped)
    return FlipResult("INCONCLUSIVE", depth=depth, skipped=skipped)


# -- double skewering --------------------------------------------------------

@dataclass
class SkewerResult:
    kind: str  # SKEWERED | INCONCLUSIVE
    word: Optional[Word] = None
    h: str = ""
    k: str = ""
    image: Optional[str] = None
    depth: Optional[int] = None
    gap: Optional[Fraction] = None

    def to_json(self):
        out = {"kind": self.kind, "h": self.h, "k": self.k}
        if self.word is not None:
            out["word"] = word_str(self.word)
            out["image"] = self.image
            out["gap"] = str(self.gap)
        if self.depth is not None:
            out["depth"] = self.depth
        return out


def double_skewer(action: Action, h: str, k: str,
                  max_len: Optional[int] = None) -> SkewerResult:
    """Find g with g𝔨 ⊊ 𝔥 ⊆ 𝔨 and d(g𝔨, 𝔥*) > 0; shortest word first."""
    depth = _depth(action, max_len)
    P = action.pocset
    if not P.leq(h, k):
        raise InvalidInput(f"double_skewer() needs {h} contained in {k}")
    hi, ki = P.idx(h), P.idx(k)
    masks = halfspace_point_masks(P, action.budgets)
    ev = _evaluator(action)
    for word in enumerate_words(action.gen_names(), depth):
        img = ev(word).apply_idx(ki)
        if img is None:
            continue
        if img != hi and P.leq_idx(img, hi):
            # both displayed conditions, re-verified on point sets:
            # containment is proper and the distance to 𝔥* is positive
            assert masks[img] & ~masks[hi] == 0 and masks[img] != masks[hi]
            gap = _set_distance(P, masks[img], masks[P.star[hi]], action.budgets)
            if gap > 0:
                return SkewerResult("SKEWERED", word=word, h=h, k=k,
                                    image=P.ids[img], gap=gap)
    return SkewerResult("INCONCLUSIVE", h=h, k=k, depth=depth)


def _set_distance(P: WeightedPocset, amask: int, bmask: int,
                  budgets: Budgets) -> Fraction:
    pts = points(P, budgets)
    return min((distance(P, pts[i], pts[j]) for i in _iter_bits(amask)
                for j in _iter_bits(bmask)), default=Fraction(0))


# -- separation, facing tuples, sectors --------------------------------------

def strongly_separated(P: WeightedPocset, h: str, k: str) -> bool:
    """Disjoint halfspaces with no wall transverse to both.  A wall is
    transverse to h unless one of its sides lies in ``up[h] | down[h]``, so
    every halfspace must lie there or in k's rows, or be the complement of
    one that does."""
    hi, ki = P.idx(h), P.idx(k)
    if not _halfspace_disjoint(P, hi, ki):
        return False
    near = P.up[hi] | P.down[hi] | P.up[ki] | P.down[ki]
    return near | P.star_map(near) == (1 << P.n) - 1


@dataclass
class FacingResult:
    kind: str  # FOUND | NOT_FOUND | INCONCLUSIVE
    tuple_ids: tuple = ()
    strong: bool = False
    depth: Optional[int] = None

    def to_json(self):
        out = {"kind": self.kind, "strong": self.strong}
        if self.tuple_ids:
            out["tuple"] = list(self.tuple_ids)
        if self.depth is not None:
            out["depth"] = self.depth
        return out


def _pair_ok(P: WeightedPocset, a: int, b: int, strong: bool) -> bool:
    if strong:
        return strongly_separated(P, P.ids[a], P.ids[b])
    return _halfspace_disjoint(P, a, b)


def facing_tuple(P: WeightedPocset, n: int, seed: Optional[str] = None,
                 strong: bool = False,
                 action: Optional[Action] = None,
                 max_len: Optional[int] = None) -> FacingResult:
    """Search for n pairwise-disjoint halfspaces.

    The pure combinatorial search is exhaustive, so NOT_FOUND is a
    definitive negative.  With an action, a failed combinatorial search is
    retried through the skewering upgrade (extend an (m)-tuple by
    translating two members past the last one); a failure there is only
    INCONCLUSIVE.
    """
    max_len = _depth(action, max_len)
    if n < 3:
        raise InvalidInput("facing tuples need n >= 3")
    base = [P.idx(seed)] if seed else []
    combinatorial = _facing_backtrack(P, n, base, strong)
    if action is not None and n > 3:
        upgraded = _upgrade_route(P, n, base, strong, action, max_len)
        if upgraded is not None:
            return FacingResult("FOUND", tuple(P.ids[i] for i in upgraded),
                                strong=strong)
    if combinatorial is not None:
        return FacingResult("FOUND", tuple(P.ids[i] for i in combinatorial),
                            strong=strong)
    # the backtracking search is exhaustive over the pocset, so the negative
    # is definitive unless the pocset is only a window into a larger space
    if action is not None and action.kind == "window":
        return FacingResult("INCONCLUSIVE", strong=strong, depth=max_len)
    return FacingResult("NOT_FOUND", strong=strong)


def _upgrade_route(P, n, base, strong, action, max_len):
    """Grow a triple one member at a time: g h0* pushed inside the last
    member replaces it with two translated members."""
    current = _facing_backtrack(P, 3, base, strong)
    if current is None:
        return None
    current = list(current)
    while len(current) < n:
        h0 = current[0]
        last = current[-1]
        res = double_skewer(action, P.ids[last], P.ids[P.star[h0]],
                            max_len=max_len)
        upgraded = None
        if res.kind == "SKEWERED":
            g = action.evaluate(res.word)
            news = [g.apply_idx(current[1]), g.apply_idx(current[2])]
            if all(x is not None for x in news):
                cand = current[:-1] + news
                if len(set(cand)) == len(cand) and _all_facing(P, cand, strong):
                    upgraded = cand
        if upgraded is None:
            return None
        current = upgraded
    return current[:n]


def _all_facing(P: WeightedPocset, idxs: Sequence[int], strong: bool) -> bool:
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            if idxs[a] == idxs[b] or not _pair_ok(P, idxs[a], idxs[b], strong):
                return False
    return True


def _facing_backtrack(P: WeightedPocset, n: int, base: list,
                      strong: bool) -> Optional[list]:
    """The first n-tuple extending ``base``, its new members taken in id
    order, which is index order since ids are sorted."""
    chosen = list(base)
    if not _all_facing(P, chosen, strong):
        return None

    def rec(start: int) -> Optional[list]:
        if len(chosen) == n:
            return list(chosen)
        for i in range(start, P.n):
            if i in chosen:
                continue
            if all(_pair_ok(P, i, c, strong) for c in chosen):
                chosen.append(i)
                got = rec(i + 1)
                if got is not None:
                    return got
                chosen.pop()
        return None

    return rec(0)


@dataclass
class SectorResult:
    kind: str  # HALFSPACE | PRODUCT
    halfspace: Optional[str] = None
    sector: Optional[tuple] = None
    partition: Optional[tuple] = None  # (part1 ids, part2 ids)

    def to_json(self):
        out = {"kind": self.kind}
        if self.halfspace:
            out["halfspace"] = self.halfspace
            out["sector"] = list(self.sector)
        if self.partition:
            out["partition"] = [sorted(self.partition[0]), sorted(self.partition[1])]
        return out


def sector_halfspace(P: WeightedPocset, h: str, k: str) -> SectorResult:
    """A halfspace inside one of the four sectors of a transverse pair, or
    the *-invariant transverse partition that witnesses a product split."""
    if not _transverse(P, h, k):
        raise NotTransverse(f"{h} and {k} are not transverse")
    hi, ki = P.idx(h), P.idx(k)
    # the answer is the lowest halfspace below both sides of a sector; h and
    # k are transverse, so none of their four sides is ever one
    for s1 in (hi, P.star[hi]):
        for s2 in (ki, P.star[ki]):
            below = P.down[s1] & P.down[s2]
            if below:
                return SectorResult(
                    "HALFSPACE", halfspace=P.ids[(below & -below).bit_length() - 1],
                    sector=(P.ids[s1], P.ids[s2]))
    # no sector halfspace: build the transverse partition from the
    # inseparable envelope of the non-transversals of h
    near_h = P.up[hi] | P.down[hi]
    not_trans_h = near_h | P.star_map(near_h)
    part1 = {j for j in range(P.n) if (P.up[j] | P.down[j]) & not_trans_h}
    part2 = set(range(P.n)) - part1
    if not part2:
        raise InvalidInput("internal: sector partition degenerated")
    ids1 = tuple(sorted(P.ids[j] for j in part1))
    ids2 = tuple(sorted(P.ids[j] for j in part2))
    # decompose() must confirm: both pieces are unions of factors, so each
    # factor meeting the first lies inside it
    set1 = set(ids1)
    if any(not set1.isdisjoint(F.ids) and not set1.issuperset(F.ids)
           for F in decompose(P).factors):
        raise InvalidInput("internal: partition not confirmed by decompose()")
    return SectorResult("PRODUCT", partition=(ids1, ids2))


# -- ping-pong certificates ---------------------------------------------------

@dataclass
class FreeCertificate:
    a: Word
    b: Word
    h: str
    k: str
    facing_tuple: tuple
    base_inclusions: int
    words_checked: int
    checks_performed: int
    depth: int
    omega: tuple
    stabilizer_trivial: bool
    verified: bool

    def to_json(self):
        return {
            "kind": "FREE_CERTIFICATE",
            "a": word_str(self.a),
            "b": word_str(self.b),
            "h": self.h,
            "k": self.k,
            "facingTuple": list(self.facing_tuple),
            "baseInclusions": self.base_inclusions,
            "wordsChecked": self.words_checked,
            "checksPerformed": self.checks_performed,
            "depth": self.depth,
            "omega": [sorted(p.ids) for p in self.omega],
            "stabilizerTrivial": self.stabilizer_trivial,
            "verified": self.verified,
        }


def pingpong(action: Action, a: Word, b: Word, h: str, k: str,
             max_len: Optional[int] = None) -> FreeCertificate:
    """Verify the ping-pong configuration and brute-force all reduced words.

    Precondition: 𝔥, a𝔥*, 𝔨, b𝔨* form a facing 4-tuple.  The four
    displayed inclusion families (3 inclusions per generator direction) are
    verified once; then for every nontrivial reduced word u up to the depth
    six elementary checks run: the claim inclusion uΩ ⊆ (prescribed side),
    uΩ ∩ Ω = ∅, and the four wall-stabilizer inequalities u𝔥 ∉ {𝔥,𝔥*},
    u𝔨 ∉ {𝔨,𝔨*}.
    """
    depth = _depth(action, max_len)
    P = action.pocset
    ev = _evaluator(action)
    hi, ki = P.idx(h), P.idx(k)
    if hi == ki or hi == P.star[ki]:
        raise NotFacing("h and k must be sides of distinct walls")
    if reduce_word(a) == reduce_word(b) or not reduce_word(a) or not reduce_word(b):
        raise NotFacing("the two generator words must be distinct and nontrivial")
    g_a, g_b = ev(a), ev(b)
    a_hs = g_a.apply_idx(P.star[hi])
    b_ks = g_b.apply_idx(P.star[ki])
    if a_hs is None or b_ks is None:
        raise OutOfWindow("a𝔥* or b𝔨* is not visible in the window")
    tup = [hi, a_hs, ki, b_ks]
    if not _all_facing(P, tup, strong=False):
        raise NotFacing(
            "the four halfspaces h, a h*, k, b k* are not pairwise disjoint",
            tuple=[P.ids[i] for i in tup])

    # Ω = h* ∩ a h ∩ k* ∩ b k as a point set
    a_h = g_a.apply_idx(hi)
    b_k = g_b.apply_idx(ki)
    if a_h is None or b_k is None:
        raise OutOfWindow("a𝔥 or b𝔨 is not visible in the window")
    masks = halfspace_point_masks(P, action.budgets)
    pts = points(P, action.budgets)
    omega_mask = (masks[P.star[hi]] & masks[a_h]
                  & masks[P.star[ki]] & masks[b_k])
    if omega_mask == 0:
        raise NotFacing("the central region Ω is empty")
    omega = tuple(pts[i] for i in _iter_bits(omega_mask))

    prescribed = {
        ("A", 1): a_hs,    # u = a u'  =>  uΩ ⊆ a𝔥*
        ("A", -1): hi,     # u = a⁻¹u' =>  uΩ ⊆ 𝔥
        ("B", 1): b_ks,
        ("B", -1): ki,
    }
    # the four displayed inclusion families, one ≤-check per member
    base_targets = {
        (a, 1): (a_hs, [a_hs, b_ks, ki]),
        (a, -1): (hi, [hi, b_ks, ki]),
        (b, 1): (b_ks, [a_hs, hi, b_ks]),
        (b, -1): (ki, [a_hs, hi, ki]),
    }
    base_count = 0
    for (gw, sign), (target, sources) in base_targets.items():
        word = gw if sign == 1 else tuple((n, -s) for n, s in reversed(gw))
        g = ev(word)
        for src in sources:
            img = g.apply_idx(src)
            if img is None:
                raise OutOfWindow(
                    f"inclusion source {P.ids[src]} not visible under "
                    f"{word_str(word)}")
            if not P.leq_idx(img, target):
                raise InclusionFailed(
                    f"{word_str(word)}·{P.ids[src]} is not contained in "
                    f"{P.ids[target]}", halfspace=P.ids[src])
            base_count += 1

    # brute-force word check: letters are the two supplied generators
    letters = {"A": a, "B": b}
    pos = {p.mask: i for i, p in enumerate(pts)}
    words_checked = 0
    checks = base_count
    stab_ok = True
    for u in enumerate_words(("A", "B"), depth):
        word = _expand_letters(u, letters)
        gu = ev(word)
        images = []
        for p in omega:
            q = gu.apply_point(p)
            if q is None:
                raise OutOfWindow(f"word {word_str(word)} leaves the window on Ω")
            images.append(q)
        target = prescribed[u[0]]
        if any(not (q.mask >> target & 1) for q in images):
            raise InclusionFailed(
                f"{word_str(word)}·Ω escapes {P.ids[target]}",
                halfspace=P.ids[target])
        checks += 1  # claim inclusion
        if any(omega_mask >> pos[q.mask] & 1 for q in images):
            raise InclusionFailed(f"{word_str(word)} fixes part of Ω")
        checks += 1  # uΩ ∩ Ω = ∅
        for wi in (hi, ki):
            for forbidden in (wi, P.star[wi]):
                if not _stabilizer_excluded(action, P, gu, wi, forbidden, pts):
                    stab_ok = False
                checks += 1
        words_checked += 1

    return FreeCertificate(
        a=a, b=b, h=h, k=k,
        facing_tuple=tuple(P.ids[i] for i in tup),
        base_inclusions=base_count,
        words_checked=words_checked,
        checks_performed=checks,
        depth=depth,
        omega=omega,
        stabilizer_trivial=stab_ok,
        verified=stab_ok,
    )


def _expand_letters(u, letters) -> Word:
    out = []
    for name, sign in u:
        base = letters[name]
        if sign == 1:
            out.extend(base)
        else:
            out.extend((n, -s) for n, s in reversed(base))
    return reduce_word(tuple(out))


def _stabilizer_excluded(action, P, gu, wall_side: int, forbidden: int,
                         pts) -> bool:
    """Certify u·(side) != forbidden.

    Direct image when visible; otherwise refute via a witness point whose
    image lands on the wrong side: u·side = forbidden would force
    u(side ∩ dom) ⊆ forbidden and u(side* ∩ dom) ⊆ forbidden*.
    """
    img = gu.apply_idx(wall_side)
    if img is not None:
        return img != forbidden
    masks = halfspace_point_masks(P, action.budgets)
    side_mask = masks[wall_side]
    for i in range(len(pts)):
        q = gu.apply_point(pts[i])
        if q is None:
            continue
        in_side = bool(side_mask >> i & 1)
        img_in_forbidden = bool(q.mask >> forbidden & 1)
        if in_side != img_in_forbidden:
            return True
    return False


# -- classification pipeline --------------------------------------------------

@dataclass
class ClassificationReport:
    kind: str  # ROLLER_ELEMENTARY | FREE_SUBGROUP | INCONCLUSIVE
    stage: int
    witness: Optional[dict] = None
    core_size: Optional[int] = None
    log: tuple = ()

    def to_json(self):
        out = {"kind": self.kind, "stage": self.stage, "log": list(self.log)}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.core_size is not None:
            out["coreSize"] = self.core_size
        return out


def classify(action: Action, max_len: Optional[int] = None) -> ClassificationReport:
    """Elementary-or-free pipeline.

    Stage 1 looks for a global fixed point or a finite orbit of size at most
    2^rank; for total actions on finite pocsets this is an exact decision.
    Stage 2 restricts to a minimal nonempty invariant convex core.  Stage 3
    hunts for a facing triple, upgrades it, and attempts a ping-pong
    certificate.  Window "fixed points" live at window resolution only, so
    for window actions stage 1 records candidates without concluding and
    the pipeline proceeds; only a stage-3 certificate is a verdict.
    """
    depth = _depth(action, max_len)
    log = []
    P = action.pocset
    if action.kind == "total":
        orbit = min_orbit(action)
        r = rank(P, action.budgets)
        log.append(f"stage1: minimum orbit size {orbit.size}, rank {r}")
        if orbit.size == 1:
            return ClassificationReport(
                "ROLLER_ELEMENTARY", stage=1,
                witness={"fixedPoint": sorted(orbit.orbit[0].ids)},
                log=tuple(log))
        assert orbit.size <= 2 ** r, "orbit bound violated"
        return ClassificationReport(
            "ROLLER_ELEMENTARY", stage=1,
            witness={"finiteOrbit": orbit.to_json()}, log=tuple(log))

    # window action: stage 1 candidates only
    fixed_candidates = 0
    for p in action.points():
        images = (g.apply_point(p) for g in action.gens.values())
        if all(q is not None and q.mask == p.mask for q in images):
            fixed_candidates += 1
    log.append(
        f"stage1: {fixed_candidates} window-resolution fixed candidates "
        "(not conclusive for the underlying action)")
    log.append("stage2: window core restriction skipped (budgeted search)")

    facing = facing_tuple(P, 3, action=action, max_len=depth)
    if facing.kind != "FOUND":
        log.append("stage3: no facing triple found")
        return ClassificationReport("INCONCLUSIVE", stage=3, log=tuple(log))
    log.append(f"stage3: facing triple {facing.tuple_ids}")
    candidates = []
    plain = _facing_backtrack(P, 4, [], strong=False)
    if plain is not None:
        candidates.append(tuple(P.ids[i] for i in plain))
    four = facing_tuple(P, 4, action=action, max_len=depth)
    if four.kind == "FOUND" and four.tuple_ids not in candidates:
        candidates.append(four.tuple_ids)
    if not candidates:
        log.append("stage3: no facing 4-tuple")
        return ClassificationReport("INCONCLUSIVE", stage=3, log=tuple(log))
    for tup in candidates:
        for h, hp, k, kp in itertools.permutations(tup):
            res_a = double_skewer(action, hp, P.ids[P.star[P.idx(h)]],
                                  max_len=depth)
            if res_a.kind != "SKEWERED":
                continue
            res_b = double_skewer(action, kp, P.ids[P.star[P.idx(k)]],
                                  max_len=depth)
            if res_b.kind != "SKEWERED":
                continue
            try:
                cert = pingpong(action, res_a.word, res_b.word, h, k,
                                max_len=depth)
            except (NotFacing, InclusionFailed, OutOfWindow):
                continue
            log.append(
                f"stage3: ping-pong verified with h={h}, k={k}, "
                f"a={word_str(res_a.word)}, b={word_str(res_b.word)}")
            return ClassificationReport(
                "FREE_SUBGROUP", stage=3, witness=cert.to_json(),
                log=tuple(log))
    log.append("stage3: no ping-pong configuration verified within budget")
    return ClassificationReport("INCONCLUSIVE", stage=3, log=tuple(log))


# -- lineality -----------------------------------------------------------------

@dataclass
class LinealResult:
    pairs: tuple  # pairs of Points (xi, eta) with every wall separating them

    @property
    def found(self) -> bool:
        return bool(self.pairs)

    def to_json(self):
        return {
            "lineal": self.found,
            "pairs": [[sorted(x.ids), sorted(y.ids)] for x, y in self.pairs],
        }


def is_lineal(P: WeightedPocset, budgets: Budgets = DEFAULT_BUDGETS) -> LinealResult:
    """Find all point pairs (ξ, η) such that every wall separates ξ from η;
    such a pair exists iff the whole space lies in the interval I(ξ, η)."""
    pts = points(P, budgets)
    by_mask = {p.mask for p in pts}
    pairs = []
    for p in pts:
        comp = P.star_map(p.mask)
        if comp in by_mask and p.mask < comp:
            pairs.append((p, Point(P, comp)))
    return LinealResult(tuple(pairs))
