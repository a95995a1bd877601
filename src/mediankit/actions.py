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
from functools import cached_property, reduce
from fractions import Fraction
from operator import and_, or_
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
    halfspace_point_masks,
    points,
    weight_groups,
)
from .structure import Automorphism, decompose, rank, transverse as _transverse

Word = tuple  # tuple[tuple[str, int], ...]
WORD_LETTERS = 100_000


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse ``"a a b^-1"`` or comma-separated tokens; when every generator
    name is a single character, a compact run like ``"aab"`` also parses.
    A word expands to at most ``WORD_LETTERS`` (100,000) letters; the
    token whose exponent would pass that is invalid input, checked before
    it is expanded."""
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
        if len(out) + abs(e) > WORD_LETTERS:
            raise InvalidInput(f"word token {tok!r} expands past {WORD_LETTERS} letters")
        sign = 1 if e > 0 else -1
        out.extend([(name, sign)] * abs(e))
    return tuple(out)


def word_str(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(n if e == 1 else f"{n}^-1" for n, e in word)


def invert_word(word: Word) -> Word:
    return tuple((n, -s) for n, s in reversed(word))


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
    """A pocset with named generators: ``Automorphism``s, each checked as
    the action takes it (once: a map keeps its pass), and total in a total
    action, whose negatives are definitive."""

    def __init__(self, pocset: WeightedPocset, gens: dict,
                 budgets: Budgets = DEFAULT_BUDGETS):
        self.pocset = pocset
        self.gens = dict(gens)  # name -> map
        self.budgets = budgets
        for g in self.gens.values():
            g.check(total=self.kind == "total")

    def gen_names(self) -> tuple:
        return tuple(self.gens)

    def identity(self) -> Automorphism:
        return Automorphism.identity(self.pocset)

    @cached_property
    def letters(self) -> dict:
        """Each letter's map, a generator or its inverse, built once, in
        alphabet order: the one step table of every word search."""
        return {(n, s): g if s > 0 else g.inverse() for n, g in self.gens.items() for s in (1, -1)}

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
        when the budget is hit, naming it, its limit and the elements
        found.  Breadth-first search that extends each parent, in shortlex
        order, by the letters in alphabet order: a prefix of a
        shortlex-least word is shortlex-least, so the first word reaching
        an element is its least."""
        steps = self.letters.items()
        limit = self.budgets.group_order
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
                        if len(seen) >= limit:
                            raise WallBudgetExceeded(
                                f"generated group exceeds budget group_order {limit}: "
                                f"{len(seen) + 1} elements found",
                                budget="group_order", limit=limit, reached=len(seen) + 1)
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


class WordImages:
    """The images one search reads under its words, of the halfspaces
    ``idxs`` (None where undefined) and of halfspace sets, composing no
    whole map: ev(w) = letters[w[0]] ∘ ev(w[1:]), so a word's images are its
    suffix's through the letter table, one lookup each, kept in a trie of
    suffixes read from the word's right end.  Set images compose exactly
    under partial injections; point images do not, as closing after each
    letter differs from the composite on 216 of the 2,576 (word of length
    <= 2, point) pairs of F2BALL.  So a point steps as a set, closed once."""

    def __init__(self, action: Action, idxs: Sequence[int] = ()):
        self.action = action
        self.root = (tuple(idxs), {}, {})  # images, longer suffixes by letter, set images

    def step(self, images: tuple, tok) -> tuple:
        """``images`` under the letter ``tok``, None where undefined."""
        perm = self.action.letters[tok].perm
        return tuple([None if j is None else perm[j] for j in images])

    def _node(self, node: tuple, tok) -> tuple:
        return node[1].setdefault(tok, (self.step(node[0], tok), {}, {}))

    def __call__(self, word: Word) -> tuple:
        """The images of ``idxs``."""
        node = self.root
        for tok in reversed(word):
            node = node[1].get(tok) or self._node(node, tok)
        return node[0]

    def set_image(self, word: Word, mask: int) -> int:
        """The image of the halfspace set ``mask``, kept at each suffix node
        of the word as the walk passes it."""
        node, image = self.root, mask
        for tok in reversed(word):
            node = node[1].get(tok) or self._node(node, tok)
            got = node[2].get(mask)
            image = node[2][mask] = self.action.letters[tok].image(image) if got is None else got
        return image

    def point(self, word: Word, mask: int) -> Optional[Point]:
        """The image of the point ``mask``: its set image under all letters
        but the first, which maps it and closes it at once."""
        g = self.action.letters[word[0]] if word else self.action.identity()
        return g.image_point(self.set_image(word[1:], mask))


# -- wall inversions -------------------------------------------------------

def wall_inversions(action: Action, word: Word) -> tuple:
    """Walls 𝔴 with g𝔴 flipped onto itself: g𝔥 = 𝔥*.

    For window actions only walls with visible images are decided; the
    count of undecided walls is returned alongside.  The walls' lower
    sides step through ``WordImages.step`` from the word's right end,
    composing no map and, unlike a search, keeping no suffix: a word may
    have 100,000 letters.
    """
    P = action.pocset
    images = reduce(WordImages(action).step, reversed(word), [i for i, _ in P.walls])
    inverted = []
    undecided = 0
    for pos, ((i, _), img) in enumerate(zip(P.walls, images)):
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

    # a total map takes points to points, so a point's image is its set image
    for g in action.gens.values():
        for i, p in enumerate(pts):
            a, b = find(i), find(pos[g.image(p.mask)])
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
        # one pass: g𝔥* is disjoint from 𝔥* iff g𝔥* <= 𝔥, read off its up row;
        # each image that is not a flip narrows the invariant set
        hi = P.star[hs]
        masks = halfspace_point_masks(P, action.budgets)
        inter = -1
        for word, g in action.elements:
            img = g.perm[hs]
            if P.up[img] >> hi & 1 and img != hi:
                if not masks[img] & masks[hs] == 0:
                    raise AssertionError("the flip's image meets h* on points")
                return FlipResult("FLIPPED", word=word)
            inter &= masks[img]
        pts = action.points()
        return FlipResult("INVARIANT_SET", invariant_set=tuple(pts[i] for i in _iter_bits(inter)))
    images = WordImages(action, (hs,))
    skipped = 0
    for word in enumerate_words(action.gen_names(), depth):
        img = images(word)[0]
        if img is None:
            skipped += 1
            continue
        if _halfspace_disjoint(P, img, hs) and img != P.idx(h):
            masks = halfspace_point_masks(P, action.budgets)
            if not masks[img] & masks[hs] == 0:
                raise AssertionError("the flip's image meets h* on points")
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
    """Find g with g𝔨 ⊊ 𝔥 ⊆ 𝔨 and d(g𝔨, 𝔥*) > 0; shortest word first.
    The gap is one weight sum: by the bridge law, the distance between
    nonempty convex sets A and B, such as halfspaces, is the mass of the
    walls separating them, the sides σ_B ∩ (σ_A)* as in ``separating``,
    where σ_A, the AND of A's points, holds the halfspaces holding A.
    On a valid pocset the gap is positive once g𝔨 ⊊ 𝔥, so it is not
    tested: 𝔥 holds σ_{g𝔨} and 𝔥* holds σ_{𝔥*}, so the wall of 𝔥, of
    positive weight, separates g𝔨 from 𝔥*; both are nonempty, as every
    halfspace holds a point.  ``verify_skewer`` checks the gap anyway."""
    depth = _depth(action, max_len)
    P = action.pocset
    if not P.leq(h, k):
        raise InvalidInput(f"double_skewer() needs {h} contained in {k}")
    hi, ki = P.idx(h), P.idx(k)
    masks = halfspace_point_masks(P, action.budgets)
    images = WordImages(action, (ki,))
    for word in enumerate_words(action.gen_names(), depth):
        img = images(word)[0]
        if img is None:
            continue
        if img != hi and P.leq_idx(img, hi):
            # the proper containment, re-verified on point sets
            if not (masks[img] & ~masks[hi] == 0 and masks[img] != masks[hi]):
                raise AssertionError("the skewered image is not properly inside h on points")
            gap = _set_distance(P, masks[img], masks[P.star[hi]], action.budgets)
            return SkewerResult("SKEWERED", word=word, h=h, k=k, image=P.ids[img], gap=gap)
    return SkewerResult("INCONCLUSIVE", h=h, k=k, depth=depth)


def _set_distance(P: WeightedPocset, amask: int, bmask: int,
                  budgets: Budgets) -> Fraction:
    """d(A, B) for convex point sets A, B (masks) by the bridge law of
    ``double_skewer``; 0, a minimum over no pairs, when one is empty."""
    if not (amask and bmask):
        return Fraction(0)
    pts = points(P, budgets)
    sa, sb = (reduce(and_, (pts[i].mask for i in _iter_bits(m))) for m in (amask, bmask))
    sep = sb & P.star_map(sa)
    walls = sep | P.star_map(sep)  # both sides, as groups hold the lower ones
    D, groups = weight_groups(P)
    return Fraction(sum(k * (walls & m).bit_count() for k, m in groups), D)


# -- separation, facing tuples, sectors --------------------------------------

def strongly_separated(P: WeightedPocset, h: str, k: str) -> bool:
    """Disjoint halfspaces with no wall transverse to both.  A wall is
    transverse to h unless one of its sides lies in ``up[h] | down[h]``, so
    every halfspace must lie there or in k's rows, or be the complement of
    one that does.  Once h <= k* holds, the down rows add nothing: j <= h
    gives j <= k*, so j* >= k, and j <= k gives j* >= h, so both down rows
    lie in ``star_map(up[h] | up[k])``."""
    hi, ki = P.idx(h), P.idx(k)
    if not _halfspace_disjoint(P, hi, ki):
        return False
    near = P.up[hi] | P.up[ki]
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
    definitive negative.  With an action and n > 3, a tuple grown from the
    first facing triple by the skewering upgrade (extend an (m)-tuple by
    translating two members past the last one) comes first, and the
    combinatorial tuple only when the upgrade fails; a window action with
    neither is only INCONCLUSIVE.
    """
    max_len = _depth(action, max_len)
    if n < 3:
        raise InvalidInput("facing tuples need n >= 3")
    base = [P.idx(seed)] if seed else []
    found = _facing_backtrack(P, n, base, strong)
    if action is not None and n > 3:
        found = _upgrade_route(P, n, _facing_backtrack(P, 3, base, strong), strong,
                               action, max_len) or found
    if found is not None:
        return FacingResult("FOUND", tuple(P.ids[i] for i in found), strong=strong)
    # the backtracking search is exhaustive over the pocset, so the negative
    # is definitive unless the pocset is only a window into a larger space
    if action is not None and action.kind == "window":
        return FacingResult("INCONCLUSIVE", strong=strong, depth=max_len)
    return FacingResult("NOT_FOUND", strong=strong)


def _upgrade_route(P, n, triple, strong, action, max_len):
    """Grow a facing ``triple`` (or None) one member at a time: g h0* pushed
    inside the last member replaces it with two translated members, which
    must be visible and, as ``_all_facing`` requires, new."""
    current = triple
    while current is not None and len(current) < n:
        res = double_skewer(action, P.ids[current[-1]], P.ids[P.star[current[0]]],
                            max_len=max_len)
        if res.kind != "SKEWERED":
            return None
        cand = current[:-1] + list(WordImages(action, current[1:3])(res.word))
        current = cand if None not in cand and _all_facing(P, cand, strong) else None
    return current


def _all_facing(P: WeightedPocset, idxs: Sequence[int], strong: bool) -> bool:
    return all(i != j and _pair_ok(P, i, j, strong) for i, j in itertools.combinations(idxs, 2))


def _facing_backtrack(P: WeightedPocset, n: int, base: list,
                      strong: bool) -> Optional[list]:
    """The first n-tuple extending ``base``, its new members taken in id
    order, which is index order since ids are sorted.  j is disjoint from i
    exactly when j <= i*, so the candidates are the AND of the members'
    rows ``down[i*]``, less the members, above the last member; taken
    lowest first they are that index loop, and a level with fewer
    candidates than members still needed is cut.  Strong separation
    implies disjointness, so the masks bound a strong search too, whose
    candidates are checked against the members as they are taken."""
    chosen = list(base)
    if not _all_facing(P, chosen, strong):
        return None

    def rec(cands: int) -> Optional[list]:
        if len(chosen) == n:
            return list(chosen)
        while cands.bit_count() >= n - len(chosen):
            i = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            if strong and not all(strongly_separated(P, P.ids[i], P.ids[c]) for c in chosen):
                continue
            chosen.append(i)
            got = rec(cands & P.down[P.star[i]])
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec(reduce(and_, (P.down[P.star[c]] & ~(1 << c) for c in chosen), (1 << P.n) - 1))


@dataclass
class SectorResult:
    kind: str  # HALFSPACE | PRODUCT | NEITHER
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
    """A halfspace inside one of the four sectors of a transverse pair;
    else, when h and k lie in different irreducible factors, the partition
    (h's factor, the rest) that witnesses a product split; else NEITHER."""
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
    # no sector halfspace: h and k in different factors split the pocset
    D = decompose(P)
    fh = D.assignment[h][0]
    if fh == D.assignment[k][0]:
        return SectorResult("NEITHER")
    ids1 = tuple(sorted(x for x, (fi, _) in D.assignment.items() if fi == fh))
    ids2 = tuple(sorted(x for x, (fi, _) in D.assignment.items() if fi != fh))
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
    window_depth: Optional[int] = None  # set when the word loop stopped short

    def to_json(self):
        window = {} if self.window_depth is None else {"windowDepth": self.window_depth}
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
            **window,
        }


def pingpong(action: Action, a: Word, b: Word, h: str, k: str,
             max_len: Optional[int] = None) -> FreeCertificate:
    """The ping-pong certificate of a and b on 𝔥 and 𝔨: the facing 4-tuple
    𝔥, a𝔥*, 𝔨, b𝔨* and its 12 base inclusions (``_configuration``).  By the
    ping-pong lemma every nontrivial reduced word u in A = a and B = b then
    maps Ω = 𝔥* ∩ a𝔥 ∩ 𝔨* ∩ b𝔨 into the side of its first letter, which
    misses Ω, so ⟨a, b⟩ is free; a window's order is the underlying
    pocset's, so this holds for window maps too.  The word loop checks it
    on every word up to the depth and raises ``OutOfWindow`` at the first
    that leaves the window on Ω.  Each word makes six checks, so
    ``checksPerformed`` is ``baseInclusions + 6 * wordsChecked``: the claim
    inclusion uΩ ⊆ (its first letter's side) and u𝔥 ∉ {𝔥, 𝔥*}, u𝔨 ∉ {𝔨,
    𝔨*}, which set ``verified``, are read; uΩ ∩ Ω = ∅ is discharged, as
    that side is the complement of one of Ω's four sides."""
    cert, left = _certificate(action, a, b, h, k, _depth(action, max_len))
    if left is not None:
        raise OutOfWindow(f"word {word_str(left)} leaves the window on Ω")
    return cert


def _certificate(action: Action, a: Word, b: Word, h: str, k: str, depth: int) -> tuple:
    """The certificate with its word loop run to ``depth``, and the first word
    that left the window on Ω, or None (then ``window_depth`` is set)."""
    tup, omega, sides = _configuration(action, a, b, h, k)
    words, trivial, length, left = _word_loop(action, tup, omega, sides, depth)
    return FreeCertificate(
        a, b, h, k, tuple(action.pocset.ids[i] for i in tup), base_inclusions=12,
        words_checked=words, checks_performed=12 + 6 * words, depth=depth, omega=omega,
        stabilizer_trivial=trivial, verified=trivial,
        window_depth=None if left is None else length), left


def _configuration(action: Action, a: Word, b: Word, h: str, k: str) -> tuple:
    """The facing 4-tuple (indices), Ω (points) and the side table: per
    letter, its word, the side uΩ lies in when u starts with it, and the
    sources of its base inclusions.  On checked maps only the sources'
    visibility is read; the rest holds by argument:
    - a𝔥 and b𝔨 are visible: a checked map's domain is closed under star;
    - Ω is nonempty: its sides meet pairwise, in the other members (Helly);
    - a base inclusion holds where defined: a checked map keeps order, so
      b𝔨* ⊆ 𝔥* gives a(b𝔨*) ⊆ a𝔥*, and so on for each letter."""
    P = action.pocset
    hi, ki = P.idx(h), P.idx(k)
    if hi == ki or hi == P.star[ki]:
        raise NotFacing("h and k must be sides of distinct walls")
    if reduce_word(a) == reduce_word(b) or not reduce_word(a) or not reduce_word(b):
        raise NotFacing("the two generator words must be distinct and nontrivial")
    ends = WordImages(action, (hi, P.star[hi], ki, P.star[ki]))
    a_h, a_hs, _, _ = ends(a)
    _, _, b_k, b_ks = ends(b)
    if a_hs is None or b_ks is None:
        raise OutOfWindow("a𝔥* or b𝔨* is not visible in the window")
    tup = (hi, a_hs, ki, b_ks)
    if not _all_facing(P, tup, strong=False):
        raise NotFacing(
            "the four halfspaces h, a h*, k, b k* are not pairwise disjoint",
            tuple=[P.ids[i] for i in tup])
    sides = {
        ("A", 1): (a, a_hs, (a_hs, b_ks, ki)),
        ("A", -1): (invert_word(a), hi, (hi, b_ks, ki)),
        ("B", 1): (b, b_ks, (a_hs, hi, b_ks)),
        ("B", -1): (invert_word(b), ki, (a_hs, hi, ki)),
    }
    for word, _, sources in sides.values():
        for src, img in zip(sources, WordImages(action, sources)(word)):
            if img is None:
                raise OutOfWindow(
                    f"inclusion source {P.ids[src]} not visible under {word_str(word)}")
    masks, pts = halfspace_point_masks(P, action.budgets), points(P, action.budgets)
    omega_mask = masks[P.star[hi]] & masks[a_h] & masks[P.star[ki]] & masks[b_k]
    return tup, tuple(pts[i] for i in _iter_bits(omega_mask)), sides


def _word_loop(action: Action, tup: tuple, omega: tuple, sides: dict, depth: int) -> tuple:
    """The reduced words in A and B up to ``depth``, shortest first, checked
    until one leaves the window on Ω: (words checked and whether none fixes
    𝔥 or 𝔨 up to star, both over complete lengths; the longest complete
    length; that word, expanded, or None)."""
    P, (hi, _, ki, _) = action.pocset, tup
    images = WordImages(action, (hi, ki))
    words, trivial = 0, True
    for length, block in itertools.groupby(enumerate_words(("A", "B"), depth), len):
        ok = trivial
        for count, u in enumerate(block, 1):
            word = reduce_word(tuple(itertools.chain.from_iterable(sides[tok][0] for tok in u)))
            mapped = [images.point(word, p.mask) for p in omega]
            if any(q is None for q in mapped):
                return words, trivial, length - 1, word
            target = sides[u[0]][1]
            if any(not (q.mask >> target & 1) for q in mapped):
                raise InclusionFailed(f"{word_str(word)}·Ω escapes {P.ids[target]}",
                                      halfspace=P.ids[target])
            ok = ok and not any(
                img == f or img is None and not _stabilizer_excluded(images, word, wi, f)
                for wi, img in zip((hi, ki), images(word)) for f in (wi, P.star[wi]))
        words, trivial = words + count, ok
    return words, trivial, depth, None


def _stabilizer_excluded(images: WordImages, word: Word, side: int, forbidden: int) -> bool:
    """Certify u·side != forbidden where u·side is undefined, by a witness
    point whose image lands on the wrong side: u·side = forbidden would
    force u(side ∩ dom) ⊆ forbidden and u(side* ∩ dom) ⊆ forbidden*.  A
    defined image u·p, the up-closure of u(p ∩ dom), lies in forbidden
    exactly when p holds a j with u(j) <= forbidden, the image of
    ``down[forbidden]`` under the inverse letters; so the witnesses are
    the points of side XOR ``into`` (the OR of those j's masks) with a
    defined image."""
    P, budgets = images.action.pocset, images.action.budgets
    masks, pts = halfspace_point_masks(P, budgets), points(P, budgets)
    below = images.set_image(invert_word(word), P.down[forbidden])
    into = reduce(or_, (masks[j] for j in _iter_bits(below)), 0)
    return any(images.point(word, pts[i].mask) is not None for i in _iter_bits(masks[side] ^ into))


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
    hunts for a facing triple and the first facing 4-tuple, and attempts a
    ping-pong certificate on each ordering of the 4-tuple.  Window "fixed
    points" live at window resolution only, so for window actions stage 1
    records candidates without concluding and the pipeline proceeds; only a
    stage-3 certificate is a verdict.  It accepts a configuration on its
    facing 4-tuple and base inclusions (``pingpong``), runs the word loop
    until a word leaves the window on Ω, which the log names and after
    which ``windowDepth`` is the longest length checked completely, and,
    like ``free-cert``, takes only a ``verified`` certificate.
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
        if not orbit.size <= 2 ** r:
            raise AssertionError("orbit bound violated")
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

    # the combinatorial facing tuples alone: growing one by skewering is
    # ``facing_tuple``'s route, not classify's
    triple = _facing_backtrack(P, 3, [], strong=False)
    if triple is None:
        log.append("stage3: no facing triple found")
        return ClassificationReport("INCONCLUSIVE", stage=3, log=tuple(log))
    log.append(f"stage3: facing triple {tuple(P.ids[i] for i in triple)}")
    four = _facing_backtrack(P, 4, [], strong=False)
    if four is None:
        log.append("stage3: no facing 4-tuple")
        return ClassificationReport("INCONCLUSIVE", stage=3, log=tuple(log))
    for h, hp, k, kp in itertools.permutations(P.ids[i] for i in four):
        res_a = double_skewer(action, hp, P.ids[P.star[P.idx(h)]], max_len=depth)
        if res_a.kind != "SKEWERED":
            continue
        res_b = double_skewer(action, kp, P.ids[P.star[P.idx(k)]], max_len=depth)
        if res_b.kind != "SKEWERED":
            continue
        try:
            cert, left = _certificate(action, res_a.word, res_b.word, h, k, depth)
        except (NotFacing, InclusionFailed, OutOfWindow):
            continue
        if not cert.verified:
            continue
        log.append(
            f"stage3: ping-pong verified with h={h}, k={k}, "
            f"a={word_str(res_a.word)}, b={word_str(res_b.word)}")
        if left is not None:
            log.append(f"stage3: word {word_str(left)} leaves the window on Ω, "
                       f"so words are checked to length {cert.window_depth}")
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
