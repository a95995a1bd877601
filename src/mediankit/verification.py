"""Certificate re-verification using core primitives only.

Every verdict the search commands emit names concrete halfspaces, so a
skeptical caller can re-check it against the pocset with point sets and
distances alone, trusting no search bookkeeping.  Distances are summed wall
by wall here, over the bits where two points differ, not through the
core's weight groups.  This module deliberately imports nothing outside
the core.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .config import DEFAULT_BUDGETS
from .pocset import WeightedPocset, _iter_bits, halfspace_point_masks, points


def _point_sets(P: WeightedPocset, budgets=None):
    # by default no wall cap, as a certificate comes from a search that has
    # enumerated the points of P already; the cap on their number holds
    budgets = budgets or DEFAULT_BUDGETS.with_(point_walls=P.wall_count)
    return points(P, budgets), halfspace_point_masks(P, budgets)


def verify_flip(P: WeightedPocset, h: str, image_of_star: str,
                budgets=None) -> dict:
    """g flips h when g(h*) is disjoint from h* and differs from h."""
    _, masks = _point_sets(P, budgets)
    hs = P.star[P.idx(h)]
    img = P.idx(image_of_star)
    return {
        "disjointFromComplement": masks[img] & masks[hs] == 0,
        "notEqualToHalfspace": img != P.idx(h),
    }


def verify_skewer(P: WeightedPocset, h: str, k: str, image_of_k: str,
                  budgets=None) -> dict:
    """Both displayed conditions: gk strictly inside h, and positive
    distance from gk to h*."""
    pts, masks = _point_sets(P, budgets)
    hi, ki, gi = P.idx(h), P.idx(k), P.idx(image_of_k)
    proper = masks[gi] & ~masks[hi] == 0 and masks[gi] != masks[hi]
    nested = P.leq_idx(hi, ki)
    # an ultrafilter holds one side of each wall, so a wall separates two
    # points where its lower side's bit differs: sum over differing bits,
    # the weight scaled by den on the lower side and 0 on the upper
    den = lcm(*(w.denominator for w in P.weight))
    scaled = [0] * P.n
    for i, _ in P.walls:
        scaled[i] = int(P.weight[i] * den)
    far = [pts[j].mask for j in _iter_bits(masks[P.star[hi]])]
    least = min((sum(scaled[b] for b in _iter_bits(pts[i].mask ^ y))
                 for i in _iter_bits(masks[gi]) for y in far), default=None)
    gap = None if least is None else Fraction(least, den)
    return {
        "properlyContained": proper,
        "hInsideK": nested,
        "gapToComplement": str(gap),
        "gapPositive": gap is not None and gap > 0,
    }


def verify_facing(P: WeightedPocset, tuple_ids, strong: bool,
                  budgets=None) -> dict:
    """Pairwise disjointness (and, if asked, absence of common
    transversals) from raw point sets."""
    _, masks = _point_sets(P, budgets)
    idxs = [P.idx(h) for h in tuple_ids]
    disjoint = all(
        masks[a] & masks[b] == 0
        for p, a in enumerate(idxs) for b in idxs[p + 1:]
    )
    out = {"pairwiseDisjoint": disjoint}
    if strong:
        # _sets_transverse(j, .) reads both sides of j's wall: one side per wall
        out["noCommonTransversal"] = not any(
            _sets_transverse(masks, P, j, a) and _sets_transverse(masks, P, j, b)
            for p, a in enumerate(idxs) for b in idxs[p + 1:]
            for j, _ in P.walls if j not in (a, P.star[a], b, P.star[b]))
    return out


def _sets_transverse(masks, P: WeightedPocset, i: int, j: int) -> bool:
    return all(
        masks[x] & masks[y] != 0
        for x in (i, P.star[i]) for y in (j, P.star[j])
    )

