"""Independent references that ``mediankit acceptance`` checks the fast
paths against: medians by enumerated intervals, separating walls by their
mass, distances under subdivision, and maximum antichains by exhaustion.
The references of the other fast paths, and the table that runs them all,
are test code under ``tests/``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .pocset import WeightedPocset, _iter_bits, distance, median
from .subdivision import atom_mass


def medians(P: WeightedPocset, pts) -> list:
    """The median of every triple of ``pts`` (with repeats), as masks."""
    return [median(P, x, y, z).mask
            for x, y, z in itertools.combinations_with_replacement(pts, 3)]


def interval_medians(P: WeightedPocset, pts) -> list:
    """For every triple of ``pts`` (with repeats), the one point common to
    its three pairwise intervals, else None; an interval is enumerated as
    the points holding every halfspace both ends hold."""
    pos = {p.mask: i for i, p in enumerate(pts)}
    between = {}
    for a, b in itertools.combinations_with_replacement(pts, 2):
        common = a.mask & b.mask
        between[a.mask, b.mask] = sum(1 << pos[c.mask] for c in pts
                                      if common & ~c.mask == 0)
    out = []
    for x, y, z in itertools.combinations_with_replacement(pts, 3):
        inter = between[x.mask, y.mask] & between[y.mask, z.mask] & \
            between[x.mask, z.mask]
        out.append(pts[inter.bit_length() - 1].mask
                   if inter and not inter & (inter - 1) else None)
    return out


def wall_mass(P, ids) -> Fraction:
    return sum((P.weight[P.idx(h)] for h in ids), Fraction(0))


def embedded_distances(S, pts) -> tuple:
    """The child distances of the embedded pairs of ``pts``, and the child
    atom mass; a subdivision keeps the first and halves the second."""
    return ([distance(S.child, S.embed(x), S.embed(y))
             for x, y in itertools.combinations(pts, 2)], atom_mass(S.child))


def halved_distances(P, pts) -> tuple:
    return ([distance(P, x, y) for x, y in itertools.combinations(pts, 2)],
            atom_mass(P) / 2)


def max_antichain_brute(rows) -> int:
    """Exhaustive maximum antichain of a strict partial order given as
    bitmask rows; for small posets."""
    best = 0
    for mask in range(1 << len(rows)):
        if mask.bit_count() > best and all(rows[a] & mask == 0 for a in _iter_bits(mask)):
            best = mask.bit_count()
    return best
