"""Eventually-periodic chain systems and the UBS calculus at a boundary point.

A chain system is a finite presentation of the halfspaces lying between a
basepoint and a boundary point: finitely many strictly descending chains
with eventually periodic weights, and a relation table that resolves every
cross-chain pair to nested or transverse via finitely many exceptional
entries (head overrides and row rules) plus offset-zone rules for large
indices.  Inseparable subsets meet every chain in an index interval, so UBS
normalize to per-chain intervals with an optional infinite tail, and two
are equivalent exactly when they meet the same chains in infinite tails.

Each system fills a relation index lazily (per ordered chain pair, a SUB
and a SUP table of bitmasks of the first chain's indices per index of the
second, built in one pass with the rules' precedence, as deep as its
callers ask; the zones are resolved once per code as one mask over
offsets, which each entry reads by a shift), and every reader of the
relation reads it there, closures two entries per seed interval and chain
(the monotonicity lemma below); one memo per system keeps each closure and
the graph, errors included.  A closure is the OR of its seed intervals'
per-chain reads, and so is a class poset candidate.

Every depth read is set by E = ``head_extent``, not by the periods, by
``ChainSystem.rel``'s fold: for c != d and n, m >= E a relation depends
on m - n alone, and from m >= n + E on rel(c, n, d, m) = rel(c, n, d,
n + E), likewise for n >= m + E.

- One exact closure read.  Let x be a seed's largest start or finite end
  and R = max(x, E) + E.  From index R on, each chain's "above" and
  "below" bits are constant: the relations of (c, n) to the seed's
  members, as a set, are those of n = R.  So one read at R decides every
  chain, and no deeper read can differ.
- Translation.  Take a seed that is one interval on chain d, from s >= 2E
  on.  A member (c, n), c != d, has n >= s - E: else both its witnesses on
  d lie more than E past n, where the relation is constant, so it cannot
  be both SUB and SUP.  All pairs from there on depend on offsets alone,
  so on a system that passes ``validate_system`` the closure of the seed
  moved by t is its closure moved by t.  Seeds on two chains can have
  their witnesses on different chains, so they are not moved.
- Monotonicity.  On a system that passes ``validate_system``, d_m' in d_m
  for m' >= m and transitivity make c_n in d_m' give c_n in d_m and d_m in
  c_n give d_m' in c_n: along d the (c, d) index's SUB entries only shrink
  and its SUP entries only grow.  So an interval's entries OR to its first
  SUB and its last SUP entry, for a tail the table's last, E past every
  bit read, beyond which no bit changes (the fold).
- Transitivity at 3E.  A failing triple keeps its three relations while
  all three indices move down until the lowest is at most E, and while
  each gap between sorted indices past E is cut to E; so it ends at most
  3E.  Likewise an antichain, one per chain, folds below k E for k chains.
- Tail sets fixed from E on.  On a system that passes ``validate_system``
  take the seed tail(d, M), M >= E, and a chain c != d.  A pair of a
  (c, n), n >= M + E, and a seed member (d, m) lies past the head, so it
  depends on m - n clamped to [-E, E] alone (the fold), and as m runs
  over [M, oo) that covers all of [-E, E].  So whether (c, n) lies
  between two seed members, and hence whether c meets the closure in a
  tail, is the same for every such n and every M >= E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import permutations
from operator import or_
from typing import Iterable, Optional, Sequence

from .errors import ClassNotPreserved, ClassPermuted, HorizonExceeded, InvalidInput
from .pocset import MaskMap, ValidationReport, _iter_bits, transitive_rows

SUB = "sub"      # first element contained in second
SUP = "sup"      # first element contains second
TRANS = "trans"  # transverse

_INVERSE = {SUB: SUP, SUP: SUB, TRANS: TRANS}


def _range_mask(lo: int, hi: int) -> int:
    """Bitmask of the integers in [max(lo, 0), hi]."""
    lo = max(lo, 0)
    return (1 << (hi + 1)) - (1 << lo) if lo <= hi else 0


def _zone_ranges(S: ChainSystem, c: str, d: str, lo: int, hi: int) -> tuple:
    """The zones of chains c != d as ranges (first, last, rel) of the offset
    m - n of (c, n) against (d, m), open ends cut at ``lo`` and ``hi``: the
    (c, d) zones, and the (d, c) ones read from c (offsets negated,
    relations inverted).  In each list the first range covering an offset
    decides it."""
    own = [(lo if z.lo is None else z.lo, hi if z.hi is None else z.hi, z.rel)
           for z in S.zones.get((c, d), ())]
    mirrored = [(lo if z.hi is None else -z.hi, hi if z.lo is None else -z.lo,
                 _INVERSE[z.rel]) for z in S.zones.get((d, c), ())]
    return own, mirrored


@dataclass(frozen=True)
class Chain:
    id: str
    period: int
    weights: tuple  # periodic block, one Fraction per residue
    head_weights: tuple = ()

    def weight(self, n: int) -> Fraction:
        if n < len(self.head_weights):
            if n < 0:
                raise InvalidInput(f"chain {self.id} has no index {n}")
            return self.head_weights[n]
        return self.weights[(n - len(self.head_weights)) % self.period]

    def mass(self, lo: int, hi: int, start: Fraction = Fraction(0)) -> Fraction:
        """``start`` plus the weights of the indices lo..hi in closed form: two
        or more whole period blocks past the head at the block sum, the
        indices before them one by one, as ``weight`` reads them."""
        blocks = (hi + 1 - max(lo, len(self.head_weights))) // self.period
        blocks *= blocks > 1
        total = sum(map(self.weight, range(lo, hi + 1 - blocks * self.period)), start)
        return total + blocks * sum(self.weights) if blocks else total


@dataclass(frozen=True)
class Zone:
    lo: Optional[int]  # None = -inf
    hi: Optional[int]  # None = +inf
    rel: str


@dataclass(frozen=True)
class RowRule:
    chain: str
    index: int
    other: str
    rel: str
    lo: int = 0
    hi: Optional[int] = None


class ChainSystem:
    """Chains plus the relation rules; immutable after construction, apart
    from caches that depend on nothing else: the relation index (rebuilt
    deeper when a caller asks for more), of which a closure reads two
    entries per seed interval and chain, the ORs of all its entries on
    systems that pass ``validate_system`` (module docstring), and the kept
    closures and UBS graph (``_kept``)."""

    def __init__(self, chains: Sequence[Chain],
                 zones: Optional[dict] = None,
                 rows: Sequence[RowRule] = (),
                 head: Optional[dict] = None,
                 name: str = ""):
        self.name = name
        self.chains = {c.id: c for c in chains}
        self.chain_order = tuple(c.id for c in chains)
        if len(self.chains) != len(chains):
            raise InvalidInput("duplicate chain ids")
        self.zones = dict(zones or {})   # (from, to) -> tuple[Zone]
        self.rows = tuple(rows)
        self.head = dict(head or {})     # (ci, n, cj, m) -> rel
        bounds = [1, *(len(c.head_weights) for c in chains)]
        bounds += [max(n, m) + 1 for (_, n, _, m) in self.head]
        bounds += [v + 1 for r in self.rows for v in (r.index, r.lo, r.hi) if v is not None]
        bounds += [abs(v) + 1 for zs in self.zones.values() for z in zs
                   for v in (z.lo, z.hi) if v is not None]
        self.head_extent = max(bounds)
        self.lcm_period = math.lcm(*[c.period for c in chains]) if chains else 1
        # the window of seeds and of the reported truncation
        self.horizon = self.head_extent + 4 * self.lcm_period + 4
        # depth from which tails are deep: the graph's representatives
        self.tail_depth = self.head_extent + 2 * self.lcm_period
        self._index: dict = {}
        self._kept: dict = {}

    # -- relation resolution ---------------------------------------------

    def rel(self, ci: str, n: int, cj: str, m: int) -> str:
        """The relation of (ci, n) to (cj, m) read off the index, n, m >= 0
        on known chains, else ``InvalidInput``.  No head index, row rule
        index or bound, or finite zone bound reaches E = ``head_extent``:
        past E a relation depends on m - n alone, and no rule tells apart
        indices more than E past the other one.  So a pair past E moves
        down until its lower index is E, and the higher index to at most E
        past the lower: both end at most 2E."""
        _known(self, (ci, n), (cj, m))
        if ci == cj:
            return SUP if n <= m else SUB  # n == m: containment both ways
        E = self.head_extent
        if n > E < m:
            t = (n if n < m else m) - E
            n, m = n - t, m - t
        if m > n + E:
            m = n + E
        elif n > m + E:
            n = m + E
        sub, sup = self.index(ci, cj, 2 * E)
        return SUB if sub[m] >> n & 1 else SUP if sup[m] >> n & 1 else TRANS

    def index(self, c: str, d: str, depth: int) -> tuple:
        """Relation index of chains ``c != d`` to ``depth``: tables SUB and
        SUP, whose entry ``m`` (``m <= depth + head_extent``) is the bitmask
        of the ``n <= depth`` with ``rel((c, n), (d, m))`` equal to SUB,
        resp. SUP.  Built on first use, and again when a caller asks
        deeper; a deeper table serves too."""
        tables = self._index.get((c, d))
        if tables is None or len(tables[0]) <= depth + self.head_extent:
            tables = self._index[c, d] = self._build_index(c, d, depth)
        return tables

    def _build_index(self, c, d, depth):
        """Zones, then overrides in rising precedence (row rules in reverse
        order, mirrored head entries, head entries), each setting its pairs in
        its code's table, clearing them in the other; so by the rules'
        precedence a pair reads the first of: its head entry, its mirror, the
        first row rule either way round, the (c, d) zones, the (d, c) ones,
        else ``trans``."""
        N, M = depth, depth + self.head_extent
        # the first zone range covering o = m - n (all in [-N, M]) decides a
        # pair; per code, one mask holds its offsets o at bit M - o, which
        # entry m shifts down to bit n and cuts to the window [0, N]
        own, mirrored = _zone_ranges(self, c, d, -N, M)
        covered, offsets = 0, {SUB: 0, SUP: 0, TRANS: 0}
        for first, last, code in own + mirrored:
            iv = _range_mask(M - last, M - first) & ~covered
            covered |= iv
            offsets[code] |= iv
        window = _range_mask(0, N)
        tables = {code: [offsets[code] >> (M - m) & window for m in range(M + 1)]
                  for code in (SUB, SUP)}

        def assign(m, bits, code):
            for want, masks in tables.items():
                masks[m] = masks[m] | bits if code == want else masks[m] & ~bits

        for r in reversed(self.rows):
            if r.chain == c and r.other == d and 0 <= r.index <= N:
                top = M if r.hi is None else min(r.hi, M)
                for m in range(max(r.lo, 0), top + 1):
                    assign(m, 1 << r.index, r.rel)
            elif r.chain == d and r.other == c and 0 <= r.index <= M:
                top = N if r.hi is None else min(r.hi, N)
                assign(r.index, _range_mask(r.lo, top), _INVERSE[r.rel])
        for (ci, n, cj, m), code in self.head.items():
            if ci == d and cj == c and 0 <= m <= N and 0 <= n <= M:
                assign(n, 1 << m, _INVERSE[code])
        for (ci, n, cj, m), code in self.head.items():
            if ci == c and cj == d and 0 <= n <= N and 0 <= m <= M:
                assign(m, 1 << n, code)
        return tables[SUB], tables[SUP]

    def weight(self, ci: str, n: int) -> Fraction:
        return self.chains[ci].weight(n)

    def __repr__(self):
        return f"ChainSystem({self.name or ','.join(self.chain_order)})"


def _known(S: ChainSystem, *indices) -> None:
    """Raises ``InvalidInput`` unless each (cid, n) of ``indices`` has
    ``cid`` a chain of S and n >= 0."""
    for cid, n in indices:
        if cid not in S.chains:
            raise InvalidInput(f"unknown chain {cid!r}")
        if n < 0:
            raise InvalidInput(f"chain {cid} has no index {n}")


class UBS:
    """Per-chain index intervals; ``hi`` is None for an infinite tail.

    Immutable: nothing changes ``intervals`` after construction, so the
    closure memo hands out one object to every caller."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: dict):
        """Keeps the non-empty intervals: None and ``hi < lo`` are dropped."""
        self.intervals = {cid: (iv[0], iv[1]) for cid, iv in intervals.items()
                          if iv is not None and (iv[1] is None or iv[1] >= iv[0])}

    def has_tail(self) -> bool:
        return any(hi is None for _, hi in self.intervals.values())

    def tails(self) -> frozenset:
        """The chains met in an infinite tail."""
        return frozenset(c for c, (_, hi) in self.intervals.items() if hi is None)

    def __eq__(self, other):
        return isinstance(other, UBS) and other.intervals == self.intervals

    def __hash__(self):
        return hash(tuple(sorted(self.intervals.items())))

    def __repr__(self):
        return "UBS(" + " ".join(f"{cid}[{lo}:{'' if hi is None else hi + 1}]"
                                 for cid, (lo, hi) in sorted(self.intervals.items())) + ")"

    def to_json(self):
        return {"intervals": {cid: [lo, hi] for cid, (lo, hi) in sorted(self.intervals.items())}}


def tail(cid: str, start: int) -> UBS:
    return UBS({cid: (start, None)})


def union_seed(parts: Iterable[UBS]) -> dict:
    out: dict = {}
    for u in parts:
        for cid, (lo, hi) in u.intervals.items():
            plo, phi = out.get(cid, (lo, hi))
            out[cid] = (min(plo, lo), None if phi is None or hi is None else max(phi, hi))
    return out


# -- validation -------------------------------------------------------------

def validate_system_rules(S: ChainSystem) -> ValidationReport:
    """The checks on the rules themselves: periods, weights, known chains,
    zone partitions and conflicts, rules and head entries within one chain
    (``rel`` never reads them), negative indices in rules and head entries,
    head entries not inverse to their mirror; no truncation."""
    rep = ValidationReport(ok=True)
    for cid, c in S.chains.items():
        if c.period < 1 or len(c.weights) != c.period:
            rep.fail("BAD_PERIOD", cid)
        for w in tuple(c.weights) + tuple(c.head_weights):
            if w <= 0:
                rep.fail("NONPOSITIVE_WEIGHT", f"{cid}: {w}")
    for (ci, cj), zs in S.zones.items():
        if ci not in S.chains or cj not in S.chains:
            rep.fail("UNKNOWN_CHAIN", f"zone rule ({ci}, {cj})")
            continue
        if ci == cj:
            rep.fail("SAME_CHAIN_RULE", f"zone rule ({ci}, {cj})")
            continue
        if not _zones_partition(zs):
            rep.fail("ZONES_NOT_PARTITION", f"({ci}, {cj})")
        elif _zones_partition(S.zones.get((cj, ci), ())) and \
                (d := _zone_conflict(S, ci, cj)) is not None:
            rep.fail("ZONE_CONFLICT", f"({ci}, {cj}) at offset {d}")
    for r in S.rows:
        if r.chain not in S.chains or r.other not in S.chains:
            rep.fail("UNKNOWN_CHAIN", f"row rule {r}")
        elif r.chain == r.other:
            rep.fail("SAME_CHAIN_RULE", f"row rule {r}")
        elif min(r.index, r.lo, r.hi or 0) < 0:
            rep.fail("NEGATIVE_INDEX", f"row rule {r}")
    for (ci, n, cj, m), code in S.head.items():
        entry = f"head entry ({ci}, {n}, {cj}, {m})"
        if ci not in S.chains or cj not in S.chains:
            rep.fail("UNKNOWN_CHAIN", entry)
        elif ci == cj:
            rep.fail("SAME_CHAIN_HEAD", entry)
        elif min(n, m) < 0:
            rep.fail("NEGATIVE_INDEX", entry)
        elif (ci, n) < (cj, m) and S.head.get((cj, m, ci, n)) not in (None, _INVERSE[code]):
            rep.fail("HEAD_CONFLICT", f"({ci}, {n}) vs ({cj}, {m})")
    return rep


def validate_system(S: ChainSystem) -> ValidationReport:
    """The rule checks, then ``REL_NOT_TRANSITIVE``: the truncation to depth
    T = ``horizon`` must be a partial order compatible with the chains.  A
    failing triple folds to depth 3E (module docstring), so that
    truncation is checked first; only a failing one is checked again at T,
    which lists every failing row.  No other check of the relation can
    fail once the rules pass:

    - antisymmetry: the rules' precedence (see ``ChainSystem._build_index``)
      answers (c, n, d, m) and (d, m, c, n) from one rule: a head entry or
      its mirror (inverse by ``HEAD_CONFLICT``), the first row rule
      matching either way (never both, as c != d), the first zone list
      consulted (a partition by ``ZONES_NOT_PARTITION``, inverse to the
      other order's by ``ZONE_CONFLICT``), else ``trans``; so
      rel((c, n), (d, m)) is SUP exactly where row n holds (d, m);
    - acyclicity: no row holds its own element, so a cycle shows as
      ``REL_NOT_TRANSITIVE``;
    - periodicity: past ``head_extent`` no head entry or row rule applies
      and zones depend on m - n only.
    """
    rep = validate_system_rules(S)
    if not rep.ok:
        return rep
    T = S.horizon
    if _intransitive(S, min(T, 3 * S.head_extent)):
        for below, missing in _intransitive(S, T):
            rep.fail("REL_NOT_TRANSITIVE", f"{below} should contain {missing}")
    else:
        rep.notes.append(
            f"truncation to depth {T} is a pocset-compatible partial order")
    return rep


def _intransitive(S: ChainSystem, T: int) -> list:
    """Per element (c, n) of the truncation to depth T, in row order, whose
    row the transitive closure grows: (c, n) and the first element added."""
    down = _truncation_rows(S, T)
    step, out = MaskMap(down), []
    for i, row in enumerate(down):
        extra = step(row) & ~row
        if extra:
            j = (extra & -extra).bit_length() - 1
            out.append(tuple((S.chain_order[k // (T + 1)], k % (T + 1)) for k in (i, j)))
    return out


def _truncation_rows(S: ChainSystem, T: int) -> list:
    """The truncation to depth ``T`` as rows: (c, n), at
    ``pos(c) * (T + 1) + n``, has those strictly below (contained in) it,
    the (c, m) with m > n and on each other chain d entry n of the SUB
    table ``S.index(d, c, T)[0]``, looked up once per chain pair."""
    window, rows = _range_mask(0, T), []
    for c in S.chain_order:
        subs = [None if d == c else S.index(d, c, T)[0] for d in S.chain_order]
        rows += [reduce(or_, (
            (_range_mask(n + 1, T) if sub is None else sub[n] & window) << pos * (T + 1)
            for pos, sub in enumerate(subs))) for n in range(T + 1)]
    return rows


def _zone_conflict(S: ChainSystem, c: str, d: str) -> Optional[int]:
    """The least offset in [-horizon, horizon] where the (c, d) zones and
    the mirrored (d, c) ones, both partitions, disagree; or None.  Each
    list is constant from one range's start to the next one's, and its
    lowest range starts at -horizon, so only range starts are compared."""
    own, mirrored = _zone_ranges(S, c, d, -S.horizon, S.horizon)

    def at(ranges, x):
        return next(rel for first, last, rel in ranges if first <= x <= last)

    return next((x for x in sorted({r[0] for r in own + mirrored})
                 if at(own, x) != at(mirrored, x)), None)


def _zones_partition(zs: Sequence[Zone]) -> bool:
    if not zs:
        return False
    if zs[0].lo is not None or zs[-1].hi is not None:
        return False
    for a, b in zip(zs, zs[1:]):
        if a.hi is None or b.lo is None or b.lo != a.hi + 1:
            return False
    return True


# -- closures ---------------------------------------------------------------

def _kept(S: ChainSystem, key, errors, build, *args):
    """``build(*args)``, kept in S under ``key`` (sorted seed intervals, or
    "graph"); an error among ``errors`` is kept and raised afresh, with
    its message and data, on every later call."""
    out = S._kept.get(key)
    if out is None:
        try:
            out = build(*args)
        except errors as exc:
            out = exc
        S._kept[key] = out
    if isinstance(out, Exception):
        raise type(out)(str(out), **out.data)
    return out


def closure(S: ChainSystem, seed) -> UBS:
    """Inseparable closure of a union of chain intervals.

    Membership per chain is an index interval (everything between two
    members is a member), so the closure is computed as, per chain, the
    least index below some member and the largest index above one, both
    read off the relation index at the exact depth (module docstring).
    The seed is read as a ``UBS``, which drops empty intervals; the others
    must lie on known chains from index 0 on, else ``InvalidInput``, and in
    the horizon window: a seed interval starting past ``horizon``, or a
    finite one ending at or past it, raises ``HorizonExceeded`` naming its
    chain.  Each seed (its intervals, sorted by chain) is closed once per
    system (``_kept``), horizon errors included.
    """
    key = tuple(sorted((seed if isinstance(seed, UBS) else UBS(seed)).intervals.items()))
    return _kept(S, key, HorizonExceeded, _close, S, key)


def _close(S: ChainSystem, seed: tuple) -> UBS:
    """The guards on the seed, the memo key (known chains and indices, then
    the window), then its intervals' reads at the exact depth R, or at
    min(3E, ``tail_depth`` + E), that of the graph's tails and so of every
    ``minimal_tail`` probe, if deeper, so a graph builds its tables once; a
    one-interval seed from s > 2E on is closed moved down to 2E, its
    closure moved back up."""
    for cid, (lo, hi) in seed:
        _known(S, (cid, lo))
        if lo > S.horizon or (hi is not None and hi >= S.horizon):
            raise HorizonExceeded(
                f"seed interval on chain {cid} leaves the window of horizon {S.horizon}",
                budget="horizon", limit=S.horizon, reached=lo if hi is None else hi)
    E, t = S.head_extent, 0
    if len(seed) == 1:
        ((d, (lo, hi)),) = seed
        t = max(lo - 2 * E, 0)
        seed = ((d, (lo - t, None if hi is None else hi - t)),)
    R = max([E, *(lo if hi is None else hi for _, (lo, hi) in seed)]) + E
    R = max(R, min(3 * E, S.tail_depth + E))
    out = _read_closure(S, [_seed_reads(S, d, lo, hi, R) for d, (lo, hi) in seed], R)
    return UBS({c: (lo + t, None if hi is None else hi + t)
                for c, (lo, hi) in out.intervals.items()}) if t else out


def _seed_reads(S: ChainSystem, d: str, lo: int, hi: Optional[int], R: int) -> list:
    """Per chain c, in chain order, the (above, below) masks that the seed
    interval [lo, hi] on chain d, lo >= 0 (hi None: a tail), adds to c's
    closure, exact up to bit R: the ORs of the (c, d) index entries lo..hi,
    which by the monotonicity lemma (module docstring) are the SUB entry at
    lo and the SUP entry at hi, for a tail the table's last; and on d
    itself the interval."""
    reads = []
    for c in S.chain_order:
        if c == d:
            reads.append((_range_mask(lo, R), _range_mask(0, R if hi is None else hi)))
        else:
            sub, sup = S.index(c, d, R)
            reads.append((sub[lo], sup[-1 if hi is None else hi]))
    return reads


def _read_closure(S: ChainSystem, reads: list, R: int) -> UBS:
    """The closure of a seed from its intervals' reads: per chain, the ORs
    of their (above, below) masks, read at depth R."""
    ored = reads[0] if reads else []
    for read in reads[1:]:
        ored = [(x | u, y | v) for (x, y), (u, v) in zip(ored, read)]
    return UBS({c: _members_at(above, below, R)
                for c, (above, below) in zip(S.chain_order, ored)})


def _members_at(above: int, below: int, T: int):
    """A chain's closure read at depth T: (least member, largest member
    below T or None when T is a member: a tail), or None when it is not met."""
    above &= (2 << T) - 1
    if not above:
        return None
    A = (above & -above).bit_length() - 1
    if below >> T & 1:
        return A, None
    below &= (2 << T) - (1 << A)
    return (A, below.bit_length() - 1) if below else None


def is_ubs(S: ChainSystem, U: UBS) -> bool:
    """Inseparable and contains a diverging chain (an infinite tail)."""
    return U.has_tail() and closure(S, U) == U


# -- almost containment -------------------------------------------------------

@dataclass
class AlmostContainment:
    holds: bool
    measure: Optional[Fraction] = None  # nu(U1 \ U2) when it holds


def _interval_minus(a, b):
    """Index intervals a \\ b as a list of (lo, hi|None) pieces."""
    if a is None or b is None:
        return [a] if a else []
    (alo, ahi), (blo, bhi) = a, b
    pieces = [(alo, blo - 1 if ahi is None else min(blo - 1, ahi))]
    pieces += [] if bhi is None else [(max(alo, bhi + 1), ahi)]
    return [(lo, hi) for lo, hi in pieces if hi is None or lo <= hi]


def almost_contained(S: ChainSystem, U1: UBS, U2: UBS) -> AlmostContainment:
    """U1 \\ U2 meets every chain finitely; when so, its exact mass.  Both
    must lie on chains of S from index 0 on, else ``InvalidInput``."""
    _known(S, *((c, lo) for U in (U1, U2) for c, (lo, _) in U.intervals.items()))
    total = Fraction(0)
    for cid in S.chain_order:
        for lo, hi in _interval_minus(U1.intervals.get(cid), U2.intervals.get(cid)):
            if hi is None:
                return AlmostContainment(False)
            total = S.chains[cid].mass(lo, hi, total)
    return AlmostContainment(True, total)


def equivalent(S: ChainSystem, U1: UBS, U2: UBS) -> bool:
    """Each almost contains the other: U1 \\ U2 is infinite exactly where U1
    has a tail and U2 has none, so the two meet the same chains in tails.
    Both are checked as ``almost_contained`` checks them."""
    _known(S, *((c, lo) for U in (U1, U2) for c, (lo, _) in U.intervals.items()))
    return U1.tails() == U2.tails()


# -- Dilworth ---------------------------------------------------------------

def min_chain_cover(rows: Sequence[int]) -> int:
    """Minimum number of chains covering a finite strict partial order
    (König matching), given as one bitmask row per element: its strict
    up-set or its strict down-set, as the matching has the same size on
    the transposed relation."""
    match_r = [-1] * len(rows)

    def try_kuhn(v, seen):
        for u in _iter_bits(rows[v]):
            if u not in seen:
                seen.add(u)
                if match_r[u] == -1 or try_kuhn(match_r[u], seen):
                    match_r[u] = v
                    return True
        return False

    return len(rows) - sum(try_kuhn(v, set()) for v in range(len(rows)))


def truncation_antichain_bound(S: ChainSystem) -> int:
    """Maximum antichain of the truncation to depth ``tail_depth``, the rank
    proxy, read at depth min(``tail_depth``, k E) for k chains, to which
    every antichain folds (module docstring)."""
    return min_chain_cover(_truncation_rows(S, min(S.tail_depth, len(S.chains) * S.head_extent)))


# -- minimal tails and the graph ----------------------------------------------

def minimal_tail(S: ChainSystem, cid: str) -> tuple:
    """Least N whose tail closures are all mutually equivalent from N on.

    Equivalence is equality of tail sets.  Closures are monotone in the
    seed, so the tail set of ``tail(cid, M)``'s closure only shrinks as M
    grows, and from E = ``head_extent`` on it is fixed (module docstring):
    it is that of ``tail_depth`` >= E, the graph's kept closure.  Probe 0,
    then bisect [1, E] for the least M with that tail set.  So this answers
    as the walk over all of them would."""
    _known(S, (cid, 0))
    deep = closure(S, tail(cid, S.tail_depth)).tails()
    lo, hi = (0, 0) if closure(S, tail(cid, 0)).tails() == deep else (1, S.head_extent)
    while lo < hi:
        mid = (lo + hi) // 2
        if closure(S, tail(cid, mid)).tails() == deep:
            hi = mid
        else:
            lo = mid + 1
    return lo, closure(S, tail(cid, lo))


@dataclass(frozen=True)
class UBSGraph:
    vertices: tuple  # (label, representative UBS, defining chain)
    starts: tuple    # minimal-tail start of each vertex's chain
    succ: tuple      # succ[i]: bitmask of the j with an edge i -> j

    @property
    def edges(self) -> tuple:
        """Pairs of vertex positions (i, j), one per edge i -> j."""
        return tuple((i, j) for i, row in enumerate(self.succ)
                     for j in _iter_bits(row))

    def vertex_labels(self) -> tuple:
        return tuple(v[0] for v in self.vertices)

    def to_json(self):
        return {"vertices": [{"label": lab, "chain": chain, "representative": rep.to_json()}
                             for lab, rep, chain in self.vertices],
                "edges": [[self.vertices[i][0], self.vertices[j][0]] for i, j in self.edges]}


def ubs_graph(S: ChainSystem) -> UBSGraph:
    """Minimal classes and the asymmetric almost-transversality edges: i -> j
    when (ci, E) and (cj, 2 E), E = ``head_extent``, offset past every zone
    bound, are transverse and (cj, E) and (ci, 2 E) are not.  Built once
    per system (``_kept``): a graph that breaks its laws, or whose
    closures leave the window, is kept as its error."""
    return _kept(S, "graph", (HorizonExceeded, InvalidInput), _build_graph, S)


def _build_graph(S: ChainSystem) -> UBSGraph:
    reps, starts, E = [], [], S.head_extent
    for cid in S.chain_order:
        rep = closure(S, tail(cid, S.tail_depth))
        if all(rep.tails() != existing.tails() for _, existing, _ in reps):
            start = minimal_tail(S, cid)[0]
            reps.append((f"{cid}[{start}:]", rep, cid))
            starts.append(start)
    succ = tuple(sum(1 << j for j, (_, _, cj) in enumerate(reps)
                     if ci != cj and S.rel(ci, E, cj, 2 * E) == TRANS
                     and S.rel(cj, E, ci, 2 * E) != TRANS) for _, _, ci in reps)
    graph = UBSGraph(tuple(reps), tuple(starts), succ)
    _assert_graph_laws(S, graph)
    return graph


def _assert_graph_laws(S: ChainSystem, G: UBSGraph):
    """Acyclic and transitively closed: what each vertex reaches is its
    successor set, which omits the vertex itself."""
    for i, (row, reach) in enumerate(zip(G.succ, transitive_rows(G.succ))):
        if reach >> i & 1:
            raise InvalidInput("UBS graph has a directed cycle")
        if reach != row:
            raise InvalidInput("UBS graph reachability without an edge")
    n, bound = len(G.vertices), truncation_antichain_bound(S)
    if n > bound:
        raise InvalidInput(f"UBS graph has {n} vertices over antichain bound {bound}")


def ubs_poset(S: ChainSystem) -> list:
    """Inseparable vertex sets of the graph with verified representatives.
    The candidate of a set at N is the closure of its vertices' tails at N
    (one per chain): the OR of each vertex's ``_seed_reads`` at N, read
    once per vertex and N, taken by ``_read_closure`` to a ``UBS`` at the
    exact depth max(N, E) + E."""
    G = ubs_graph(S)
    n = len(G.vertices)
    vertex_tails = [rep.tails() for _, rep, _ in G.vertices]
    step = MaskMap(G.succ)
    reads_at: dict = {}
    out = []
    for mask in range(1, 1 << n):
        chosen = list(_iter_bits(mask))
        # separated: some z outside the set lies on an edge path u -> z -> w
        # between two of its members
        leaving = step(mask) & ~mask
        if any(G.succ[z] & mask for z in _iter_bits(leaving)):
            continue
        rep = None
        for N in range(max(G.starts, default=0), S.tail_depth + 1):
            R = max(N, S.head_extent) + S.head_extent
            if N not in reads_at:
                reads_at[N] = [_seed_reads(S, chain, N, None, R) for _, _, chain in G.vertices]
            cand = _read_closure(S, [reads_at[N][i] for i in chosen], R)
            cand_tails = cand.tails()
            if sum(1 << i for i, t in enumerate(vertex_tails)
                   if t <= cand_tails) == mask:
                rep = cand
                break
        if rep is None:
            raise HorizonExceeded(
                f"no representative for vertex set {chosen} within horizon",
                budget="horizon", limit=S.horizon, reached=S.tail_depth)
        out.append((tuple(G.vertices[i][0] for i in chosen), rep))
    return out


# -- shift maps and transfer characters ----------------------------------------

@dataclass(frozen=True)
class ShiftMap:
    """A chain bijection with per-chain index shifts: a shift map of one
    system, or an isomorphism between two (see ``verify_system_map``)."""

    tau: dict    # chain id -> chain id
    shift: dict  # chain id -> index shift (applied before tau renames)
    min_index: int = 0

    def __post_init__(self):
        for c in (*self.shift, *self.tau):
            if c not in self.tau:
                raise InvalidInput(f"shift map shifts chain {c}, which tau does not map")
            if c not in self.shift:
                raise InvalidInput(f"shift map has no shift for chain {c}")
            if self.min_index + min(self.shift[c], 0) < 0:
                raise InvalidInput(f"shift map reads a negative index on chain {c}")

    def compose(self, other: "ShiftMap") -> "ShiftMap":
        """self ∘ other (apply ``other`` first), ``InvalidInput`` when
        ``other`` maps a chain to one that ``self`` does not map."""
        if missing := sorted(set(other.tau.values()) - self.tau.keys()):
            raise InvalidInput(f"shift map does not map chain {missing[0]}")
        tau = {c: self.tau[other.tau[c]] for c in other.tau}
        shift = {c: other.shift[c] + self.shift[other.tau[c]] for c in other.tau}
        min_index = max([other.min_index]
                        + [self.min_index - other.shift[c] for c in other.tau])
        return ShiftMap(tau, shift, min_index)

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.tau.items()) and \
            all(s == 0 for s in self.shift.values())

    def to_json(self):
        return {"tau": dict(sorted(self.tau.items())),
                "shift": dict(sorted(self.shift.items())),
                "minIndex": self.min_index}


def identity_shift(S: ChainSystem) -> ShiftMap:
    return ShiftMap({c: c for c in S.chain_order},
                    {c: 0 for c in S.chain_order}, 0)


def validate_shift(S: ChainSystem, g: ShiftMap) -> None:
    """Weights over two period blocks, as ``_weights_differ`` reads them,
    and the relation as ``_unpreserved`` compares it, from one period
    block past the head and ``min_index``."""
    if sorted(g.tau) != sorted(S.chain_order) or sorted(g.tau.values()) != sorted(S.chain_order):
        raise InvalidInput("shift map must permute the chains")
    L = S.lcm_period
    base = max(g.min_index, S.head_extent) + L
    for c in S.chain_order:
        if _weights_differ(S.chains[c], S.chains[g.tau[c]], g.shift[c], base, base + 2 * L):
            raise InvalidInput(f"shift map does not preserve weights on chain {c}")
    pair = _unpreserved(S, S, g, range(base, base + L))
    if pair:
        raise InvalidInput("shift map does not preserve the relation on (%s, %s)" % pair)


def _weights_differ(c: Chain, d: Chain, s: int, start: int, stop: int) -> bool:
    """Whether c.weight(n) != d.weight(n + s) for some n in [start, stop),
    n + s >= 0.  From a = max(start, c's head, d's head - s) on, the two
    sequences have periods p = c.period and q = d.period; by Fine and Wilf,
    two such sequences that agree on p + q - gcd(p, q) consecutive indices
    agree from then on.  So the indices from start to that many past a
    decide the range, however far ``stop`` lies."""
    a = max(start, len(c.head_weights), len(d.head_weights) - s)
    stop = min(stop, a + c.period + d.period - math.gcd(c.period, d.period))
    return any(c.weight(n) != d.weight(n + s) for n in range(start, stop))


def _unpreserved(S1: ChainSystem, S2: ChainSystem, g: ShiftMap, block: range):
    """The first (ci, cj), ci != cj, in ``permutations`` order, such that some
    (ci, n) and (cj, m) relate in S1 otherwise than their images
    (tau ci, n + si) and (tau cj, m + sj) in S2, for n in ``block`` and m
    in two column ranges: from the block's start to n + E1, and past that
    the offsets m - n in [-dl - E2, -dl + E2], where dl = sj - si and E1,
    E2 are the head extents; or None.

    Enough for all n, m >= block.start when the block and its images lie
    past the heads of systems that pass ``validate_system_rules``: there a
    relation depends on m - n alone and is constant from offset
    head_extent on, and the image offset is m - n + dl, so the two ranges
    meet every offset where either side changes; negative offsets are
    positive ones of (cj, ci) by antisymmetry (see ``validate_system``).

    Both callers start the block at or past E1 and its images at or past
    0 and E2 - E1, so every S1 pair read lies past S1's head.  The pairs
    are read in three parts, each a comparison of two clamped profiles on
    intervals of positions (``_differs``), read off the index tables with
    no ``rel`` call and no table deeper than ``rel``'s:

    - Image row and column past S2's head.  Both sides depend on the
      offset d = m - n alone: S1's on d clamped to [-E1, E1], S2's on
      d + dl clamped to [-E2, E2] (``_profile``).  So only the offsets read
      matter, at position p = -d: from -E1 to the block's last row less
      its start, and the second range, each cut where the image column
      enters S2's head for every row.  A row more than max(E1, E2 + dl)
      past the block's start adds an offset where both sides are constant
      and read as at that row's, so at most min(len(block), 2E + spread +
      1) rows decide, E the larger head extent.
    - Image rows in S2's head (n + si < E2, under negative shifts): per
      row, S2's row read bit by bit off the index entries up to E2 past its
      own index, from where it is constant (``rel``'s fold).
    - Image columns in S2's head (m + sj < E2, under negative shifts) on
      image rows past it: per column, S2's index entry, constant from row
      m + sj + E2 on.

    Every interval starts in a range of its two profiles, as ``_differs``
    needs: in the first two parts at -E1 or dl - E2, their profiles'
    lowest positions.  In the third, positions are rows n, the ranges are
    [m - E1, m + E1] and [-si, m + dl + E2], and f = max(block.start,
    E2 - si) lies in the second or is the block's start past it.  The first
    interval starts at max(f, m - E1), in a range either way as
    block.start <= m; the second starts at f too (its own start m + dl - E2
    lies below -si, as m + sj < E2) and ends by m + dl + E2, so it is empty
    when f is past the second range.

    So the work follows E1, E2 and at most E2 head rows and columns per
    chain pair, not the block's length or the shifts."""
    E1, E2, lo, top = S1.head_extent, S2.head_extent, block.start, block.stop - 1
    ones = {pair: _profile(S1, *pair) for pair in permutations(S1.chain_order, 2)}
    twos = ones if S2 is S1 else {pair: _profile(S2, *pair)
                                  for pair in permutations(S2.chain_order, 2)}
    for ci, cj in permutations(S1.chain_order, 2):
        ti, si, tj, sj = g.tau[ci], g.shift[ci], g.tau[cj], g.shift[cj]
        dl, one = sj - si, ones[ci, cj]
        a, b = (*one, -E1, E1), (*twos[ti, tj], dl - E2, dl + E2)
        sub, sup = S2.index(ti, tj, 2 * E2)
        far = (dl - E2, min(dl + E2, -E1 - 1))
        first, cut = max(lo, E2 - si), top + sj - E2
        if first <= top and a != b and \
                _differs(a, b, ((-E1, min(top - lo, cut)), (far[0], min(far[1], cut)))):
            return ci, cj
        for n in range(lo, min(top + 1, E2 - si)):
            N = n + si
            row = [sum((t[M] >> N & 1) << (N + E2 - M) for M in range(N + E2 + 1))
                   for t in (sub, sup)]
            if _differs(a, (*row, dl - E2, dl + N), ((-E1, n - lo), far)):
                return ci, cj
        for M in range(lo + sj, E2) if first <= top else ():
            m, col = M - sj, _range_mask(0, M + E2)
            if _differs((*one, m - E1, m + E1), (sub[M] & col, sup[M] & col, -si, M + E2 - si),
                        ((max(first, m - E1), top), (max(first, m + far[0]), min(top, m + far[1])))):
                return ci, cj
    return None


def _profile(S: ChainSystem, c: str, d: str) -> tuple:
    """The relation of chains c != d past S's head, where it depends on the
    offset alone: the SUB and the SUP bits, bit k for the offset E - k of
    (d, m) from (c, n), n, m >= E = ``head_extent``.  Read in ``rel``'s
    table: index entry 2E holds the offsets E..0 at bits E..2E, entry E
    the offsets 0..-E.  From a position p0 on, (SUB bits, SUP bits, p0,
    p0 + 2E) is a clamped profile (``_differs``)."""
    E = S.head_extent
    return tuple(t[2 * E] >> E & _range_mask(0, E) | t[E] & _range_mask(E, 2 * E)
                 for t in S.index(c, d, 2 * E))


def _differs(a: tuple, b: tuple, intervals: Iterable) -> bool:
    """Whether the clamped profiles a and b differ at a position of one of
    the ``intervals`` (lo, hi), each empty or starting within a's or b's
    range.  A profile (SUB bits, SUP bits, p0, p1) holds at position p the
    codes of bit min(max(p, p0), p1) - p0.  Only an interval's positions
    within a range [p0, p1] are read: off both ranges each profile is
    constant on a stretch, and as the interval starts in a range, the
    position before a stretch lies in the interval and in a range, where
    each profile takes the values it takes on the stretch.  The lemma needs
    each range's top, though ``_unpreserved``'s profiles hold there the
    codes of the position below it (zones change within E - 1 of offset 0,
    and a head column's rules end before row E2)."""
    for lo, hi in intervals:
        for w0, w1 in (a[2:], b[2:]):
            w0, w1 = max(w0, lo), min(w1, hi)
            if w0 <= w1 and any(_placed(x, *a[2:], w0, w1) != _placed(y, *b[2:], w0, w1)
                                for x, y in zip(a[:2], b[:2])):
                return True
    return False


def _placed(bits: int, p0: int, p1: int, w0: int, w1: int) -> int:
    """``bits`` held at positions p0..p1 (bit p - p0) and clamped past
    them, as a mask over the positions w0..w1 (bit p - w0)."""
    out = _range_mask(0, min(p0 - 1, w1) - w0) if bits & 1 else 0
    if bits >> (p1 - p0) & 1:
        out |= _range_mask(max(p1 + 1, w0) - w0, w1 - w0)
    if w0 <= p1 and p0 <= w1:
        out |= (bits << p0 - w0 if p0 >= w0 else bits >> w0 - p0) \
            & _range_mask(max(p0, w0) - w0, min(p1, w1) - w0)
    return out


def _transfer(S: ChainSystem, U: UBS, g: ShiftMap) -> Optional[Fraction]:
    """nu(g^{-1}Ω \\ Ω) − nu(Ω \\ g^{-1}Ω) for Ω the tails T of U, chain c
    from a_c = max(lo_c, D) on, D = E + L + ``min_index`` + max |s| + 2 (E
    = ``head_extent``, L = ``lcm_period``); None when g moves U's class.
    g^{-1}Ω has tails on τ^{-1}T, c's from b_c = a_{τc} − s_c on; so g
    keeps the class exactly when τT = T, and then the value is one sum over
    c in T: + c's mass on [b_c, a_c) when b_c < a_c (indices gained), − its
    mass on [a_c, b_c) when b_c > a_c (indices lost).  As b_c >= D − |s_c|
    > ``min_index``, g^{-1}Ω needs no cut where g is undefined."""
    if not U.has_tail():
        raise InvalidInput("transfer characters need a UBS with a tail")
    depth = S.head_extent + S.lcm_period + g.min_index + 2 + \
        max(map(abs, g.shift.values()), default=0)
    starts = {c: max(lo, depth) for c, (lo, hi) in U.intervals.items() if hi is None}
    if {g.tau[c] for c in starts} != starts.keys():
        return None
    total = Fraction(0)
    for c, a in starts.items():
        b = starts[g.tau[c]] - g.shift[c]
        total += S.chains[c].mass(b, a - 1) if b <= a else -S.chains[c].mass(a, b - 1)
    return total


def transfer_character(S: ChainSystem, U: UBS, g: ShiftMap) -> Fraction:
    """nu(g^{-1}Ω \\ Ω) − nu(Ω \\ g^{-1}Ω) on a deep representative Ω
    (``_transfer``): well-defined on the class of Ω, which g must keep."""
    _known(S, *((cid, lo) for cid, (lo, _) in U.intervals.items()))
    validate_shift(S, g)
    value = _transfer(S, U, g)
    if value is None:
        raise ClassNotPreserved("the shift map does not preserve the class of the UBS")
    return value


def chi_vector(S: ChainSystem, g: ShiftMap) -> tuple:
    """Per-minimal-class transfer characters, in vertex order of the graph
    ``ubs_graph`` keeps, once g has passed ``validate_shift``."""
    validate_shift(S, g)
    values = []
    for lab, rep, _ in ubs_graph(S).vertices:
        value = _transfer(S, rep, g)
        if value is None:
            raise ClassPermuted(
                f"class {lab} is moved by the shift map; pass to the "
                "class-preserving subgroup first")
        values.append(value)
    return tuple(values)


# -- cross-system isomorphisms ---------------------------------------------

def verify_system_map(S1: ChainSystem, S2: ChainSystem, m: ShiftMap) -> bool:
    """Weights per chain c, of shift s, from index max(0, -s) to two blocks
    of the larger lcm period past a = max(0, -s, E1, E2 - s), E the head
    extents, as ``_weights_differ`` reads them, and the relation as
    ``_unpreserved`` compares it from one such block past both heads and
    every shift.  From a on, n -> S1.weight(c, n) and n -> S2.weight(tau c,
    n + s) are periodic, and their periods p | L1 and q | L2, the lcm
    periods, have p + q - gcd(p, q) < 2 max(L1, L2); so these weights
    decide every index, whatever the shift.

    The relation is compared only past both heads: STAIRFLAP and its copy
    without the row rule H_0 ⊇ K_m are related by the identity map, though
    their graphs label H's class ``H[1:]`` and ``H[0:]``."""
    if sorted(m.tau) != sorted(S1.chain_order) or \
            sorted(m.tau.values()) != sorted(S2.chain_order):
        return False
    E1, E2 = S1.head_extent, S2.head_extent
    span = 2 * max(S1.lcm_period, S2.lcm_period)
    if any(_weights_differ(S1.chains[c], S2.chains[m.tau[c]], s, max(0, -s),
                           max(0, -s, E1, E2 - s) + span) for c, s in m.shift.items()):
        return False
    base = max(E1, E2) + max((abs(v) for v in m.shift.values()), default=0)
    return _unpreserved(S1, S2, m, range(base, base + span)) is None


# -- DOT export ----------------------------------------------------------------

def dot_export(G: UBSGraph) -> str:
    """The graph in DOT, each id and attribute a quoted string in which
    ``\\`` and ``"`` are escaped."""
    def q(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"  {q(lab)} [label={q(lab)} chain={q(chain)}];" for lab, _, chain in G.vertices]
    lines += [f"  {q(G.vertices[i][0])} -> {q(G.vertices[j][0])};" for i, j in G.edges]
    return "\n".join(["digraph ubs {", *lines, "}"]) + "\n"
