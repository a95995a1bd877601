"""Built-in fixtures: pocsets, window actions and chain systems.

Pocsets, their named automorphisms and window actions are constructed
once and cached, as points of the same fixture must compare equal across
call sites.  Chain systems are built afresh on every call, so no closure
memo is shared between callers or lives as long as the process.
Everything here is expressible in the JSON file formats and dumpable
through the CLI, which keeps runs reproducible from the installed package
alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .actions import TotalAction, WindowAction
from .boundary import (
    SUB,
    SUP,
    TRANS,
    Chain,
    ChainSystem,
    RowRule,
    ShiftMap,
    Zone,
)
from .config import Budgets
from .errors import InvalidInput
from .pocset import WeightedPocset
from .serialize import add_generator
from .structure import Automorphism, pocset_product

ONE = Fraction(1)

F2_RADIUS = 4
_F2_LETTERS = ("a", "b", "A", "B")
_F2_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}

WINDOW_BUDGETS = Budgets(point_walls=512, max_points=1 << 16, aut_walls=12)


# -- pocsets ------------------------------------------------------------------

@lru_cache(maxsize=None)
def square() -> WeightedPocset:
    """Two transverse unit walls: the 4-point hypercube."""
    return WeightedPocset([("a", "a*", ONE), ("b", "b*", ONE)])


@lru_cache(maxsize=None)
def path3() -> WeightedPocset:
    """Three nested walls h1 ⊇ h2 ⊇ h3: a 4-point geodesic."""
    return WeightedPocset(
        [("h1", "h1*", ONE), ("h2", "h2*", ONE), ("h3", "h3*", ONE)],
        [("h2", "h1"), ("h3", "h2")],
    )


@lru_cache(maxsize=None)
def tripod() -> WeightedPocset:
    """Three pairwise-disjoint leaf halfspaces around a center."""
    order = [(f"h{i}", f"h{j}*") for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    return WeightedPocset(
        [("h1", "h1*", ONE), ("h2", "h2*", ONE), ("h3", "h3*", ONE)], order)


@lru_cache(maxsize=None)
def grid() -> WeightedPocset:
    """Product of two 4-point paths: 16 points, rank 2."""
    return pocset_product([path3(), path3()], prefixes=["x.", "y."])


def _f2_vertices(radius: int) -> list:
    out = [""]
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in _F2_LETTERS:
                if w and _F2_INV[w[-1]] == s:
                    continue
                nxt.append(w + s)
        out.extend(nxt)
        frontier = nxt
    return out


def _f2_mul(g: str, w: str) -> str:
    """Reduced product of two reduced words."""
    out = list(g)
    for ch in w:
        if out and _F2_INV[out[-1]] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _f2_cone_id(v: str) -> str:
    return "w" + v


@lru_cache(maxsize=None)
def f2ball() -> WeightedPocset:
    """Radius-4 ball of the 4-valent tree (Cayley graph of a rank-2 free
    group); one wall per edge, named by the edge's outer vertex, with the
    ``+`` side the cone away from the origin."""
    cones = _f2_vertices(F2_RADIUS)[1:]
    walls = [(_f2_cone_id(v) + "+", _f2_cone_id(v) + "-", ONE) for v in cones]
    # generating pairs: each cone lies in its parent's cone and is disjoint
    # from its siblings' cones; the closure yields every other nesting
    order = [(_f2_cone_id(v) + "+", _f2_cone_id(v[:-1]) + "+") for v in cones if len(v) > 1]
    siblings = {}
    for v in cones:
        siblings.setdefault(v[:-1], []).append(_f2_cone_id(v))
    order += [(c + "+", d + "-") for group in siblings.values() for c in group for d in group
              if c != d]
    return WeightedPocset(walls, order,
                          wall_ids=[_f2_cone_id(v) for v in cones])


# -- named automorphisms --------------------------------------------------------

# per total-action fixture, its generators as maps of one side per wall; their
# order is the order in which word searches try them
AUTOMORPHISM_MAPS = {
    "SQUARE": {"rot": {"a": "b", "b": "a*"}, "swap": {"a": "b", "b": "a"},
               "flipa": {"a": "a*", "b": "b"}, "flipb": {"a": "a", "b": "b*"}},
    "PATH3": {"flip": {"h1": "h3*", "h2": "h2*", "h3": "h1*"}},
    "TRIPOD": {"rot": {"h1": "h2", "h2": "h3", "h3": "h1"},
               "swap12": {"h1": "h2", "h2": "h1", "h3": "h3"}},
    "GRID": {"swapxy": {f"{a}.h{i}": f"{b}.h{i}" for a, b in ("xy", "yx") for i in (1, 2, 3)},
             "flipx": {**{f"x.h{i}": f"x.h{4 - i}*" for i in (1, 2, 3)},
                       **{f"y.h{i}": f"y.h{i}" for i in (1, 2, 3)}}},
}


@lru_cache(maxsize=None)
def named_automorphisms(name: str) -> dict:
    P = pocset(name)
    return {g: Automorphism.from_mapping(P, mapping, g)
            for g, mapping in AUTOMORPHISM_MAPS.get(name, {}).items()}


def total_action(name: str, gens: tuple = ()) -> TotalAction:
    P = pocset(name)
    named = named_automorphisms(name)
    if not gens:
        gens = tuple(named)
    chosen = {}
    for g in gens:
        if g != "id" and g not in named:
            raise InvalidInput(f"fixture {name} has no automorphism {g!r}")
        add_generator(chosen, g, Automorphism.identity(P) if g == "id" else named[g])
    return TotalAction(P, chosen)


# -- window actions -------------------------------------------------------------

@lru_cache(maxsize=None)
def line_window() -> WindowAction:
    """21 nested unit walls on a 22-vertex path, with the one-step shift."""
    walls = []
    order = []
    n = 21
    for i in range(n):
        walls.append((f"w{i:02d}+", f"w{i:02d}-", ONE))
    for i in range(n):
        for j in range(i + 1, n):
            order.append((f"w{j:02d}+", f"w{i:02d}+"))  # deeper up-sides shrink
    P = WeightedPocset(walls, order, wall_ids=[f"w{i:02d}" for i in range(n)])
    smap = {}
    for i in range(n - 1):
        smap[f"w{i:02d}+"] = f"w{i + 1:02d}+"
    s = Automorphism.from_mapping(P, smap, "s")
    return WindowAction(P, {"s": s}, budgets=WINDOW_BUDGETS)


@lru_cache(maxsize=None)
def f2ball_window() -> WindowAction:
    """The tree ball with the two generators acting by left multiplication."""
    P = f2ball()
    gens = {}
    for letter in ("a", "b"):
        mapping = {}
        for v in _f2_vertices(F2_RADIUS):
            if not v:
                continue
            # edge {parent(v), v}; image edge {g parent, g v}
            parent = v[:-1]
            gp = _f2_mul(letter, parent)
            gv = _f2_mul(letter, v)
            if len(gp) > F2_RADIUS or len(gv) > F2_RADIUS:
                continue
            outer, inner = (gv, gp) if len(gv) > len(gp) else (gp, gv)
            # cone(v) maps to the side of the image wall containing gv
            if outer == gv:
                mapping[_f2_cone_id(v) + "+"] = _f2_cone_id(outer) + "+"
                mapping[_f2_cone_id(v) + "-"] = _f2_cone_id(outer) + "-"
            else:
                mapping[_f2_cone_id(v) + "+"] = _f2_cone_id(outer) + "-"
                mapping[_f2_cone_id(v) + "-"] = _f2_cone_id(outer) + "+"
        gens[letter] = Automorphism.from_mapping(P, mapping, letter)
    return WindowAction(P, gens, budgets=WINDOW_BUDGETS)


# -- chain systems ----------------------------------------------------------------

def line_system() -> ChainSystem:
    return ChainSystem([Chain("H", 1, (ONE,))], name="LINE")


def stairflap() -> ChainSystem:
    """Staircase with a one-dimensional flap.

    Chain K is the flap: k_n contains h_m exactly for m > n, is transverse
    to h_m for 1 <= m <= n, and every k_n is contained in h_0.
    """
    zones = {
        ("H", "K"): (
            Zone(None, -1, SUB),   # m <= n - 1: h_n ⊆ k_m
            Zone(0, None, TRANS),  # m >= n: transverse
        ),
    }
    rows = (RowRule("H", 0, "K", SUP, 0, None),)  # h_0 ⊇ every k_m
    return ChainSystem(
        [Chain("H", 1, (ONE,)), Chain("K", 1, (ONE,))],
        zones=zones, rows=rows, name="STAIRFLAP")


CORNERS = ("PP", "PM", "MP", "MM")


def corner_system(corner: str) -> ChainSystem:
    """One corner of the standard cubulation of the plane: two independent
    chains of halfspaces, one per coordinate, all cross-pairs transverse."""
    if corner not in CORNERS:
        raise InvalidInput(f"unknown corner {corner!r}")
    return ChainSystem(
        [Chain("X", 1, (ONE,)), Chain("Y", 1, (ONE,))],
        name=f"CORNER4_{corner}")


def corner_translation(corner: str, axis: str) -> ShiftMap:
    """The unit translation along an axis, as a shift map of the corner
    system: it moves toward a positive corner sign and away from a negative
    one."""
    if axis not in ("x", "y") or corner not in CORNERS:
        raise InvalidInput("axis must be 'x' or 'y' with a valid corner")
    sx = 1 if corner[0] == "P" else -1
    sy = 1 if corner[1] == "P" else -1
    shift = {"X": sx if axis == "x" else 0, "Y": sy if axis == "y" else 0}
    return ShiftMap({"X": "X", "Y": "Y"}, shift, min_index=1)


def corner_rotation(corner: str) -> tuple:
    """Quarter rotation: the target corner plus the system map onto it."""
    nxt = {"PP": "MP", "MP": "MM", "MM": "PM", "PM": "PP"}[corner]
    return nxt, ShiftMap({"X": "Y", "Y": "X"}, {"X": 0, "Y": 0})


# -- registry ----------------------------------------------------------------------

POCSET_FIXTURES = {"SQUARE": square, "PATH3": path3, "TRIPOD": tripod, "GRID": grid,
                   "F2BALL": f2ball}
WINDOW_FIXTURES = {"LINE": line_window, "F2BALL": f2ball_window}
SYSTEM_FIXTURES = {"LINE": line_system, "STAIRFLAP": stairflap,
                   "CORNER4": partial(corner_system, "PP"),
                   **{f"CORNER4_{c}": partial(corner_system, c) for c in CORNERS}}


def _build(table: dict, kind: str, name: str):
    if name not in table:
        raise InvalidInput(f"unknown {kind} fixture {name!r}")
    return table[name]()


def pocset(name: str) -> WeightedPocset:
    return _build(POCSET_FIXTURES, "pocset", name)


def window(name: str) -> WindowAction:
    return _build(WINDOW_FIXTURES, "window", name)


def chain_system(name: str) -> ChainSystem:
    return _build(SYSTEM_FIXTURES, "chain-system", name)
