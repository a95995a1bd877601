"""JSON file formats: pocsets, automorphisms, window actions, chain systems
and shift maps.

Rationals are strings ``"p/q"`` (or ``"p"``); order pairs mean containment
and are closed transitively on load.  Parse errors name the offending field
instead of raising bare exceptions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from .actions import PartialAutomorphism, WindowAction
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
from .config import Budgets, DEFAULT_BUDGETS
from .errors import InvalidInput
from .pocset import WeightedPocset
from .structure import Automorphism


def parse_fraction(text, where: str = "") -> Fraction:
    try:
        if isinstance(text, int):
            return Fraction(text)
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"bad rational {text!r} at {where or 'input'}")


def format_fraction(q: Fraction) -> str:
    return str(q)


# -- pocsets -----------------------------------------------------------------

def load_pocset(data: dict) -> WeightedPocset:
    if not isinstance(data, dict) or "walls" not in data:
        raise InvalidInput("pocset file needs a 'walls' array")
    walls = []
    wall_ids = []
    for i, w in enumerate(data["walls"]):
        for key in ("id", "pos", "neg", "weight"):
            if key not in w:
                raise InvalidInput(f"walls[{i}] is missing {key!r}")
        walls.append((w["pos"], w["neg"], parse_fraction(w["weight"], f"walls[{i}].weight")))
        wall_ids.append(w["id"])
    order = []
    for i, pair in enumerate(data.get("order", [])):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidInput(f"order[{i}] must be a pair of halfspace ids")
        order.append((pair[0], pair[1]))
    return WeightedPocset(walls, order, wall_ids=wall_ids)


def dump_pocset(P: WeightedPocset) -> dict:
    walls = []
    for pos, (i, j) in enumerate(P.walls):
        walls.append({
            "id": P.wall_ids[pos],
            "pos": P.ids[i],
            "neg": P.ids[j],
            "weight": format_fraction(P.weight[i]),
        })
    order = []
    for i in range(P.n):
        for j in range(P.n):
            if i != j and P.leq_idx(i, j):
                order.append([P.ids[i], P.ids[j]])
    return {"walls": walls, "order": sorted(order)}


# -- automorphisms --------------------------------------------------------------

def load_automorphism(P: WeightedPocset, data: dict) -> Automorphism:
    if "map" not in data:
        raise InvalidInput("automorphism file needs a 'map' object")
    return Automorphism.from_mapping(P, dict(data["map"]), data.get("name", "g"))


# -- window actions --------------------------------------------------------------

def load_window_action(data: dict, budgets: Budgets = DEFAULT_BUDGETS) -> WindowAction:
    if "window" not in data or "maps" not in data:
        raise InvalidInput("window-action file needs 'window' and 'maps'")
    P = load_pocset(data["window"])
    gens = {}
    for i, m in enumerate(data["maps"]):
        if "name" not in m or "map" not in m:
            raise InvalidInput(f"maps[{i}] needs 'name' and 'map'")
        mapping = dict(m["map"])
        domain = m.get("domain")
        if domain is not None:
            mapping = {k: v for k, v in mapping.items() if k in set(domain)}
        gens[m["name"]] = PartialAutomorphism.from_ids(P, m["name"], mapping)
    return WindowAction(P, gens, budgets=budgets)


def dump_window_action(action: WindowAction) -> dict:
    maps = []
    P = action.pocset
    for name, pa in action.gens.items():
        mapping = {P.ids[a]: P.ids[b] for a, b in sorted(pa.hmap.items())}
        maps.append({"name": name, "map": mapping, "domain": sorted(mapping)})
    return {"window": dump_pocset(P), "maps": maps}


# -- chain systems ----------------------------------------------------------------

_REL_CODES = {"sub": SUB, "sup": SUP, "trans": TRANS, "transverse": TRANS}


def _rel_code(text, where: str) -> str:
    if text not in _REL_CODES:
        raise InvalidInput(f"bad relation code {text!r} at {where}")
    return _REL_CODES[text]


def load_chain_system(data: dict, name: str = "") -> ChainSystem:
    if "chains" not in data:
        raise InvalidInput("chain-system file needs a 'chains' array")
    chains = []
    for i, c in enumerate(data["chains"]):
        for key in ("id", "period", "weights"):
            if key not in c:
                raise InvalidInput(f"chains[{i}] is missing {key!r}")
        chains.append(Chain(
            c["id"], int(c["period"]),
            tuple(parse_fraction(w, f"chains[{i}].weights") for w in c["weights"]),
            tuple(parse_fraction(w, f"chains[{i}].headWeights")
                  for w in c.get("headWeights", ())),
        ))
    rel = data.get("rel", {})
    head = {}
    for i, entry in enumerate(rel.get("head", [])):
        if len(entry) != 5:
            raise InvalidInput(f"rel.head[{i}] must be [chain, n, chain, m, rel]")
        ci, n, cj, m, code = entry
        head[(ci, int(n), cj, int(m))] = _rel_code(code, f"rel.head[{i}]")
    zones = {}
    rows = []
    for i, entry in enumerate(rel.get("periodic", [])):
        where = f"rel.periodic[{i}]"
        if "fromIndex" in entry:
            rng = entry.get("toRange", [0, None])
            rows.append(RowRule(
                entry["from"], int(entry["fromIndex"]), entry["to"],
                _rel_code(entry["rule"], where),
                int(rng[0]), None if rng[1] is None else int(rng[1])))
            continue
        key = (entry["from"], entry["to"])
        rng = entry.get("offsetRange", [None, None])
        zone = Zone(None if rng[0] is None else int(rng[0]),
                    None if rng[1] is None else int(rng[1]),
                    _rel_code(entry["rule"], where))
        zones.setdefault(key, []).append(zone)
    zones = {k: tuple(sorted(v, key=lambda z: (z.lo is not None, z.lo or 0)))
             for k, v in zones.items()}
    return ChainSystem(chains, zones=zones, rows=rows, head=head,
                       name=name or data.get("name", ""))


def dump_chain_system(S: ChainSystem) -> dict:
    chains = []
    for cid in S.chain_order:
        c = S.chains[cid]
        chains.append({
            "id": c.id,
            "period": c.period,
            "weights": [format_fraction(w) for w in c.weights],
            "headWeights": [format_fraction(w) for w in c.head_weights],
        })
    head = [[ci, n, cj, m, code] for (ci, n, cj, m), code in sorted(S.head.items())]
    periodic = []
    for (ci, cj), zs in sorted(S.zones.items()):
        for z in zs:
            periodic.append({
                "from": ci, "to": cj, "rule": z.rel,
                "offsetRange": [z.lo, z.hi],
            })
    for r in S.rows:
        periodic.append({
            "from": r.chain, "fromIndex": r.index, "to": r.other,
            "rule": r.rel, "toRange": [r.lo, r.hi],
        })
    return {"name": S.name, "chains": chains,
            "rel": {"head": head, "periodic": periodic}}


def load_shift_map(data: dict) -> ShiftMap:
    for key in ("tau", "shift"):
        if key not in data:
            raise InvalidInput(f"shift-map file is missing {key!r}")
    return ShiftMap(dict(data["tau"]),
                    {k: int(v) for k, v in data["shift"].items()},
                    int(data.get("minIndex", 0)))


def read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} line {exc.lineno}: {exc.msg}")
