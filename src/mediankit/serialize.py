"""JSON file formats: pocsets, automorphisms, window actions, chain systems
and shift maps.

Rationals are strings ``"p/q"`` (or ``"p"``); ids, map keys and map
values are strings; order pairs mean containment and are closed
transitively on load.  Parse errors name the offending field instead of
raising bare exceptions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress
from typing import Optional

from .actions import WindowAction
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
from .pocset import WeightedPocset, ensure_valid
from .structure import Automorphism


def parse_fraction(text, where: str = "") -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"bad rational {text!r} at {where or 'input'}")


def parse_int(text, where: str) -> int:
    try:
        return int(str(text))
    except ValueError:
        raise InvalidInput(f"bad integer {text!r} at {where}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInput(f"{where} must be a JSON object")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise InvalidInput(f"{where} must be a JSON array")
    return value


def _fields(obj, where: str, *keys) -> list:
    """The values of the required ``keys`` of the JSON object ``obj``."""
    for key in keys:
        if key not in _object(obj, where):
            raise InvalidInput(f"{where} is missing {key!r}")
    return [obj[key] for key in keys]


def _id(value, where: str) -> str:
    if not isinstance(value, str):
        raise InvalidInput(f"{where} must be a string id, not {value!r}")
    return value


def _id_map(value, where: str) -> dict:
    """The JSON object ``value``, whose keys and values must be string ids."""
    for k, v in _object(value, where).items():
        if not (isinstance(k, str) and isinstance(v, str)):
            raise InvalidInput(f"{where} must map string ids to string ids, not {k!r} to {v!r}")
    return value


def _index_range(value, where: str) -> list:
    """``[lo, hi]`` of indices, where ``null`` leaves an end open."""
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidInput(f"{where} must be a pair [lo, hi]")
    return [None if v is None else parse_int(v, where) for v in value]


# -- pocsets -----------------------------------------------------------------

def load_pocset(data: dict) -> WeightedPocset:
    (entries,) = _fields(data, "pocset file", "walls")
    walls = []
    wall_ids = []
    for i, w in enumerate(_array(entries, "walls")):
        wid, pos, neg, weight = _fields(w, f"walls[{i}]", "id", "pos", "neg", "weight")
        walls.append((_id(pos, f"walls[{i}].pos"), _id(neg, f"walls[{i}].neg"),
                      parse_fraction(weight, f"walls[{i}].weight")))
        wall_ids.append(_id(wid, f"walls[{i}].id"))
    # reports name walls by id (inversions), so two walls must not share one
    if len(set(wall_ids)) < len(wall_ids):
        i = next(i for i, wid in enumerate(wall_ids) if wid in wall_ids[:i])
        raise InvalidInput(f"walls[{i}].id {wall_ids[i]!r} repeats "
                           f"walls[{wall_ids.index(wall_ids[i])}].id")
    # pair types and lengths are checked by set comparisons, the members by
    # the constructor's id lookup; the loop that names the first bad pair
    # runs only when one of them fails
    order = _array(data.get("order", []), "order")
    if not (set(map(type, order)) <= {list, tuple} and set(map(len, order)) <= {2}):
        _name_bad_pair(order)
    try:
        return WeightedPocset(walls, order, wall_ids=wall_ids)
    except (InvalidInput, TypeError):
        _name_bad_pair(order)
        raise


def _name_bad_pair(order: list) -> None:
    for i, pair in enumerate(order):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(h, str) for h in pair)):
            raise InvalidInput(f"order[{i}] must be a pair of halfspace ids")


_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def dump_pocset(P: WeightedPocset) -> dict:
    """The file of ``P``.  Row i's order pairs select their ids out of
    ``P.ids`` by the row's bits as 0/1 bytes; since the canonical index is
    in sorted id order, the pairs come out sorted by (ids[i], ids[j])."""
    walls = []
    for pos, (i, j) in enumerate(P.walls):
        walls.append({
            "id": P.wall_ids[pos],
            "pos": P.ids[i],
            "neg": P.ids[j],
            "weight": str(P.weight[i]),
        })
    fmt = f"0{P.n}b"
    order = [[a, b] for i, a in enumerate(P.ids) for b in compress(
        P.ids, format(P.up[i] & ~(1 << i), fmt)[::-1].encode().translate(_SELECTORS))]
    return {"walls": walls, "order": order}


# -- automorphisms --------------------------------------------------------------

def load_automorphism(P: WeightedPocset, data: dict) -> Automorphism:
    (mapping,) = _fields(data, "automorphism file", "map")
    return Automorphism.from_mapping(P, _id_map(mapping, "map"),
                                     _id(data.get("name", "g"), "name"))


def add_generator(gens: dict, name: str, g: Automorphism) -> None:
    """Adds ``g`` to ``gens`` under ``name``, which must be new."""
    if name in gens:
        raise InvalidInput(f"generator name {name!r} is used twice")
    gens[name] = g


# -- window actions --------------------------------------------------------------

def load_window_action(data: dict, budgets: Budgets = DEFAULT_BUDGETS,
                       check: Optional[Budgets] = None) -> WindowAction:
    """The window action of ``data``; with ``check``, the window's pocset
    must pass ``ensure_valid`` under those budgets before any map is built
    on it."""
    window, maps = _fields(data, "window-action file", "window", "maps")
    P = load_pocset(window)
    if check is not None:
        ensure_valid(P, check)
    gens = {}
    for i, m in enumerate(_array(maps, "maps")):
        name, mapping = _fields(m, f"maps[{i}]", "name", "map")
        mapping = _id_map(mapping, f"maps[{i}].map")
        domain = m.get("domain")
        if domain is not None:
            domain = {_id(h, f"maps[{i}].domain") for h in _array(domain, f"maps[{i}].domain")}
            mapping = {k: v for k, v in mapping.items() if k in domain}
        add_generator(gens, _id(name, f"maps[{i}].name"),
                      Automorphism.from_mapping(P, mapping, name))
    return WindowAction(P, gens, budgets=budgets)


def dump_window_action(action: WindowAction) -> dict:
    maps = []
    P = action.pocset
    for name, g in action.gens.items():
        mapping = {P.ids[a]: P.ids[b] for a, b in enumerate(g.perm) if b is not None}
        maps.append({"name": name, "map": mapping, "domain": sorted(mapping)})
    return {"window": dump_pocset(P), "maps": maps}


# -- chain systems ----------------------------------------------------------------

_REL_CODES = {"sub": SUB, "sup": SUP, "trans": TRANS, "transverse": TRANS}


def _rel_code(text, where: str) -> str:
    if not isinstance(text, str) or text not in _REL_CODES:
        raise InvalidInput(f"bad relation code {text!r} at {where}")
    return _REL_CODES[text]


def load_chain_system(data: dict) -> ChainSystem:
    (entries,) = _fields(data, "chain-system file", "chains")
    chains = []
    for i, c in enumerate(_array(entries, "chains")):
        cid, period, weights = _fields(c, f"chains[{i}]", "id", "period", "weights")
        head_weights = c.get("headWeights", [])
        chains.append(Chain(
            _id(cid, f"chains[{i}].id"), parse_int(period, f"chains[{i}].period"),
            tuple(parse_fraction(w, f"chains[{i}].weights")
                  for w in _array(weights, f"chains[{i}].weights")),
            tuple(parse_fraction(w, f"chains[{i}].headWeights")
                  for w in _array(head_weights, f"chains[{i}].headWeights")),
        ))
    rel = _object(data.get("rel", {}), "rel")
    head = {}
    for i, entry in enumerate(_array(rel.get("head", []), "rel.head")):
        where = f"rel.head[{i}]"
        if not isinstance(entry, list) or len(entry) != 5:
            raise InvalidInput(f"{where} must be [chain, n, chain, m, rel]")
        ci, n, cj, m, code = entry
        head[(_id(ci, where), parse_int(n, where), _id(cj, where), parse_int(m, where))] = \
            _rel_code(code, where)
    zones = {}
    rows = []
    for i, entry in enumerate(_array(rel.get("periodic", []), "rel.periodic")):
        where = f"rel.periodic[{i}]"
        ci, cj, rule = _fields(entry, where, "from", "to", "rule")
        ci, cj = _id(ci, f"{where}.from"), _id(cj, f"{where}.to")
        if "fromIndex" in entry:
            lo, hi = _index_range(entry.get("toRange", [0, None]), f"{where}.toRange")
            rows.append(RowRule(
                ci, parse_int(entry["fromIndex"], f"{where}.fromIndex"), cj,
                _rel_code(rule, where), parse_int(lo, f"{where}.toRange"), hi))
            continue
        lo, hi = _index_range(entry.get("offsetRange", [None, None]),
                              f"{where}.offsetRange")
        zones.setdefault((ci, cj), []).append(Zone(lo, hi, _rel_code(rule, where)))
    zones = {k: tuple(sorted(v, key=lambda z: (z.lo is not None, z.lo or 0)))
             for k, v in zones.items()}
    return ChainSystem(chains, zones=zones, rows=rows, head=head,
                       name=data.get("name", ""))


def dump_chain_system(S: ChainSystem) -> dict:
    chains = []
    for cid in S.chain_order:
        c = S.chains[cid]
        chains.append({
            "id": c.id,
            "period": c.period,
            "weights": [str(w) for w in c.weights],
            "headWeights": [str(w) for w in c.head_weights],
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
    tau, shift = _fields(data, "shift-map file", "tau", "shift")
    return ShiftMap(dict(_id_map(tau, "tau")),
                    {k: parse_int(v, f"shift.{k}")
                     for k, v in _object(shift, "shift").items()},
                    parse_int(data.get("minIndex", 0), "minIndex"))


def read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} line {exc.lineno}: {exc.msg}")
