"""Command-line front end.

JSON reports go to stdout, a one-line human summary to stderr.  Exit codes:
0 success/verified, 2 definitive negative, 3 inconclusive, 64 usage error,
65 invalid input.  Identical invocations produce byte-identical reports
apart from the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from . import __version__
from .actions import (
    TotalAction,
    classify,
    double_skewer,
    facing_tuple,
    find_flip,
    is_lineal,
    min_orbit,
    parse_word,
    pingpong,
    sector_halfspace,
    wall_inversions,
    word_str,
)
from .boundary import (
    class_characters,
    dot_export,
    ubs_graph,
    validate_shift,
    validate_system,
    validate_system_rules,
)
from .config import DEFAULT_BUDGETS, budget_overrides
from .errors import MedianKitError
from .pocset import (
    distance,
    ensure_valid,
    median,
    point_from_ids,
    points,
    separating,
    validate,
)
from .structure import decompose, rank
from .subdivision import atom_mass, tower
from . import fixtures
from . import serialize
from . import verification

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_INVALID = 65


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_START = [time.time()]


def _emit(report: dict, summary: str, code: int) -> int:
    report.setdefault("tool", {"name": "mediankit", "version": __version__})
    report["timing"] = {"seconds": round(time.time() - _START[0], 6)}
    print(json.dumps(report, sort_keys=True, indent=2))
    print(summary, file=sys.stderr)
    return code


def _read_pocset(args):
    if args.fixture:
        P = fixtures.pocset(args.fixture)
        src = {"fixture": args.fixture}
    elif args.pocset:
        data = serialize.read_json(args.pocset)
        P = serialize.load_pocset(data)
        src = {"file": args.pocset, "digest": _digest(data)}
    else:
        raise MedianKitError("need --fixture or --pocset")
    return P, src


def _load_pocset(args):
    """The pocset of ``--fixture`` or ``--pocset``; a file must pass
    validation (exit 65 with the report) before anything is computed."""
    P, src = _read_pocset(args)
    if args.pocset:
        ensure_valid(P, _budgets(args))
    return P, src


def _load_action(args):
    """The action of ``--window``, ``--auto-file`` or ``--fixture``, rebuilt
    with the ``MEDIANKIT_BUDGET`` overrides on its own budgets (fixture
    actions are cached, so they are never changed in place)."""
    if args.window:
        data = serialize.read_json(args.window)
        action = serialize.load_window_action(data, fixtures.WINDOW_BUDGETS)
        src = {"file": args.window, "digest": _digest(data)}
    elif args.auto_file:
        P, src = _load_pocset(args)
        gens = {}
        for path in args.auto_file:
            g = serialize.load_automorphism(P, serialize.read_json(path))
            gens[g.name] = g
        action = TotalAction(P, gens)
        src = dict(src, automorphismFiles=list(args.auto_file))
    elif args.fixture in fixtures.WINDOW_FIXTURES:
        action, src = fixtures.window(args.fixture), {"windowFixture": args.fixture}
    elif args.fixture:
        gens = tuple(args.gens.split(",")) if args.gens else ()
        action = fixtures.total_action(args.fixture, gens)
        src = {"fixture": args.fixture, "gens": list(gens)}
    else:
        raise MedianKitError("need --fixture or --window")
    return type(action)(action.pocset, action.gens,
                        _budgets(args, action.budgets)), src


def _load_system(args):
    name = args.system or args.fixture
    if name and not args.system_file:
        return fixtures.chain_system(name), {"systemFixture": name}
    if args.system_file:
        data = serialize.read_json(args.system_file)
        return serialize.load_chain_system(data), \
            {"file": args.system_file, "digest": _digest(data)}
    raise MedianKitError("need --system or --system-file")


def _budgets(args, base=DEFAULT_BUDGETS):
    return base.with_(**args.budget_overrides)


def _points_by_ids(P, text):
    ids = [h for h in text.split(",") if h]
    return point_from_ids(P, ids)


def cmd_validate(args) -> int:
    P, src = _read_pocset(args)
    rep = validate(P, _budgets(args))
    out = {"command": "validate", "inputs": src}
    out["verdict"] = rep.to_json()
    code = EXIT_OK if rep.ok else EXIT_INVALID
    return _emit(out, f"validate: {'ok' if rep.ok else 'INVALID'}", code)


def cmd_points(args) -> int:
    P, src = _load_pocset(args)
    pts = points(P, _budgets(args))
    out = {"command": "points", "inputs": src}
    out["verdict"] = {"count": len(pts),
                      "points": [sorted(p.ids) for p in pts]}
    return _emit(out, f"points: {len(pts)}", EXIT_OK)


def cmd_median(args) -> int:
    P, src = _load_pocset(args)
    x = _points_by_ids(P, args.x)
    y = _points_by_ids(P, args.y)
    z = _points_by_ids(P, args.z)
    m = median(P, x, y, z)
    out = {"command": "median", "inputs": src}
    out["verdict"] = {"median": sorted(m.ids)}
    return _emit(out, "median computed", EXIT_OK)


def cmd_distance(args) -> int:
    P, src = _load_pocset(args)
    x = _points_by_ids(P, args.x)
    y = _points_by_ids(P, args.y)
    d = distance(P, x, y)
    out = {"command": "distance", "inputs": src}
    out["verdict"] = {"distance": str(d),
                      "separating": list(separating(P, x, y))}
    return _emit(out, f"distance = {d}", EXIT_OK)


def cmd_rank(args) -> int:
    P, src = _load_pocset(args)
    r = rank(P, _budgets(args))
    out = {"command": "rank", "inputs": src}
    out["verdict"] = {"rank": r}
    return _emit(out, f"rank = {r}", EXIT_OK)


def cmd_decompose(args) -> int:
    P, src = _load_pocset(args)
    D = decompose(P)
    out = {"command": "decompose", "inputs": src}
    out["verdict"] = D.to_json()
    out["verdict"]["irreducible"] = len(D.factors) == 1
    return _emit(out, f"{len(D.factors)} irreducible factor(s)", EXIT_OK)


def cmd_subdivide(args) -> int:
    P, src = _load_pocset(args)
    stages = tower(P, args.n, _budgets(args))
    child = stages[-1].child if stages else P
    out = {"command": "subdivide", "inputs": src}
    out["verdict"] = {
        "depth": args.n,
        "pocset": serialize.dump_pocset(child),
        "projection": {child.ids[c]: stages[-1].parent.ids[i]
                       for i, pair in enumerate(stages[-1].copies)
                       for c in pair} if stages else {},
        "atomMass": str(atom_mass(child)),
    }
    return _emit(out, f"subdivided to depth {args.n}: {child.wall_count} walls",
                 EXIT_OK)


def cmd_orbits(args) -> int:
    action, src = _load_action(args)
    if not isinstance(action, TotalAction):
        raise MedianKitError("orbits needs a total action (fixture with --gens)")
    orb = min_orbit(action)
    r = rank(action.pocset, action.budgets)
    out = {"command": "orbits", "inputs": src}
    out["verdict"] = {"minOrbit": orb.to_json(), "rank": r,
                      "bound": 2 ** r, "withinBound": orb.size <= 2 ** r}
    return _emit(out, f"minimum orbit size {orb.size} (bound {2 ** r})", EXIT_OK)


def cmd_flip(args) -> int:
    action, src = _load_action(args)
    res = find_flip(action, args.halfspace, args.max_word_len)
    out = {"command": "flip", "inputs": src}
    out["verdict"] = res.to_json()
    if args.verify and res.kind == "FLIPPED":
        g = action.evaluate(res.word)
        img = g.apply_idx(action.pocset.idx(action.pocset.star_of(args.halfspace)))
        out["verify"] = verification.verify_flip(
            action.pocset, args.halfspace, action.pocset.ids[img])
    code = EXIT_OK if res.kind in ("FLIPPED", "INVARIANT_SET") else EXIT_INCONCLUSIVE
    return _emit(out, f"flip: {res.kind}", code)


def cmd_skewer(args) -> int:
    action, src = _load_action(args)
    h, k = args.pair.split(",")
    res = double_skewer(action, h, k, args.max_word_len)
    out = {"command": "skewer", "inputs": src}
    out["verdict"] = res.to_json()
    if args.verify and res.kind == "SKEWERED":
        out["verify"] = verification.verify_skewer(action.pocset, h, k, res.image)
    code = EXIT_OK if res.kind == "SKEWERED" else EXIT_INCONCLUSIVE
    return _emit(out, f"skewer: {res.kind}", code)


def cmd_facing(args) -> int:
    try:
        action, src = _load_action(args)
        P = action.pocset
    except MedianKitError:
        action = None
        P, src = _load_pocset(args)
    res = facing_tuple(P, args.tuple_size, seed=args.halfspace or None,
                       strong=args.strong, action=action,
                       max_len=args.max_word_len)
    out = {"command": "facing", "inputs": src}
    out["verdict"] = res.to_json()
    if args.verify and res.kind == "FOUND":
        out["verify"] = verification.verify_facing(P, res.tuple_ids, args.strong)
    code = {"FOUND": EXIT_OK, "NOT_FOUND": EXIT_NEGATIVE}.get(res.kind, EXIT_INCONCLUSIVE)
    return _emit(out, f"facing: {res.kind}", code)


def cmd_sectors(args) -> int:
    P, src = _load_pocset(args)
    h, k = args.pair.split(",")
    res = sector_halfspace(P, h, k)
    out = {"command": "sectors", "inputs": src}
    out["verdict"] = res.to_json()
    return _emit(out, f"sectors: {res.kind}", EXIT_OK)


def cmd_free_cert(args) -> int:
    action, src = _load_action(args)
    names = action.gen_names()
    a = parse_word(args.a, names)
    b = parse_word(args.b, names)
    cert = pingpong(action, a, b, args.h, args.k, args.max_word_len)
    out = {"command": "free-cert", "inputs": src}
    out["verdict"] = cert.to_json()
    if args.verify:
        out["verify"] = verification.verify_facing(
            action.pocset, cert.facing_tuple, strong=False)
    code = EXIT_OK if cert.verified else EXIT_INCONCLUSIVE
    return _emit(out, f"free-cert: {'VERIFIED' if cert.verified else 'INCOMPLETE'}",
                 code)


def cmd_lineal(args) -> int:
    P, src = _load_pocset(args)
    res = is_lineal(P, _budgets(args))
    out = {"command": "lineal", "inputs": src}
    out["verdict"] = res.to_json()
    return _emit(out, f"lineal: {res.found} ({len(res.pairs)} pair(s))",
                 EXIT_OK if res.found else EXIT_NEGATIVE)


def cmd_classify(args) -> int:
    action, src = _load_action(args)
    rep = classify(action, args.max_word_len)
    out = {"command": "classify", "inputs": src}
    out["verdict"] = rep.to_json()
    code = EXIT_OK if rep.kind != "INCONCLUSIVE" else EXIT_INCONCLUSIVE
    return _emit(out, f"classify: {rep.kind} (stage {rep.stage})", code)


def cmd_inversions(args) -> int:
    action, src = _load_action(args)
    word = parse_word(args.word, action.gen_names())
    inv, undecided = wall_inversions(action, word)
    out = {"command": "inversions", "inputs": src}
    out["verdict"] = {"word": word_str(word), "inverted": list(inv),
                      "undecided": undecided}
    return _emit(out, f"{len(inv)} wall inversion(s)", EXIT_OK)


def cmd_ubs_validate(args) -> int:
    S, src = _load_system(args)
    rep = validate_system(S)
    out = {"command": "ubs-validate", "inputs": src}
    out["verdict"] = rep.to_json()
    return _emit(out, f"ubs-validate: {'ok' if rep.ok else 'INVALID'}",
                 EXIT_OK if rep.ok else EXIT_INVALID)


def cmd_ubs_graph(args) -> int:
    S, src = _load_system(args)
    out = {"command": "ubs-graph", "inputs": src}
    rep = validate_system_rules(S)
    if not rep.ok:
        out["verdict"] = rep.to_json()
        return _emit(out, "ubs-graph: INVALID", EXIT_INVALID)
    G = ubs_graph(S)
    out["verdict"] = G.to_json()
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_export(G))
        out["verdict"]["dotFile"] = args.dot
    return _emit(out, f"{len(G.vertices)} vertices, {len(G.edges)} edge(s)",
                 EXIT_OK)


def cmd_ubs_chi(args) -> int:
    S, src = _load_system(args)
    out = {"command": "ubs-chi", "inputs": src}
    rep = validate_system_rules(S)
    if not rep.ok:
        out["verdict"] = rep.to_json()
        return _emit(out, "ubs-chi: INVALID", EXIT_INVALID)
    g = serialize.load_shift_map(serialize.read_json(args.shift))
    G = ubs_graph(S)
    validate_shift(S, g)
    vec = class_characters(S, G, g)
    out["verdict"] = {
        "classes": list(G.vertex_labels()),
        "chi": [str(v) for v in vec],
        "kernel": all(v == 0 for v in vec),
    }
    return _emit(out, f"chi = ({', '.join(str(v) for v in vec)})", EXIT_OK)


def cmd_acceptance(args) -> int:
    from . import acceptance
    results = acceptance.run_all()
    out = {
        "command": "acceptance",
        "inputs": {},
        "verdict": {
            "passed": all(r.passed for r in results),
            "criteria": [r.to_json() for r in results],
        },
    }
    ok = all(r.passed for r in results)
    return _emit(out, f"acceptance: {'PASS' if ok else 'FAIL'}",
                 EXIT_OK if ok else EXIT_NEGATIVE)


def cmd_dump_fixture(args) -> int:
    name = args.name
    kind = args.kind
    out = {"command": "dump-fixture", "inputs": {"name": name, "kind": kind}}
    if name in fixtures.POCSET_FIXTURES and kind in (None, "pocset"):
        out["verdict"] = {"kind": "pocset",
                          "pocset": serialize.dump_pocset(fixtures.pocset(name))}
    elif name in fixtures.WINDOW_FIXTURES and kind in (None, "window"):
        out["verdict"] = {"kind": "window",
                          "window": serialize.dump_window_action(fixtures.window(name))}
    elif name in fixtures.SYSTEM_FIXTURES and kind in (None, "system"):
        out["verdict"] = {"kind": "chainSystem",
                          "system": serialize.dump_chain_system(fixtures.chain_system(name))}
    else:
        raise MedianKitError(f"unknown fixture {name!r} (kind {kind or 'any'})")
    return _emit(out, f"dumped {name}", EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mediankit",
        description="Finite weighted pocsets, median geometry, group actions "
                    "and boundary chain calculus.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--fixture", help="built-in fixture name")
        p.add_argument("--pocset", help="pocset JSON file")
        p.add_argument("--verify", action="store_true",
                       help="re-check the certificate using core primitives only")

    p = sub.add_parser("validate", help="check pocset axioms")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("points", help="enumerate ultrafilter points")
    common(p)
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("median", help="median of three points")
    common(p)
    for v in "xyz":
        p.add_argument(f"--{v}", required=True,
                       help="comma-separated halfspace ids of the point")
    p.set_defaults(fn=cmd_median)

    p = sub.add_parser("distance", help="distance between two points")
    common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("rank", help="maximal transverse family size")
    common(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("decompose", help="irreducible product factors")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("subdivide", help="barycentric subdivision tower")
    common(p)
    p.add_argument("-n", type=int, default=1, help="tower depth")
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("orbits", help="minimum orbit of a total action")
    common(p)
    p.add_argument("--gens", help="comma-separated automorphism names")
    p.add_argument("--auto-file", action="append",
                   help="automorphism JSON file (repeatable)")
    p.add_argument("--window", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_orbits)

    def action_common(p):
        common(p)
        p.add_argument("--gens", help="comma-separated automorphism names")
        p.add_argument("--auto-file", action="append",
                       help="automorphism JSON file (repeatable)")
        p.add_argument("--window", help="window-action JSON file")
        p.add_argument("--max-word-len", type=int, default=None)

    p = sub.add_parser("flip", help="flipping search for a halfspace")
    action_common(p)
    p.add_argument("--halfspace", required=True)
    p.set_defaults(fn=cmd_flip)

    p = sub.add_parser("skewer", help="double-skewering search")
    action_common(p)
    p.add_argument("--pair", required=True, help="h,k with h contained in k")
    p.set_defaults(fn=cmd_skewer)

    p = sub.add_parser("facing", help="facing tuple search")
    action_common(p)
    p.add_argument("--tuple-size", type=int, default=3)
    p.add_argument("--halfspace", help="optional seed halfspace")
    p.add_argument("--strong", action="store_true",
                   help="require pairwise strong separation")
    p.set_defaults(fn=cmd_facing)

    p = sub.add_parser("sectors", help="sector halfspace or product witness")
    common(p)
    p.add_argument("--pair", required=True, help="transverse pair h,k")
    p.set_defaults(fn=cmd_sectors)

    p = sub.add_parser("free-cert", help="ping-pong free-subgroup certificate")
    action_common(p)
    p.add_argument("--a", required=True, help="word for the first generator")
    p.add_argument("--b", required=True, help="word for the second generator")
    p.add_argument("--h", required=True, dest="h")
    p.add_argument("--k", required=True, dest="k")
    p.set_defaults(fn=cmd_free_cert)

    p = sub.add_parser("lineal", help="endpoints certifying lineality")
    common(p)
    p.set_defaults(fn=cmd_lineal)

    p = sub.add_parser("classify", help="elementary-or-free pipeline")
    action_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("inversions", help="wall inversions of a word")
    action_common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_inversions)

    def system_common(p):
        p.add_argument("--fixture", help="chain-system fixture name")
        p.add_argument("--system", help="chain-system fixture name")
        p.add_argument("--system-file", help="chain-system JSON file")

    p = sub.add_parser("ubs-validate", help="validate a chain system")
    system_common(p)
    p.set_defaults(fn=cmd_ubs_validate)

    p = sub.add_parser("ubs-graph", help="directed graph on minimal classes")
    system_common(p)
    p.add_argument("--dot", help="write DOT to this file")
    p.set_defaults(fn=cmd_ubs_graph)

    p = sub.add_parser("ubs-chi", help="transfer-character vector of a shift map")
    system_common(p)
    p.add_argument("--shift", required=True, help="shift-map JSON file")
    p.set_defaults(fn=cmd_ubs_chi)

    p = sub.add_parser("acceptance", help="run the full acceptance suite")
    p.set_defaults(fn=cmd_acceptance)

    p = sub.add_parser("dump-fixture", help="emit a fixture in file format")
    p.add_argument("name")
    p.add_argument("--kind", choices=("pocset", "window", "system"),
                   help="disambiguate names shared across fixture kinds")
    p.set_defaults(fn=cmd_dump_fixture)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    t0 = time.time()
    _START[0] = t0
    try:
        args.budget_overrides = budget_overrides()
        code = args.fn(args)
    except MedianKitError as exc:
        report = {
            "command": args.cmd,
            "error": {"code": exc.code, "message": str(exc),
                      "data": exc.data},
        }
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        inconclusive = {"OUT_OF_WINDOW", "DISPLACEMENT_TOO_SMALL",
                        "WALL_BUDGET_EXCEEDED", "HORIZON_EXCEEDED"}
        negative = {"NOT_FACING", "NOT_TRANSVERSE", "INCLUSION_FAILED",
                    "CLASS_NOT_PRESERVED", "CLASS_PERMUTED"}
        if exc.code in inconclusive:
            return EXIT_INCONCLUSIVE
        if exc.code in negative:
            return EXIT_NEGATIVE
        return EXIT_INVALID
    finally:
        elapsed = time.time() - t0
        print(f"[{elapsed:.3f}s]", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
