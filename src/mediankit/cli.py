"""Command-line front end.

JSON reports go to stdout, a one-line human summary to stderr.  Exit codes:
0 success/verified, 2 definitive negative, 3 inconclusive, 64 usage error,
65 invalid input.  Each command reads exactly one input source; none or
two is a usage error.  Identical invocations produce byte-identical reports
apart from the timing field.
"""

from __future__ import annotations

import argparse
import functools
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
from .errors import InvalidInput, MedianKitError
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


def _emit(args, src: dict, verdict: dict, summary: str, code: int, **extra) -> int:
    """Print the report of ``args.cmd`` on ``src`` and its summary line."""
    report = {"command": args.cmd, "inputs": src, "verdict": verdict,
              "tool": {"name": "mediankit", "version": __version__},
              "timing": {"seconds": round(time.time() - args.start, 6)},
              **extra}
    print(json.dumps(report, sort_keys=True, indent=2))
    print(summary, file=sys.stderr)
    return code


def _load_pocset(args, checked=True):
    """The pocset of ``--fixture`` or ``--pocset``; a ``checked`` file must
    pass validation (exit 65 with the report) before anything is computed."""
    if args.fixture:
        return fixtures.pocset(args.fixture), {"fixture": args.fixture}
    data = serialize.read_json(args.pocset)
    P = serialize.load_pocset(data)
    if checked:
        ensure_valid(P, _budgets(args))
    return P, {"file": args.pocset, "digest": _digest(data)}


def _load_action(args):
    """The action of the run's source and its automorphisms, rebuilt with the
    ``MEDIANKIT_BUDGET`` overrides on its own budgets (fixture actions are
    cached, so they are never changed in place).  ``--gens`` picks those of
    a total-action fixture, ``--auto-file`` gives those of a pocset."""
    total_fixture = args.fixture and args.fixture not in fixtures.WINDOW_FIXTURES
    if args.gens and (args.auto_file or not total_fixture):
        raise InvalidInput("--gens needs a total-action fixture and no --auto-file")
    if getattr(args, "window", None):
        if args.auto_file:
            raise InvalidInput("--auto-file needs --fixture or --pocset")
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
    elif total_fixture:
        gens = tuple(args.gens.split(",")) if args.gens else ()
        action = fixtures.total_action(args.fixture, gens)
        src = {"fixture": args.fixture, "gens": list(gens)}
    elif args.fixture:
        action, src = fixtures.window(args.fixture), {"windowFixture": args.fixture}
    else:
        raise InvalidInput("--pocset needs --auto-file to give an action")
    return type(action)(action.pocset, action.gens,
                        _budgets(args, action.budgets)), src


def _load_system(args):
    if args.system:
        return fixtures.chain_system(args.system), {"systemFixture": args.system}
    data = serialize.read_json(args.system_file)
    return serialize.load_chain_system(data), \
        {"file": args.system_file, "digest": _digest(data)}


def _budgets(args, base=DEFAULT_BUDGETS):
    return base.with_(**args.budget_overrides)


def _points_by_ids(P, text):
    ids = [h for h in text.split(",") if h]
    return point_from_ids(P, ids)


def cmd_validate(args) -> int:
    P, src = _load_pocset(args, checked=False)
    rep = validate(P, _budgets(args))
    code = EXIT_OK if rep.ok else EXIT_INVALID
    return _emit(args, src, rep.to_json(),
                 f"validate: {'ok' if rep.ok else 'INVALID'}", code)


def cmd_points(args) -> int:
    P, src = _load_pocset(args)
    pts = points(P, _budgets(args))
    verdict = {"count": len(pts), "points": [sorted(p.ids) for p in pts]}
    return _emit(args, src, verdict, f"points: {len(pts)}", EXIT_OK)


def cmd_median(args) -> int:
    P, src = _load_pocset(args)
    x, y, z = (_points_by_ids(P, ids) for ids in (args.x, args.y, args.z))
    m = median(P, x, y, z)
    return _emit(args, src, {"median": sorted(m.ids)}, "median computed", EXIT_OK)


def cmd_distance(args) -> int:
    P, src = _load_pocset(args)
    x, y = (_points_by_ids(P, ids) for ids in (args.x, args.y))
    d = distance(P, x, y)
    verdict = {"distance": str(d), "separating": list(separating(P, x, y))}
    return _emit(args, src, verdict, f"distance = {d}", EXIT_OK)


def cmd_rank(args) -> int:
    P, src = _load_pocset(args)
    r = rank(P, _budgets(args))
    return _emit(args, src, {"rank": r}, f"rank = {r}", EXIT_OK)


def cmd_decompose(args) -> int:
    P, src = _load_pocset(args)
    D = decompose(P)
    verdict = D.to_json()
    verdict["irreducible"] = len(D.factors) == 1
    return _emit(args, src, verdict, f"{len(D.factors)} irreducible factor(s)",
                 EXIT_OK)


def cmd_subdivide(args) -> int:
    P, src = _load_pocset(args)
    stages = tower(P, args.n, _budgets(args))
    child = stages[-1].child if stages else P
    verdict = {
        "depth": args.n,
        "pocset": serialize.dump_pocset(child),
        "projection": {child.ids[c]: stages[-1].parent.ids[i]
                       for i, pair in enumerate(stages[-1].copies)
                       for c in pair} if stages else {},
        "atomMass": str(atom_mass(child)),
    }
    return _emit(args, src, verdict,
                 f"subdivided to depth {args.n}: {child.wall_count} walls", EXIT_OK)


def cmd_orbits(args) -> int:
    action, src = _load_action(args)
    orb = min_orbit(action)
    r = rank(action.pocset, action.budgets)
    verdict = {"minOrbit": orb.to_json(), "rank": r,
               "bound": 2 ** r, "withinBound": orb.size <= 2 ** r}
    return _emit(args, src, verdict,
                 f"minimum orbit size {orb.size} (bound {2 ** r})", EXIT_OK)


def cmd_flip(args) -> int:
    action, src = _load_action(args)
    res = find_flip(action, args.halfspace, args.max_word_len)
    extra = {}
    if args.verify and res.kind == "FLIPPED":
        g = action.evaluate(res.word)
        img = g.apply_idx(action.pocset.idx(action.pocset.star_of(args.halfspace)))
        extra["verify"] = verification.verify_flip(
            action.pocset, args.halfspace, action.pocset.ids[img])
    code = EXIT_OK if res.kind in ("FLIPPED", "INVARIANT_SET") else EXIT_INCONCLUSIVE
    return _emit(args, src, res.to_json(), f"flip: {res.kind}", code, **extra)


def cmd_skewer(args) -> int:
    action, src = _load_action(args)
    h, k = args.pair.split(",")
    res = double_skewer(action, h, k, args.max_word_len)
    extra = {}
    if args.verify and res.kind == "SKEWERED":
        extra["verify"] = verification.verify_skewer(action.pocset, h, k, res.image)
    code = EXIT_OK if res.kind == "SKEWERED" else EXIT_INCONCLUSIVE
    return _emit(args, src, res.to_json(), f"skewer: {res.kind}", code, **extra)


def cmd_facing(args) -> int:
    # --pocset alone gives no action (_load_action rejects it with --gens)
    if args.pocset and not (args.auto_file or args.gens):
        action, (P, src) = None, _load_pocset(args)
    else:
        action, src = _load_action(args)
        P = action.pocset
    res = facing_tuple(P, args.tuple_size, seed=args.halfspace or None,
                       strong=args.strong, action=action,
                       max_len=args.max_word_len)
    extra = {}
    if args.verify and res.kind == "FOUND":
        extra["verify"] = verification.verify_facing(P, res.tuple_ids, args.strong)
    code = {"FOUND": EXIT_OK, "NOT_FOUND": EXIT_NEGATIVE}.get(res.kind, EXIT_INCONCLUSIVE)
    return _emit(args, src, res.to_json(), f"facing: {res.kind}", code, **extra)


def cmd_sectors(args) -> int:
    P, src = _load_pocset(args)
    h, k = args.pair.split(",")
    res = sector_halfspace(P, h, k)
    return _emit(args, src, res.to_json(), f"sectors: {res.kind}", EXIT_OK)


def cmd_free_cert(args) -> int:
    action, src = _load_action(args)
    names = action.gen_names()
    a = parse_word(args.a, names)
    b = parse_word(args.b, names)
    cert = pingpong(action, a, b, args.h, args.k, args.max_word_len)
    extra = {}
    if args.verify:
        extra["verify"] = verification.verify_facing(
            action.pocset, cert.facing_tuple, strong=False)
    code = EXIT_OK if cert.verified else EXIT_INCONCLUSIVE
    return _emit(args, src, cert.to_json(),
                 f"free-cert: {'VERIFIED' if cert.verified else 'INCOMPLETE'}",
                 code, **extra)


def cmd_lineal(args) -> int:
    P, src = _load_pocset(args)
    res = is_lineal(P, _budgets(args))
    return _emit(args, src, res.to_json(),
                 f"lineal: {res.found} ({len(res.pairs)} pair(s))",
                 EXIT_OK if res.found else EXIT_NEGATIVE)


def cmd_classify(args) -> int:
    action, src = _load_action(args)
    rep = classify(action, args.max_word_len)
    code = EXIT_OK if rep.kind != "INCONCLUSIVE" else EXIT_INCONCLUSIVE
    return _emit(args, src, rep.to_json(),
                 f"classify: {rep.kind} (stage {rep.stage})", code)


def cmd_inversions(args) -> int:
    action, src = _load_action(args)
    word = parse_word(args.word, action.gen_names())
    inv, undecided = wall_inversions(action, word)
    verdict = {"word": word_str(word), "inverted": list(inv),
               "undecided": undecided}
    return _emit(args, src, verdict, f"{len(inv)} wall inversion(s)", EXIT_OK)


def cmd_ubs_validate(args) -> int:
    S, src = _load_system(args)
    rep = validate_system(S)
    return _emit(args, src, rep.to_json(),
                 f"ubs-validate: {'ok' if rep.ok else 'INVALID'}",
                 EXIT_OK if rep.ok else EXIT_INVALID)


def cmd_ubs_graph(args) -> int:
    S, src = _load_system(args)
    rep = validate_system_rules(S)
    if not rep.ok:
        return _emit(args, src, rep.to_json(), "ubs-graph: INVALID", EXIT_INVALID)
    G = ubs_graph(S)
    verdict = G.to_json()
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_export(G))
        verdict["dotFile"] = args.dot
    return _emit(args, src, verdict,
                 f"{len(G.vertices)} vertices, {len(G.edges)} edge(s)", EXIT_OK)


def cmd_ubs_chi(args) -> int:
    S, src = _load_system(args)
    rep = validate_system_rules(S)
    if not rep.ok:
        return _emit(args, src, rep.to_json(), "ubs-chi: INVALID", EXIT_INVALID)
    g = serialize.load_shift_map(serialize.read_json(args.shift))
    G = ubs_graph(S)
    validate_shift(S, g)
    vec = class_characters(S, G, g)
    verdict = {
        "classes": list(G.vertex_labels()),
        "chi": [str(v) for v in vec],
        "kernel": all(v == 0 for v in vec),
    }
    return _emit(args, src, verdict,
                 f"chi = ({', '.join(str(v) for v in vec)})", EXIT_OK)


def cmd_acceptance(args) -> int:
    from . import acceptance
    results = acceptance.run_all()
    ok = all(r.passed for r in results)
    verdict = {"passed": ok, "criteria": [r.to_json() for r in results]}
    return _emit(args, {}, verdict, f"acceptance: {'PASS' if ok else 'FAIL'}",
                 EXIT_OK if ok else EXIT_NEGATIVE)


def cmd_dump_fixture(args) -> int:
    name = args.name
    kind = args.kind
    if name in fixtures.POCSET_FIXTURES and kind in (None, "pocset"):
        verdict = {"kind": "pocset",
                   "pocset": serialize.dump_pocset(fixtures.pocset(name))}
    elif name in fixtures.WINDOW_FIXTURES and kind in (None, "window"):
        verdict = {"kind": "window",
                   "window": serialize.dump_window_action(fixtures.window(name))}
    elif name in fixtures.SYSTEM_FIXTURES and kind in (None, "system"):
        verdict = {"kind": "chainSystem",
                   "system": serialize.dump_chain_system(fixtures.chain_system(name))}
    else:
        raise MedianKitError(f"unknown fixture {name!r} (kind {kind or 'any'})")
    return _emit(args, {"name": name, "kind": kind}, verdict, f"dumped {name}",
                 EXIT_OK)


POCSET_SOURCES = {"--fixture": "built-in fixture name", "--pocset": "pocset JSON file"}
ACTION_SOURCES = {**POCSET_SOURCES, "--window": "window-action JSON file"}
SYSTEM_SOURCES = {"--system": "chain-system fixture name",
                  "--system-file": "chain-system JSON file"}
OPTIONS = {
    "--gens": {"help": "comma-separated automorphism names of a total-action fixture"},
    "--auto-file": {"action": "append", "help": "automorphism JSON file (repeatable)"},
    "--max-word-len": {"type": int, "default": None},
    "--verify": {"action": "store_true",
                 "help": "re-check the certificate using core primitives only"},
}
ACTION = ("--gens", "--auto-file")
SEARCH = ACTION + ("--max-word-len",)
CERTIFICATE = SEARCH + ("--verify",)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mediankit",
        description="Finite weighted pocsets, median geometry, group actions "
                    "and boundary chain calculus.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, fn, help, sources=(), options=()):
        """A subcommand that reads exactly one of ``sources`` and the shared
        ``options``."""
        p = sub.add_parser(name, help=help)
        if sources:
            group = p.add_mutually_exclusive_group(required=True)
            for flag in sources:
                group.add_argument(flag, help=sources[flag])
        for flag in options:
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(fn=fn)
        return p

    command("validate", cmd_validate, "check pocset axioms", POCSET_SOURCES)
    command("points", cmd_points, "enumerate ultrafilter points", POCSET_SOURCES)

    p = command("median", cmd_median, "median of three points", POCSET_SOURCES)
    for v in "xyz":
        p.add_argument(f"--{v}", required=True,
                       help="comma-separated halfspace ids of the point")

    p = command("distance", cmd_distance, "distance between two points",
                POCSET_SOURCES)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    command("rank", cmd_rank, "maximal transverse family size", POCSET_SOURCES)
    command("decompose", cmd_decompose, "irreducible product factors",
            POCSET_SOURCES)

    p = command("subdivide", cmd_subdivide, "barycentric subdivision tower",
                POCSET_SOURCES)
    p.add_argument("-n", type=int, default=1, help="tower depth")

    command("orbits", cmd_orbits, "minimum orbit of a total action",
            POCSET_SOURCES, ACTION)

    p = command("flip", cmd_flip, "flipping search for a halfspace",
                ACTION_SOURCES, CERTIFICATE)
    p.add_argument("--halfspace", required=True)

    p = command("skewer", cmd_skewer, "double-skewering search", ACTION_SOURCES,
                CERTIFICATE)
    p.add_argument("--pair", required=True, help="h,k with h contained in k")

    p = command("facing", cmd_facing, "facing tuple search", ACTION_SOURCES,
                CERTIFICATE)
    p.add_argument("--tuple-size", type=int, default=3)
    p.add_argument("--halfspace", help="optional seed halfspace")
    p.add_argument("--strong", action="store_true",
                   help="require pairwise strong separation")

    p = command("sectors", cmd_sectors, "sector halfspace or product witness",
                POCSET_SOURCES)
    p.add_argument("--pair", required=True, help="transverse pair h,k")

    p = command("free-cert", cmd_free_cert, "ping-pong free-subgroup certificate",
                ACTION_SOURCES, CERTIFICATE)
    p.add_argument("--a", required=True, help="word for the first generator")
    p.add_argument("--b", required=True, help="word for the second generator")
    p.add_argument("--h", required=True, dest="h")
    p.add_argument("--k", required=True, dest="k")

    command("lineal", cmd_lineal, "endpoints certifying lineality", POCSET_SOURCES)
    command("classify", cmd_classify, "elementary-or-free pipeline",
            ACTION_SOURCES, SEARCH)

    p = command("inversions", cmd_inversions, "wall inversions of a word",
                ACTION_SOURCES, ACTION)
    p.add_argument("--word", required=True)

    command("ubs-validate", cmd_ubs_validate, "validate a chain system",
            SYSTEM_SOURCES)
    p = command("ubs-graph", cmd_ubs_graph, "directed graph on minimal classes",
                SYSTEM_SOURCES)
    p.add_argument("--dot", help="write DOT to this file")
    p = command("ubs-chi", cmd_ubs_chi, "transfer-character vector of a shift map",
                SYSTEM_SOURCES)
    p.add_argument("--shift", required=True, help="shift-map JSON file")

    command("acceptance", cmd_acceptance, "run the full acceptance suite")

    p = command("dump-fixture", cmd_dump_fixture, "emit a fixture in file format")
    p.add_argument("name")
    p.add_argument("--kind", choices=("pocset", "window", "system"),
                   help="disambiguate names shared across fixture kinds")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    t0 = args.start = time.time()
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
        inconclusive = {"OUT_OF_WINDOW", "WALL_BUDGET_EXCEEDED",
                        "HORIZON_EXCEEDED"}
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
