"""Workload ``cli``: the command line, run in-process through
``mediankit.cli.main(argv)`` with its output captured, plus saving and
loading inputs through ``mediankit.serialize``.

Command jobs are the README's commands on the fixtures, and commands on
files the set-up writes: seeded tree-product pocsets (``--pocset``), the
F2BALL window (``--window``) and seeded chain systems with their shift
maps (``--system-file``).  Fixture caches are cleared before every
command, as in a fresh process.  ``free-cert`` at depth 4 and
``classify`` are left out: the ``search`` workload covers them.

Round-trip jobs dump a pocset, window or chain system to JSON text and
load it back.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import harness
import inputs
import wl_boundary

# (argv, expected exit code)
FIXTURE_COMMANDS = (
    (["rank", "--fixture", "SQUARE"], 0),
    (["points", "--fixture", "PATH3"], 0),
    (["median", "--fixture", "SQUARE", "--x", "a,b", "--y", "a,b*", "--z", "a*,b"], 0),
    (["distance", "--fixture", "SQUARE", "--x", "a,b", "--y", "a*,b*"], 0),
    (["decompose", "--fixture", "GRID"], 0),
    (["subdivide", "--fixture", "SQUARE", "-n", "2"], 0),
    (["orbits", "--fixture", "SQUARE", "--gens", "rot,swap"], 0),
    (["flip", "--fixture", "TRIPOD", "--gens", "rot", "--halfspace", "h1*"], 0),
    (["skewer", "--fixture", "F2BALL", "--pair", "waa+,wa+",
      "--max-word-len", "3", "--verify"], 0),
    (["facing", "--fixture", "TRIPOD", "--tuple-size", "3", "--strong"], 0),
    (["sectors", "--fixture", "SQUARE", "--pair", "a,b"], 0),
    (["lineal", "--fixture", "PATH3"], 0),
    (["lineal", "--fixture", "TRIPOD"], 2),
    (["ubs-validate", "--system", "STAIRFLAP"], 0),
    (["ubs-graph", "--system", "STAIRFLAP", "--dot", "{work}/stairflap.dot"], 0),
    (["ubs-chi", "--system", "STAIRFLAP", "--shift", "{work}/stairflap-shift.json"], 0),
    (["dump-fixture", "F2BALL"], 0),
    (["dump-fixture", "CORNER4_PP"], 0),
)
POCSET_FILES = 4
SYSTEM_FILES = 3
POCSET_COMMANDS = (["points"], ["rank"], ["decompose"], ["validate"],
                   ["subdivide", "-n", "1"])
WINDOW_COMMANDS = (
    (["skewer", "--pair", "wab+,wa+", "--max-word-len", "2", "--verify"], 0),
    (["flip", "--halfspace", "wa-", "--max-word-len", "2", "--verify"], 0),
    (["inversions", "--word", "a,b,a^-1"], 0),
)


def setup(lib, seed: int, workdir: Path) -> harness.Workload:
    """Write the input files and build the command and round-trip jobs.
    Paths are relative to the repository root, the working directory,
    so that reports do not depend on where the checkout lives."""
    rng = random.Random(f"cli/{seed}")
    harness.clear_fixture_caches(lib)
    work = workdir.relative_to(Path.cwd()).as_posix()
    se = lib.serialize

    def write(name: str, data) -> str:
        path = f"{work}/{name}"
        Path(path).write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        return path

    write("stairflap-shift.json", {"tau": {"H": "H", "K": "K"},
                                   "shift": {"H": 1, "K": 1}})
    pocsets = []
    for pos in range(POCSET_FILES):
        k = 1 + pos % 3
        sizes = tuple(rng.randint(2, 12 // k) for _ in range(k))
        spec = inputs.tree_product(rng, f"p{pos}", sizes, pos % 2 == 1, 10 ** 9)
        P = lib.pocset.WeightedPocset(spec.walls, spec.order, spec.wall_ids)
        pocsets.append((write(f"pocset{pos}.json", se.dump_pocset(P)), P))
    window = lib.fixtures.window("F2BALL")
    window_file = write("f2ball-window.json", se.dump_window_action(window))
    systems = []
    for pos in range(SYSTEM_FILES):
        k, lcm = rng.choice([(k, lcm) for k, lcm in wl_boundary.SYSTEM_PLAN
                             if k <= 5])
        spec = inputs.staircase_system(
            rng, f"s{pos}", k, wl_boundary.periods_with_lcm(rng, k, lcm))
        s = wl_boundary.seeded_input(lib, spec)
        S = lib.boundary.ChainSystem(s.chains, zones=s.zones, name=s.name)
        path = write(f"system{pos}.json", se.dump_chain_system(S))
        shift = write(f"system{pos}-shift.json", s.shift.to_json())
        systems.append((path, shift, S))

    commands = [(argv, code) for argv, code in FIXTURE_COMMANDS]
    for path, _ in pocsets:
        argv = rng.choice(POCSET_COMMANDS)
        commands.append(([argv[0], "--pocset", path] + argv[1:], 0))
    for argv, code in WINDOW_COMMANDS:
        commands.append(([argv[0], "--window", window_file] + argv[1:], code))
    for path, shift, _ in systems:
        commands.append((["ubs-validate", "--system-file", path], 0))
        commands.append((["ubs-graph", "--system-file", path], 0))
        commands.append((["ubs-chi", "--system-file", path, "--shift", shift], 0))
    commands = [([a.format(work=work) for a in argv], code)
                for argv, code in commands]
    rng.shuffle(commands)

    roundtrips = [roundtrip_job(lib, "pocset", se.dump_pocset, se.load_pocset, P)
                  for _, P in pocsets]
    roundtrips.append(roundtrip_job(lib, "window", se.dump_window_action,
                                    se.load_window_action, window))
    roundtrips += [roundtrip_job(lib, "system", se.dump_chain_system,
                                 se.load_chain_system, S) for _, _, S in systems]
    pool = [command_job(lib, argv, code) for argv, code in commands]
    step = len(pool) // len(roundtrips)
    for pos, job in enumerate(roundtrips):
        pool.insert(pos * (step + 1), job)
    return harness.Workload(anchors=[], pool=pool)


def run_cli(lib, argv: list):
    """Exit code and standard output of one command in a fresh-process
    state of the fixture caches."""
    harness.clear_fixture_caches(lib)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def without_timing(report_text: str) -> str:
    report = json.loads(report_text)
    report.pop("timing", None)
    return json.dumps(report, sort_keys=True, indent=2)


def command_job(lib, argv: list, expected: int) -> harness.Job:
    def run(tr):
        return tr.call("cli.main", run_cli, lib, argv)

    def check(result):
        code, text = result
        problems = []
        if code != expected:
            problems.append(f"exit code {code}, expected {expected}")
        report = without_timing(text)
        again = without_timing(run_cli(lib, argv)[1])
        if report != again:
            problems.append("report differs on a second call")
        if "verdict" not in json.loads(report):
            problems.append("report has no verdict")
        return problems, {"cli.report_bytes": len(report)}, report

    return harness.Job("command", " ".join(argv), run, check)


def roundtrip_job(lib, kind: str, dump, load, obj) -> harness.Job:
    """Save ``obj`` as JSON text and load it back."""
    def run(tr):
        text = tr.call("serialize.dump", lambda: json.dumps(dump(obj)))
        loaded = tr.call("serialize.load", lambda: load(json.loads(text)))
        return text, loaded

    def check(result):
        text, loaded = result
        problems = []
        if json.dumps(dump(loaded)) != text:
            problems.append(f"{kind} changes on a dump/load round trip")
        return problems, {}, {"kind": kind, "bytes": len(text)}

    return harness.Job("roundtrip", f"{kind} round trip", run, check)
