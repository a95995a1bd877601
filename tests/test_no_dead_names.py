"""Every function, class and module-level constant is used.

A name defined in ``src/mediankit/`` is live when code in ``src/`` or
``perfbench/`` refers to it: a ``Name`` node that reads it, an ``Attribute``
node or an import alias, found by parsing.  An assignment target is not a
reference, so a constant that is only defined is dead.  Comments,
docstrings, strings and tests (``tests/`` and any ``test_*.py``) do not
count, so a name that only a test reaches is dead.  The shared helper
modules under ``tests/`` (the references and the seeded case lists) are
held to the same rule, with the code under ``tests/`` as their readers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"


def definitions(paths) -> dict:
    """name -> the ``module.name`` of each place that defines it."""
    out: dict = {}
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))]
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                out.setdefault(name, []).append(f"{path.stem}.{name}")
    return out


def references(paths) -> set:
    """The names that the code in ``paths`` refers to."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
    return out


def dead(defined: dict, live: set) -> list:
    return sorted(site for name, sites in defined.items() if name not in live
                  for site in sites)


def test_every_defined_name_is_used_elsewhere():
    code = [path for top in ("src", "perfbench") for path in (ROOT / top).rglob("*.py")
            if not path.name.startswith("test_")]
    assert dead(definitions((ROOT / "src" / "mediankit").glob("*.py")), references(code)) == []


def test_every_shared_test_helper_is_read():
    helpers = [path for path in TESTS.glob("*.py")
               if not path.name.startswith("test_") and path.name != "conftest.py"]
    assert helpers
    assert dead(definitions(helpers), references(TESTS.glob("*.py"))) == []
