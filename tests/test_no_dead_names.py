"""Every function, class and module-level constant of mediankit is used.

A name defined in ``src/mediankit/`` is live when code in ``src/`` or
``perfbench/`` refers to it: a ``Name`` node that reads it, an ``Attribute``
node or an import alias, found by parsing.  An assignment target is not a
reference, so a constant that is only defined is dead.  Comments, docstrings, strings and tests (``tests/``
and any ``test_*.py``) do not count, so a name that only a test reaches is
dead.  ``PUBLIC`` lists the names kept without such a reference, each with
the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mediankit"
SEARCHED = ("src", "perfbench")

PUBLIC = {
    "closure_oracle": "the pair-by-pair reference for the closures read "
                      "off the relation index",
    "vertex": "the vertex map of a cube of the public cube_at",
}


def definitions() -> dict:
    """name -> the ``module.name`` of each place that defines it."""
    out: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
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


def references() -> set:
    """The names that code outside the tests refers to."""
    out = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.add(node.id)
                elif isinstance(node, ast.Attribute):
                    out.add(node.attr)
                elif isinstance(node, ast.alias):
                    out.add(node.name.rpartition(".")[2])
    return out


def test_every_defined_name_is_used_elsewhere():
    live = references() | set(PUBLIC)
    dead = sorted(site for name, sites in definitions().items()
                  if name not in live for site in sites)
    assert dead == []


def test_public_names_are_defined_and_otherwise_unreferenced():
    # a kept name that code reaches, or that is gone, leaves the table
    assert set(PUBLIC) <= set(definitions())
    assert not set(PUBLIC) & references()
