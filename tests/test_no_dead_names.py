"""Every function, class and module-level constant of mediankit is used.

A name defined in ``src/mediankit/`` must appear somewhere besides its own
definitions: in ``src/``, ``tests/`` or ``perfbench/``.  Words are matched
as identifiers anywhere in those Python files, comments and docstrings
included, so the test only catches names nothing mentions at all.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mediankit"
SEARCHED = ("src", "tests", "perfbench")


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


def test_every_defined_name_is_used_elsewhere():
    words: Counter = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"[A-Za-z_]\w*",
                                    path.read_text(encoding="utf-8")))
    dead = sorted(site for name, sites in definitions().items()
                  if words[name] <= len(sites) for site in sites)
    assert dead == []
