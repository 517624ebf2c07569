"""The public surface of the package is reached from the package or the benchmark.

Every public module-level function and class of ``siegelkit`` must be
named (as a name or an attribute) somewhere in the package outside its
own definition and ``__init__.py``, or somewhere in ``bench/``. Library
code that only its own tests reach is removed instead.
"""

import ast
import pathlib

import siegelkit

PACKAGE = pathlib.Path(siegelkit.__file__).resolve().parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _names(tree):
    """Every identifier read in a tree: names and attribute names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreached():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
        if path.name != "__init__.py"
    }
    counts = {}
    for tree in trees.values():
        for name in _names(tree):
            counts[name] = counts.get(name, 0) + 1
    unreached = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            inside = sum(1 for name in _names(node) if name == node.name)
            if counts.get(node.name, 0) - inside == 0:
                unreached.append(f"{path.stem}.{node.name}")
    return unreached


def test_every_public_definition_is_reached_outside_the_tests():
    assert _unreached() == []
