"""No leftovers in the package: every name a module imports is used in it,
every private module-level name and private method is read somewhere in
``src/`` outside its own definition, and every public module-level function,
class, method and constant somewhere in ``src/``, ``tests/`` or
``benchmarks/``.  A deletion that strands an import, a helper or a constant
fails here.  Reads the source with ``ast`` alone.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TREES = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}
USERS = [ast.parse(path.read_text(), filename=str(path)) for d in ("tests", "benchmarks") for path in sorted((ROOT / d).rglob("*.py"))]
MODULES = [path for path in TREES if path.parent.name == "freezeflow" and path.name != "__init__.py"]


def _loads(node) -> Counter:
    """Names read under node: bare names and attribute names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


READS = sum((_loads(tree) for tree in TREES.values()), Counter())
ALL_READS = READS + sum((_loads(tree) for tree in USERS), Counter())


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(label, name, node) of each private module-level def, class or assignment and each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(item.name):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _private(target.id):
                    yield target.id, target.id, node


def _public_definitions(tree):
    """(label, name, node) of each public module-level def, class or
    assignment (a constant) and each public method of a public class.

    A private class's methods are left out: ``cli._Parser.error`` overrides
    argparse's, which argparse calls."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id, node


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    tree = TREES[path]
    loaded = _loads(tree)
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if not loaded[alias.asname or alias.name.split(".")[0]]
    ]
    assert not unused, unused


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_private_name_has_a_reader(path):
    # names are matched alone: a method is read as an attribute of anything
    unread = [label for label, name, node in _private_definitions(TREES[path]) if READS[name] == _loads(node)[name]]
    assert not unread, unread


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_public_name_has_a_reader(path):
    unread = [label for label, name, node in _public_definitions(TREES[path]) if ALL_READS[name] == _loads(node)[name]]
    assert not unread, unread
