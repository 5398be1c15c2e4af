"""Every module-level name in the package that it does not export has a caller.

A helper whose name starts with one underscore is not public API, and
neither is a public-looking name that ``cospectra`` does not export, so once
nothing in ``src/cospectra`` names it, it is dead code.  This scan fails on
such a helper instead of leaving it for a reader to find.
"""

import ast
from pathlib import Path

import cospectra

SOURCES = sorted(Path(cospectra.__file__).resolve().parent.glob("*.py"))


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _named(node: ast.AST) -> list[str]:
    """Every name that ``node`` reads: plain names, attributes and imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out += [alias.name for alias in sub.names]
    return out


def _uncalled(keep) -> list[str]:
    """``module: name`` of every module-level name that ``keep`` selects and
    nothing in the package names beyond its own definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    everywhere: dict[str, int] = {}
    for tree in trees.values():
        for name in _named(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            inside = _named(node)  # a recursive call is no caller
            for name in _defined_names(node):
                if keep(name) and everywhere.get(name, 0) == inside.count(name):
                    unused.append(f"{module}: {name}")
    assert SOURCES
    return unused


def test_every_private_helper_is_named_beyond_its_definition():
    assert _uncalled(lambda name: name.startswith("_") and not name.startswith("__")) == []


def test_every_public_name_the_package_does_not_export_is_named_beyond_its_definition():
    exported = set(cospectra._HOMES)
    assert _uncalled(lambda name: not name.startswith("_") and name not in exported) == []
