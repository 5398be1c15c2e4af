"""Every module-level name in the package has a caller.

A helper whose name starts with one underscore is not public API, and
neither is a public-looking name that ``cospectra`` does not export, so once
nothing in ``src/cospectra`` names it, it is dead code.  This scan fails on
such a helper instead of leaving it for a reader to find.  An exported name
that nothing in the package calls must be listed, with its reason, in
``UNCALLED_EXPORTS``.  So must every method or property that nothing in the
package reads as an attribute, in ``UNCALLED_MEMBERS``, and every annotated
class field that nothing in the package reads as an attribute, in
``UNREAD_FIELDS``.
"""

import ast
from collections import Counter
from pathlib import Path

import cospectra

SOURCES = sorted(Path(cospectra.__file__).resolve().parent.glob("*.py"))

# every exported name that nothing in the package calls, and why it stays
UNCALLED_EXPORTS = {
    "automorphism_witness": "the evidence a similarity verdict would print; "
    "its orbits are tested against brute force",
    "check_l_claims": "the Laplacian twin of check_a_claims; the benchmark's "
    "certifier re-checks every Laplacian construction with it",
    "parse_edge_list": "the library's edge-list reader; the benchmark's set-up "
    "and the README name it",
    "delete_vertex": "builds G minus u, the object by which cospectrality is defined",
}

# every method or property that nothing in the package reads, and why it stays
UNCALLED_MEMBERS = {"IntPolynomial.from_json": "reads a certificate back from JSON"}

# every annotated class field that nothing in the package reads, and why it stays
UNREAD_FIELDS = {
    "AttachmentValidation.entries": "the per-(H vertex, orbit) counts of both copies, "
    "handed to a library caller with a refused attachment set; the tests read them",
    "ClaimViolation.power": "the first power at which a construction claim fails, "
    "handed to a library caller; the tests read it",
}


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


def test_every_exported_name_without_a_caller_is_listed_with_its_reason():
    uncalled = _uncalled(set(cospectra._HOMES).__contains__)
    assert sorted(entry.partition(": ")[2] for entry in uncalled) == sorted(UNCALLED_EXPORTS)


def _attributes(node: ast.AST) -> list[str]:
    """Every attribute that ``node`` reads as ``x.name``.  JSON keys are string
    constants, so a key that shares a member's name is no read of it."""
    return [sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]


def test_every_method_and_property_is_read_beyond_its_definition():
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    read = Counter(name for tree in trees for name in _attributes(tree))
    unread = []
    for tree in trees:
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                dunder = name.startswith("__") and name.endswith("__")
                # a recursive call is no caller
                if not dunder and read[name] == _attributes(member).count(name):
                    unread.append(f"{cls.name}.{name}")
    assert sorted(unread) == sorted(UNCALLED_MEMBERS)


def test_every_field_is_read_beyond_its_definition():
    """A field of a class body (``name: type``) that nothing reads as
    ``x.name`` holds a fact no caller uses, as ``InducedEigenpair.vector``
    did.  Names are matched, not types, so a read of any attribute of that
    name counts."""
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    read = Counter(
        sub.attr
        for tree in trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )
    unread = [
        f"{cls.name}.{field.target.id}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        if not read[field.target.id]
    ]
    assert sorted(unread) == sorted(UNREAD_FIELDS)
