"""Design gates read from the source, not from a running graph."""

import ast
from pathlib import Path

import cuckoograph

SRC = Path(cuckoograph.__file__).parent


def _trees():
    return {p.name: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def test_every_private_function_has_a_caller():
    # a ``_``-prefixed function or method is named somewhere in the
    # package: called, passed, wrapped or imported; dunders are exempt
    trees = _trees()
    defined = {}
    named = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined, "no private functions found"
    uncalled = {f"{fn} ({where})" for fn, where in defined.items()
                if fn not in named}
    assert not uncalled, f"private functions without a caller: {uncalled}"


def test_every_private_module_name_is_read():
    # a ``_``-prefixed name assigned at module level is read in its own
    # module, or imported or read as an attribute elsewhere in the package
    trees = _trees()
    elsewhere = {node.attr if isinstance(node, ast.Attribute) else node.name
                 for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, (ast.Attribute, ast.alias))}
    assigned = {}
    for name, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for node in (n for t in targets for n in ast.walk(t)):
                if (isinstance(node, ast.Name) and node.id.startswith("_")
                        and not node.id.endswith("__")):
                    assigned[f"{node.id} ({name}:{stmt.lineno})"] = \
                        node.id in loaded | elsewhere
    assert assigned, "no private module-level names found"
    unread = {where for where, read in assigned.items() if not read}
    assert not unread, f"private module-level names never read: {unread}"
