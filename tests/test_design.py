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
