"""Design gates read from the source, not from a running graph."""

import ast
from array import array
from pathlib import Path

import cuckoograph
from cuckoograph import cuckoo_table

SRC = Path(cuckoograph.__file__).parent
TRACER = SRC.parents[1] / "perfbench" / "tracer.py"


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


def test_every_slot_is_read():
    # every name spelled in a ``__slots__`` is read as an attribute in the
    # package, or by the benchmark's tracer, which labels its events with
    # ``TableChain.owner``; ``Level.COUNTERS`` are read by name (snapshot)
    trees = _trees()
    trees["tracer.py"] = ast.parse(TRACER.read_text(), str(TRACER))
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    slots = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in node.targets)):
                for c in ast.walk(node.value):
                    if isinstance(c, ast.Constant) and isinstance(c.value, str):
                        slots[f"{c.value} ({name}:{c.lineno})"] = c.value
    assert "owner" in slots.values(), "the gate sees no slot"
    unread = {where for where, attr in slots.items() if attr not in read}
    assert not unread, f"slots never read: {unread}"


def _array_calls(tree):
    """The first argument of every ``array(...)`` or ``array.array(...)``
    call in a module."""
    return [node.args[0] for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.args
            and (isinstance(node.func, ast.Name) and node.func.id == "array"
                 or isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id == node.func.attr == "array")]


def test_array_typecodes_are_spelled_in_one_module():
    # the cell width of ids, weights and rows is decided in cuckoo_table:
    # every other module builds its arrays from its constants, or from an
    # array's own typecode, and never spells a typecode
    trees = _trees()
    assert _array_calls(trees["graph.py"]), "the gate sees no array call"
    spelled = {name: [arg.lineno for arg in _array_calls(tree)
                      if isinstance(arg, ast.Constant)]
               for name, tree in trees.items() if name != "cuckoo_table.py"}
    spelled = {name: lines for name, lines in spelled.items() if lines}
    assert not spelled, f"array typecodes spelled outside cuckoo_table: {spelled}"
    assert array(cuckoo_table.NARROW).itemsize == 4
    assert array(cuckoo_table.WIDE).itemsize == 8
