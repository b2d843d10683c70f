"""Every module-level private name of the package is used somewhere in it.

A private helper (``_name``) that nothing in ``src/cycgraph`` reaches is dead
code.  Each module is parsed with ``ast``; a private function, class or
assigned constant defined at module level must be referenced from some other
top-level statement of the package: one outside its own definition, so a
helper that only calls itself does not count.  Public names are exempt, since
some are kept for the tests and the benchmark's tracer alone.
"""

import ast
from pathlib import Path

import cycgraph

PACKAGE = Path(cycgraph.__file__).parent


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_name_is_orphaned():
    definitions = []  # (module, name, the statement defining it)
    uses = []  # (the statement, the names it references)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            definitions += [(path.name, name, stmt) for name in _defined(stmt) if _private(name)]
            uses.append((stmt, _referenced(stmt)))
    assert len(definitions) >= 20
    orphans = [
        f"{module}: {name}" for module, name, own in definitions
        if not any(name in names for stmt, names in uses if stmt is not own)
    ]
    assert orphans == []
