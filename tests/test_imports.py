"""No module under ``src/repro`` imports a name it never uses.

A stale module-level import is not free: every fresh interpreter
compiles and runs the module it names, and ``repro lint``/``repro
certify`` start one per check.  The scan is a plain AST walk (stdlib
only): a module-level import counts as used when the module reads the
bound name anywhere, or lists it in its ``__all__`` (a re-export).
Package ``__init__`` modules pass the same rule: their eager
re-exports are in ``__all__`` and their lazy maps are not imports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import repro

SOURCE = Path(repro.__file__).resolve().parent

#: ``(module, name) -> reason`` for imports kept on purpose.
ALLOWED = {
    ("repro.vector.sweep", "check_fault_conformance"):
        "perfbench/layers.py patches the name here (ROADMAP item 1b "
        "removes the hook)",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SOURCE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(body: List[ast.stmt]) -> Iterator[str]:
    """Names bound by module-level imports, also under ``if``/``try``."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          *(h.body for h in getattr(node, "handlers", ())),
                          getattr(node, "finalbody", ())):
                yield from _imports(block)


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports() -> Set[Tuple[str, str]]:
    """``(module, name)`` of every unused module-level import."""
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        } | _exported(tree)
        for name in _imports(tree.body):
            if name not in read:
                found.add((_module_name(path), name))
    return found


def test_no_unused_module_level_imports():
    unused = sorted(unused_imports() - set(ALLOWED))
    assert not unused, (
        "unused module-level imports (delete them, or allowlist one in "
        f"tests/test_imports.py with its reason): {unused}"
    )


def test_allowlist_is_not_stale():
    assert set(ALLOWED) <= unused_imports()


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Dict\nx: Dict = {}\n")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(_imports(tree.body)) - read) == ["List", "os"]
