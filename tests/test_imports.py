"""No module under ``src/repro`` imports a name it never uses.

A stale module-level import is not free: every fresh interpreter
compiles and runs the module it names, and ``repro lint``/``repro
certify`` start one per check.  The scan is a plain AST walk (stdlib
only): a module-level import counts as used when the module reads the
bound name anywhere, or lists it in its ``__all__`` (a re-export).
Package ``__init__`` modules pass the same rule: their eager
re-exports are in ``__all__`` and their lazy maps are not imports.

Imports deferred into a function (so a command loads only what it
runs) are held to the same rule one scope down: such an import counts
as used when its function reads the bound name, nested functions
included.  It is reported as ``(module, "function.name")``.
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


def _bound(node: ast.stmt) -> Iterator[str]:
    """Names an import statement binds (none for any other statement)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for alias in node.names:
            yield alias.asname or alias.name


def _imports(body: List[ast.stmt]) -> Iterator[str]:
    """Names bound by module-level imports, also under ``if``/``try``."""
    for node in body:
        yield from _bound(node)
        if isinstance(node, (ast.If, ast.Try)):
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _local_imports(function: ast.AST) -> Iterator[str]:
    """Names bound by the imports in ``function``'s own body, at any
    depth of its blocks; nested functions and classes are their own
    scopes."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        yield from _bound(node)
        stack.extend(ast.iter_child_nodes(node))


def _reads(node: ast.AST) -> Set[str]:
    return {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}


def unused_imports() -> Set[Tuple[str, str]]:
    """``(module, name)`` of every unused module-level import, and
    ``(module, "function.name")`` of every unused function-local one."""
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _reads(tree) | _exported(tree)
        for name in _imports(tree.body):
            if name not in read:
                found.add((module, name))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                read = _reads(function)
                for name in _local_imports(function):
                    if name not in read:
                        found.add((module, f"{function.name}.{name}"))
    return found


def _unallowed(local: bool) -> List[Tuple[str, str]]:
    return sorted(
        (module, name) for module, name in unused_imports() - set(ALLOWED)
        if ("." in name) == local
    )


def test_no_unused_module_level_imports():
    unused = _unallowed(local=False)
    assert not unused, (
        "unused module-level imports (delete them, or allowlist one in "
        f"tests/test_imports.py with its reason): {unused}"
    )


def test_no_unused_function_local_imports():
    unused = _unallowed(local=True)
    assert not unused, (
        "unused function-local imports (delete them, or allowlist one in "
        f"tests/test_imports.py with its reason): {unused}"
    )


def test_allowlist_is_not_stale():
    assert set(ALLOWED) <= unused_imports()


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Dict\nx: Dict = {}\n")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(_imports(tree.body)) - read) == ["List", "os"]


def test_scan_sees_an_unused_function_local_import():
    tree = ast.parse(
        "def f():\n"
        "    import os\n"
        "    if True:\n"
        "        from typing import List, Dict\n"
        "    def g():\n"
        "        import json\n"
        "        return Dict\n"
        "    return g\n"
    )
    function = tree.body[0]
    assert sorted(set(_local_imports(function)) - _reads(function)) == [
        "List", "os",
    ]
    nested = function.body[2]
    assert sorted(set(_local_imports(nested)) - _reads(nested)) == ["json"]
