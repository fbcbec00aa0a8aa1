"""Package namespaces: lazy maps that cannot drift, and import footprints.

Each package ``__init__`` under ``src/repro`` lists its public names in
a :func:`repro._lazy.attach` map instead of importing them.  Nothing
imports a map entry until it is read, so a misspelt or stale entry, or
an import cycle the old eager order hid, would only show at the first
use.  These tests read every entry, import every module in a fresh
interpreter, and pin what the common entry points load.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro

SOURCE = Path(repro.__file__).resolve().parent
MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)
PACKAGES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]


def lazy_map(package: str):
    """``(exports, submodules)`` of the package's ``attach`` call, read
    from its source (``({}, [])`` for a package without one)."""
    init = SOURCE.parent.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(init.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "attach"
        ):
            keywords = {kw.arg: kw.value for kw in node.keywords}
            submodules = keywords.get("submodules")
            return (
                ast.literal_eval(node.args[1]),
                ast.literal_eval(submodules) if submodules else [],
            )
    return {}, []


def _run(code: str) -> list:
    """The JSON value ``code`` prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.'))))"
)


@pytest.fixture(scope="module")
def every_module_imported():
    """Import all modules first: a public name that is also a submodule
    name is then bound to the module unless its package binds it
    eagerly, and the identity check below sees that."""
    for name in MODULES:
        importlib.import_module(name)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_its_defining_object(
    package, every_module_imported
):
    module = importlib.import_module(package)
    exports, submodules = lazy_map(package)
    origin = {
        name: source for source, names in exports.items() for name in names
    }
    mapped = set(origin) | set(submodules)
    public = getattr(module, "__all__", [])
    assert mapped <= set(public), "map entries outside __all__"
    assert len(mapped) == sum(map(len, exports.values())) + len(submodules), (
        "a name is mapped twice"
    )
    for name in public:
        value = getattr(module, name)
        if name in submodules:
            assert value is sys.modules[f"{package}.{name}"]
        elif name in origin:
            assert value is getattr(importlib.import_module(origin[name]), name)
        else:
            # Bound by the __init__ itself, and not rebound to a
            # submodule of the same name since.
            assert not isinstance(value, ModuleType), name


def test_dir_lists_every_public_name_before_it_is_read():
    missing = _run(
        "import importlib, json\n"
        "missing = {}\n"
        f"for name in {PACKAGES!r}:\n"
        "    module = importlib.import_module(name)\n"
        "    public = set(getattr(module, '__all__', []))\n"
        "    missing[name] = sorted(public - set(dir(module)))\n"
        "print(json.dumps(missing))\n"
    )
    assert not any(missing.values()), missing


def test_unknown_name_is_an_attribute_error():
    import repro.analysis
    import repro.march

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.analysis.no_such_name
    assert not hasattr(repro.march, "no_such_name")


def test_every_module_imports_in_a_fresh_interpreter():
    """Each module imported first, on its own: the ``repro`` modules a
    previous import left behind are dropped before the next one."""
    failures = _run(
        "import importlib, json, sys, traceback\n"
        "failures = {}\n"
        f"for name in {MODULES!r}:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures[name] = traceback.format_exc()\n"
        "print(json.dumps(failures))\n"
    )
    assert not failures, "\n".join(failures.values())


def test_import_repro_loads_no_submodule():
    loaded = _run(f"import json, sys\nimport repro\n{_LOADED}")
    assert loaded == ["repro", "repro._lazy"]


def test_import_prover_loads_only_its_inputs():
    loaded = _run(f"import json, sys\nimport repro.analysis.coverage\n{_LOADED}")
    assert "repro.analysis.coverage.prover" in loaded
    unexpected = [
        name for name in loaded
        if name.startswith(("repro.core", "repro.area", "repro.conformance",
                            "repro.service"))
        or name.startswith("repro.analysis.")
        and name.split(".")[2] != "coverage"
    ]
    assert unexpected == []


_CONTROLLERS = (
    "repro.core.microcode", "repro.core.progfsm", "repro.core.hardwired",
    "repro.conformance",
)


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["certify", "--algorithm", "March C", "--words", "4"],
])
def test_cli_loads_no_controller(argv):
    loaded = _run(
        "import contextlib, io, json, runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as done:\n"
        "        assert not done.code, done.code\n"
        f"{_LOADED}"
    )
    assert "repro.cli" in loaded
    assert [name for name in loaded if name.startswith(_CONTROLLERS)] == []


def test_coverage_lint_loads_no_controller():
    """The CV rules run only the prover: no controller, walk or FSM
    synthesis is imported for them."""
    loaded = _run(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['lint', '--algorithm', 'March C', '--target', 'coverage'])\n"
        f"{_LOADED}"
    )
    assert "repro.analysis.coverage_rules" in loaded
    assert [name for name in loaded if name in (
        "repro.core.walk", "repro.core.microcode.controller",
        "repro.core.hardwired.synthesis", "repro.core.progfsm.lower_fsm",
    )] == []
