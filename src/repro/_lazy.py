"""Lazy package namespaces (PEP 562).

A package ``__init__`` names each public attribute together with the
module that defines it, and gets a module-level ``__getattr__`` and
``__dir__`` back::

    __getattr__, __dir__ = attach(__name__, {
        "repro.march.test": ["MarchTest"],
        "repro.march.notation": ["format_test", "parse_test"],
    }, submodules=["library"])

``import repro.march`` then imports nothing else.  The first read of
``repro.march.MarchTest`` imports :mod:`repro.march.test` and binds the
class in the package's globals, so later reads are plain look-ups and
``from repro.march import MarchTest`` works as before.  A name listed
in ``submodules`` is the submodule of that name itself.  This is the
pattern of Scientific Python SPEC 1 (``lazy_loader.attach``).

A public name that is also the name of one of its package's submodules
(``repro.classic.galpat``) cannot be lazy: importing the submodule
binds the module under that name, and ``__getattr__`` is then never
asked.  Such a package imports that name eagerly.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def attach(
    package: str,
    exports: Dict[str, List[str]],
    submodules: Iterable[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module (an absolute name) to the
    public names it provides; ``submodules`` lists the package's
    submodules that are themselves public names.
    """
    submodules = frozenset(submodules)
    origin = {name: f"{package}.{name}" for name in submodules}
    for module, names in exports.items():
        origin.update(dict.fromkeys(names, module))

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(origin[name])
        value = module if name in submodules else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
