"""March test algebra: elements, tests, notation, algorithm library.

This package implements the march-test formalism of van de Goor ("Testing
Semiconductor Memories", 1991) that the paper's BIST controllers execute:

* :class:`~repro.march.element.Operation` — a single read/write of the
  test data ``d`` or its complement.
* :class:`~repro.march.element.MarchElement` — an address sweep (up, down
  or either) applying a fixed operation sequence to every cell.
* :class:`~repro.march.test.MarchTest` — a sequence of march elements and
  optional retention pauses.
* :mod:`~repro.march.notation` — parser/printer for the standard
  ``{up}(r0,w1);{down}(r1,w0)`` notation.
* :mod:`~repro.march.library` — the algorithms evaluated in the paper
  (March C, C+, C++, A, A+, A++, and classic tests for context).
* :mod:`~repro.march.simulator` — the golden operation-stream expander and
  memory executor all BIST controllers are checked against.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.march.element": [
        "AddressOrder", "MarchElement", "OpKind", "Operation", "Pause",
    ],
    "repro.march.test": ["MarchTest"],
    "repro.march.notation": ["format_test", "parse_test"],
    "repro.march.simulator": ["MemoryOperation", "expand", "run_on_memory"],
    "repro.march.concurrent": [
        "CycleOps", "cycle_count", "expand_concurrent", "run_cycles_on_memory",
    ],
    "repro.march.properties": ["is_symmetric", "symmetric_split"],
    "repro.march.validate": ["check_consistency", "is_consistent"],
    "repro.march.backgrounds": ["data_backgrounds"],
}, submodules=["library"])

__all__ = [
    "AddressOrder",
    "CycleOps",
    "MarchElement",
    "MarchTest",
    "MemoryOperation",
    "OpKind",
    "Operation",
    "Pause",
    "data_backgrounds",
    "check_consistency",
    "cycle_count",
    "expand",
    "expand_concurrent",
    "format_test",
    "is_consistent",
    "is_symmetric",
    "library",
    "parse_test",
    "run_cycles_on_memory",
    "run_on_memory",
    "symmetric_split",
]
