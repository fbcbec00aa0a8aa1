"""repro — programmable memory BIST architectures.

A from-scratch Python reproduction of "On Programmable Memory Built-In
Self Test Architectures" (Zarrineh & Upadhyaya, DATE 1999): the
microcode-based and programmable-FSM-based MBIST controllers, the
hardwired baselines, a behavioural SRAM with the classical functional
fault models, march-test algebra, a structural silicon-area model, and
the diagnostics/transparent-test extensions.

Quickstart::

    from repro import (
        ControllerCapabilities, MemoryBistUnit, MicrocodeBistController,
        Sram, library,
    )
    from repro.faults import StuckAtFault

    caps = ControllerCapabilities(n_words=64)
    memory = Sram(64)
    memory.attach(StuckAtFault(word=7, bit=0, value=0))
    unit = MemoryBistUnit(MicrocodeBistController(library.MARCH_C, caps), memory)
    result = unit.run()
    assert not result.passed
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.core": [
        "BistController", "BistResult", "ControllerCapabilities",
        "Flexibility", "HardwiredBistController", "MemoryBistUnit",
        "MicrocodeBistController", "ProgrammableFsmBistController",
    ],
    "repro.march": [
        "MarchTest", "expand", "format_test", "library", "parse_test",
    ],
    "repro.memory": ["Sram"],
})

__version__ = "1.0.0"

__all__ = [
    "BistController",
    "BistResult",
    "ControllerCapabilities",
    "Flexibility",
    "HardwiredBistController",
    "MarchTest",
    "MemoryBistUnit",
    "MicrocodeBistController",
    "ProgrammableFsmBistController",
    "Sram",
    "expand",
    "format_test",
    "library",
    "parse_test",
]
