"""The paper's contribution: programmable memory BIST architectures.

Three controller families, all cycle-accurate at the level of issued
memory operations and all verified against the golden stream of
:func:`repro.march.simulator.expand`:

* :mod:`repro.core.microcode` — the proposed microcode-based controller
  (Fig. 1/2 of the paper): storage unit, instruction counter, branch and
  reference registers, REPEAT compression of symmetric algorithms.
* :mod:`repro.core.progfsm` — the proposed programmable FSM-based
  controller (Fig. 3/4/5): SM0–SM7 march-element library, 2-D circular
  instruction buffer, parametric 7-state lower FSM.
* :mod:`repro.core.hardwired` — the non-programmable baselines: a march
  algorithm synthesised directly into a dedicated FSM.

Each controller class realises a march test itself (``realise``), walks
the rows it fetches (``walk``, :mod:`repro.core.walk`) and states its
cycle bound (``cycle_bound``);
:data:`~repro.core.controller.CONTROLLER_CLASSES` maps each
architecture's name to its class.

:mod:`repro.core.bist_unit` composes any controller with the shared
datapath (:mod:`repro.core.datapath`) and a memory under test into a
runnable BIST unit; :mod:`repro.core.transparent` adds the
transparent-test transform for the on-line-testing extension mentioned
in the paper's conclusion.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.core.controller": [
        "BistController", "ControllerCapabilities", "Flexibility",
    ],
    "repro.core.datapath": [
        "AddressGenerator", "DataGenerator", "PortSequencer",
    ],
    "repro.core.bist_unit": ["BistResult", "MemoryBistUnit"],
    "repro.core.microcode": ["MicrocodeBistController", "assemble"],
    "repro.core.progfsm": ["ProgrammableFsmBistController", "compile_to_sm"],
    "repro.core.hardwired": ["HardwiredBistController"],
})

__all__ = [
    "AddressGenerator",
    "BistController",
    "BistResult",
    "ControllerCapabilities",
    "DataGenerator",
    "Flexibility",
    "HardwiredBistController",
    "MemoryBistUnit",
    "MicrocodeBistController",
    "PortSequencer",
    "ProgrammableFsmBistController",
    "assemble",
    "compile_to_sm",
]
