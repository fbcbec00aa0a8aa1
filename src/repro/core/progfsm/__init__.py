"""Programmable FSM-based memory BIST architecture (paper Fig. 3/4/5).

Two-level structure:

* an **upper controller** — a 2-dimensional circular buffer of 8-bit
  instructions (:mod:`~repro.core.progfsm.upper_buffer`), each
  parameterising one march element plus two loop paths: *path A* repeats
  the whole algorithm for the next data background and *path B*
  increments the port;
* a **lower controller** — a parametric 7-state FSM
  (:mod:`~repro.core.progfsm.lower_fsm`) that realises the eight
  canonical march elements SM0–SM7
  (:mod:`~repro.core.progfsm.march_elements`).

The architecture is graded MEDIUM flexibility: any algorithm composed of
SM0–SM7 elements is loadable (March C/C+/A/A+, MATS family, March X/Y),
but algorithms needing other per-element operation patterns (March B,
the '++' triple-read variants) are not — the boundary
:mod:`repro.eval.flexibility` measures.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.core.progfsm.march_elements": [
        "SM_PATTERNS", "match_element", "sm_element",
    ],
    "repro.core.progfsm.instruction": ["DataControl", "FsmInstruction"],
    "repro.core.progfsm.compiler": [
        "CompileError", "FsmProgram", "compile_to_sm",
    ],
    "repro.core.progfsm.upper_buffer": ["CircularBuffer"],
    "repro.core.progfsm.lower_fsm": ["LowerFsmState"],
    "repro.core.progfsm.controller": ["ProgrammableFsmBistController"],
})

__all__ = [
    "CircularBuffer",
    "CompileError",
    "DataControl",
    "FsmInstruction",
    "FsmProgram",
    "LowerFsmState",
    "ProgrammableFsmBistController",
    "SM_PATTERNS",
    "compile_to_sm",
    "match_element",
    "sm_element",
]
