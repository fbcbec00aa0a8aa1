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

from repro.core.progfsm.march_elements import (
    SM_PATTERNS,
    match_element,
    sm_element,
)
from repro.core.progfsm.instruction import DataControl, FsmInstruction
from repro.core.progfsm.compiler import CompileError, FsmProgram, compile_to_sm
from repro.core.progfsm.upper_buffer import CircularBuffer
from repro.core.progfsm.lower_fsm import LowerFsmState
from repro.core.progfsm.controller import ProgrammableFsmBistController

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
