"""Common BIST controller interface.

Every architecture — microcode-based, programmable FSM-based, hardwired —
implements :class:`BistController`:

* ``operations()`` yields the cycle-ordered stream of memory operations
  the controller issues, in the canonical
  :class:`repro.march.simulator.MemoryOperation` form (the golden
  expander produces the same type, which is what makes stream-equality
  checking trivial);
* ``hardware()`` returns the structural inventory the area model costs;
* ``capabilities`` declares what the *hardware* supports, independent of
  the currently loaded program — the basis of the paper's flexibility
  grading (Table 1, column 2);
* ``realise()``, ``walk()`` and ``cycle_bound()`` state how the
  architecture realises a march test (see :class:`BistController`).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.area.components import HardwareSpec
from repro.march.simulator import MemoryOperation
from repro.march.test import MarchTest

#: Architecture name -> its controller class in :mod:`repro.core`, in
#: report order.  Read a class as ``getattr(repro.core, name)``: the
#: package imports a controller on first use, so this map loads none.
CONTROLLER_CLASSES = {
    "microcode": "MicrocodeBistController",
    "progfsm": "ProgrammableFsmBistController",
    "hardwired": "HardwiredBistController",
}


class Flexibility(enum.Enum):
    """The paper's three-level flexibility grading.

    * ``HIGH`` — any march-style algorithm expressible in the microcode
      ISA, including per-element operation patterns of arbitrary length
      and retention pauses (microcode-based architecture).
    * ``MEDIUM`` — any algorithm composed of the SM0–SM7 march elements
      (programmable FSM-based architecture); algorithms with other
      element patterns (March B, the '++' triple-read variants) are not
      realisable.
    * ``LOW`` — exactly one hardwired algorithm.
    """

    HIGH = "HIGH"
    MEDIUM = "MEDIUM"
    LOW = "LOW"


@dataclass(frozen=True)
class ControllerCapabilities:
    """What a controller instance's hardware supports.

    Attributes:
        n_words: address-space size the address generator is built for.
        width: memory word width the data generator/comparator handle.
        ports: number of ports the port sequencer can select.
        word_oriented: True when the data-background loop hardware is
            present (Table 2's "word-oriented" configuration).
        multiport: True when the port loop hardware is present.
    """

    n_words: int
    width: int = 1
    ports: int = 1

    @property
    def word_oriented(self) -> bool:
        return self.width > 1

    @property
    def multiport(self) -> bool:
        return self.ports > 1


class BistController(abc.ABC):
    """Abstract memory BIST controller.

    Each architecture states its own realisation beside the ``trace()``
    it owns:

    * the classmethod ``realise(test, capabilities, compress=True)``
      returns the unverified controller the differential harnesses run
      (only microcode honours ``compress``; progfsm raises
      ``CompileError`` outside SM0–SM7);
    * ``walk()`` is the collapsed :mod:`repro.core.walk` walk of the
      decoded rows the controller fetches (the hardwired one: of its
      state graph);
    * ``cycle_bound()`` is the cycle count ``trace()`` stops at as a hang:
      ``max_cycles``, or a default sized to the program and geometry.
    """

    #: architecture family name used in reports ("Microcode-Based", ...).
    architecture: str = "?"
    #: the paper's flexibility grade for the family.
    flexibility: Flexibility = Flexibility.LOW

    def __init__(self, capabilities: ControllerCapabilities) -> None:
        self.capabilities = capabilities

    @abc.abstractmethod
    def trace(self) -> Iterator:
        """Cycle-accurate run: one entry per cycle, whose ``operation``
        is the memory operation issued, or ``None``."""

    def operations(self) -> Iterator[MemoryOperation]:
        """Cycle-ordered memory operations of one full test run."""
        for entry in self.trace():
            if entry.operation is not None:
                yield entry.operation

    def _verify_program(self, program, rows: Optional[int]) -> None:
        """Static pre-load verification (the in-field safety gate)
        against this controller's geometry and program-store depth, so
        the advisory default-depth warnings become errors here."""
        from repro.analysis.verifier import verify_program

        verify_program(program, self.capabilities, rows=rows).raise_on_errors()

    @abc.abstractmethod
    def hardware(self) -> HardwareSpec:
        """Structural inventory for the area model."""

    @abc.abstractmethod
    def loaded_test(self) -> MarchTest:
        """The march algorithm this controller currently realises."""

    def __repr__(self) -> str:
        caps = self.capabilities
        return (
            f"<{type(self).__name__} [{self.architecture}] "
            f"{caps.n_words}x{caps.width} bits, {caps.ports} port(s), "
            f"test={self.loaded_test().name!r}>"
        )
