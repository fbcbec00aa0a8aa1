"""Measured flexibility of each BIST architecture.

The paper grades flexibility qualitatively (HIGH / MEDIUM / LOW); this
module *measures* it: for every algorithm in the library, can each
architecture realise it without hardware change?

* microcode-based — realisable iff it assembles (it always does for
  march algorithms with power-of-two pauses) *and* fits the storage
  depth;
* programmable FSM-based — realisable iff every element matches an
  SM0–SM7 pattern;
* hardwired — realises exactly its one algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.controller import ControllerCapabilities
from repro.core.microcode.assembler import AssemblyError, assemble
from repro.core.progfsm.compiler import CompileError, compile_to_sm
from repro.march import library
from repro.march.test import MarchTest


@dataclass(frozen=True)
class FlexibilityRecord:
    """Realisability of one algorithm on one architecture."""

    architecture: str
    algorithm: str
    realizable: bool
    reason: str = ""


def microcode_realizable(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    storage_rows: Optional[int] = None,
) -> Tuple[bool, str]:
    """Whether the microcode architecture realises ``test``.

    With ``storage_rows`` set, programs longer than the storage are
    rejected — the realistic constraint for a fixed silicon instance.
    """
    try:
        program = assemble(test, capabilities)
    except AssemblyError as error:
        return False, str(error)
    if storage_rows is not None and len(program.instructions) > storage_rows:
        return False, (
            f"program needs {len(program.instructions)} rows, storage has "
            f"{storage_rows}"
        )
    return True, f"{len(program.instructions)} microcode rows"


def progfsm_realizable(
    test: MarchTest, capabilities: ControllerCapabilities
) -> Tuple[bool, str]:
    """Whether the programmable FSM architecture realises ``test``."""
    try:
        program = compile_to_sm(test, capabilities)
    except CompileError as error:
        return False, str(error)
    return True, f"{len(program.instructions)} SM instructions"


def flexibility_matrix(
    capabilities: Optional[ControllerCapabilities] = None,
    storage_rows: Optional[int] = None,
    algorithms: Optional[List[MarchTest]] = None,
) -> List[FlexibilityRecord]:
    """Realisability of every library algorithm on both programmable
    architectures (hardwired rows are trivially one-algorithm).

    Args:
        capabilities: geometry context; defaults to a 1 K bit-oriented
            single-port memory.
        storage_rows: optional microcode storage constraint; ``None``
            allows auto-grown storage (pure ISA flexibility).
        algorithms: algorithm set; defaults to the full library.
    """
    capabilities = capabilities or ControllerCapabilities(n_words=1024)
    algorithms = algorithms or list(library.ALGORITHMS.values())
    records: List[FlexibilityRecord] = []
    for test in algorithms:
        ok, reason = microcode_realizable(test, capabilities, storage_rows)
        records.append(
            FlexibilityRecord("Microcode-Based", test.name, ok, reason)
        )
        ok, reason = progfsm_realizable(test, capabilities)
        records.append(
            FlexibilityRecord("Prog. FSM-Based", test.name, ok, reason)
        )
    return records


def summarize(records: List[FlexibilityRecord]) -> Dict[str, Tuple[int, int]]:
    """(realizable, total) per architecture."""
    summary: Dict[str, Tuple[int, int]] = {}
    for record in records:
        done, total = summary.get(record.architecture, (0, 0))
        summary[record.architecture] = (
            done + (1 if record.realizable else 0),
            total + 1,
        )
    return summary
