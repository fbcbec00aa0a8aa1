"""Executing a repair plan and the end-to-end BISR flow.

Repair is a decoder operation: every logical address whose cell sits on
a repaired physical line is remapped to a spare word.  The library's
:class:`~repro.memory.decoder.AddressDecoder` already supports exactly
that (it is how AF faults are modelled), so applying a plan needs no new
memory machinery — the spare words are extra physical words appended to
the array.

The flow helper runs the full loop a BISR controller implements on
silicon: diagnose with a full-capture BIST run, build the bitmap,
allocate spares, burn the remap (on silicon: fuse programming), and
re-run the BIST to confirm the repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.diagnostics.bitmap import FailBitmap
from repro.diagnostics.faillog import FailLog
from repro.march.library import MARCH_C_PLUS_PLUS
from repro.march.simulator import expand, run_on_memory
from repro.march.test import MarchTest
from repro.memory.sram import Sram
from repro.repair.allocation import RepairPlan, allocate_repair


class RepairError(RuntimeError):
    """Raised when a plan cannot be applied (not enough spare words)."""


def make_repairable_memory(n_words: int, spare_words: int, **kwargs) -> Sram:
    """An SRAM with ``spare_words`` extra physical words for repair.

    The logical address space stays ``n_words``; the spares are reachable
    only through decoder remaps.
    """
    memory = Sram(n_words + spare_words, **kwargs)
    memory.logical_words = n_words  # type: ignore[attr-defined]
    return memory


def apply_repair(memory: Sram, plan: RepairPlan, bitmap: FailBitmap) -> List[int]:
    """Burn a repair plan into the memory's decoder.

    Every logical word on a repaired grid line is remapped to the next
    free spare word (physical words beyond the logical space).

    Returns:
        The logical addresses that were remapped.

    Raises:
        RepairError: if the memory lacks enough spare words.
    """
    logical_words = getattr(memory, "logical_words", memory.n_words)
    next_spare = logical_words
    remapped: List[int] = []
    lines: List[Tuple[str, int]] = [("row", row) for row in plan.rows]
    lines += [("column", column) for column in plan.columns]
    for kind, index in lines:
        for word in range(logical_words):
            row, col = bitmap.grid.position((word, 0))
            on_line = (kind == "row" and row == index) or (
                kind == "column" and col == index
            )
            if not on_line:
                continue
            if next_spare >= memory.n_words:
                raise RepairError(
                    f"plan needs more than {memory.n_words - logical_words} "
                    "spare words"
                )
            memory.decoder.remap(word, (next_spare,))
            remapped.append(word)
            next_spare += 1
    return remapped


@dataclass(frozen=True)
class RepairOutcome:
    """Result of the diagnose → allocate → apply → re-test loop.

    Attributes:
        repaired: the part passes after repair.
        plan: the allocation used (``None`` when unrepairable or clean).
        initial_failures / final_failures: BIST fail counts before/after.
        remapped_words: logical addresses moved onto spares.
    """

    repaired: bool
    plan: Optional[RepairPlan]
    initial_failures: int
    final_failures: int
    remapped_words: Tuple[int, ...]

    def __str__(self) -> str:
        if self.plan is None and self.initial_failures:
            return (
                f"UNREPAIRABLE: {self.initial_failures} failures exceed the "
                "redundancy budget"
            )
        if not self.initial_failures:
            return "clean part: no repair needed"
        verdict = "repaired" if self.repaired else "REPAIR FAILED"
        return (
            f"{verdict}: {self.initial_failures} -> {self.final_failures} "
            f"failures; {len(self.remapped_words)} word(s) on spares"
        )


def repair_flow(
    memory: Sram,
    spare_rows: int,
    spare_columns: int,
    test: Optional[MarchTest] = None,
) -> RepairOutcome:
    """Run the complete BISR loop on a (possibly faulty) memory.

    Args:
        memory: a memory from :func:`make_repairable_memory` (or any
            Sram whose tail words are unused spares tracked by a
            ``logical_words`` attribute).
        spare_rows / spare_columns: the redundancy budget.
        test: diagnostic algorithm; defaults to March C++ (full capture
            of every fault class).
    """
    test = test or MARCH_C_PLUS_PLUS
    logical_words = getattr(memory, "logical_words", memory.n_words)

    def bist_failures() -> FailLog:
        memory.reset_state()
        result = run_on_memory(
            expand(test, logical_words, width=memory.width,
                   ports=memory.ports),
            memory,
        )
        return FailLog(test_name=test.name, failures=result.failures)

    log = bist_failures()
    if log.is_clean:
        return RepairOutcome(True, None, 0, 0, ())
    bitmap = FailBitmap.from_log(log, logical_words, memory.width)
    plan = allocate_repair(bitmap, spare_rows, spare_columns)
    if plan is None:
        return RepairOutcome(False, None, len(log), len(log), ())
    remapped = apply_repair(memory, plan, bitmap)
    final = bist_failures()
    return RepairOutcome(
        repaired=final.is_clean,
        plan=plan,
        initial_failures=len(log),
        final_failures=len(final),
        remapped_words=tuple(remapped),
    )
