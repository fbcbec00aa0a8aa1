"""Scan-path self-test of the microcode storage unit.

Section 3 of the paper argues a testability advantage of the scan-only
storage redesign: "The scan-path of the scan-only registers is easily
tested via the scan-in ports and could be used as a set of stimulus test
points to test the entire memory BIST unit" — simpler than testing a
small SRAM or ROM (the weakness it attributes to the architecture of its
ref. [9]).

This module implements that flow: shift a set of raw test patterns
through the scan chain, shift them back out, and diff.  The pattern set
(solid 0/1, both checkerboards, a row-index ripple) detects every
stuck-at cell in the chain and all shorts between adjacent chain bits —
the standard scan-chain pattern argument.  After the self-test, the
intended program is reloaded and read back (:func:`readback_verify`),
which is the paper's "stimulus test points" usage: a verified storage
unit then exercises the rest of the BIST unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.microcode.assembler import MicrocodeProgram
from repro.core.microcode.storage import StorageUnit


def standard_scan_patterns(rows: int, width: int) -> List[List[int]]:
    """The self-test pattern set, as raw bitstreams (row-major, LSB
    first): all-0, all-1, checkerboard, inverse checkerboard, and a
    row-ripple pattern that puts each row's index in its data bits."""
    total = rows * width
    all_zero = [0] * total
    all_one = [1] * total
    checker = [(i & 1) for i in range(total)]
    inverse = [(i & 1) ^ 1 for i in range(total)]
    ripple = [
        (row >> (bit % 8)) & 1
        for row in range(rows)
        for bit in range(width)
    ]
    return [all_zero, all_one, checker, inverse, ripple]


@dataclass(frozen=True)
class ScanTestResult:
    """Outcome of the storage scan self-test.

    Attributes:
        passed: every pattern shifted through unchanged.
        patterns_run: how many patterns were applied.
        failing_cells: distinct (row, bit) cells that corrupted at least
            one pattern.
    """

    passed: bool
    patterns_run: int
    failing_cells: Tuple[Tuple[int, int], ...]

    def __str__(self) -> str:
        if self.passed:
            return f"storage scan test: PASS ({self.patterns_run} patterns)"
        cells = ", ".join(f"({r},{b})" for r, b in self.failing_cells[:8])
        return (
            f"storage scan test: FAIL — {len(self.failing_cells)} cell(s): "
            f"{cells}"
        )


def scan_test(storage: StorageUnit) -> ScanTestResult:
    """Run the full scan self-test; restores the prior contents after.

    The test is destructive to the storage contents while running, as on
    silicon; the pre-test contents are captured through the scan chain
    first and shifted back in afterwards.
    """
    saved = storage.scan_dump()
    failing = set()
    patterns = standard_scan_patterns(storage.rows, storage.width)
    for pattern in patterns:
        storage.scan_load(pattern, validate=False)
        observed = storage.scan_dump()
        for index, (want, got) in enumerate(zip(pattern, observed)):
            if want != got:
                failing.add(divmod(index, storage.width))
    storage.scan_load(saved, validate=False)
    return ScanTestResult(
        passed=not failing,
        patterns_run=len(patterns),
        failing_cells=tuple(sorted(failing)),
    )


@dataclass(frozen=True)
class ReadbackResult:
    """Outcome of a program load-and-readback verification."""

    passed: bool
    mismatching_rows: Tuple[int, ...]

    def __str__(self) -> str:
        if self.passed:
            return "program readback: PASS"
        return f"program readback: FAIL at rows {list(self.mismatching_rows)}"


def readback_verify(
    storage: StorageUnit, program: MicrocodeProgram
) -> ReadbackResult:
    """Load ``program`` and verify every row reads back bit-exact.

    This is the pre-test confidence step a tester runs before trusting a
    BIST verdict: a storage defect that survives the scan test's pattern
    set (or appeared since) is caught against the intended program image.
    """
    storage.load(program.instructions)
    mismatches = []
    for row, instr in enumerate(program.instructions):
        if storage.word(row) != instr.encode():
            mismatches.append(row)
    return ReadbackResult(passed=not mismatches,
                          mismatching_rows=tuple(mismatches))
