"""Heuristic fault-type classification from march failure signatures.

A diagnostic BIST run (full fail capture, no early stop) gives, for each
failing cell, the set of reads that mismatched.  Classical march
diagnosis groups defects into behaviourally distinguishable classes —
e.g. a stuck-at-0 and an up-transition fault produce identical March
signatures (the cell never reads back 1), so they form one class.
Labels produced:

``SA0/TF-up``      cell never reads back 1 (fails all expect-1 reads).
``SA1/TF-down``    cell never reads back 0.
``DRF``            fails only reads that follow a retention pause.
``SOF``            fails only the later reads of a multi-read burst
                   (read-disturb; needs a '++'-style diagnostic test).
``CF``             state-dependent: fails a strict subset of the reads
                   of some polarity (an aggressor's state gates it).
``AF/gross``       a large fraction of the address space fails.
``unknown``        anything else.

The classifier needs to know *which* read each failure came from: its
(element index, position-in-burst, follows-pause) context.  It reads
that off the notation — :meth:`~repro.march.projection.MarchProjection.
locate` inverts the golden stream's layout — so a call costs O(items)
plus O(failures), never a walk of the golden stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.diagnostics.faillog import FailLog
from repro.march.element import Pause
from repro.march.projection import MarchProjection
from repro.march.simulator import expand, run_on_memory
from repro.march.test import MarchTest
from repro.march.library import MARCH_C_PLUS_PLUS

#: Fraction of the address space that must fail to call it AF/gross.
GROSS_FAIL_FRACTION = 0.5


@dataclass(frozen=True)
class ReadContext:
    """Context of one read operation within the expanded stream."""

    element_index: int
    expected_polarity: int
    background: int
    burst_position: int  # consecutive-read position within the element ops
    follows_pause: bool

    def expected_bit(self, bit: int) -> int:
        """Expected value of one bit position for this read (the
        background bit XOR the march polarity)."""
        return ((self.background >> bit) & 1) ^ self.expected_polarity


@dataclass(frozen=True)
class Diagnosis:
    """Per-cell classification result.

    Attributes:
        address / bit: the failing cell.
        label: behavioural fault class (see module docstring).
        rationale: one-line human-readable evidence summary.
    """

    address: int
    bit: int
    label: str
    rationale: str


def _read_contexts(
    projection: MarchProjection,
) -> Callable[[int], Optional[ReadContext]]:
    """Read context of a golden op index (None for writes and pauses).

    Per item, once: its element index, per op (polarity, burst
    position) with -1 for writes, and whether a pause precedes it.  An
    op index is then placed by :meth:`MarchProjection.locate`; one
    outside the golden stream raises ``IndexError``.
    """
    per_item: List[Optional[Tuple[int, List[Tuple[int, int]], bool]]] = []
    follows_pause = False
    element_index = 0
    for item in projection.test.items:
        if isinstance(item, Pause):
            follows_pause = True
            per_item.append(None)
            continue
        burst = 0
        meta: List[Tuple[int, int]] = []
        for op in item.ops:
            if op.is_read:
                meta.append((op.polarity, burst))
                burst += 1
            else:
                meta.append((-1, -1))
                burst = 0
        per_item.append((element_index, meta, follows_pause))
        follows_pause = False
        element_index += 1

    def context(index: int) -> Optional[ReadContext]:
        _, bg_idx, item_idx, _, op_idx = projection.locate(index)
        item = per_item[item_idx]
        if item is None:
            return None
        element_index, meta, follows_pause = item
        polarity, burst = meta[op_idx]
        if polarity < 0:
            return None
        return ReadContext(
            element_index=element_index,
            expected_polarity=polarity,
            background=projection.patterns[bg_idx],
            burst_position=burst,
            follows_pause=follows_pause,
        )

    return context


def classify(
    log: FailLog,
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
) -> List[Diagnosis]:
    """Classify every failing cell of a diagnostic run.

    Args:
        log: full fail capture of the run.
        test: the diagnostic algorithm that produced it.
        n_words / width / ports: memory geometry of the run.

    Raises:
        IndexError: a failure's op index lies outside the golden stream.
    """
    if log.is_clean:
        return []
    projection = MarchProjection(test, n_words, width, ports)
    context_of = _read_contexts(projection)
    # Reads per march polarity in one (port, background) pass.
    reads_by_polarity: Dict[int, int] = {0: 0, 1: 0}
    for item in test.items:
        if isinstance(item, Pause):
            continue
        for op in item.ops:
            if op.is_read:
                reads_by_polarity[op.polarity] += 1

    by_address = log.by_address()
    gross = len(by_address) >= GROSS_FAIL_FRACTION * n_words

    diagnoses: List[Diagnosis] = []
    for address, bit in log.failing_cells():
        # Reads-per-expected-bit-value one cell at this bit position sees
        # across a full run (backgrounds shift which bit value each march
        # polarity maps to).
        reads_per_value: Dict[int, int] = {0: 0, 1: 0}
        for background in projection.patterns:
            background_bit = (background >> bit) & 1
            for polarity, reads in reads_by_polarity.items():
                reads_per_value[background_bit ^ polarity] += ports * reads
        fail_contexts: List[ReadContext] = []
        for failure in by_address[address]:
            if not (failure.failing_bits >> bit) & 1:
                continue
            context = context_of(failure.op_index)
            if context is not None:
                fail_contexts.append(context)
        diagnoses.append(
            _classify_cell(address, bit, fail_contexts, reads_per_value, gross)
        )
    return diagnoses


def _classify_cell(
    address: int,
    bit: int,
    fails: List[ReadContext],
    reads_per_cell: Dict[int, int],
    gross: bool,
) -> Diagnosis:
    if gross:
        return Diagnosis(
            address, bit, "AF/gross",
            "more than half the address space fails",
        )
    if not fails:
        return Diagnosis(address, bit, "unknown", "no annotated read context")
    polarities = {context.expected_bit(bit) for context in fails}
    fails_by_polarity = {
        polarity: sum(1 for c in fails if c.expected_bit(bit) == polarity)
        for polarity in polarities
    }
    all_post_pause = all(context.follows_pause for context in fails)
    deep_burst_fail = any(context.burst_position >= 2 for context in fails)

    if all_post_pause:
        return Diagnosis(
            address, bit, "DRF",
            "fails only reads that follow a retention pause",
        )
    if deep_burst_fail and len(polarities) == 1:
        polarity = next(iter(polarities))
        if fails_by_polarity[polarity] < reads_per_cell.get(polarity, 0):
            # A true stuck-at fails *every* read of that polarity
            # including the first of each burst; failing only once deep
            # reads accumulate is the read-disturb signature.
            return Diagnosis(
                address, bit, "SOF",
                "fails only after repeated reads of one value (read disturb)",
            )
    if polarities == {1}:
        if fails_by_polarity[1] >= reads_per_cell.get(1, 0):
            return Diagnosis(address, bit, "SA0/TF-up", "never reads back 1")
        return Diagnosis(
            address, bit, "CF",
            "fails a strict subset of expect-1 reads (state dependent)",
        )
    if polarities == {0}:
        if fails_by_polarity[0] >= reads_per_cell.get(0, 0):
            return Diagnosis(address, bit, "SA1/TF-down", "never reads back 0")
        return Diagnosis(
            address, bit, "CF",
            "fails a strict subset of expect-0 reads (state dependent)",
        )
    return Diagnosis(
        address, bit, "CF",
        "fails reads of both polarities intermittently",
    )


def diagnose(
    memory,
    test: Optional[MarchTest] = None,
) -> List[Diagnosis]:
    """Convenience wrapper: run a diagnostic algorithm and classify.

    Args:
        memory: an :class:`repro.memory.sram.Sram` (possibly faulty).
        test: diagnostic algorithm; defaults to March C++ (whose pauses
            and triple reads make DRF and SOF distinguishable).
    """
    test = test or MARCH_C_PLUS_PLUS
    memory.reset_state()
    stream = expand(test, memory.n_words, width=memory.width, ports=memory.ports)
    result = run_on_memory(stream, memory)
    log = FailLog(test_name=test.name, failures=result.failures)
    return classify(log, test, memory.n_words, width=memory.width,
                    ports=memory.ports)
