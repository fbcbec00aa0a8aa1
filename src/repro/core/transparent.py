"""Transparent BIST transform for on-line testing.

The paper's conclusion argues that the optimised microcode controller's
flexibility "expands its application from diagnostics to on-line
testing" (citing Nicolaidis' transparent BIST).  A *transparent* test
preserves the memory's contents: instead of writing fixed data, every
operation works relative to the data already stored, so the test can run
during idle periods of a live system.

Nicolaidis' transformation of a march test:

1. drop initialising write elements (those writing before any read —
   the initial contents play the role of the background data);
2. reinterpret polarities relative to each cell's initial content ``s``:
   ``r0/w1`` become ``r s / w s̄`` etc.;
3. append a final element restoring the original contents (the
   transformed test must perform an even number of inversions per cell —
   if the net inversion count is odd, append one more inverting write);
4. because expected read values now depend on unknown initial data, the
   response is checked by *signature prediction*: a first pass reads out
   and predicts the signature, a second pass compares (we model the
   prediction pass explicitly).

:func:`transparent_version` implements 1–3 on the march-test algebra;
:class:`TransparentBistRun` implements the two-pass signature scheme on
top of any controller-compatible memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.march.element import MarchElement, OpKind, Operation, Pause
from repro.march.simulator import MemoryOperation, run_on_memory
from repro.march.test import MarchItem, MarchTest
from repro.memory.sram import Sram


def transparent_version(test: MarchTest) -> MarchTest:
    """Content-preserving (transparent) variant of a march test.

    Polarity semantics of the result: polarity 0 = the cell's *initial*
    content ``s``, polarity 1 = its complement.  The transform drops
    leading write-only elements and balances the per-cell inversion
    count so the memory ends up unchanged.
    """
    items: List[MarchItem] = []
    seen_read = False
    inversions = 0
    for item in test.items:
        if isinstance(item, Pause):
            if seen_read:
                items.append(item)
            continue
        if not seen_read and all(op.is_write for op in item.ops):
            # Initialising element: the live contents replace it.
            continue
        seen_read = True
        items.append(item)
        inversions += sum(
            1 for op in item.ops if op.is_write and _inverts(op, item)
        )
    if not items:
        raise ValueError(f"{test.name} has no read operations to make transparent")
    # Count net inversion parity per cell: polarity-1 writes flip relative
    # to the previous polarity-0 state; in the relative encoding, a write
    # of polarity p leaves the cell at p, so the final state equals the
    # last write's polarity (or the initial state when no write exists).
    last_write_polarity = _final_write_polarity(items)
    if last_write_polarity == 1:
        items.append(MarchElement(items[-1].order if isinstance(items[-1], MarchElement) else test.elements[-1].order,
                                  [Operation(OpKind.WRITE, 0)]))
    return MarchTest(f"Transparent {test.name}", items)


def _inverts(op: Operation, element: MarchElement) -> bool:
    return op.polarity == 1


def _final_write_polarity(items: List[MarchItem]) -> int:
    polarity = 0
    for item in items:
        if isinstance(item, Pause):
            continue
        for op in item.ops:
            if op.is_write:
                polarity = op.polarity
    return polarity


def transparent_stream(
    test: MarchTest, initial: Sequence[int], width: int, ports: int
) -> Iterator[Tuple[int, int, Optional[int], MemoryOperation]]:
    """Expand a transparent test against the contents ``initial``.

    Polarity 0 means a cell's content in ``initial``, polarity 1 its
    complement; the full test repeats per port.  Yields ``(port, item
    index, op index, operation)`` in controller order — port, march
    item, address, op — with op index ``None`` for a pause.
    """
    mask = (1 << width) - 1
    n_words = len(initial)
    for port in range(ports):
        for item_index, item in enumerate(test.items):
            if isinstance(item, Pause):
                yield port, item_index, None, MemoryOperation(
                    port, 0, False, delay=item.duration
                )
                continue
            addresses = (
                range(n_words)
                if not item.order.resolve().value == "down"
                else range(n_words - 1, -1, -1)
            )
            for address in addresses:
                base = initial[address]
                for op_index, op in enumerate(item.ops):
                    word = base ^ (mask if op.polarity else 0)
                    if op.is_write:
                        operation = MemoryOperation(
                            port, address, True, value=word
                        )
                    else:
                        operation = MemoryOperation(
                            port, address, False, expected=word
                        )
                    yield port, item_index, op_index, operation


@dataclass
class TransparentBistRun:
    """Two-pass transparent BIST execution on a live memory.

    Pass 1 (*signature prediction*): read every cell to capture the
    initial contents and compute the expected read sequence.  Pass 2
    (*test*): run the transparent algorithm with expectations rebased on
    the captured contents, compacting reads into a simple XOR/rotate
    signature, and compare against the prediction.

    Attributes:
        test: the transparent march test (from
            :func:`transparent_version`).
        memory: the live memory (contents are preserved on a fault-free
            part).
    """

    test: MarchTest
    memory: Sram

    @staticmethod
    def _signature(values: List[int], width: int) -> int:
        """XOR/rotate compaction (a behavioural MISR stand-in)."""
        signature = 0
        mask = (1 << max(width, 8)) - 1
        for value in values:
            signature = (((signature << 1) | (signature >> (max(width, 8) - 1))) & mask) ^ value
        return signature

    def run(self) -> "TransparentResult":
        """Execute both passes; see :class:`TransparentResult`."""
        initial = self.memory.snapshot()
        stream = [
            op for *_, op in transparent_stream(
                self.test, initial, self.memory.width, self.memory.ports
            )
        ]
        predicted = self._signature(
            [op.expected for op in stream if op.is_read], self.memory.width
        )
        failures = run_on_memory(stream, self.memory).failures
        # The reads observed what was expected, except where they failed.
        patched = {failure.op_index: failure.observed for failure in failures}
        observed = self._signature(
            [
                patched.get(index, op.expected)
                for index, op in enumerate(stream)
                if op.is_read
            ],
            self.memory.width,
        )
        final = self.memory.snapshot()
        return TransparentResult(
            passed=observed == predicted,
            predicted_signature=predicted,
            observed_signature=observed,
            mismatch_count=len(failures),
            contents_preserved=tuple(final) == tuple(initial),
        )


@dataclass(frozen=True)
class TransparentResult:
    """Outcome of a transparent BIST run.

    ``contents_preserved`` is only meaningful on a fault-free memory —
    a faulty part may (correctly) end up corrupted.
    """

    passed: bool
    predicted_signature: int
    observed_signature: int
    mismatch_count: int
    contents_preserved: bool
