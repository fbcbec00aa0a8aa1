"""Support-projected replay of a march test, read off its notation.

A march test is a fixed op body swept over the addresses, so a fault
sees only the ops on its own cells — its support
(:func:`repro.faults.support.support_of`).  :class:`MarchProjection`
replays exactly those ops: support addresses only, in each element's
traversal order, every pause elapsed, against the real fault object on
a sparse :class:`~repro.memory.shadow.ShadowMemory`, reads compared
with the word the notation expects.  That is the golden stream
(:func:`~repro.march.simulator.expand`) restricted to the support,
computed from the notation instead of materialised: preparing a test
costs O(items) and a run O(|support| · ops), at any memory size.

Every fault hook filters on its own word(s), decoder rewrites are
confined to the fault's own addresses and idle time only advances at
pauses, so a failing read in the projected run is a failing read of
the full run, and — when the fault-free run fails no read
(:func:`fault_free_failures`) — no failing read there means the full
run passes.

The coverage prover (:func:`repro.analysis.coverage.certify`) turns a
run's :data:`SymbolicFailure` into a certificate witness; the projected
sweep (:mod:`repro.vector.sweep`) reads a detected / not-detected
verdict off the same run.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.faults.base import CellFault
from repro.march.backgrounds import apply_polarity, data_backgrounds
from repro.march.element import AddressOrder, MarchElement, Pause
from repro.march.test import MarchTest
from repro.memory.shadow import ShadowMemory

#: Symbolic failure location inside one projected run:
#: (port, background index, item index, support slot, op index).
SymbolicFailure = Tuple[int, int, int, int, int]


def fault_free_failures(
    test: MarchTest, patterns: Sequence[int], width: int, ports: int
) -> List[Tuple[int, int, int, int]]:
    """(port, bg_idx, item_idx, op_idx) of reads failing without any fault.

    In a fault-free memory every address receives the identical operation
    sequence, so a single symbolic cell (power-on value 0, carried across
    backgrounds and ports exactly like the real array state) traces all
    of them at once.
    """
    failures: List[Tuple[int, int, int, int]] = []
    value = 0
    for port in range(ports):
        for bg_idx, background in enumerate(patterns):
            for item_idx, item in enumerate(test.items):
                if isinstance(item, Pause):
                    continue
                for op_idx, op in enumerate(item.ops):
                    word = apply_polarity(background, op.polarity, width)
                    if op.is_write:
                        value = word
                    elif word != value:
                        failures.append((port, bg_idx, item_idx, op_idx))
    return failures


class MarchProjection:
    """One test + geometry, prepared for per-stratum projected runs.

    Also the golden stream's layout, written down once:
    :meth:`witness_line` maps a (pass, item, op) read to the line its
    op indices lie on, :meth:`witness_index` a (pass, item, address,
    op) read to its op index, and :meth:`locate` an op index back.
    """

    def __init__(
        self, test: MarchTest, n_words: int, width: int, ports: int
    ) -> None:
        self.test = test
        self.n_words = n_words
        self.width = width
        self.ports = ports
        self.patterns = list(data_backgrounds(width))
        # Golden-stream offset of each item within one (port, background)
        # pass; mirrors the expand() loop structure analytically.
        self.item_offsets: List[int] = []
        offset = 0
        for item in test.items:
            self.item_offsets.append(offset)
            offset += 1 if isinstance(item, Pause) else len(item.ops) * n_words
        self.per_pass = offset

    @cached_property
    def free_failures(self) -> List[Tuple[int, int, int, int]]:
        """:func:`fault_free_failures` of this test and geometry."""
        return fault_free_failures(
            self.test, self.patterns, self.width, self.ports
        )

    @cached_property
    def _passes(self) -> List[List[tuple]]:
        """Per background, per item: (pause duration, ascending sweep,
        ((is_write, word), ...)) — the element body with its words
        resolved once instead of on every support address."""
        return [
            [
                (item.duration, True, ())
                if isinstance(item, Pause)
                else (
                    0,
                    item.order.resolve() is AddressOrder.UP,
                    tuple(
                        (op.is_write,
                         apply_polarity(background, op.polarity, self.width))
                        for op in item.ops
                    ),
                )
                for item in self.test.items
            ]
            for background in self.patterns
        ]

    @property
    def length(self) -> int:
        """Length of the golden stream
        (:func:`~repro.march.simulator.operation_count`)."""
        return self.ports * len(self.patterns) * self.per_pass

    def run(
        self, fault: CellFault, addresses: Sequence[int]
    ) -> Optional[SymbolicFailure]:
        """Execute the projected faulty run over the support addresses.

        ``addresses`` must be ascending.  Returns the first symbolic
        failure, or None when every projected read matches.  The fault
        object's dynamic state is reset around the run so shared
        universe instances stay reusable.
        """
        shadow = ShadowMemory(self.n_words, width=self.width, ports=self.ports)
        read, write = shadow.read, shadow.write
        descending = tuple(reversed(addresses))
        fault.reset()
        shadow.attach(fault)
        try:
            for port in range(self.ports):
                for bg_idx, items in enumerate(self._passes):
                    for item_idx, (pause, up, body) in enumerate(items):
                        if pause:
                            shadow.elapse(pause)
                            continue
                        for address in addresses if up else descending:
                            for op_idx, (is_write, word) in enumerate(body):
                                if is_write:
                                    write(port, address, word)
                                elif read(port, address) != word:
                                    slot = addresses.index(address)
                                    return (
                                        port, bg_idx, item_idx, slot, op_idx
                                    )
        finally:
            shadow.detach_all()
            fault.reset()
        return None

    def detects(self, fault: CellFault, addresses: Sequence[int]) -> bool:
        """Whether the projected run of ``fault`` fails a read."""
        return self.run(fault, addresses) is not None

    def witness_line(
        self, port: int, bg_idx: int, item_idx: int, op_idx: int
    ) -> Tuple[int, int]:
        """``(base, stride)`` of one (pass, item, op) read: at ``address``
        it is golden op ``base + stride * address``."""
        item = self.test.items[item_idx]
        assert isinstance(item, MarchElement)
        stride = len(item.ops)
        base = (
            (port * len(self.patterns) + bg_idx) * self.per_pass
            + self.item_offsets[item_idx]
            + op_idx
        )
        if item.order.resolve() is AddressOrder.UP:
            return base, stride
        return base + (self.n_words - 1) * stride, -stride

    def witness_index(
        self, port: int, bg_idx: int, item_idx: int, address: int, op_idx: int
    ) -> int:
        """Golden-expansion index of one (pass, item, address, op) read."""
        base, stride = self.witness_line(port, bg_idx, item_idx, op_idx)
        return base + stride * address

    def locate(self, index: int) -> Tuple[int, int, int, int, int]:
        """(port, bg_idx, item_idx, address, op_idx) of one golden op.

        The inverse of :meth:`witness_index`, defined for every op: a
        pause is item ``item_idx`` with address and op index 0 (expand
        issues its delay at address 0).  ``index`` is taken like a list
        index into the golden stream — negative counts from the end —
        and one outside it raises ``IndexError``.
        """
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError("list index out of range")
        pass_index, offset = divmod(index, self.per_pass)
        port, bg_idx = divmod(pass_index, len(self.patterns))
        item_idx = bisect_right(self.item_offsets, offset) - 1
        item = self.test.items[item_idx]
        if isinstance(item, Pause):
            return port, bg_idx, item_idx, 0, 0
        position, op_idx = divmod(
            offset - self.item_offsets[item_idx], len(item.ops)
        )
        if item.order.resolve() is not AddressOrder.UP:
            position = self.n_words - 1 - position
        return port, bg_idx, item_idx, position, op_idx
