"""Port-restricted faults for multiport memories.

Multiport SRAM cells have one access-transistor pair (and word/bit-line
set) *per port*; a defect there breaks accesses through one port while
the cell remains perfectly healthy through the others.  These are the
faults that justify the paper's per-port repetition of the whole test
algorithm (the microcode ``Inc. Port`` instruction, the FSM controller's
path B): a single-port pass cannot see them.

:class:`PortRestrictedFault` is a decorator fault — it wraps any
:class:`~repro.faults.base.CellFault` and gates its read/write hooks on
the accessing port.  :class:`PortStuckOpenAccess` models the most common
multiport defect directly: an open access device that makes one port's
reads of a cell float and its writes fail.
"""

from __future__ import annotations

from repro.faults.base import CellFault, with_bit


class PortRestrictedFault(CellFault):
    """A cell fault active only when accessed through one port.

    The wrapped fault's write/read hooks fire only for accesses through
    ``port``; its passive hooks (``on_any_write`` for coupling triggers,
    ``on_elapse`` for retention) remain port-independent because they
    model cell-internal mechanisms, not access paths.

    Args:
        port: the defective port's index.
        fault: the underlying cell fault.
    """

    #: The class tag; each instance's ``kind`` is ``"<inner>@p<port>"``.
    kind = "PORT"

    def __init__(self, port: int, fault: CellFault) -> None:
        if port < 0:
            raise ValueError(f"port index must be non-negative, got {port}")
        self.port = port
        self.fault = fault
        self.kind = f"{fault.kind}@p{port}"

    def install(self, memory) -> None:
        if self.port >= memory.ports:
            raise ValueError(
                f"memory has {memory.ports} port(s); no port {self.port}"
            )
        # The wrapped fault's install side effects (e.g. forcing a stuck
        # level) are cell-internal only for genuinely cell-level faults;
        # port-restricted defects live in the access path, so we skip
        # them and rely purely on the access hooks.

    def reset(self) -> None:
        self.fault.reset()

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        if port != self.port:
            return new
        return self.fault.on_write(memory, port, word, old, new)

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if port != self.port:
            return value
        return self.fault.on_read(memory, port, word, value)

    def on_any_write(self, memory, port: int, word: int, old: int, new: int) -> None:
        self.fault.on_any_write(memory, port, word, old, new)

    def on_elapse(self, memory, duration: int) -> None:
        self.fault.on_elapse(memory, duration)

    def on_cycle_start(self, memory, group) -> None:
        self.fault.on_cycle_start(memory, group)

    def on_cycle_end(self, memory, group) -> None:
        self.fault.on_cycle_end(memory, group)

    def describe(self) -> str:
        return f"port {self.port} only: {self.fault.describe()}"


class PortStuckOpenAccess(CellFault):
    """Open access device between cell ``(word, bit)`` and one port.

    Writes through the defective port do not reach the cell bit; reads
    through it observe the floating bit line (``open_value``).  All
    other ports behave normally — the canonical defect that per-port
    test repetition exists to catch.

    Args:
        port: the defective port.
        word / bit: the disconnected cell.
        open_value: value a floating read observes (0 models a
            pulled-down bit line).
    """

    kind = "PAF"

    def __init__(self, port: int, word: int, bit: int, open_value: int = 0) -> None:
        if open_value not in (0, 1):
            raise ValueError(f"open value must be 0 or 1, got {open_value!r}")
        self.port = port
        self.word = word
        self.bit = bit
        self.open_value = open_value

    def install(self, memory) -> None:
        if self.port >= memory.ports:
            raise ValueError(
                f"memory has {memory.ports} port(s); no port {self.port}"
            )

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        if port != self.port or word != self.word:
            return new
        # The write does not reach the cell bit: keep the old value.
        return with_bit(new, self.bit, (old >> self.bit) & 1)

    def on_read(self, memory, port: int, word: int, value: int) -> int:
        if port != self.port or word != self.word:
            return value
        return with_bit(value, self.bit, self.open_value)

    def describe(self) -> str:
        return (
            f"PAF: cell ({self.word},{self.bit}) disconnected from port "
            f"{self.port} (floating reads = {self.open_value})"
        )


def port_fault_universe(n_words: int, width: int, ports: int):
    """All single-port access faults (one PAF per cell per port)."""
    return [
        PortStuckOpenAccess(port, word, bit)
        for port in range(ports)
        for word in range(n_words)
        for bit in range(width)
    ]
