"""Sparse shadow memory: the domain of support-projected runs.

The coverage prover (:mod:`repro.analysis.coverage`) and the projected
sweep engine (:mod:`repro.vector.sweep`) never simulate all ``N``
addresses.  Their abstraction is a *projection*: a stimulus's behaviour
at the handful of cells a single fault involves is independent of every
other address, because each fault hook of :mod:`repro.faults` filters
on its own word(s) and mutates nothing for foreign accesses, and
because idle time (``on_elapse``) only advances at explicit pauses —
never per access.
:class:`ShadowMemory` therefore models just the involved words (a sparse
dict defaulting to the power-on value 0) while reproducing the *exact*
access semantics of :class:`repro.memory.sram.Sram`: decoder indirection
(wired-AND multi-target reads, lost writes on empty mappings) and the
hook order of the real write/read/elapse paths.  Running the real fault
objects against it yields bit-exact faulty behaviour at the involved
addresses at a cost independent of memory size.
"""

from __future__ import annotations

from typing import Dict, List

from repro.memory.decoder import AddressDecoder
from repro.memory.retention import RetentionClock


class ShadowMemory:
    """Sparse, fault-hook-faithful stand-in for :class:`Sram`.

    Implements the full surface the fault models touch (``peek`` /
    ``poke`` / ``force_bit``, ``decoder``, ``ports`` / ``width`` /
    ``n_words`` / ``open_read_value``) plus the functional port
    interface, with cell storage lazily defaulting to the power-on
    value 0 — exactly the initial state :meth:`Sram.reset_state`
    establishes before a coverage sweep injects a fault.
    """

    def __init__(
        self,
        n_words: int,
        width: int = 1,
        ports: int = 1,
        open_read_value: int = 0,
    ) -> None:
        self.n_words = n_words
        self.width = width
        self.ports = ports
        self.open_read_value = open_read_value & self.word_mask
        self.decoder = AddressDecoder(n_words)
        self.clock = RetentionClock()
        self.faults: List = []
        self._cells: Dict[int, int] = {}

    @property
    def word_mask(self) -> int:
        return (1 << self.width) - 1

    # -- raw cell access (mirrors Sram) --------------------------------------

    def peek(self, word: int) -> int:
        return self._cells.get(word, 0)

    def poke(self, word: int, value: int) -> None:
        self._cells[word] = value & self.word_mask

    def force_bit(self, word: int, bit: int, value: int) -> None:
        # Unmasked, exactly like Sram.force_bit.
        current = self.peek(word)
        if value:
            self._cells[word] = current | (1 << bit)
        else:
            self._cells[word] = current & ~(1 << bit)

    # -- functional port interface (same hook order as Sram) -----------------

    def write(self, port: int, address: int, value: int) -> None:
        value &= self.word_mask
        self.clock.advance(1)
        for word in self.decoder.targets(address):
            old = self.peek(word)
            new = value
            for fault in self.faults:
                new = fault.on_write(self, port, word, old, new) & self.word_mask
            self.poke(word, new)
            for fault in self.faults:
                fault.on_any_write(self, port, word, old, new)

    def read(self, port: int, address: int) -> int:
        self.clock.advance(1)
        targets = self.decoder.targets(address)
        if not targets:
            return self.open_read_value
        observed = self.word_mask
        for word in targets:
            value = self.peek(word)
            for fault in self.faults:
                value = fault.on_read(self, port, word, value) & self.word_mask
            observed &= value
        return observed

    def elapse(self, duration: int) -> None:
        self.clock.advance(duration)
        for fault in self.faults:
            fault.on_elapse(self, duration)

    # -- fault management ----------------------------------------------------

    def attach(self, fault) -> None:
        fault.install(self)
        self.faults.append(fault)

    def detach_all(self) -> None:
        errors: List[BaseException] = []
        try:
            for fault in self.faults:
                try:
                    fault.remove(self)
                except Exception as error:
                    errors.append(error)
        finally:
            self.faults.clear()
            self.decoder.reset()
        if errors:
            raise errors[0]
