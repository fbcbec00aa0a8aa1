"""Behavioural SRAM model with fault hook points.

:class:`Sram` is the memory-under-test of every BIST run in this library.
It is deliberately behavioural: a word array plus an address decoder and
an ordered list of attached cell faults.  Every read and write funnels
through the fault hooks so that the functional fault models of
:mod:`repro.faults` (stuck-at, transition, coupling, stuck-open,
retention, NPSF) can distort the observed behaviour exactly as the DFT
literature defines them.

Multi-port behaviour: the ports of an embedded multiport SRAM share one
cell array; the BIST architectures in the paper test each port by
re-running the whole algorithm per port (the microcode ``Inc. Port``
instruction / the FSM controller's path B).  Port-specific defects are
modelled by faults that only fire for a given port.

Genuinely *concurrent* multi-port access — several ports active in the
same cycle, the paper's multiport Table 2 regime — goes through
:meth:`Sram.cycle`, which applies a whole per-port operation group
atomically under a documented read/write and write/write arbitration
order (reads sample pre-cycle contents; writes commit in ascending port
order).  Faults that are only sensitised by simultaneous accesses (the
contention PAF and cross-port coupling models of
:mod:`repro.faults.concurrent`) observe the group through the
``on_cycle_start``/``on_cycle_end`` hooks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

from repro.memory.decoder import AddressDecoder
from repro.memory.retention import RetentionClock


class Sram:
    """Word-organised behavioural SRAM.

    Args:
        n_words: number of logical addresses (= physical words when the
            decoder is fault-free).
        width: word width in bits; 1 models a bit-oriented memory.
        ports: number of identical read/write ports.
        open_read_value: word returned when the decoder maps an address
            to no cell (AF1); 0 models bit lines pulled to ground.

    Attributes:
        decoder: the (mutable) address decoder.
        clock: retention time base; advanced by 1 per access and by pause
            durations via :meth:`elapse`.
        faults: attached cell faults, in injection order.
    """

    def __init__(
        self,
        n_words: int,
        width: int = 1,
        ports: int = 1,
        open_read_value: int = 0,
    ) -> None:
        if n_words <= 0:
            raise ValueError(f"memory needs at least one word, got {n_words}")
        if width <= 0 or width & (width - 1):
            raise ValueError(f"width must be a positive power of two, got {width}")
        if ports <= 0:
            raise ValueError(f"memory needs at least one port, got {ports}")
        self.n_words = n_words
        self.width = width
        self.ports = ports
        self.word_mask = (1 << width) - 1
        self.open_read_value = open_read_value & self.word_mask
        self.decoder = AddressDecoder(n_words)
        self.clock = RetentionClock()
        self.faults: List = []
        self._cells = self._storage(0)

    def _storage(self, fill: int) -> Union[List[int], Dict[int, int]]:
        """Fresh cell storage, every word holding ``fill``.

        The one place storage is built: subclasses may return any
        mapping from word index to word that reads ``fill`` for a word
        never written (:class:`~repro.memory.shadow.ShadowMemory` keeps
        only the words it touches).
        """
        return [fill] * self.n_words

    # -- geometry ----------------------------------------------------------

    @property
    def size_bits(self) -> int:
        """Total capacity in bits."""
        return self.n_words * self.width

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.ports:
            raise IndexError(f"port {port} out of range 0..{self.ports - 1}")

    # -- raw cell access (fault models and diagnostics only) ----------------

    def peek(self, word: int) -> int:
        """Read a physical word without exercising decoder or faults."""
        return self._cells[word]

    def poke(self, word: int, value: int) -> None:
        """Set a physical word directly, bypassing decoder and faults.

        Used by coupling-fault models to flip their victim and by tests
        to establish known state.
        """
        self._cells[word] = value & self.word_mask

    def force_bit(self, word: int, bit: int, value: int) -> None:
        """Set one physical bit directly (fault-model helper)."""
        if value:
            self._cells[word] |= 1 << bit
        else:
            self._cells[word] &= ~(1 << bit)

    # -- functional port interface ------------------------------------------

    def write(self, port: int, address: int, value: int) -> None:
        """Write ``value`` through ``port`` at logical ``address``."""
        if not 0 <= port < self.ports:
            self._check_port(port)
        mask = self.word_mask
        value &= mask
        self.clock.now += 1
        if not 0 <= address < self.n_words:
            self.decoder.check(address)
        remaps = self.decoder.remaps
        cells = self._cells
        faults = self.faults
        for word in remaps.get(address, (address,)) if remaps else (address,):
            old = cells[word]
            new = value
            for fault in faults:
                new = fault.on_write(self, port, word, old, new) & mask
            cells[word] = new
            for fault in faults:
                fault.on_any_write(self, port, word, old, new)

    def read(self, port: int, address: int) -> int:
        """Read through ``port`` at logical ``address``; returns the word.

        Reads of an address decoded to several cells observe the
        wired-AND of their (fault-distorted) contents; an address decoded
        to no cell observes :attr:`open_read_value`.
        """
        if not 0 <= port < self.ports:
            self._check_port(port)
        self.clock.now += 1
        if not 0 <= address < self.n_words:
            self.decoder.check(address)
        remaps = self.decoder.remaps
        targets = remaps.get(address, (address,)) if remaps else (address,)
        if not targets:
            return self.open_read_value
        mask = observed = self.word_mask
        cells = self._cells
        faults = self.faults
        for word in targets:
            value = cells[word]
            for fault in faults:
                value = fault.on_read(self, port, word, value) & mask
            observed &= value
        return observed

    def cycle(self, ops: Sequence) -> dict:
        """Apply one same-cycle multi-port operation group atomically.

        ``ops`` is a group of :class:`~repro.march.simulator.
        MemoryOperation` issued in the *same* memory cycle, at most one
        per port.  The arbitration contract (asserted here, documented
        in ``docs/TESTING.md``) is:

        1. every operation targets a distinct port (a port has one
           address/data register — two same-cycle accesses through one
           port are a stimulus bug, not a memory behaviour);
        2. the clock advances once for the whole group (one cycle);
        3. **reads sample pre-cycle contents** ("read-first"): all reads
           complete, in ascending port order, before any write commits —
           so a write+read race on one cell observes the old value;
        4. writes commit after every read, in ascending port order, so a
           write/write race on one cell resolves to the **highest port**
           (last writer wins).

        A pause may only travel alone (a single delay operation); it is
        equivalent to :meth:`elapse`.

        Fault hooks: ``on_cycle_start(memory, group)`` fires before any
        access of the group and ``on_cycle_end(memory, group)`` after
        the last one (exception-safely), bracketing the per-access
        ``on_read``/``on_write``/``on_any_write`` hooks so concurrency-
        sensitised fault models can see which ports co-access which
        words this cycle.  The sequential :meth:`read`/:meth:`write`
        paths never fire the cycle hooks — a fault gated on them is, by
        construction, invisible to one-port-at-a-time stimuli.

        Returns:
            ``{port: observed_word}`` for the group's reads.
        """
        group = sorted(ops, key=lambda op: op.port)
        if not group:
            raise ValueError("a cycle needs at least one operation")
        ports_seen = set()
        for op in group:
            self._check_port(op.port)
            if op.port in ports_seen:
                raise ValueError(
                    f"two same-cycle operations on port {op.port}; a port "
                    f"issues at most one access per cycle"
                )
            ports_seen.add(op.port)
            if op.is_delay and len(group) > 1:
                raise ValueError(
                    "a pause cannot share a cycle with port accesses"
                )
        if group[0].is_delay:
            self.elapse(group[0].delay)
            return {}
        self.clock.now += 1
        frozen = tuple(group)
        for fault in self.faults:
            fault.on_cycle_start(self, frozen)
        try:
            observed_by_port = {}
            for op in frozen:
                if not op.is_read:
                    continue
                targets = self.decoder.targets(op.address)
                if not targets:
                    observed_by_port[op.port] = self.open_read_value
                    continue
                observed = self.word_mask
                for word in targets:
                    value = self._cells[word]
                    for fault in self.faults:
                        value = (
                            fault.on_read(self, op.port, word, value)
                            & self.word_mask
                        )
                    observed &= value
                observed_by_port[op.port] = observed
            for op in frozen:
                if not op.is_write:
                    continue
                value = op.value & self.word_mask
                for word in self.decoder.targets(op.address):
                    old = self._cells[word]
                    new = value
                    for fault in self.faults:
                        new = (
                            fault.on_write(self, op.port, word, old, new)
                            & self.word_mask
                        )
                    self._cells[word] = new
                    for fault in self.faults:
                        fault.on_any_write(self, op.port, word, old, new)
        finally:
            for fault in self.faults:
                fault.on_cycle_end(self, frozen)
        return observed_by_port

    def elapse(self, duration: int) -> None:
        """Idle for ``duration`` retention-time units (march pauses)."""
        self.clock.advance(duration)
        for fault in self.faults:
            fault.on_elapse(self, duration)

    # -- fault management ----------------------------------------------------

    def attach(self, fault) -> None:
        """Attach a cell fault (see :class:`repro.faults.base.CellFault`)."""
        fault.install(self)
        self.faults.append(fault)

    def detach_all(self) -> None:
        """Remove every fault and restore the fault-free decoder.

        Exception-safe: even when a fault's ``remove`` raises, every
        other fault is still removed, the fault list is cleared and the
        decoder is restored before the first error propagates — a
        misbehaving fault model cannot leave a half-attached fault (or
        its decoder rewrite) behind for the next experiment.
        """
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

    def reset_state(self, fill: int = 0) -> None:
        """Reset cell contents, time and the dynamic state of all faults.

        Fault *presence* is kept — this models power-cycling a defective
        part between test runs.
        """
        self._cells = self._storage(fill & self.word_mask)
        self.clock.reset()
        for fault in self.faults:
            fault.reset()

    def snapshot(self) -> Sequence[int]:
        """Immutable copy of the physical cell contents."""
        return tuple(map(self._cells.__getitem__, range(self.n_words)))

    def __repr__(self) -> str:
        kind = "bit-oriented" if self.width == 1 else f"{self.width}-bit word"
        return (
            f"{type(self).__name__}({self.n_words} words, {kind}, "
            f"{self.ports} port(s), {len(self.faults)} fault(s))"
        )
