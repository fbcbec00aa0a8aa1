"""Sparse shadow memory: the domain of support-projected runs.

The coverage prover (:mod:`repro.analysis.coverage`) and the projected
sweep engine (:mod:`repro.vector.sweep`) never simulate all ``N``
addresses.  Their abstraction is a *projection*: a stimulus's behaviour
at the handful of cells a single fault involves is independent of every
other address, because each fault hook of :mod:`repro.faults` filters
on its own word(s) and mutates nothing for foreign accesses, and
because idle time (``on_elapse``) only advances at explicit pauses —
never per access.
:class:`ShadowMemory` is therefore an :class:`~repro.memory.sram.Sram`
that differs in storage only: a sparse dict holding just the words the
run touches, every other word reading the power-on value.  The access
paths — decoder indirection (wired-AND multi-target reads, lost writes
on empty mappings) and the hook order of write/read/elapse — are
inherited, so running the real fault objects against it yields
bit-exact faulty behaviour at the involved addresses at a cost
independent of memory size.
"""

from __future__ import annotations

from typing import Dict

from repro.memory.sram import Sram


class _SparseCells(dict):
    """Word storage that holds only written words; the rest read ``fill``."""

    __slots__ = ("fill",)

    def __init__(self, fill: int) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, word: int) -> int:
        return self.fill


class ShadowMemory(Sram):
    """Sparse, fault-hook-faithful stand-in for :class:`Sram`.

    Cell storage lazily defaults to the power-on value 0 — exactly the
    initial state :meth:`Sram.reset_state` establishes before a
    coverage sweep injects a fault — so a shadow of ``N`` words never
    allocates ``N`` words.
    """

    def _storage(self, fill: int) -> Dict[int, int]:
        return _SparseCells(fill)
