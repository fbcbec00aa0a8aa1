"""Linked faults: multiple simple faults that mask each other.

A *linked* fault is a set of simple faults sharing a victim cell whose
effects can cancel before any read observes them — the classical example
is two idempotent coupling faults ⟨a1↑; v:=x⟩ and ⟨a2↑; v:=x̄⟩: a march
element that toggles both aggressors in sequence flips the victim twice,
and the following read sees nothing.  Unlinked-fault tests (March C)
provably miss some of these; March LR (van de Goor & Gaydadjiev, 1996)
was designed to detect the realistic linked combinations, and the X8
benchmark measures exactly that gap.

:class:`CompositeFault` makes a set of simple faults injectable as one
unit through the single-fault machinery (the *set* is the fault).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.faults.base import CellFault
from repro.faults.coupling import IdempotentCouplingFault


class CompositeFault(CellFault):
    """Several simple faults present simultaneously, injected as one.

    Hook calls fan out to every member in order; ``kind`` joins the
    member kinds (e.g. ``"CFid&CFid"``).
    """

    #: The class tag; each instance's ``kind`` names its members.
    kind = "LINKED"

    def __init__(self, faults: Sequence[CellFault], kind: str = "") -> None:
        if len(faults) < 2:
            raise ValueError("a composite fault needs at least two members")
        self.faults = list(faults)
        self.kind = kind or "&".join(fault.kind for fault in self.faults)

    def install(self, memory) -> None:
        for fault in self.faults:
            fault.install(memory)

    def remove(self, memory) -> None:
        for fault in self.faults:
            fault.remove(memory)

    def reset(self) -> None:
        for fault in self.faults:
            fault.reset()

    def on_write(self, memory, port, word, old, new):
        for fault in self.faults:
            new = fault.on_write(memory, port, word, old, new)
        return new

    def on_read(self, memory, port, word, value):
        for fault in self.faults:
            value = fault.on_read(memory, port, word, value)
        return value

    def on_any_write(self, memory, port, word, old, new) -> None:
        for fault in self.faults:
            fault.on_any_write(memory, port, word, old, new)

    def on_elapse(self, memory, duration) -> None:
        for fault in self.faults:
            fault.on_elapse(memory, duration)

    def describe(self) -> str:
        members = "; ".join(fault.describe() for fault in self.faults)
        return f"linked [{members}]"


def linked_cfid_pair(
    aggressor1: int,
    aggressor2: int,
    victim: int,
    rising1: bool,
    rising2: bool,
    forced1: int,
    bit: int = 0,
) -> CompositeFault:
    """Two CFids on one victim with opposing forced values.

    The second member forces the complement of the first, which is the
    masking-capable combination: if both aggressors transition between
    reads of the victim, the second force undoes the first.
    """
    return CompositeFault(
        [
            IdempotentCouplingFault(
                aggressor1, bit, victim, bit, rising1, forced1
            ),
            IdempotentCouplingFault(
                aggressor2, bit, victim, bit, rising2, forced1 ^ 1
            ),
        ],
        kind="CFid-linked",
    )


def linked_cfid_universe(n_words: int) -> List[CompositeFault]:
    """Linked CFid pairs over nearby cell triples.

    For every victim, three physically realistic aggressor-pair
    geometries — both aggressors *below* the victim, both *above*, and
    one on each side — with all rising/falling trigger combinations and
    opposing forced values (up to 24 linked faults per victim).

    The same-side geometries are the discriminating ones: a march sweep
    toggles both aggressors before reaching the victim, so the second
    member's force can mask the first in *every* element of March C —
    the measured escape class that March LR closes (benchmark X8).
    """
    faults: List[CompositeFault] = []
    for victim in range(n_words):
        pair_geometries = []
        if victim >= 2:
            pair_geometries.append((victim - 2, victim - 1))  # both below
        if victim + 2 < n_words:
            pair_geometries.append((victim + 1, victim + 2))  # both above
        if 1 <= victim < n_words - 1:
            pair_geometries.append((victim - 1, victim + 1))  # straddle
        for aggressor1, aggressor2 in pair_geometries:
            for rising1 in (True, False):
                for rising2 in (True, False):
                    for forced1 in (0, 1):
                        faults.append(
                            linked_cfid_pair(
                                aggressor1, aggressor2, victim,
                                rising1, rising2, forced1,
                            )
                        )
    return faults
