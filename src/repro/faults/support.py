"""Fault support extraction and behavioural strata.

Soundness of the prover's projection rests on knowing every logical
address a fault can possibly touch (its *support*): the words its hooks
filter on, the cells it forces, and — for decoder faults — every address
whose decode mapping the install rewrites.  This module extracts that
support per concrete fault type.  Extraction is deliberately closed over
the exact types of :mod:`repro.faults`: an unknown type (including a
subclass that might override hooks with wider reach) yields ``None`` and
the caller falls back — the coverage prover
(:mod:`repro.analysis.coverage`) to a conservative ``unknown`` verdict,
the projected sweep engine (:mod:`repro.vector.sweep`) to the scalar
oracle — instead of guessing.

The same extraction produces a *stratum signature*: the fault's
parameters with word coordinates replaced by their rank within the
support.  Two faults with equal signatures see isomorphic projected
executions — the march visits their support cells in the same relative
order with the same operations — so they provably share a verdict, and
a march test needs one projected run per stratum instead of one per
instance (:meth:`FaultSupport.project` gives the key).  Bit positions
stay absolute (data backgrounds make behaviour bit-dependent on
word-oriented memories); word *distances* are erased (no fault
mechanism depends on them).
"""

from __future__ import annotations

from typing import Any, Optional, Set, Tuple

from repro.faults.address_decoder import (
    AddressMapsNowhere,
    AddressMapsToMultiple,
    AddressMapsToWrongCell,
    TwoAddressesOneCell,
)
from repro.faults.base import CellFault
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.linked import CompositeFault
from repro.faults.neighborhood import ActiveNpsf, PassiveNpsf
from repro.faults.port import PortRestrictedFault, PortStuckOpenAccess
from repro.faults.read_faults import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
)
from repro.faults.retention import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.transition import TransitionFault

#: Marker wrapping a word coordinate inside a raw signature; the
#: relativisation pass replaces it by the word's rank in the support.
_W = "w"


def _word(word: int) -> Tuple[str, int]:
    return (_W, word)


def _raw_signature(fault: CellFault) -> Optional[Tuple[Set[int], Tuple]]:
    """(support words, signature with ``(_W, word)`` markers) or None.

    Dispatch is on the *exact* type: subclasses may override hooks with
    semantics the projection cannot see, so they are unknown.
    """
    t = type(fault)
    if t is StuckAtFault:
        return {fault.word}, ("SAF", _word(fault.word), fault.bit, fault.value)
    if t is TransitionFault:
        return {fault.word}, ("TF", _word(fault.word), fault.bit, fault.rising)
    if t is StuckOpenFault:
        return (
            {fault.word},
            ("SOF", _word(fault.word), fault.bit, fault.weak_value,
             fault.disturb_threshold),
        )
    if t is DataRetentionFault:
        return (
            {fault.word},
            ("DRF", _word(fault.word), fault.bit, fault.from_value,
             fault.decay_time),
        )
    if t is IncorrectReadFault:
        return {fault.word}, ("IRF", _word(fault.word), fault.bit, fault.state)
    if t is ReadDestructiveFault:
        return {fault.word}, ("RDF", _word(fault.word), fault.bit, fault.state)
    if t is DeceptiveReadDestructiveFault:
        return {fault.word}, ("DRDF", _word(fault.word), fault.bit, fault.state)
    if t is InversionCouplingFault:
        return (
            {fault.aggressor_word, fault.victim_word},
            ("CFin", _word(fault.aggressor_word), fault.aggressor_bit,
             _word(fault.victim_word), fault.victim_bit, fault.rising),
        )
    if t is IdempotentCouplingFault:
        return (
            {fault.aggressor_word, fault.victim_word},
            ("CFid", _word(fault.aggressor_word), fault.aggressor_bit,
             _word(fault.victim_word), fault.victim_bit, fault.rising,
             fault.forced_value),
        )
    if t is StateCouplingFault:
        return (
            {fault.aggressor_word, fault.victim_word},
            ("CFst", _word(fault.aggressor_word), fault.aggressor_bit,
             _word(fault.victim_word), fault.victim_bit,
             fault.aggressor_state, fault.forced_value),
        )
    if t is AddressMapsNowhere:
        return {fault.address}, ("AF1", _word(fault.address))
    if t is AddressMapsToWrongCell:
        return (
            {fault.address, fault.wrong_word},
            ("AF2", _word(fault.address), _word(fault.wrong_word)),
        )
    if t is TwoAddressesOneCell:
        return (
            {fault.address, fault.other_address},
            ("AF3", _word(fault.address), _word(fault.other_address)),
        )
    if t is AddressMapsToMultiple:
        return (
            {fault.address, fault.extra_word},
            ("AF4", _word(fault.address), _word(fault.extra_word)),
        )
    if t is PassiveNpsf:
        base_word, base_bit = fault.base
        words = {base_word} | {word for word, _ in fault.neighbour_cells}
        return (
            words,
            ("PNPSF", _word(base_word), base_bit,
             tuple((_word(w), b) for w, b in fault.neighbour_cells),
             fault.pattern),
        )
    if t is ActiveNpsf:
        base_word, base_bit = fault.base
        trig_word, trig_bit = fault.trigger
        words = {base_word, trig_word} | {word for word, _ in fault.others}
        return (
            words,
            ("ANPSF", _word(base_word), base_bit, _word(trig_word), trig_bit,
             fault.rising,
             tuple((_word(w), b) for w, b in fault.others),
             fault.pattern),
        )
    if t is PortStuckOpenAccess:
        return (
            {fault.word},
            ("PAF", fault.port, _word(fault.word), fault.bit,
             fault.open_value),
        )
    if t is PortRestrictedFault:
        inner = _raw_signature(fault.fault)
        if inner is None:
            return None
        words, sig = inner
        return words, ("PORT", fault.port, sig)
    if t is CompositeFault:
        words: Set[int] = set()
        sigs = []
        for member in fault.faults:
            inner = _raw_signature(member)
            if inner is None:
                return None
            member_words, sig = inner
            words |= member_words
            sigs.append(sig)
        return words, ("LINKED", fault.kind, tuple(sigs))
    return None


def _relativise(node: Any, rank: dict) -> Any:
    """Replace every ``(_W, word)`` marker by ``(_W, rank[word])``."""
    if isinstance(node, tuple):
        if len(node) == 2 and node[0] is _W:
            return (_W, rank[node[1]])
        return tuple(_relativise(child, rank) for child in node)
    return node


def _label(node: Any) -> str:
    """Compact deterministic string form of a relativised signature."""
    if isinstance(node, tuple):
        if len(node) == 2 and node[0] is _W:
            return f"w{node[1]}"
        return "(" + ",".join(_label(child) for child in node) + ")"
    if isinstance(node, bool):
        return "+" if node else "-"
    return str(node)


class FaultSupport:
    """The prover-facing description of one fault's reach.

    Attributes:
        addresses: sorted logical addresses the projection must visit.
        signature: hashable stratum key — equal signatures guarantee
            isomorphic projected executions (for one test + geometry).
        label: human-readable stratum name for certificates.
    """

    __slots__ = ("addresses", "signature", "label")

    def __init__(self, addresses: Tuple[int, ...], signature: Tuple) -> None:
        self.addresses = addresses
        self.signature = signature
        self.label = _label(signature)

    def project(self, n_words: int) -> Tuple[Tuple[int, ...], bool, Tuple]:
        """The support on an ``n_words`` memory, with its stratum key.

        Returns ``(visited, covers_all, key)``: the in-range support
        addresses a projected run visits (ascending), whether they are
        every address of the memory, and the key under which one
        projected run decides every fault of the stratum.  In-range
        membership is part of the key: a stratum-mate whose support is
        partly out of range visits fewer cells and is not isomorphic.
        """
        in_range = tuple(0 <= a < n_words for a in self.addresses)
        visited = tuple(
            a for a, inside in zip(self.addresses, in_range) if inside
        )
        covers_all = len(visited) == n_words
        return visited, covers_all, (self.signature, covers_all, in_range)


def support_of(fault: CellFault) -> Optional[FaultSupport]:
    """Extract a fault's support and stratum signature.

    Returns None for fault types outside the registry — the prover must
    then report ``unknown`` rather than project unsoundly.
    """
    raw = _raw_signature(fault)
    if raw is None:
        return None
    words, sig = raw
    addresses = tuple(sorted(words))
    rank = {address: index for index, address in enumerate(addresses)}
    return FaultSupport(addresses, _relativise(sig, rank))
