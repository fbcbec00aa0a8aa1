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

from typing import Any, Callable, Dict, Optional, Tuple

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

#: Marker tagging a word coordinate inside a signature: ``(_W, rank)``,
#: the word's rank in the support.
_W = "w"


def _cell_words(fault) -> Tuple[int, ...]:
    return (fault.word,)


def _coupling_words(fault) -> Tuple[int, ...]:
    return (fault.aggressor_word, fault.victim_word)


def _pnpsf_words(fault) -> Tuple[int, ...]:
    return (fault.base[0],) + tuple(word for word, _ in fault.neighbour_cells)


def _anpsf_words(fault) -> Tuple[int, ...]:
    return (fault.base[0], fault.trigger[0]) + tuple(
        word for word, _ in fault.others
    )


def _port_words(fault) -> Optional[Tuple[int, ...]]:
    return _words(fault.fault)


def _linked_words(fault) -> Optional[Tuple[int, ...]]:
    words: Tuple[int, ...] = ()
    for member in fault.faults:
        member_words = _words(member)
        if member_words is None:
            return None
        words += member_words
    return words


def _cells(cells, support: Tuple[int, ...]) -> Tuple:
    return tuple(((_W, support.index(word)), bit) for word, bit in cells)


def _pnpsf_signature(fault, a: Tuple[int, ...]) -> Tuple:
    base_word, base_bit = fault.base
    return (
        "PNPSF", (_W, a.index(base_word)), base_bit,
        _cells(fault.neighbour_cells, a), fault.pattern,
    )


def _anpsf_signature(fault, a: Tuple[int, ...]) -> Tuple:
    base_word, base_bit = fault.base
    trig_word, trig_bit = fault.trigger
    return (
        "ANPSF", (_W, a.index(base_word)), base_bit,
        (_W, a.index(trig_word)), trig_bit, fault.rising,
        _cells(fault.others, a), fault.pattern,
    )


#: Per *exact* fault type: (its words, possibly repeated; its signature
#: given the ascending support ``a``, every word as ``(_W, rank)``).
#: Dispatch is on the exact type: subclasses may override hooks with
#: semantics the projection cannot see, so they are unknown.
_EXTRACTORS: Dict[type, Tuple[Callable, Callable]] = {
    StuckAtFault: (_cell_words, lambda f, a: (
        "SAF", (_W, a.index(f.word)), f.bit, f.value)),
    TransitionFault: (_cell_words, lambda f, a: (
        "TF", (_W, a.index(f.word)), f.bit, f.rising)),
    StuckOpenFault: (_cell_words, lambda f, a: (
        "SOF", (_W, a.index(f.word)), f.bit, f.weak_value,
        f.disturb_threshold)),
    DataRetentionFault: (_cell_words, lambda f, a: (
        "DRF", (_W, a.index(f.word)), f.bit, f.from_value, f.decay_time)),
    IncorrectReadFault: (_cell_words, lambda f, a: (
        "IRF", (_W, a.index(f.word)), f.bit, f.state)),
    ReadDestructiveFault: (_cell_words, lambda f, a: (
        "RDF", (_W, a.index(f.word)), f.bit, f.state)),
    DeceptiveReadDestructiveFault: (_cell_words, lambda f, a: (
        "DRDF", (_W, a.index(f.word)), f.bit, f.state)),
    InversionCouplingFault: (_coupling_words, lambda f, a: (
        "CFin", (_W, a.index(f.aggressor_word)), f.aggressor_bit,
        (_W, a.index(f.victim_word)), f.victim_bit, f.rising)),
    IdempotentCouplingFault: (_coupling_words, lambda f, a: (
        "CFid", (_W, a.index(f.aggressor_word)), f.aggressor_bit,
        (_W, a.index(f.victim_word)), f.victim_bit, f.rising,
        f.forced_value)),
    StateCouplingFault: (_coupling_words, lambda f, a: (
        "CFst", (_W, a.index(f.aggressor_word)), f.aggressor_bit,
        (_W, a.index(f.victim_word)), f.victim_bit, f.aggressor_state,
        f.forced_value)),
    AddressMapsNowhere: (lambda f: (f.address,), lambda f, a: (
        "AF1", (_W, a.index(f.address)))),
    AddressMapsToWrongCell: (
        lambda f: (f.address, f.wrong_word),
        lambda f, a: (
            "AF2", (_W, a.index(f.address)), (_W, a.index(f.wrong_word))),
    ),
    TwoAddressesOneCell: (
        lambda f: (f.address, f.other_address),
        lambda f, a: (
            "AF3", (_W, a.index(f.address)), (_W, a.index(f.other_address))),
    ),
    AddressMapsToMultiple: (
        lambda f: (f.address, f.extra_word),
        lambda f, a: (
            "AF4", (_W, a.index(f.address)), (_W, a.index(f.extra_word))),
    ),
    PassiveNpsf: (_pnpsf_words, _pnpsf_signature),
    ActiveNpsf: (_anpsf_words, _anpsf_signature),
    PortStuckOpenAccess: (_cell_words, lambda f, a: (
        "PAF", f.port, (_W, a.index(f.word)), f.bit, f.open_value)),
    PortRestrictedFault: (_port_words, lambda f, a: (
        "PORT", f.port, _signature(f.fault, a))),
    CompositeFault: (_linked_words, lambda f, a: (
        "LINKED", f.kind, tuple(_signature(m, a) for m in f.faults))),
}


def _words(fault: CellFault) -> Optional[Tuple[int, ...]]:
    """Every word ``fault`` touches (repeats allowed), or None."""
    extractor = _EXTRACTORS.get(type(fault))
    return None if extractor is None else extractor[0](fault)


def _signature(fault: CellFault, support: Tuple[int, ...]) -> Tuple:
    """``fault``'s signature relative to ``support`` (a known type)."""
    return _EXTRACTORS[type(fault)][1](fault, support)


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

    __slots__ = ("addresses", "signature")

    def __init__(self, addresses: Tuple[int, ...], signature: Tuple) -> None:
        self.addresses = addresses
        self.signature = signature

    @property
    def label(self) -> str:
        return _label(self.signature)

    def project(self, n_words: int) -> Tuple[Tuple[int, ...], bool, Tuple]:
        """The support on an ``n_words`` memory, with its stratum key.

        Returns ``(visited, covers_all, key)``: the in-range support
        addresses a projected run visits (ascending), whether they are
        every address of the memory, and the key under which one
        projected run decides every fault of the stratum.  In-range
        membership is part of the key: a stratum-mate whose support is
        partly out of range visits fewer cells and is not isomorphic.
        """
        addresses = self.addresses
        if addresses[0] >= 0 and addresses[-1] < n_words:
            covers_all = len(addresses) == n_words
            in_range = (True,) * len(addresses)
            key = (self.signature, covers_all, in_range)
            return addresses, covers_all, key
        in_range = tuple(0 <= a < n_words for a in addresses)
        visited = tuple(a for a, inside in zip(addresses, in_range) if inside)
        covers_all = len(visited) == n_words
        return visited, covers_all, (self.signature, covers_all, in_range)


def support_of(fault: CellFault) -> Optional[FaultSupport]:
    """Extract a fault's support and stratum signature.

    Returns None for fault types outside the registry — the prover must
    then report ``unknown`` rather than project unsoundly.
    """
    extractor = _EXTRACTORS.get(type(fault))
    if extractor is None:
        return None
    words = extractor[0](fault)
    if words is None:
        return None
    addresses = words if len(words) == 1 else tuple(sorted(set(words)))
    return FaultSupport(addresses, extractor[1](fault, addresses))
