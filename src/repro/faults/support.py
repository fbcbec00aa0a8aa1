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

Each fault kind is stated once, in ``_EXTRACTORS``: one function per
exact type returns the ascending support and the signature together.
A word coordinate is a rank marker ``("w", rank)``, and ranks 0 and 1
are shared constants: a one-word kind (SAF, TF, SOF, DRF, IRF, RDF,
DRDF, AF1, PAF) builds one tuple, and a two-word kind (CFin/CFid/CFst,
AF2–AF4) orders its words with one comparison — equal words (an
intra-word coupling) give a one-word support, both at rank 0.  Only
NPSF, PORT and LINKED sort and rank; a LINKED member's signature is
re-ranked within the composite's support.
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
#: the word's rank in the support; ranks 0 and 1 are shared constants.
_W = "w"
_W0 = (_W, 0)
_W1 = (_W, 1)

#: ``(addresses, signature)``: the ascending support and the signature.
Extraction = Tuple[Tuple[int, ...], Tuple]


def _pair(a: int, b: int) -> Tuple[Tuple[int, ...], Tuple, Tuple]:
    """The support of words ``a`` and ``b`` and their rank markers."""
    if a < b:
        return (a, b), _W0, _W1
    if b < a:
        return (b, a), _W1, _W0
    return (a,), _W0, _W0


def _coupling(f, tag: str, *tail) -> Extraction:
    addresses, aggressor, victim = _pair(f.aggressor_word, f.victim_word)
    return addresses, (
        tag, aggressor, f.aggressor_bit, victim, f.victim_bit, *tail)


def _decoder_pair(tag: str, a: int, b: int) -> Extraction:
    addresses, first, second = _pair(a, b)
    return addresses, (tag, first, second)


def _ranked(words) -> Tuple[Tuple[int, ...], Dict[int, Tuple]]:
    """The ascending support of ``words`` and each word's rank marker."""
    addresses = tuple(sorted(set(words)))
    return addresses, {word: (_W, rank) for rank, word in enumerate(addresses)}


def _pnpsf(f) -> Extraction:
    base_word, base_bit = f.base
    addresses, rank = _ranked([base_word, *[w for w, _ in f.neighbour_cells]])
    return addresses, (
        "PNPSF", rank[base_word], base_bit,
        tuple([(rank[word], bit) for word, bit in f.neighbour_cells]),
        f.pattern,
    )


def _anpsf(f) -> Extraction:
    base_word, base_bit = f.base
    trig_word, trig_bit = f.trigger
    words = [base_word, trig_word, *[word for word, _ in f.others]]
    addresses, rank = _ranked(words)
    return addresses, (
        "ANPSF", rank[base_word], base_bit, rank[trig_word], trig_bit,
        f.rising, tuple([(rank[word], bit) for word, bit in f.others]),
        f.pattern,
    )


def _port(f) -> Optional[Extraction]:
    inner = support_of(f.fault)
    if inner is None:
        return None
    return inner.addresses, ("PORT", f.port, inner.signature)


def _rerank(node: Any, markers: Tuple) -> Any:
    """``node`` with each rank marker ``(_W, r)`` made ``markers[r]``."""
    if isinstance(node, tuple):
        if len(node) == 2 and node[0] is _W:
            return markers[node[1]]
        return tuple(_rerank(child, markers) for child in node)
    return node


def _linked(f) -> Optional[Extraction]:
    members = [support_of(member) for member in f.faults]
    if None in members:
        return None
    addresses, rank = _ranked(
        word for member in members for word in member.addresses
    )
    return addresses, ("LINKED", f.kind, tuple(
        _rerank(member.signature, tuple(map(rank.get, member.addresses)))
        for member in members
    ))


#: Per *exact* fault type: its ascending support and its signature,
#: every word as a rank marker ``(_W, rank)``; None when a nested fault
#: is unknown.  Dispatch is on the exact type: subclasses may override
#: hooks with semantics the projection cannot see, so they are unknown.
_EXTRACTORS: Dict[type, Callable[[Any], Optional[Extraction]]] = {
    StuckAtFault: lambda f: ((f.word,), ("SAF", _W0, f.bit, f.value)),
    TransitionFault: lambda f: ((f.word,), ("TF", _W0, f.bit, f.rising)),
    StuckOpenFault: lambda f: ((f.word,), (
        "SOF", _W0, f.bit, f.weak_value, f.disturb_threshold)),
    DataRetentionFault: lambda f: ((f.word,), (
        "DRF", _W0, f.bit, f.from_value, f.decay_time)),
    IncorrectReadFault: lambda f: ((f.word,), ("IRF", _W0, f.bit, f.state)),
    ReadDestructiveFault: lambda f: ((f.word,), (
        "RDF", _W0, f.bit, f.state)),
    DeceptiveReadDestructiveFault: lambda f: ((f.word,), (
        "DRDF", _W0, f.bit, f.state)),
    InversionCouplingFault: lambda f: _coupling(f, "CFin", f.rising),
    IdempotentCouplingFault: lambda f: _coupling(
        f, "CFid", f.rising, f.forced_value),
    StateCouplingFault: lambda f: _coupling(
        f, "CFst", f.aggressor_state, f.forced_value),
    AddressMapsNowhere: lambda f: ((f.address,), ("AF1", _W0)),
    AddressMapsToWrongCell: lambda f: _decoder_pair(
        "AF2", f.address, f.wrong_word),
    TwoAddressesOneCell: lambda f: _decoder_pair(
        "AF3", f.address, f.other_address),
    AddressMapsToMultiple: lambda f: _decoder_pair(
        "AF4", f.address, f.extra_word),
    PassiveNpsf: _pnpsf,
    ActiveNpsf: _anpsf,
    PortStuckOpenAccess: lambda f: ((f.word,), (
        "PAF", f.port, _W0, f.bit, f.open_value)),
    PortRestrictedFault: _port,
    CompositeFault: _linked,
}


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
    extraction = None if extractor is None else extractor(fault)
    return None if extraction is None else FaultSupport(*extraction)
