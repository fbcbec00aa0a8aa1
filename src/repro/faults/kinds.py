"""The fault-kind table: one row per concrete fault class.

Each fault model of this package is a hook class plus one
:class:`FaultKind` row in :data:`KINDS`, which states only what the
class does not: its tag is ``cls.kind``, and its spec fields are its
required constructor parameters (:func:`repro.faults.spec.spec_fields`).
:mod:`repro.faults.spec`, :mod:`repro.faults.support` and
:mod:`repro.faults.conditions` are views over the table, so adding a kind
is a class, one row here and a universe generator.

An extractor returns ``(addresses, signature)`` (see
:mod:`repro.faults.support`), every word coordinate a rank marker
``(W, rank)``.  Ranks 0 and 1 are shared constants; a two-word kind
orders its words with one comparison (equal words give a one-word
support, both at rank 0).  Only NPSF, PORT and LINKED sort and rank.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.faults.address_decoder import (
    AddressMapsNowhere,
    AddressMapsToMultiple,
    AddressMapsToWrongCell,
    TwoAddressesOneCell,
)
from repro.faults.concurrent import (
    ConcurrentPortAccessFault,
    CrossPortCouplingFault,
)
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

#: Marker tagging a word coordinate inside a signature: ``(W, rank)``,
#: the word's rank in the support; ranks 0 and 1 are shared constants.
W = "w"
_W0 = (W, 0)
_W1 = (W, 1)

#: ``(addresses, signature)``: the ascending support and the signature.
Extraction = Tuple[Tuple[int, ...], Tuple]
Extractor = Callable[[Any], Optional[Extraction]]


class FaultKind(NamedTuple):
    """One row of the kind table.

    Attributes:
        cls: the exact fault class; its tag is ``cls.kind``.
        prefix: the spec-string prefix (``"saf"``), or None when the
            kind has no spec form.
        support: the support extractor for faults of exactly ``cls``,
            or None when the prover has no projection for the kind.
        condition: the :data:`repro.faults.conditions.CONDITIONS` key
            explaining the kind, or None.
    """

    cls: type
    prefix: Optional[str]
    support: Optional[Extractor]
    condition: Optional[str]


def _pair(a: int, b: int) -> Tuple[Tuple[int, ...], Tuple, Tuple]:
    """The support of words ``a`` and ``b`` and their rank markers."""
    if a < b:
        return (a, b), _W0, _W1
    if b < a:
        return (b, a), _W1, _W0
    return (a,), _W0, _W0


def _coupling(f, *tail) -> Extraction:
    addresses, aggressor, victim = _pair(f.aggressor_word, f.victim_word)
    return addresses, (
        f.kind, aggressor, f.aggressor_bit, victim, f.victim_bit, *tail)


def _decoder_pair(f, other: int) -> Extraction:
    addresses, first, second = _pair(f.address, other)
    return addresses, (f.kind, first, second)


def _ranked(words) -> Tuple[Tuple[int, ...], Dict[int, Tuple]]:
    """The ascending support of ``words`` and each word's rank marker."""
    addresses = tuple(sorted(set(words)))
    return addresses, {word: (W, rank) for rank, word in enumerate(addresses)}


def _pnpsf(f) -> Extraction:
    base_word, base_bit = f.base
    addresses, rank = _ranked([base_word, *[w for w, _ in f.neighbour_cells]])
    return addresses, (
        f.kind, rank[base_word], base_bit,
        tuple([(rank[word], bit) for word, bit in f.neighbour_cells]),
        f.pattern,
    )


def _anpsf(f) -> Extraction:
    base_word, base_bit = f.base
    trig_word, trig_bit = f.trigger
    words = [base_word, trig_word, *[word for word, _ in f.others]]
    addresses, rank = _ranked(words)
    return addresses, (
        f.kind, rank[base_word], base_bit, rank[trig_word], trig_bit,
        f.rising, tuple([(rank[word], bit) for word, bit in f.others]),
        f.pattern,
    )


def _extract(fault) -> Optional[Extraction]:
    """A nested fault's extraction, None when its exact type has none."""
    extractor = EXTRACTORS.get(type(fault))
    return None if extractor is None else extractor(fault)


def _port(f) -> Optional[Extraction]:
    inner = _extract(f.fault)
    if inner is None:
        return None
    addresses, signature = inner
    return addresses, (PortRestrictedFault.kind, f.port, signature)


def _rerank(node: Any, markers: Tuple) -> Any:
    """``node`` with each rank marker ``(W, r)`` made ``markers[r]``."""
    if isinstance(node, tuple):
        if len(node) == 2 and node[0] is W:
            return markers[node[1]]
        return tuple(_rerank(child, markers) for child in node)
    return node


def _linked(f) -> Optional[Extraction]:
    members = [_extract(member) for member in f.faults]
    if None in members:
        return None
    addresses, rank = _ranked(word for words, _ in members for word in words)
    return addresses, (CompositeFault.kind, f.kind, tuple(
        _rerank(signature, tuple(map(rank.get, words)))
        for words, signature in members
    ))


#: Every concrete fault class, spec kinds first in grammar order.
#: Concurrency-sensitised kinds (PAFc, CFxp) have no support extractor:
#: the projection cannot model same-cycle multi-port groups.
KINDS: Tuple[FaultKind, ...] = (
    FaultKind(StuckAtFault, "saf", lambda f: (
        (f.word,), (f.kind, _W0, f.bit, f.value)), "SAF"),
    FaultKind(TransitionFault, "tf", lambda f: (
        (f.word,), (f.kind, _W0, f.bit, f.rising)), "TF"),
    FaultKind(DataRetentionFault, "drf", lambda f: ((f.word,), (
        f.kind, _W0, f.bit, f.from_value, f.decay_time)), "DRF"),
    FaultKind(StuckOpenFault, "sof", lambda f: ((f.word,), (
        f.kind, _W0, f.bit, f.weak_value, f.disturb_threshold)), "SOF"),
    FaultKind(IncorrectReadFault, "irf", lambda f: (
        (f.word,), (f.kind, _W0, f.bit, f.state)), "IRF"),
    FaultKind(ReadDestructiveFault, "rdf", lambda f: (
        (f.word,), (f.kind, _W0, f.bit, f.state)), "RDF"),
    FaultKind(DeceptiveReadDestructiveFault, "drdf", lambda f: (
        (f.word,), (f.kind, _W0, f.bit, f.state)), "DRDF"),
    FaultKind(InversionCouplingFault, "cfin",
              lambda f: _coupling(f, f.rising), "CFin"),
    FaultKind(IdempotentCouplingFault, "cfid",
              lambda f: _coupling(f, f.rising, f.forced_value), "CFid"),
    FaultKind(StateCouplingFault, "cfst",
              lambda f: _coupling(f, f.aggressor_state, f.forced_value),
              "CFst"),
    FaultKind(AddressMapsNowhere, "af1",
              lambda f: ((f.address,), (f.kind, _W0)), "AF"),
    FaultKind(AddressMapsToWrongCell, "af2",
              lambda f: _decoder_pair(f, f.wrong_word), "AF"),
    FaultKind(TwoAddressesOneCell, "af3",
              lambda f: _decoder_pair(f, f.other_address), "AF"),
    FaultKind(AddressMapsToMultiple, "af4",
              lambda f: _decoder_pair(f, f.extra_word), "AF"),
    FaultKind(PortStuckOpenAccess, "paf", lambda f: ((f.word,), (
        f.kind, f.port, _W0, f.bit, f.open_value)), "PAF"),
    FaultKind(ConcurrentPortAccessFault, "pafc", None, None),
    FaultKind(CrossPortCouplingFault, "cfxp", None, None),
    FaultKind(PassiveNpsf, None, _pnpsf, "PNPSF"),
    FaultKind(ActiveNpsf, None, _anpsf, "ANPSF"),
    FaultKind(PortRestrictedFault, None, _port, None),
    FaultKind(CompositeFault, None, _linked, "linked"),
)

#: Support extractor per *exact* class.  Dispatch is on the exact type:
#: a subclass may override hooks with semantics the projection cannot
#: see, so it has no support.
EXTRACTORS: Dict[type, Extractor] = {
    row.cls: row.support for row in KINDS if row.support is not None
}
