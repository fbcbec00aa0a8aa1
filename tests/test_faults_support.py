"""``support_of`` against a reference copy of the marker-tree extraction.

The extraction builds each fault's rank-relative signature directly and
renders the stratum label on demand.  The reference below is the
earlier two-pass form: a signature with absolute ``(_W, word)`` markers,
relativised by a recursive walk, labelled eagerly.  Every fault of the
full universes — NPSF, linked and port-restricted included — must give
the same addresses, signature, label and ``project`` triple (on the
memory and on smaller ones, so supports partly out of range are
covered too).
"""

import pytest

from repro.faults.address_decoder import (
    AddressMapsNowhere,
    AddressMapsToMultiple,
    AddressMapsToWrongCell,
    TwoAddressesOneCell,
)
from repro.faults.concurrent import concurrent_fault_universe
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.linked import CompositeFault, linked_cfid_universe
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
from repro.faults.support import support_of
from repro.faults.transition import TransitionFault
from repro.faults.universe import standard_universe

# -- reference extraction -----------------------------------------------------

_W = "w"


def _word(word):
    return (_W, word)


def _reference_raw(fault):
    t = type(fault)
    if t is StuckAtFault:
        return {fault.word}, ("SAF", _word(fault.word), fault.bit, fault.value)
    if t is TransitionFault:
        return {fault.word}, ("TF", _word(fault.word), fault.bit, fault.rising)
    if t is StuckOpenFault:
        return {fault.word}, ("SOF", _word(fault.word), fault.bit,
                              fault.weak_value, fault.disturb_threshold)
    if t is DataRetentionFault:
        return {fault.word}, ("DRF", _word(fault.word), fault.bit,
                              fault.from_value, fault.decay_time)
    if t is IncorrectReadFault:
        return {fault.word}, ("IRF", _word(fault.word), fault.bit, fault.state)
    if t is ReadDestructiveFault:
        return {fault.word}, ("RDF", _word(fault.word), fault.bit, fault.state)
    if t is DeceptiveReadDestructiveFault:
        return {fault.word}, ("DRDF", _word(fault.word), fault.bit,
                              fault.state)
    if t is InversionCouplingFault:
        return ({fault.aggressor_word, fault.victim_word},
                ("CFin", _word(fault.aggressor_word), fault.aggressor_bit,
                 _word(fault.victim_word), fault.victim_bit, fault.rising))
    if t is IdempotentCouplingFault:
        return ({fault.aggressor_word, fault.victim_word},
                ("CFid", _word(fault.aggressor_word), fault.aggressor_bit,
                 _word(fault.victim_word), fault.victim_bit, fault.rising,
                 fault.forced_value))
    if t is StateCouplingFault:
        return ({fault.aggressor_word, fault.victim_word},
                ("CFst", _word(fault.aggressor_word), fault.aggressor_bit,
                 _word(fault.victim_word), fault.victim_bit,
                 fault.aggressor_state, fault.forced_value))
    if t is AddressMapsNowhere:
        return {fault.address}, ("AF1", _word(fault.address))
    if t is AddressMapsToWrongCell:
        return ({fault.address, fault.wrong_word},
                ("AF2", _word(fault.address), _word(fault.wrong_word)))
    if t is TwoAddressesOneCell:
        return ({fault.address, fault.other_address},
                ("AF3", _word(fault.address), _word(fault.other_address)))
    if t is AddressMapsToMultiple:
        return ({fault.address, fault.extra_word},
                ("AF4", _word(fault.address), _word(fault.extra_word)))
    if t is PassiveNpsf:
        base_word, base_bit = fault.base
        words = {base_word} | {word for word, _ in fault.neighbour_cells}
        return words, ("PNPSF", _word(base_word), base_bit,
                       tuple((_word(w), b) for w, b in fault.neighbour_cells),
                       fault.pattern)
    if t is ActiveNpsf:
        base_word, base_bit = fault.base
        trig_word, trig_bit = fault.trigger
        words = {base_word, trig_word} | {word for word, _ in fault.others}
        return words, ("ANPSF", _word(base_word), base_bit, _word(trig_word),
                       trig_bit, fault.rising,
                       tuple((_word(w), b) for w, b in fault.others),
                       fault.pattern)
    if t is PortStuckOpenAccess:
        return {fault.word}, ("PAF", fault.port, _word(fault.word), fault.bit,
                              fault.open_value)
    if t is PortRestrictedFault:
        inner = _reference_raw(fault.fault)
        if inner is None:
            return None
        words, sig = inner
        return words, ("PORT", fault.port, sig)
    if t is CompositeFault:
        words, sigs = set(), []
        for member in fault.faults:
            inner = _reference_raw(member)
            if inner is None:
                return None
            words |= inner[0]
            sigs.append(inner[1])
        return words, ("LINKED", fault.kind, tuple(sigs))
    return None


def _relativise(node, rank):
    if isinstance(node, tuple):
        if len(node) == 2 and node[0] is _W:
            return (_W, rank[node[1]])
        return tuple(_relativise(child, rank) for child in node)
    return node


def _label(node):
    if isinstance(node, tuple):
        if len(node) == 2 and node[0] is _W:
            return f"w{node[1]}"
        return "(" + ",".join(_label(child) for child in node) + ")"
    if isinstance(node, bool):
        return "+" if node else "-"
    return str(node)


def _reference(fault):
    """(addresses, signature, label) or None."""
    raw = _reference_raw(fault)
    if raw is None:
        return None
    words, sig = raw
    addresses = tuple(sorted(words))
    rank = {address: index for index, address in enumerate(addresses)}
    signature = _relativise(sig, rank)
    return addresses, signature, _label(signature)


def _reference_project(addresses, signature, n_words):
    in_range = tuple(0 <= a < n_words for a in addresses)
    visited = tuple(a for a, inside in zip(addresses, in_range) if inside)
    covers_all = len(visited) == n_words
    return visited, covers_all, (signature, covers_all, in_range)


# -- the comparison -----------------------------------------------------------


class _SubclassedStuckAt(StuckAtFault):
    """Unknown type: the exact-type dispatch must give ``None``."""


def _population(n_words, width, ports):
    faults = list(standard_universe(n_words, width, ports=ports).faults)
    faults += linked_cfid_universe(n_words)
    faults += [
        PortRestrictedFault(port, fault)
        for port in range(ports)
        for fault in faults
    ]
    faults += [_SubclassedStuckAt(0, 0, 1)]
    faults += [PortRestrictedFault(0, _SubclassedStuckAt(0, 0, 1))]
    if ports > 1:
        faults += concurrent_fault_universe(n_words, width, ports)
    return faults


@pytest.mark.parametrize(
    "geometry",
    [
        (32, 4, 1), (64, 2, 1), (4, 2, 2),
        # The CI certify geometries: odd word counts and three ports.
        (4, 2, 1), (8, 1, 1), (3, 2, 3), (5, 4, 2),
    ],
)
def test_extraction_matches_the_reference(geometry):
    n_words, width, ports = geometry
    smaller = (n_words, n_words // 2, 1)
    unknown = 0
    for fault in _population(n_words, width, ports):
        expected = _reference(fault)
        support = support_of(fault)
        if expected is None:
            assert support is None, fault.describe()
            unknown += 1
            continue
        addresses, signature, label = expected
        assert support.addresses == addresses, fault.describe()
        assert support.signature == signature, fault.describe()
        assert support.label == label, fault.describe()
        for n in smaller:
            assert support.project(n) == _reference_project(
                addresses, signature, n
            ), (fault.describe(), n)
    assert unknown >= 2  # the subclass, bare and port-restricted
