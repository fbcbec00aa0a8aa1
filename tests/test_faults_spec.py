"""Fault specification strings and injector robustness.

The spec format (``repro.faults.spec``) is the wire form every fault
takes when it travels as data — CLI flags, shrinker fault axis, fuzz
reproducers, corpus regression entries — so the round trip must be
exact.  The injector tests pin the exception-safety contract that the
fault-response differential leans on: a fault whose ``remove`` raises
must not leak into the next BIST session.
"""

import pytest

from repro.faults import (
    ActiveNpsf,
    PassiveNpsf,
    StuckAtFault,
    TransitionFault,
)
from repro.faults.address_decoder import (
    AddressMapsNowhere,
    AddressMapsToMultiple,
    AddressMapsToWrongCell,
    TwoAddressesOneCell,
)
from repro.faults.base import CellFault
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
from repro.faults.port import PortRestrictedFault, PortStuckOpenAccess
from repro.faults.injector import FaultInjector
from repro.faults.read_faults import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
)
from repro.faults.retention import DataRetentionFault
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.spec import FaultSpecError, format_fault, parse_fault
from repro.faults.universe import standard_universe
from repro.memory.sram import Sram


ROUND_TRIP_SPECS = [
    "saf:3:0:1",
    "saf:0:2:0",
    "tf:1:0:up",
    "tf:2:1:down",
    "drf:1:0:1",
    "sof:2:0:0",
    "irf:0:0:1",
    "rdf:3:1:0",
    "drdf:2:2:1",
    "cfin:1:0:2:0:up",
    "cfin:0:1:3:1:down",
    "cfid:1:0:2:0:down:1",
    "cfst:0:0:1:0:1:0",
    "af1:5",
    "af2:0:2",
    "af3:1:3",
    "af4:2:0",
    "paf:1:2:0",
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_format_inverts_parse(self, spec):
        assert format_fault(parse_fault(spec)) == spec

    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_reparse_builds_equivalent_fault(self, spec):
        first = parse_fault(spec)
        second = parse_fault(format_fault(first))
        assert type(first) is type(second)
        assert vars(first) == vars(second)

    def test_direction_synonyms_normalise(self):
        assert format_fault(parse_fault("tf:0:0:rising")) == "tf:0:0:up"
        assert format_fault(parse_fault("tf:0:0:0")) == "tf:0:0:down"

    def test_spec_is_case_insensitive(self):
        assert format_fault(parse_fault("SAF:1:0:1")) == "saf:1:0:1"

    def test_standard_universe_round_trips(self):
        # Every non-NPSF fault the generator can produce must survive
        # the wire format bit-identically — this is what lets the fuzz
        # fault draw and the corpus regressions rebuild faults from
        # their spec strings alone.
        universe = standard_universe(4, width=2, include_npsf=False)
        for fault in universe.faults:
            spec = format_fault(fault)
            assert spec is not None, fault.kind
            rebuilt = parse_fault(spec)
            assert vars(rebuilt) == vars(fault)


class TestInexpressible:
    def test_npsf_has_no_spec_form(self):
        passive = PassiveNpsf((0, 0), [(1, 0)], (1,))
        active = ActiveNpsf((0, 0), (1, 0), True, [], ())
        assert format_fault(passive) is None
        assert format_fault(active) is None

    def test_linked_composite_has_no_spec_form(self):
        linked = CompositeFault(
            [StuckAtFault(0, 0, 1), TransitionFault(1, 0, True)]
        )
        assert format_fault(linked) is None

    def test_port_restricted_wrapper_has_no_spec_form(self):
        wrapped = PortRestrictedFault(1, StuckAtFault(0, 0, 1))
        assert format_fault(wrapped) is None


def _reference_format(fault):
    """``format_fault`` as an ``isinstance`` chain — the reference the
    exact-type dispatch must reproduce."""
    if isinstance(fault, StuckAtFault):
        return f"saf:{fault.word}:{fault.bit}:{fault.value}"
    if isinstance(fault, TransitionFault):
        arrow = "up" if fault.rising else "down"
        return f"tf:{fault.word}:{fault.bit}:{arrow}"
    if isinstance(fault, DataRetentionFault):
        return f"drf:{fault.word}:{fault.bit}:{fault.from_value}"
    if isinstance(fault, StuckOpenFault):
        return f"sof:{fault.word}:{fault.bit}:{fault.weak_value}"
    if isinstance(fault, IncorrectReadFault):
        return f"irf:{fault.word}:{fault.bit}:{fault.state}"
    if isinstance(fault, ReadDestructiveFault):
        return f"rdf:{fault.word}:{fault.bit}:{fault.state}"
    if isinstance(fault, DeceptiveReadDestructiveFault):
        return f"drdf:{fault.word}:{fault.bit}:{fault.state}"
    if isinstance(fault, IdempotentCouplingFault):
        arrow = "up" if fault.rising else "down"
        return (
            f"cfid:{fault.aggressor_word}:{fault.aggressor_bit}:"
            f"{fault.victim_word}:{fault.victim_bit}:{arrow}:"
            f"{fault.forced_value}"
        )
    if isinstance(fault, InversionCouplingFault):
        arrow = "up" if fault.rising else "down"
        return (
            f"cfin:{fault.aggressor_word}:{fault.aggressor_bit}:"
            f"{fault.victim_word}:{fault.victim_bit}:{arrow}"
        )
    if isinstance(fault, StateCouplingFault):
        return (
            f"cfst:{fault.aggressor_word}:{fault.aggressor_bit}:"
            f"{fault.victim_word}:{fault.victim_bit}:"
            f"{fault.aggressor_state}:{fault.forced_value}"
        )
    if isinstance(fault, AddressMapsNowhere):
        return f"af1:{fault.address}"
    if isinstance(fault, AddressMapsToWrongCell):
        return f"af2:{fault.address}:{fault.wrong_word}"
    if isinstance(fault, TwoAddressesOneCell):
        return f"af3:{fault.address}:{fault.other_address}"
    if isinstance(fault, AddressMapsToMultiple):
        return f"af4:{fault.address}:{fault.extra_word}"
    if isinstance(fault, PortStuckOpenAccess):
        return f"paf:{fault.port}:{fault.word}:{fault.bit}"
    if isinstance(fault, ConcurrentPortAccessFault):
        return f"pafc:{fault.port}:{fault.word}:{fault.bit}"
    if isinstance(fault, CrossPortCouplingFault):
        arrow = "up" if fault.rising else "down"
        return (
            f"cfxp:{fault.aggressor_word}:{fault.aggressor_bit}:"
            f"{fault.victim_word}:{fault.victim_bit}:{arrow}:"
            f"{fault.forced_value}"
        )
    return None


class _SubclassedSaf(StuckAtFault):
    pass


class _SubclassedCfid(IdempotentCouplingFault):
    pass


class _Unregistered(CellFault):
    kind = "???"

    def describe(self):
        return "unregistered"


class TestFormatDispatch:
    def test_matches_reference_chain(self):
        faults = list(standard_universe(5, 4, ports=2).faults) + [
            parse_fault("pafc:1:2:0"),
            parse_fault("cfxp:0:1:3:2:down:1"),
            parse_fault("cfxp:1:0:2:0:up:0"),
            CompositeFault(
                [StuckAtFault(0, 0, 1), TransitionFault(1, 0, True)]
            ),
            PortRestrictedFault(1, StuckAtFault(0, 0, 1)),
        ]
        for fault in faults:
            assert format_fault(fault) == _reference_format(fault), fault

    def test_subclasses_format_as_their_bases(self):
        # Twice each: the second call takes the memoised resolution.
        cases = [
            (_SubclassedSaf(3, 1, 0), "saf:3:1:0"),
            (_SubclassedCfid(0, 1, 2, 3, False, 1), "cfid:0:1:2:3:down:1"),
            (_Unregistered(), None),
        ]
        for _ in range(2):
            for fault, spec in cases:
                assert format_fault(fault) == spec
                assert _reference_format(fault) == spec
        assert format_fault(_SubclassedSaf(0, 0, 1)) == "saf:0:0:1"


class TestParseErrors:
    @pytest.mark.parametrize(
        "spec",
        [
            "unknown:1:2:3",
            "saf",
            "saf:1:0",
            "saf:one:0:1",
            "tf:0:0:sideways",
            "cfin:1:0:2:0",
            "",
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_fault(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "af1:3:99",
            "af2:1:2:3",
            "tf:1:0:up:junk",
            "cfin:0:0:1:0:up:7",
            "saf:1:0:1:5",
            "paf:0:1:0:1",
        ],
    )
    def test_trailing_field_rejected(self, spec):
        # A trailing field is never dropped: a defaulted constructor
        # parameter has no spec field.
        with pytest.raises(FaultSpecError, match="field"):
            parse_fault(spec)

    def test_unknown_kind_lists_the_table_prefixes(self):
        with pytest.raises(FaultSpecError) as error:
            parse_fault("zzz:1")
        assert str(error.value) == (
            "unknown fault kind 'zzz' (saf/tf/drf/sof/irf/rdf/drdf/cfin/"
            "cfid/cfst/af1/af2/af3/af4/paf/pafc/cfxp)"
        )

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_fault("saf:bad")


class _ExplodingRemove(StuckAtFault):
    """A fault model whose detach path itself is defective."""

    def remove(self, memory):
        super().remove(memory)
        raise RuntimeError("remove exploded")


class TestInjectorDetachSafety:
    def test_misbehaving_remove_does_not_leak_fault(self):
        memory = Sram(n_words=4, width=1, ports=1)
        injector = FaultInjector(memory)
        with pytest.raises(RuntimeError, match="remove exploded"):
            with injector.injected(_ExplodingRemove(1, 0, 1)):
                pass
        # The error propagated, but the fault list is clear, the decoder
        # restored and the state reset — the injector stays usable.
        assert memory.faults == []
        assert memory.read(0, 1) == 0

    def test_injector_reusable_after_detach_error(self):
        memory = Sram(n_words=4, width=1, ports=1)
        injector = FaultInjector(memory)
        with pytest.raises(RuntimeError):
            with injector.injected(_ExplodingRemove(1, 0, 1)):
                pass
        with injector.injected(StuckAtFault(2, 0, 1)) as faulty:
            assert faulty.read(0, 2) == 1
        assert memory.faults == []

    def test_detach_all_restores_decoder_despite_error(self):
        memory = Sram(n_words=4, width=1, ports=1)
        memory.attach(_ExplodingRemove(0, 0, 1))
        with pytest.raises(RuntimeError):
            memory.detach_all()
        # A second detach is a no-op, not a second explosion.
        memory.detach_all()
        assert memory.faults == []
