"""Textual fault specifications: the serialisable fault format.

A *fault spec* is a small colon-separated string naming one behavioural
fault, e.g. ``saf:3:0:1`` (stuck-at-1 at cell (3,0)).  It is the wire
format everywhere a fault must travel as data rather than as a live
object: the ``repro run --fault`` / ``repro sweep --fault`` CLI
flags, the fault axis of the delta-debugging shrinker, fuzz-report
reproducers and the corpus regression entries — all of which need a
fault that can be written to JSON and parsed back bit-identically.

:func:`parse_fault` and :func:`format_fault` are exact inverses for
every spec-expressible kind::

    saf:W:B:V          stuck-at-V at cell (W,B)
    tf:W:B:up|down     transition fault at cell (W,B)
    drf:W:B:V          data-retention fault losing V at cell (W,B)
    sof:W:B:V          stuck-open (weak V) at cell (W,B)
    irf:W:B:S          incorrect read fault sensitised by state S
    rdf:W:B:S          read destructive fault sensitised by state S
    drdf:W:B:S         deceptive read destructive fault (state S)
    cfin:AW:AB:VW:VB:up|down
                       inversion coupling, aggressor (AW,AB) -> victim
    cfid:AW:AB:VW:VB:up|down:F
                       idempotent coupling forcing the victim to F
    cfst:AW:AB:VW:VB:S:F
                       state coupling (aggressor state S forces F)
    af1:A              address A selects no cell
    af2:A:W            address A selects the wrong cell W
    af3:A:A2           addresses A and A2 share one cell
    af4:A:W            address A selects its own cell plus W
    paf:P:W:B          cell (W,B) disconnected from port P
    pafc:P:W:B         contention PAF: (W,B) lost by port P only under
                       simultaneous access to word W by another port
    cfxp:AW:AB:VW:VB:up|down:F
                       cross-port coupling: aggressor transition forces
                       the victim to F only when another port accesses
                       the victim's word in the same cycle

Faults outside this vocabulary (NPSF with its neighbourhood pattern
lists, linked composites, port-restricted wrappers) have no spec form;
:func:`format_fault` returns ``None`` for them and callers that need a
round trip (the shrinker, the fuzz fault draw) restrict themselves to
spec-expressible populations.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

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
from repro.faults.port import PortStuckOpenAccess
from repro.faults.read_faults import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
)
from repro.faults.retention import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.transition import TransitionFault


class FaultSpecError(ValueError):
    """Raised for malformed fault specifications."""


def _direction(token: str) -> bool:
    if token in ("up", "rising", "1"):
        return True
    if token in ("down", "falling", "0"):
        return False
    raise FaultSpecError(f"bad transition direction {token!r} (up/down)")


def parse_fault(spec: str) -> CellFault:
    """Parse one fault specification (see module docstring)."""
    parts = spec.lower().split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "saf":
            word, bit, value = map(int, args)
            return StuckAtFault(word, bit, value)
        if kind == "tf":
            word, bit = int(args[0]), int(args[1])
            return TransitionFault(word, bit, _direction(args[2]))
        if kind == "drf":
            word, bit, from_value = map(int, args)
            return DataRetentionFault(word, bit, from_value)
        if kind == "sof":
            word, bit, weak = map(int, args)
            return StuckOpenFault(word, bit, weak)
        if kind == "irf":
            word, bit, state = map(int, args)
            return IncorrectReadFault(word, bit, state)
        if kind == "rdf":
            word, bit, state = map(int, args)
            return ReadDestructiveFault(word, bit, state)
        if kind == "drdf":
            word, bit, state = map(int, args)
            return DeceptiveReadDestructiveFault(word, bit, state)
        if kind == "cfin":
            aw, ab, vw, vb = map(int, args[:4])
            return InversionCouplingFault(aw, ab, vw, vb, _direction(args[4]))
        if kind == "cfid":
            aw, ab, vw, vb = map(int, args[:4])
            return IdempotentCouplingFault(
                aw, ab, vw, vb, _direction(args[4]), int(args[5])
            )
        if kind == "cfst":
            aw, ab, vw, vb, state, forced = map(int, args)
            return StateCouplingFault(aw, ab, vw, vb, state, forced)
        if kind == "af1":
            return AddressMapsNowhere(int(args[0]))
        if kind == "af2":
            return AddressMapsToWrongCell(int(args[0]), int(args[1]))
        if kind == "af3":
            return TwoAddressesOneCell(int(args[0]), int(args[1]))
        if kind == "af4":
            return AddressMapsToMultiple(int(args[0]), int(args[1]))
        if kind == "paf":
            port, word, bit = map(int, args)
            return PortStuckOpenAccess(port, word, bit)
        if kind == "pafc":
            port, word, bit = map(int, args)
            return ConcurrentPortAccessFault(port, word, bit)
        if kind == "cfxp":
            aw, ab, vw, vb = map(int, args[:4])
            return CrossPortCouplingFault(
                aw, ab, vw, vb, _direction(args[4]), int(args[5])
            )
    except FaultSpecError:
        raise
    except (ValueError, IndexError) as error:
        raise FaultSpecError(f"bad fault spec {spec!r}: {error}") from None
    raise FaultSpecError(
        f"unknown fault kind {kind!r} "
        f"(saf/tf/drf/sof/irf/rdf/drdf/cfin/cfid/cfst/af1-af4/paf/"
        f"pafc/cfxp)"
    )


def _arrow(fault) -> str:
    return "up" if fault.rising else "down"


#: (type, formatter) in resolution order.  A fault of exactly one of
#: these types formats directly; a subclass as its first base here.
_FORMATTERS = (
    (StuckAtFault, lambda f: f"saf:{f.word}:{f.bit}:{f.value}"),
    (TransitionFault, lambda f: f"tf:{f.word}:{f.bit}:{_arrow(f)}"),
    (DataRetentionFault, lambda f: f"drf:{f.word}:{f.bit}:{f.from_value}"),
    (StuckOpenFault, lambda f: f"sof:{f.word}:{f.bit}:{f.weak_value}"),
    (IncorrectReadFault, lambda f: f"irf:{f.word}:{f.bit}:{f.state}"),
    (ReadDestructiveFault, lambda f: f"rdf:{f.word}:{f.bit}:{f.state}"),
    (DeceptiveReadDestructiveFault,
     lambda f: f"drdf:{f.word}:{f.bit}:{f.state}"),
    (IdempotentCouplingFault, lambda f: (
        f"cfid:{f.aggressor_word}:{f.aggressor_bit}:"
        f"{f.victim_word}:{f.victim_bit}:{_arrow(f)}:{f.forced_value}")),
    (InversionCouplingFault, lambda f: (
        f"cfin:{f.aggressor_word}:{f.aggressor_bit}:"
        f"{f.victim_word}:{f.victim_bit}:{_arrow(f)}")),
    (StateCouplingFault, lambda f: (
        f"cfst:{f.aggressor_word}:{f.aggressor_bit}:"
        f"{f.victim_word}:{f.victim_bit}:"
        f"{f.aggressor_state}:{f.forced_value}")),
    (AddressMapsNowhere, lambda f: f"af1:{f.address}"),
    (AddressMapsToWrongCell, lambda f: f"af2:{f.address}:{f.wrong_word}"),
    (TwoAddressesOneCell, lambda f: f"af3:{f.address}:{f.other_address}"),
    (AddressMapsToMultiple, lambda f: f"af4:{f.address}:{f.extra_word}"),
    (PortStuckOpenAccess, lambda f: f"paf:{f.port}:{f.word}:{f.bit}"),
    (ConcurrentPortAccessFault, lambda f: f"pafc:{f.port}:{f.word}:{f.bit}"),
    (CrossPortCouplingFault, lambda f: (
        f"cfxp:{f.aggressor_word}:{f.aggressor_bit}:"
        f"{f.victim_word}:{f.victim_bit}:{_arrow(f)}:{f.forced_value}")),
)

#: Formatter per exact type; other types are resolved on first sight.
_DISPATCH: Dict[type, Optional[Callable[[CellFault], str]]] = dict(
    _FORMATTERS
)


def format_fault(fault: CellFault) -> Optional[str]:
    """Render ``fault`` as a spec string, or ``None`` when inexpressible.

    ``parse_fault(format_fault(f))`` rebuilds a behaviourally identical
    fault for every non-``None`` result.
    """
    kind = type(fault)
    try:
        formatter = _DISPATCH[kind]
    except KeyError:
        formatter = _DISPATCH[kind] = next(
            (f for base, f in _FORMATTERS if issubclass(kind, base)), None
        )
    return None if formatter is None else formatter(fault)
