"""Textual fault specifications: the serialisable fault format.

A *fault spec* is a small colon-separated string naming one behavioural
fault, e.g. ``saf:3:0:1`` (stuck-at-1 at cell (3,0)).  It is the wire
format everywhere a fault must travel as data: the ``--fault`` CLI
flags, the shrinker's fault axis, fuzz reproducers and corpus entries.

A spec is a kind's prefix from :data:`repro.faults.kinds.KINDS` and then
the class's required constructor arguments in order (:func:`spec_fields`;
``docs/TESTING.md`` lists them): ``cfid:AW:AB:VW:VB:up|down:F`` is
``IdempotentCouplingFault(aggressor_word, aggressor_bit, victim_word,
victim_bit, rising, forced_value)``.  ``rising`` is written ``up``/``down``
(``rising``/``falling``/``1``/``0`` also parse); every other field is an
int.  Defaulted parameters (``disturb_threshold``, ``decay_time``,
``open_value``) are hidden: a spec builds the default, so a fault with
another value, like a fault of a kind without a prefix (NPSF, linked,
port-restricted), has no spec form and :func:`format_fault` returns
``None``.  Callers that need a round trip (the shrinker, the fuzz fault
draw) restrict themselves to spec-expressible populations.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Tuple

from repro.faults.base import CellFault
from repro.faults.kinds import KINDS


class FaultSpecError(ValueError):
    """Raised for malformed fault specifications."""


def _direction(token: str) -> bool:
    if token in ("up", "rising", "1"):
        return True
    if token in ("down", "falling", "0"):
        return False
    raise FaultSpecError(f"bad transition direction {token!r} (up/down)")


def spec_fields(cls: type) -> Tuple[Tuple[str, ...], Dict[str, Any]]:
    """A spec kind's fields and hidden defaults, from its constructor:
    the required parameters in order, and the defaulted ones."""
    params = inspect.signature(cls).parameters.values()
    fields = tuple(p.name for p in params if p.default is p.empty)
    hidden = {p.name: p.default for p in params if p.default is not p.empty}
    return fields, hidden


def _formatter(
    prefix: str, fields: Tuple[str, ...], hidden: Dict[str, Any]
) -> Callable[[CellFault], Optional[str]]:
    """The f-string lambda a hand-written table would hold for one kind.

    Compiled once at import: it runs once per certificate verdict, and
    the compiled f-string is about a third faster than rendering the
    fields through ``attrgetter`` and ``%``.
    """
    text = ":".join([prefix] + [
        "{'up' if f.rising else 'down'}" if name == "rising"
        else f"{{f.{name}}}"
        for name in fields
    ])
    body = f'f"{text}"'
    if hidden:
        defaults = " and ".join(
            f"f.{name} == {value!r}" for name, value in hidden.items()
        )
        body = f"{body} if {defaults} else None"
    return eval(f"lambda f: {body}")


_SPEC_KINDS = [
    (row.cls, row.prefix, *spec_fields(row.cls))
    for row in KINDS if row.prefix is not None
]
#: Prefix -> (class, field names, per-field converters), in table order.
_PARSERS: Dict[str, Tuple[type, Tuple[str, ...], Tuple[Callable, ...]]] = {
    prefix: (cls, fields, tuple(
        _direction if name == "rising" else int for name in fields
    ))
    for cls, prefix, fields, _ in _SPEC_KINDS
}
#: (class, formatter) per spec kind, in table order.
_BASES = tuple(
    (cls, _formatter(prefix, fields, hidden))
    for cls, prefix, fields, hidden in _SPEC_KINDS
)

#: Formatter per exact type; other types are resolved on first sight,
#: a subclass as its first base in the table.
_DISPATCH: Dict[type, Optional[Callable[[CellFault], Optional[str]]]] = dict(
    _BASES
)


def parse_fault(spec: str) -> CellFault:
    """Parse one fault specification (see module docstring)."""
    prefix, *args = spec.lower().split(":")
    try:
        cls, fields, converters = _PARSERS[prefix]
    except KeyError:
        raise FaultSpecError(
            f"unknown fault kind {prefix!r} ({'/'.join(_PARSERS)})"
        ) from None
    if len(args) != len(fields):
        raise FaultSpecError(
            f"bad fault spec {spec!r}: {prefix} takes {len(fields)} "
            f"field(s) ({':'.join(fields)}), got {len(args)}"
        )
    try:
        return cls(*[convert(arg) for convert, arg in zip(converters, args)])
    except FaultSpecError:
        raise
    except ValueError as error:
        raise FaultSpecError(f"bad fault spec {spec!r}: {error}") from None


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
            (f for base, f in _BASES if issubclass(kind, base)), None
        )
    return None if formatter is None else formatter(fault)
