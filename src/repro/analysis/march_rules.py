"""March-algorithm-level lint rules (``MA…``).

These run on a :class:`~repro.march.test.MarchTest` before any program
is assembled, so an algorithm author gets feedback without choosing a
target architecture.  Some severities depend on the ``target``:

* ``"microcode"`` — the microcode controller runs any element pattern,
  but its HOLD pause timer is a 2^k counter, so pause durations must be
  powers of two within the timer range;
* ``"progfsm"`` — elements must map onto SM0–SM7 and pauses must be
  expressible through the single hold register; violations are fatal
  (this is what :func:`repro.core.progfsm.compiler.compile_to_sm`
  enforces through the verifier);
* ``None`` — architecture-independent linting only.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.rules import rule
from repro.core.microcode.isa import PAUSE_TIMER_BITS
from repro.core.progfsm.march_elements import match_element
from repro.march.element import MarchElement, Pause
from repro.march.test import MarchTest
from repro.march.validate import check_consistency


@rule("MA001", Severity.ERROR, "empty march element", scope="march")
def _empty_element(test: MarchTest, target: Optional[str]) -> Iterator[Tuple]:
    """An element with no operations assembles to nothing — the sweep it
    notates silently disappears from the program."""
    for index, item in enumerate(test.items):
        if isinstance(item, MarchElement) and item.op_count == 0:
            yield (
                Location(item=index),
                f"element {index} applies no operations",
                "delete the element or give it at least one operation",
            )


@rule("MA002", Severity.WARNING, "redundant consecutive write", scope="march")
def _redundant_write(test: MarchTest, target: Optional[str]) -> Iterator[Tuple]:
    """Writing the same polarity twice in a row adds a cycle per cell
    without exciting any additional fault."""
    for index, item in enumerate(test.items):
        if not isinstance(item, MarchElement):
            continue
        for op_index in range(1, item.op_count):
            prev, here = item.ops[op_index - 1], item.ops[op_index]
            if prev.is_write and here.is_write and prev.polarity == here.polarity:
                yield (
                    Location(item=index, op=op_index),
                    f"element {index} writes w{here.polarity} twice in a row "
                    f"(ops {op_index - 1} and {op_index})",
                    "drop the duplicate write",
                )


@rule("MA003", Severity.WARNING, "read expects the wrong value", scope="march")
def _inconsistent_read(test: MarchTest, target: Optional[str]) -> Iterator[Tuple]:
    """A read whose expected polarity disagrees with what the preceding
    operations left in the cells fails on a perfectly good memory."""
    for problem in check_consistency(test):
        yield (
            Location(item=problem.item_index, op=problem.op_index),
            problem.message,
            "align the read's expected polarity with the cell state",
        )


@rule("MA004", Severity.INFO, "element outside the SM0-SM7 library",
      scope="march")
def _not_sm_mappable(test: MarchTest, target: Optional[str]) -> Iterator:
    """The programmable FSM architecture realises only the eight SM
    patterns; other element shapes need the microcode architecture."""
    severity = Severity.ERROR if target == "progfsm" else Severity.INFO
    for index, item in enumerate(test.items):
        if isinstance(item, MarchElement) and match_element(item) is None:
            yield Diagnostic(
                rule="MA004",
                severity=severity,
                message=(f"element {index} '{item}' matches no SM0-SM7 "
                         "pattern (programmable FSM flexibility boundary)"),
                location=Location(item=index),
                hint="target the microcode architecture for this algorithm",
            )


@rule("MA005", Severity.ERROR, "pause duration not a power of two",
      scope="march")
def _pause_power_of_two(test: MarchTest, target: Optional[str]) -> Iterator[Tuple]:
    """The microcode HOLD pause timer is a 2^k counter; other durations
    are not encodable.  (The progfsm hold register takes any duration.)"""
    if target == "progfsm":
        return
    for index, item in enumerate(test.items):
        if isinstance(item, Pause) and item.duration & (item.duration - 1):
            yield (
                Location(item=index),
                f"pause of {item.duration} time units at item {index} is not "
                "a power of two; the HOLD pause timer is a 2^k counter",
                "round the duration to a neighbouring power of two",
            )


@rule("MA006", Severity.ERROR, "pause exceeds the HOLD timer range",
      scope="march")
def _pause_exceeds_timer(test: MarchTest, target: Optional[str]) -> Iterator[Tuple]:
    if target == "progfsm":
        return
    limit = 1 << PAUSE_TIMER_BITS
    for index, item in enumerate(test.items):
        if isinstance(item, Pause) and not item.duration & (item.duration - 1):
            if item.duration > limit:
                yield (
                    Location(item=index),
                    f"pause of {item.duration} time units at item {index} "
                    f"exceeds the {PAUSE_TIMER_BITS}-bit pause timer "
                    f"(max {limit})",
                    f"cap retention pauses at {limit} time units",
                )


@rule("MA007", Severity.ERROR, "pause shape the hold register cannot express",
      scope="march")
def _progfsm_pause_structure(
    test: MarchTest, target: Optional[str]
) -> Iterator[Tuple]:
    """The progfsm architecture encodes a pause as the *hold* bit of the
    following element's instruction, timed by one shared register: no
    consecutive or trailing pauses, and all durations must agree."""
    if target != "progfsm":
        return
    first_duration: Optional[int] = None
    previous_was_pause = False
    for index, item in enumerate(test.items):
        if not isinstance(item, Pause):
            previous_was_pause = False
            continue
        if previous_was_pause:
            yield (
                Location(item=index),
                f"consecutive pauses at items {index - 1} and {index}: each "
                "instruction carries a single hold bit",
                "merge the pauses into one",
            )
        if first_duration is None:
            first_duration = item.duration
        elif item.duration != first_duration:
            yield (
                Location(item=index),
                f"pause of {item.duration} at item {index} disagrees with "
                f"the earlier {first_duration}: the hold timer is a single "
                "register",
                "use one duration for every pause",
            )
        previous_was_pause = True
    if previous_was_pause:
        yield (
            Location(item=len(test.items) - 1),
            "trailing pause has no following element to hold",
            "move the pause before a verifying element",
        )
