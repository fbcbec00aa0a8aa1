"""March test → SM instruction compiler for the programmable FSM unit.

Each march element must match one of the SM0–SM7 patterns; a
:class:`~repro.march.element.Pause` sets the *hold* bit of the following
element's instruction (the lower FSM waits in its Done state before the
element runs).  All pauses of an algorithm must share one duration — the
hold timer is a single controller register.

Compilation fails with :class:`CompileError` for algorithms outside the
SM library — that failure is the architecture's MEDIUM-flexibility
boundary, measured by :mod:`repro.eval.flexibility`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.controller import ControllerCapabilities
from repro.core.progfsm.instruction import DataControl, FsmInstruction
from repro.core.progfsm.march_elements import match_element
from repro.march.element import AddressOrder, Pause
from repro.march.library import RETENTION_PAUSE
from repro.march.test import MarchTest


class CompileError(ValueError):
    """Raised when an algorithm cannot be realised with SM0–SM7."""


@dataclass
class FsmProgram:
    """Compiled upper-buffer contents plus provenance.

    Attributes:
        name: source algorithm name.
        instructions: upper-buffer rows, ending with any loop rows.
        source: the march test the program realises.
        pause_duration: hold time applied before hold-flagged elements.
    """

    name: str
    instructions: List[FsmInstruction]
    source: MarchTest
    pause_duration: int = RETENTION_PAUSE

    def __len__(self) -> int:
        return len(self.instructions)


def compile_to_sm(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    verify: bool = True,
) -> FsmProgram:
    """Compile a march test for the programmable FSM controller.

    The static verifier runs first (``target="progfsm"``), so every
    flexibility-boundary violation is reported with its rule id and
    element location before the row-by-row translation below repeats
    the same checks as a safety net.

    Raises:
        CompileError: when an element matches no SM pattern, when a
            pause is not followed by an element, or when pauses disagree
            on duration.
    """
    if verify:
        from repro.analysis.verifier import verify_march

        report = verify_march(test, target="progfsm")
        if report.has_errors:
            details = "; ".join(str(d) for d in report.errors)
            raise CompileError(f"{test.name}: {details}")
    rows: List[FsmInstruction] = []
    pending_hold = False
    pause_duration: Optional[int] = None
    for item in test.items:
        if isinstance(item, Pause):
            if pending_hold:
                raise CompileError(
                    f"{test.name}: consecutive pauses cannot be expressed — "
                    "each instruction carries a single hold bit"
                )
            if pause_duration is None:
                pause_duration = item.duration
            elif pause_duration != item.duration:
                raise CompileError(
                    f"{test.name}: pauses of different durations "
                    f"({pause_duration} vs {item.duration}); the hold timer "
                    "is a single register"
                )
            pending_hold = True
            continue
        match = match_element(item)
        if match is None:
            raise CompileError(
                f"{test.name}: element '{item}' matches no SM0-SM7 pattern "
                "(programmable FSM flexibility boundary)"
            )
        sm, data, compare = match
        rows.append(
            FsmInstruction(
                hold=pending_hold,
                addr_down=item.order.resolve() is AddressOrder.DOWN,
                data_ctrl=DataControl.BASE1 if data else DataControl.BASE0,
                compare=bool(compare),
                mode=sm,
            )
        )
        pending_hold = False
    if pending_hold:
        raise CompileError(
            f"{test.name}: trailing pause has no following element to hold"
        )
    if capabilities.word_oriented:
        rows.append(FsmInstruction(data_ctrl=DataControl.LOOP_BG))
    if capabilities.multiport:
        rows.append(FsmInstruction(data_ctrl=DataControl.LOOP_PORT))
    program = FsmProgram(
        name=test.name,
        instructions=rows,
        source=test,
        pause_duration=pause_duration if pause_duration is not None else RETENTION_PAUSE,
    )
    if verify:
        # Post-compile gate, mirroring the microcode assembler: the rows
        # just emitted are proved terminating against the target
        # geometry (PF rules + abstract interpretation) before anyone
        # can load them.  The march rules already ran on the source
        # above, error-free.
        from repro.analysis.verifier import verify_program

        verify_program(
            program, capabilities, lint_source=False
        ).raise_on_errors()
    return program


def is_realizable(test: MarchTest) -> bool:
    """Whether the SM architecture can run ``test`` at all: exactly when
    the march rules pass and the unverified translation succeeds."""
    from repro.analysis.verifier import verify_march

    if verify_march(test, target="progfsm").has_errors:
        return False
    try:
        compile_to_sm(test, ControllerCapabilities(n_words=2), verify=False)
    except CompileError:
        return False
    return True
