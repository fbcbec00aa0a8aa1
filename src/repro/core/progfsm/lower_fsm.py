"""The parametric 7-state lower FSM (paper Fig. 4a).

States: ``IDLE → RESET → RW0..RW3 → DONE``.  The four RW states perform
the (up to four) operations of the selected SM pattern on the current
address; after the pattern's last operation the FSM either steps the
address and loops back to RW0, or — on *Last Address* — enters DONE.
An asserted *Hold* input keeps the FSM in DONE (the retention pause);
otherwise it returns to IDLE, ready for the next upper-buffer
instruction.

The transition/output function :func:`lower_fsm_step` is the single
source of truth: the cycle simulator
(:class:`~repro.core.progfsm.controller.ProgrammableFsmBistController`,
which holds the 3-bit state register) evaluates it once per distinct
input per run, from the same function the area model enumerates —
:func:`lower_fsm_truth_table` turns it into the truth table the area
model synthesises (inputs: state[2:0], mode[2:0], last_address, start,
hold — 9 variables).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.area.logic_min import TruthTable
from repro.core.progfsm.march_elements import SM_PATTERNS
from repro.march.element import OpKind


class LowerFsmState(enum.IntEnum):
    """The seven states of Fig. 4(a)."""

    IDLE = 0
    RESET = 1
    RW0 = 2
    RW1 = 3
    RW2 = 4
    RW3 = 5
    DONE = 6


@dataclass(frozen=True)
class LowerFsmOutputs:
    """Moore/Mealy outputs of one lower-FSM cycle.

    Attributes:
        next_state: state entered at the next clock.
        read / write: memory strobes for this cycle.
        rel_polarity: SM-relative data polarity of the operation (XORed
            with the instruction's base D/C downstream).
        addr_start: (re)load the address-sweep start position.
        addr_inc: advance the address generator.
        done: element finished (the upper controller's Next Instruction
            condition).
    """

    next_state: LowerFsmState
    read: bool = False
    write: bool = False
    rel_polarity: int = 0
    addr_start: bool = False
    addr_inc: bool = False
    done: bool = False


def lower_fsm_step(
    state: LowerFsmState,
    mode: int,
    last_address: bool,
    start: bool,
    hold: bool,
) -> LowerFsmOutputs:
    """Combinational transition/output function of the lower FSM.

    Args:
        state: current state.
        mode: SM index from the upper-buffer instruction.
        last_address: address generator status flag.
        start: upper controller requests an element run (IDLE exit).
        hold: hold-in-DONE input (retention pause in progress).
    """
    pattern = SM_PATTERNS[mode]
    if state is LowerFsmState.IDLE:
        next_state = LowerFsmState.RESET if start else LowerFsmState.IDLE
        return LowerFsmOutputs(next_state=next_state)
    if state is LowerFsmState.RESET:
        return LowerFsmOutputs(next_state=LowerFsmState.RW0, addr_start=True)
    if state is LowerFsmState.DONE:
        next_state = LowerFsmState.DONE if hold else LowerFsmState.IDLE
        return LowerFsmOutputs(next_state=next_state, done=True)

    # RW0..RW3: operation k of the pattern.
    op_index = int(state) - int(LowerFsmState.RW0)
    if op_index >= len(pattern):
        # Unreachable for well-formed sequencing; recover to DONE.
        return LowerFsmOutputs(next_state=LowerFsmState.DONE)
    kind, rel = pattern[op_index]
    is_last_op = op_index == len(pattern) - 1
    if not is_last_op:
        next_state = LowerFsmState(int(state) + 1)
        addr_inc = False
    elif last_address:
        next_state = LowerFsmState.DONE
        addr_inc = False
    else:
        next_state = LowerFsmState.RW0
        addr_inc = True
    return LowerFsmOutputs(
        next_state=next_state,
        read=kind is OpKind.READ,
        write=kind is OpKind.WRITE,
        rel_polarity=rel,
        addr_inc=addr_inc,
    )


def lower_fsm_truth_table() -> TruthTable:
    """Enumerated truth table for synthesis.

    Inputs, LSB first: state[0..2], mode[0..2], last_address, start,
    hold — 9 variables, 512 minterms.  State codes 7 (unused) are
    don't-cares.
    """
    output_names = (
        "ns0",
        "ns1",
        "ns2",
        "read",
        "write",
        "rel_polarity",
        "addr_start",
        "addr_inc",
        "done",
    )
    outputs: Dict[str, set] = {name: set() for name in output_names}
    dont_cares = set()
    for minterm in range(512):
        state_code = minterm & 0b111
        mode = (minterm >> 3) & 0b111
        last_address = bool((minterm >> 6) & 1)
        start = bool((minterm >> 7) & 1)
        hold = bool((minterm >> 8) & 1)
        if state_code > int(LowerFsmState.DONE):
            dont_cares.add(minterm)
            continue
        out = lower_fsm_step(
            LowerFsmState(state_code), mode, last_address, start, hold
        )
        ns = int(out.next_state)
        for bit in range(3):
            if (ns >> bit) & 1:
                outputs[f"ns{bit}"].add(minterm)
        for name, value in (
            ("read", out.read),
            ("write", out.write),
            ("rel_polarity", bool(out.rel_polarity)),
            ("addr_start", out.addr_start),
            ("addr_inc", out.addr_inc),
            ("done", out.done),
        ):
            if value:
                outputs[name].add(minterm)
    return TruthTable(9, outputs, dont_cares)
