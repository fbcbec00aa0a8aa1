"""March algorithm → hardwired FSM synthesis.

A hardwired controller dedicates one FSM state to every operation of the
fixed algorithm (plus idle, pause and loop states), with transitions
conditioned on the datapath status flags.  This module builds that state
graph and enumerates its full next-state/output truth table, which the
area model minimises with Quine–McCluskey — so the Table 1/2 growth of
hardwired controller area with algorithm complexity is *derived*, not
asserted.

State graph layout for an algorithm with items I0..Ik:

* state 0 — IDLE (waits for Start; transitions into the first op state);
* one OP state per operation of each element: applies the operation at
  the current address; the element's last OP state either steps the
  address and loops back to the element's first OP state, or — on *Last
  Address* — falls through to the next item's first state;
* one PAUSE state per retention pause (waits on the pause timer);
* a BG_LOOP state when the controller supports word-oriented memories
  (re-runs the algorithm per data background);
* a PORT_LOOP state when it supports multiport memories;
* a DONE state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.area.logic_min import TruthTable
from repro.core.controller import ControllerCapabilities
from repro.march.element import AddressOrder, OpKind, Pause
from repro.march.test import MarchTest


@dataclass(frozen=True)
class FsmState:
    """One synthesised state of a hardwired controller.

    Attributes:
        index: binary state code.
        kind: 'idle', 'op', 'pause', 'bg_loop', 'port_loop' or 'done'.
        op_kind / polarity: memory operation of an 'op' state.
        down: traversal direction of the owning element.
        element_first: state code of the owning element's first op state
            (the address-sweep loop target).
        is_element_last: this op is the element's final operation.
        starts_element: first op of an element (reloads the sweep start).
        pause_duration: idle time of a 'pause' state.
        next_index: fall-through successor state code.
    """

    index: int
    kind: str
    op_kind: Optional[OpKind] = None
    polarity: int = 0
    down: bool = False
    element_first: int = 0
    is_element_last: bool = False
    starts_element: bool = False
    pause_duration: int = 0
    next_index: int = 0


@dataclass
class StateGraph:
    """The complete synthesised FSM of one hardwired controller."""

    name: str
    states: List[FsmState]
    capabilities: ControllerCapabilities
    source: MarchTest

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def state_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.state_count)))

    def truth_table(self) -> TruthTable:
        """Full next-state/output truth table for logic synthesis.

        Inputs, LSB first: state code, then last_address, last_data,
        last_port.  Unused state codes are don't-cares.
        """
        bits = self.state_bits
        n_vars = bits + 3
        output_names = [f"ns{i}" for i in range(bits)] + [
            "read",
            "write",
            "polarity",
            "addr_down",
            "addr_start",
            "addr_inc",
            "data_step",
            "data_reset",
            "port_step",
            "pause",
            "test_end",
        ]
        outputs: Dict[str, set] = {name: set() for name in output_names}
        dont_cares = set()
        for minterm in range(1 << n_vars):
            code = minterm & ((1 << bits) - 1)
            last_address = bool((minterm >> bits) & 1)
            last_data = bool((minterm >> (bits + 1)) & 1)
            last_port = bool((minterm >> (bits + 2)) & 1)
            if code >= self.state_count:
                dont_cares.add(minterm)
                continue
            signals = step_signals(
                self.states[code], last_address, last_data, last_port
            )
            ns = signals["next_state"]
            for bit in range(bits):
                if (ns >> bit) & 1:
                    outputs[f"ns{bit}"].add(minterm)
            for name in output_names:
                if name.startswith("ns"):
                    continue
                if signals[name]:
                    outputs[name].add(minterm)
        return TruthTable(n_vars, outputs, dont_cares)


def step_signals(
    state: FsmState,
    last_address: bool,
    last_data: bool,
    last_port: bool,
) -> Dict[str, object]:
    """Combinational next-state/output function of a hardwired FSM.

    Shared by the cycle simulator and the truth-table enumeration, so
    the synthesised logic is exactly what the simulation executes.
    """
    signals: Dict[str, object] = {
        "read": False,
        "write": False,
        "polarity": False,
        "addr_down": state.down,
        "addr_start": False,
        "addr_inc": False,
        "data_step": False,
        "data_reset": False,
        "port_step": False,
        "pause": False,
        "test_end": False,
        "next_state": state.next_index,
    }
    if state.kind == "idle":
        signals["addr_start"] = True
        return signals
    if state.kind == "op":
        signals["read"] = state.op_kind is OpKind.READ
        signals["write"] = state.op_kind is OpKind.WRITE
        signals["polarity"] = bool(state.polarity)
        if state.is_element_last:
            if last_address:
                # Mealy restart strobe: the *next* element reloads its
                # sweep start (direction comes from its own addr_down).
                signals["addr_start"] = True
                signals["next_state"] = state.next_index
            else:
                signals["addr_inc"] = True
                signals["next_state"] = state.element_first
        return signals
    if state.kind == "pause":
        signals["pause"] = True
        return signals
    if state.kind == "bg_loop":
        if last_data:
            signals["data_reset"] = True
            signals["next_state"] = state.next_index
        else:
            signals["data_step"] = True
            signals["addr_start"] = True
            signals["next_state"] = 1  # restart at the first op state
        return signals
    if state.kind == "port_loop":
        if last_port:
            signals["test_end"] = True
            signals["next_state"] = state.next_index
        else:
            signals["port_step"] = True
            signals["data_reset"] = True
            signals["addr_start"] = True
            signals["next_state"] = 1
        return signals
    # done
    signals["test_end"] = True
    signals["next_state"] = state.index
    return signals


def synthesize(
    test: MarchTest, capabilities: ControllerCapabilities
) -> StateGraph:
    """Build the hardwired state graph of ``test``.

    The graph embeds the algorithm completely — operations, polarities,
    traversal orders, pause durations — which is why any algorithm
    change is a hardware re-design.
    """
    states: List[FsmState] = []

    def add(**kwargs) -> int:
        index = len(states)
        states.append(FsmState(index=index, next_index=index + 1, **kwargs))
        return index

    add(kind="idle")
    for item in test.items:
        if isinstance(item, Pause):
            add(kind="pause", pause_duration=item.duration)
            continue
        first = len(states)
        down = item.order.resolve() is AddressOrder.DOWN
        for position, op in enumerate(item.ops):
            add(
                kind="op",
                op_kind=op.kind,
                polarity=op.polarity,
                down=down,
                element_first=first,
                is_element_last=position == len(item.ops) - 1,
                starts_element=position == 0,
            )
    if capabilities.word_oriented:
        add(kind="bg_loop")
    if capabilities.multiport:
        add(kind="port_loop")
    done = add(kind="done")
    # DONE self-loops.
    states[done] = FsmState(index=done, kind="done", next_index=done)
    return StateGraph(
        name=f"Hardwired {test.name}",
        states=states,
        capabilities=capabilities,
        source=test,
    )
