"""Cycle-accurate executor and area model of hardwired controllers.

The executor walks the synthesised :class:`~repro.core.hardwired.synthesis.StateGraph`
one state per cycle, driving the shared datapath through the same
``step_signals`` function the truth-table enumeration uses.  The area
model is the state register plus the Quine–McCluskey-minimised
next-state/output logic plus the shared datapath — nothing else, which
is why the hardwired designs are the smallest entries of Table 1 for a
given algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.area.components import Counter, HardwareSpec, LogicBlock, Register
from repro.core.controller import (
    BistController,
    ControllerCapabilities,
    Flexibility,
)
from repro.core.datapath import (
    AddressGenerator,
    DataGenerator,
    PortSequencer,
    shared_datapath_hardware,
)
from repro.core.hardwired.synthesis import FsmState, StateGraph, step_signals, synthesize
from repro.march.backgrounds import background_count
from repro.march.element import AddressOrder, OpKind
from repro.march.simulator import MemoryOperation
from repro.march.test import MarchTest


def runtime_cycle_bound(states: int, capabilities: ControllerCapabilities) -> int:
    """Default ``max_cycles`` of a controller with ``states`` FSM states."""
    backgrounds = background_count(capabilities.width)
    per_pass = states * max(1, capabilities.n_words)
    return 1000 + 20 * per_pass * backgrounds * capabilities.ports


@dataclass(frozen=True)
class HardwiredTraceEntry:
    """One executed state, for inspection and the architecture benches."""

    cycle: int
    state: FsmState
    port: int
    address: int
    background: int
    operation: Optional[MemoryOperation]


class HardwiredBistController(BistController):
    """A non-programmable FSM controller for one fixed march algorithm.

    Args:
        test: the algorithm baked into the hardware.
        capabilities: memory geometry (decides whether background/port
            loop states exist).
        max_cycles: safety bound; ``None`` derives one from geometry.
    """

    architecture = "Hardwired"
    flexibility = Flexibility.LOW

    def __init__(
        self,
        test: MarchTest,
        capabilities: ControllerCapabilities,
        max_cycles: Optional[int] = None,
    ) -> None:
        super().__init__(capabilities)
        self.graph = synthesize(test, capabilities)
        self.max_cycles = max_cycles

    def loaded_test(self) -> MarchTest:
        return self.graph.source

    # -- execution ------------------------------------------------------------

    def _cycle_bound(self) -> int:
        return runtime_cycle_bound(self.graph.state_count, self.capabilities)

    def trace(self) -> Iterator[HardwiredTraceEntry]:
        caps = self.capabilities
        addr = AddressGenerator(caps.n_words)
        data = DataGenerator(caps.width)
        ports = PortSequencer(caps.ports)
        code = 0
        restart_pending = True
        bound = self.max_cycles or self._cycle_bound()

        for cycle in range(bound):
            state = self.graph.states[code]
            signals = step_signals(
                state,
                last_address=addr.last_address,
                last_data=data.last_background,
                last_port=ports.last_port,
            )
            operation: Optional[MemoryOperation] = None
            if state.kind == "op":
                if restart_pending:
                    direction = (
                        AddressOrder.DOWN if state.down else AddressOrder.UP
                    )
                    addr.start(direction)
                    restart_pending = False
                    # Re-sample the flag after the sweep reload.
                    signals = step_signals(
                        state,
                        last_address=addr.last_address,
                        last_data=data.last_background,
                        last_port=ports.last_port,
                    )
                polarity = int(bool(signals["polarity"]))
                if state.op_kind is OpKind.WRITE:
                    operation = MemoryOperation(
                        ports.port, addr.address, True, value=data.word(polarity)
                    )
                else:
                    operation = MemoryOperation(
                        ports.port,
                        addr.address,
                        False,
                        expected=data.word(polarity),
                    )
            elif state.kind == "pause":
                operation = MemoryOperation(
                    ports.port, 0, False, delay=state.pause_duration
                )

            yield HardwiredTraceEntry(
                cycle=cycle,
                state=state,
                port=ports.port,
                address=addr.address,
                background=data.background,
                operation=operation,
            )

            if signals["addr_inc"]:
                addr.increment()
            if signals["addr_start"]:
                restart_pending = True
            if signals["data_step"]:
                data.increment()
            if signals["data_reset"]:
                data.reset()
            if signals["port_step"]:
                ports.increment()
            if signals["test_end"]:
                return
            next_code = int(signals["next_state"])
            if state.kind == "done":
                return
            code = next_code
        raise RuntimeError(
            f"hardwired controller {self.graph.name!r} did not terminate "
            f"within {bound} cycles"
        )

    def operations(self) -> Iterator[MemoryOperation]:
        for entry in self.trace():
            if entry.operation is not None:
                yield entry.operation

    # -- area model -------------------------------------------------------------

    def hardware(self) -> HardwareSpec:
        caps = self.capabilities
        spec = HardwareSpec(
            name=f"{self.graph.source.name} (hardwired)",
            notes=f"{self.graph.state_count} states, "
                  f"{self.graph.state_bits}-bit state register",
        )
        spec.add(Register("controller/state register", self.graph.state_bits))
        spec.add(
            LogicBlock(
                "controller/next-state and output logic",
                self.graph.truth_table().gate_equivalents(),
            )
        )
        if self.graph.source.has_pauses:
            spec.add(Counter("controller/pause timer", 16))
        spec.extend(shared_datapath_hardware(caps.n_words, caps.width, caps.ports))
        return spec
