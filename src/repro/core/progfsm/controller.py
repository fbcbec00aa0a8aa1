"""Cycle-accurate model of the programmable FSM-based BIST controller.

Composes the circular buffer (upper controller), the 7-state lower FSM
and the shared datapath.  The execution trace records lower-FSM state
transitions, which the Fig. 4 benchmark renders to show the state walk
and the path-A/path-B loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.area.components import (
    Counter,
    HardwareSpec,
    LogicBlock,
    Register,
    XorArray,
)
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
from repro.core.progfsm.compiler import FsmProgram, compile_to_sm
from repro.core.progfsm.instruction import DataControl, FsmInstruction
from repro.core.progfsm.lower_fsm import (
    LowerFsm,
    LowerFsmState,
    lower_fsm_step,
    lower_fsm_truth_table,
)
from repro.core.progfsm.upper_buffer import DEFAULT_ROWS, CircularBuffer
from repro.march.backgrounds import background_count
from repro.march.element import AddressOrder
from repro.march.simulator import MemoryOperation
from repro.march.test import MarchTest


def runtime_cycle_bound(rows: int, capabilities: ControllerCapabilities) -> int:
    """Default ``max_cycles`` of a controller running a ``rows``-row program."""
    backgrounds = background_count(capabilities.width)
    per_pass = max(1, rows) * max(1, capabilities.n_words) * 6
    return 1000 + 20 * per_pass * backgrounds * capabilities.ports


@dataclass(frozen=True)
class FsmTraceEntry:
    """One lower-FSM cycle, for the Fig. 4 architecture benchmark."""

    cycle: int
    row: int
    instruction: FsmInstruction
    state: LowerFsmState
    port: int
    address: int
    background: int
    operation: Optional[MemoryOperation]
    path: str = ""  # "A" / "B" on loop-back cycles


class ProgrammableFsmBistController(BistController):
    """The paper's proposed programmable FSM-based memory BIST unit.

    Args:
        test: a march algorithm (compiled on construction) or a
            pre-compiled :class:`FsmProgram`.
        capabilities: memory geometry the hardware targets.
        buffer_rows: circular-buffer depth.
        max_cycles: safety bound; ``None`` derives one from geometry.
        verify: statically verify programs before load (the in-field
            safety gate, mirroring the microcode controller).

    Raises:
        CompileError: when the algorithm is outside the SM0–SM7 library.
        VerificationError: when a pre-compiled program fails the static
            PF checks against this controller's geometry and buffer.
    """

    architecture = "Prog. FSM-Based"
    flexibility = Flexibility.MEDIUM

    def __init__(
        self,
        test: Union[MarchTest, FsmProgram],
        capabilities: ControllerCapabilities,
        buffer_rows: int = DEFAULT_ROWS,
        max_cycles: Optional[int] = None,
        verify: bool = True,
    ) -> None:
        super().__init__(capabilities)
        self.verify = verify
        if isinstance(test, MarchTest):
            self.program = compile_to_sm(test, capabilities, verify=verify)
        else:
            if verify:
                self._verify_program(test, buffer_rows)
            self.program = test
        self.buffer = CircularBuffer(
            rows=buffer_rows, default_program=self.program.instructions
        )
        self.max_cycles = max_cycles

    def loaded_test(self) -> MarchTest:
        return self.program.source

    def _verify_program(
        self, program: FsmProgram, buffer_rows: int
    ) -> None:
        """Static pre-load verification (the in-field safety gate).

        Knows this controller's actual buffer depth, so the advisory
        PF003 default-depth warning becomes a hard error here.
        """
        from repro.analysis.verifier import verify_fsm_program

        verify_fsm_program(
            program, self.capabilities, buffer_rows=buffer_rows
        ).raise_on_errors()

    def load(self, test: Union[MarchTest, FsmProgram]) -> None:
        """Load a different SM-composed algorithm; no hardware change.

        Verifies the program against this controller's capabilities and
        buffer depth first (unless built with ``verify=False``)."""
        if isinstance(test, MarchTest):
            self.program = compile_to_sm(
                test, self.capabilities, verify=self.verify
            )
        else:
            if self.verify:
                self._verify_program(test, self.buffer.rows)
            self.program = test
        self.buffer.load(self.program.instructions)

    # -- execution ---------------------------------------------------------

    def _cycle_bound(self) -> int:
        return runtime_cycle_bound(len(self.program), self.capabilities)

    def trace(self) -> Iterator[FsmTraceEntry]:
        """Cycle-by-cycle trace of upper-buffer rows and lower-FSM states."""
        caps = self.capabilities
        addr = AddressGenerator(caps.n_words)
        data = DataGenerator(caps.width)
        ports = PortSequencer(caps.ports)
        fsm = LowerFsm()
        buffer = self.buffer
        buffer.reset()
        if not self.program.instructions:
            return
        bound = self.max_cycles or self._cycle_bound()
        hold_pending = False  # pause still owed before the current row

        cycle = 0
        while cycle < bound:
            row = buffer.pointer
            instr = buffer.current()

            if not instr.is_element:
                # Loop rows are handled by the upper controller directly.
                if instr.data_ctrl is DataControl.LOOP_BG:
                    if data.last_background:
                        data.reset()
                        buffer.advance()
                        path = ""
                        if buffer.pointer == 0:
                            # LOOP_BG was the last row (single-port unit):
                            # wrapping past it ends the test.
                            return
                    else:
                        data.increment()
                        buffer.wrap()
                        path = "A"
                    yield FsmTraceEntry(
                        cycle, row, instr, fsm.state, ports.port,
                        addr.address, data.background, None, path=path,
                    )
                    cycle += 1
                    continue
                # LOOP_PORT row.
                if ports.last_port:
                    yield FsmTraceEntry(
                        cycle, row, instr, fsm.state, ports.port,
                        addr.address, data.background, None, path="",
                    )
                    return
                ports.increment()
                data.reset()
                buffer.wrap()
                yield FsmTraceEntry(
                    cycle, row, instr, fsm.state, ports.port,
                    addr.address, data.background, None, path="B",
                )
                cycle += 1
                continue

            # Element row: optional hold pause, then drive the lower FSM
            # through one full element.
            operation: Optional[MemoryOperation] = None
            if instr.hold and not hold_pending and fsm.state is LowerFsmState.IDLE:
                hold_pending = True
                operation = MemoryOperation(
                    ports.port, 0, False, delay=self.program.pause_duration
                )
                yield FsmTraceEntry(
                    cycle, row, instr, fsm.state, ports.port,
                    addr.address, data.background, operation,
                )
                cycle += 1
                continue

            direction = (
                AddressOrder.DOWN if instr.addr_down else AddressOrder.UP
            )
            executing_state = fsm.state
            outputs = fsm.step(
                mode=instr.mode,
                last_address=addr.last_address,
                start=True,
                hold=False,
            )
            operation = None
            if outputs.addr_start:
                addr.start(direction)
            if outputs.read:
                polarity = outputs.rel_polarity ^ int(instr.compare)
                operation = MemoryOperation(
                    ports.port, addr.address, False,
                    expected=data.word(polarity),
                )
            elif outputs.write:
                polarity = outputs.rel_polarity ^ instr.base_data
                operation = MemoryOperation(
                    ports.port, addr.address, True, value=data.word(polarity)
                )
            yield FsmTraceEntry(
                cycle, row, instr, executing_state, ports.port,
                addr.address, data.background, operation,
            )
            if outputs.addr_inc:
                addr.increment()
            if outputs.done:
                hold_pending = False
                fsm.reset()
                buffer.advance()
                if buffer.pointer == 0:
                    # Wrapped past the last row with no loop rows: done.
                    return
            cycle += 1
        raise RuntimeError(
            f"FSM program {self.program.name!r} did not terminate within "
            f"{bound} cycles — malformed control flow?"
        )

    def operations(self) -> Iterator[MemoryOperation]:
        for entry in self.trace():
            if entry.operation is not None:
                yield entry.operation

    # -- area model ----------------------------------------------------------

    def hardware(self) -> HardwareSpec:
        caps = self.capabilities
        spec = HardwareSpec(
            name="Prog. FSM-Based",
            notes=(
                f"{self.buffer.rows} buffer rows x {self.buffer.width} bits; "
                f"program {self.program.name!r} uses {len(self.program)} rows"
            ),
        )
        spec.extend(self.buffer.hardware())
        spec.add(Register("controller/lower FSM state register", 3))
        spec.add(
            LogicBlock(
                "controller/lower FSM logic",
                lower_fsm_truth_table().gate_equivalents(),
            )
        )
        spec.add(XorArray("controller/base polarity XOR stage", 2))
        spec.add(Counter("controller/pause timer", 16))
        spec.extend(shared_datapath_hardware(caps.n_words, caps.width, caps.ports))
        return spec
