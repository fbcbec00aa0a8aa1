"""Cycle-accurate model of the programmable FSM-based BIST controller.

Composes the circular buffer (upper controller), the 7-state lower FSM
and the shared datapath.  The execution trace records lower-FSM state
transitions, which the Fig. 4 benchmark renders to show the state walk
and the path-A/path-B loops.  The simulator decodes each buffer word
and evaluates :func:`~repro.core.progfsm.lower_fsm.lower_fsm_step` once
per distinct input per run, from the same function the area model
enumerates.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional, Tuple, Union

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
    LowerFsmOutputs,
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


class FsmTraceEntry(NamedTuple):
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

    @classmethod
    def realise(
        cls,
        test: MarchTest,
        capabilities: ControllerCapabilities,
        compress: bool = True,
    ) -> "ProgrammableFsmBistController":
        """``test`` compiled unverified, in a buffer deep enough for the
        program (``compress`` is a microcode option)."""
        program = compile_to_sm(test, capabilities, verify=False)
        return cls(
            program, capabilities,
            buffer_rows=max(DEFAULT_ROWS, len(program)), verify=False,
        )

    # -- execution ---------------------------------------------------------

    def cycle_bound(self) -> int:
        return self.max_cycles or runtime_cycle_bound(
            len(self.program), self.capabilities
        )

    def walk(self):
        from repro.core.walk import walk_fsm

        rows = self.program.instructions
        fetched = [FsmInstruction.decode(row.encode()) for row in rows]
        return walk_fsm(fetched, self.capabilities, self.program.pause_duration)

    def trace(self) -> Iterator[FsmTraceEntry]:
        """Cycle-by-cycle trace of upper-buffer rows and lower-FSM states.

        :meth:`FsmInstruction.decode` and :func:`lower_fsm_step` are
        pure, so each runs once per distinct input: per buffer word and
        per (state, mode, last address).  The memos are local to this
        run; the next run reads the buffer and both functions afresh.
        """
        caps = self.capabilities
        addr = AddressGenerator(caps.n_words)
        data = DataGenerator(caps.width)
        ports = PortSequencer(caps.ports)
        buffer = self.buffer
        buffer.reset()
        if not self.program.instructions:
            return
        decoded: Dict[int, FsmInstruction] = {}
        outputs_of: Dict[Tuple, LowerFsmOutputs] = {}
        state = LowerFsmState.IDLE  # the lower FSM's state register
        bound = self.cycle_bound()
        hold_pending = False  # pause still owed before the current row

        cycle = 0
        while cycle < bound:
            row = buffer.pointer
            word = buffer.word()
            instr = decoded.get(word)
            if instr is None:
                instr = decoded[word] = FsmInstruction.decode(word)

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
                        cycle, row, instr, state, ports.port,
                        addr.address, data.background, None, path=path,
                    )
                    cycle += 1
                    continue
                # LOOP_PORT row.
                if ports.last_port:
                    yield FsmTraceEntry(
                        cycle, row, instr, state, ports.port,
                        addr.address, data.background, None, path="",
                    )
                    return
                ports.increment()
                data.reset()
                buffer.wrap()
                yield FsmTraceEntry(
                    cycle, row, instr, state, ports.port,
                    addr.address, data.background, None, path="B",
                )
                cycle += 1
                continue

            # Element row: optional hold pause, then drive the lower FSM
            # through one full element.
            operation: Optional[MemoryOperation] = None
            if instr.hold and not hold_pending and state is LowerFsmState.IDLE:
                hold_pending = True
                operation = MemoryOperation(
                    ports.port, 0, False, delay=self.program.pause_duration
                )
                yield FsmTraceEntry(
                    cycle, row, instr, state, ports.port,
                    addr.address, data.background, operation,
                )
                cycle += 1
                continue

            # start=True, hold=False: the upper controller always
            # requests the element it points at.
            inputs = (state, instr.mode, addr.last_address)
            outputs = outputs_of.get(inputs)
            if outputs is None:
                outputs = outputs_of[inputs] = lower_fsm_step(
                    *inputs, True, False
                )
            if outputs.addr_start:
                addr.start(
                    AddressOrder.DOWN if instr.addr_down else AddressOrder.UP
                )
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
                cycle, row, instr, state, ports.port,
                addr.address, data.background, operation,
            )
            state = outputs.next_state
            if outputs.addr_inc:
                addr.increment()
            if outputs.done:
                hold_pending = False
                state = LowerFsmState.IDLE
                buffer.advance()
                if buffer.pointer == 0:
                    # Wrapped past the last row with no loop rows: done.
                    return
            cycle += 1
        raise RuntimeError(
            f"FSM program {self.program.name!r} did not terminate within "
            f"{bound} cycles — malformed control flow?"
        )

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
