"""Cycle-accurate model of the microcode-based BIST controller.

The execution semantics live in two places that share one source of
truth:

* :func:`decoder_outputs` — the combinational instruction-decoder
  function, mapping (condition field, status signals) to control
  strobes.  The simulator evaluates it every cycle *and* the area model
  synthesises its full truth table through Quine–McCluskey, so the
  "instruction decode module" area in Table 1 is genuinely derived from
  the same logic the simulation runs.
* :class:`MicrocodeBistController` — the sequential machine: instruction
  counter, branch register, reference register, repeat bit, and the
  shared datapath (address/data/port generators).

Non-sequential control transfers (REPEAT's "Reset to 1", NEXT_BG's and
INC_PORT's "Reset to 0") also reseed the branch register with the
destination so that element looping restarts correctly — this is the
"Reset to Branch Register" interplay of the paper's Fig. 1, made
concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from repro.area.components import (
    Counter,
    HardwareSpec,
    LogicBlock,
    Register,
    XorArray,
)
from repro.area.logic_min import TruthTable
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
from repro.core.microcode.assembler import MicrocodeProgram, assemble
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import PAUSE_TIMER_BITS, ConditionOp
from repro.core.microcode.storage import DEFAULT_ROWS, StorageUnit
from repro.march.backgrounds import background_count
from repro.march.element import AddressOrder
from repro.march.simulator import MemoryOperation
from repro.march.test import MarchTest

#: Instruction-decoder control strobes, in truth-table output order.
DECODER_OUTPUTS = (
    "ic_inc",          # instruction counter +1
    "ic_reset0",       # instruction counter := 0   ("Reset to 0")
    "ic_reset1",       # instruction counter := 1   ("Reset to 1")
    "ic_load_branch",  # instruction counter := branch register
    "branch_save",     # branch register := IC + 1  (Save Address Condition)
    "ref_load",        # reference register := aux fields; repeat bit := 1
    "ref_clear",       # reference register := 0;    repeat bit := 0
    "data_step",       # pulse the data-background generator
    "data_reset",      # reset the data-background generator
    "port_step",       # activate the next port
    "addr_restart",    # next element reloads the address sweep start
    "test_end",        # assert Test End
)


def decoder_outputs(
    cond: ConditionOp,
    last_address: bool,
    last_data: bool,
    last_port: bool,
    repeat_bit: bool,
    hold_done: bool = True,
) -> Dict[str, bool]:
    """The instruction decoder as a pure combinational function.

    Args:
        cond: the instruction's 3-bit condition field.
        last_address / last_data / last_port: status flags from the
            address generator, data generator and port sequencer.
        repeat_bit: the reference register's repeat-loop bit.
        hold_done: pause-timer expiry (HOLD instructions stall until it
            asserts; the stream model treats pauses as single events, so
            the simulator always passes True).

    Returns:
        A strobe → bool map covering every name in
        :data:`DECODER_OUTPUTS`.
    """
    out = {name: False for name in DECODER_OUTPUTS}
    if cond is ConditionOp.NOP:
        out["ic_inc"] = True
    elif cond is ConditionOp.LOOP:
        if last_address:
            out["branch_save"] = True
            out["ic_inc"] = True
            out["addr_restart"] = True
        else:
            out["ic_load_branch"] = True
    elif cond is ConditionOp.REPEAT:
        if repeat_bit:
            # Second execution: acts as a NOP crossing an element
            # boundary, so the branch register must re-seed for the
            # following element's LOOP and the sweep must restart.
            out["ref_clear"] = True
            out["ic_inc"] = True
            out["branch_save"] = True
            out["addr_restart"] = True
        else:
            out["ref_load"] = True
            out["ic_reset1"] = True
            out["addr_restart"] = True
    elif cond is ConditionOp.NEXT_BG:
        if last_data:
            out["data_reset"] = True
            out["ic_inc"] = True
            out["branch_save"] = True
            out["addr_restart"] = True
        else:
            out["data_step"] = True
            out["ic_reset0"] = True
            out["addr_restart"] = True
    elif cond is ConditionOp.HOLD:
        # A pause sits between elements: falling through re-seeds the
        # branch register and restarts the sweep for the next element.
        out["ic_inc"] = hold_done
        out["branch_save"] = hold_done
        out["addr_restart"] = hold_done
    elif cond is ConditionOp.INC_PORT:
        if last_port:
            out["test_end"] = True
        else:
            out["port_step"] = True
            out["ic_reset0"] = True
            out["data_reset"] = True
            out["addr_restart"] = True
    elif cond is ConditionOp.SAVE:
        out["branch_save"] = True
        out["ic_inc"] = True
    elif cond is ConditionOp.TERMINATE:
        out["test_end"] = True
    return out


def decoder_truth_table() -> TruthTable:
    """Full truth table of the instruction decoder (for synthesis).

    Inputs, LSB first: cond[0..2], last_address, last_data, last_port,
    repeat_bit, hold_done — 8 variables, 256 minterms.
    """
    outputs: Dict[str, set] = {name: set() for name in DECODER_OUTPUTS}
    for minterm in range(256):
        cond = ConditionOp(minterm & 0b111)
        strobes = decoder_outputs(
            cond,
            last_address=bool(minterm >> 3 & 1),
            last_data=bool(minterm >> 4 & 1),
            last_port=bool(minterm >> 5 & 1),
            repeat_bit=bool(minterm >> 6 & 1),
            hold_done=bool(minterm >> 7 & 1),
        )
        for name, value in strobes.items():
            if value:
                outputs[name].add(minterm)
    return TruthTable(8, outputs)


def runtime_cycle_bound(rows: int, capabilities: ControllerCapabilities) -> int:
    """Default ``max_cycles`` of a controller running a ``rows``-row program."""
    backgrounds = background_count(capabilities.width)
    per_pass = max(1, rows) * max(1, capabilities.n_words)
    return 1000 + 20 * per_pass * backgrounds * capabilities.ports


@dataclass(frozen=True)
class TraceEntry:
    """One executed microcode cycle, for architecture-level inspection."""

    cycle: int
    ic: int
    instruction: MicroInstruction
    port: int
    address: int
    background: int
    repeat_bit: bool
    operation: Optional[MemoryOperation]


class MicrocodeBistController(BistController):
    """The paper's proposed microcode-based memory BIST controller.

    Args:
        test: a march algorithm (assembled on construction) or a
            pre-assembled :class:`MicrocodeProgram`.
        capabilities: memory geometry the controller hardware targets.
        storage_rows: storage-unit depth Z; ``None`` auto-sizes to
            ``max(DEFAULT_ROWS, len(program))`` so long programs (the
            '++' variants) grow the storage instead of failing.
        storage_cell: storage cell kind; ``'scan_dff'`` reproduces the
            Table 1/2 configuration, ``'scan_only'`` the Table 3
            redesign.
        compress: enable REPEAT compression during assembly.
        max_cycles: safety bound on executed instructions; ``None``
            derives a generous bound from the program and geometry.
        verify: statically verify the program before loading it (and on
            every :meth:`load`); raises
            :class:`~repro.analysis.verifier.VerificationError` on
            error-severity findings.  Disable only to study how the
            hardware behaves on a malformed program — the runtime
            cycle bound is then the last line of defence.
    """

    architecture = "Microcode-Based"
    flexibility = Flexibility.HIGH

    def __init__(
        self,
        test: Union[MarchTest, MicrocodeProgram],
        capabilities: ControllerCapabilities,
        storage_rows: Optional[int] = None,
        storage_cell: str = "scan_dff",
        compress: bool = True,
        max_cycles: Optional[int] = None,
        verify: bool = True,
    ) -> None:
        super().__init__(capabilities)
        self.verify = verify
        if isinstance(test, MarchTest):
            self.program = assemble(
                test, capabilities, compress=compress, verify=verify
            )
        elif verify:
            self._verify_program(test, storage_rows)
            self.program = test
        else:
            self.program = test
        if storage_rows is None:
            storage_rows = max(DEFAULT_ROWS, len(self.program.instructions))
        self.storage = StorageUnit(
            rows=storage_rows,
            cell=storage_cell,
            default_program=self.program.instructions,
        )
        self.storage.initialize_default()
        self.max_cycles = max_cycles
        # Datapath instances (rebuilt per run in operations()).
        self._addr = AddressGenerator(capabilities.n_words)
        self._data = DataGenerator(capabilities.width)
        self._ports = PortSequencer(capabilities.ports)

    def loaded_test(self) -> MarchTest:
        return self.program.source

    def _verify_program(
        self, program: MicrocodeProgram, storage_rows: Optional[int]
    ) -> None:
        """Static pre-load verification (the in-field safety gate)."""
        from repro.analysis.verifier import verify_program

        verify_program(
            program, self.capabilities, storage_rows=storage_rows
        ).raise_on_errors()

    def load(self, test: Union[MarchTest, MicrocodeProgram], compress: bool = True) -> None:
        """Load a different algorithm — no hardware change, the paper's
        point about programmability.  Verifies the program against this
        controller's capabilities and storage depth first (unless the
        controller was built with ``verify=False``)."""
        if isinstance(test, MarchTest):
            self.program = assemble(
                test, self.capabilities, compress=compress, verify=self.verify
            )
        else:
            if self.verify:
                self._verify_program(test, self.storage.rows)
            self.program = test
        self.storage.load(self.program.instructions)

    # -- execution -----------------------------------------------------------

    def _cycle_bound(self) -> int:
        return runtime_cycle_bound(len(self.program), self.capabilities)

    def trace(self) -> Iterator[TraceEntry]:
        """Cycle-by-cycle execution trace (used by the Fig. 1/2 bench)."""
        addr = AddressGenerator(self.capabilities.n_words)
        data = DataGenerator(self.capabilities.width)
        ports = PortSequencer(self.capabilities.ports)
        rows = len(self.program.instructions)
        ic = 0
        branch_reg = 0
        repeat_bit = False
        ref_order = ref_data = ref_compare = False
        restart_pending = True
        bound = self.max_cycles or self._cycle_bound()

        for cycle in range(bound):
            if ic >= rows:
                return  # instruction addresses exhausted: test end
            instr = self.storage.fetch(ic)

            direction = AddressOrder.DOWN if (instr.addr_down ^ ref_order) else AddressOrder.UP
            operation: Optional[MemoryOperation] = None
            if instr.is_memory_op:
                if restart_pending:
                    addr.start(direction)
                    restart_pending = False
                if instr.write_en:
                    polarity = int(instr.data_inv) ^ int(ref_data)
                    operation = MemoryOperation(
                        ports.port, addr.address, True, value=data.word(polarity)
                    )
                else:
                    polarity = int(instr.compare) ^ int(ref_compare)
                    operation = MemoryOperation(
                        ports.port, addr.address, False, expected=data.word(polarity)
                    )
            elif instr.cond is ConditionOp.HOLD:
                operation = MemoryOperation(
                    ports.port, 0, False, delay=instr.hold_duration
                )

            was_last = addr.last_address
            strobes = decoder_outputs(
                instr.cond,
                last_address=was_last,
                last_data=data.last_background,
                last_port=ports.last_port,
                repeat_bit=repeat_bit,
            )

            yield TraceEntry(
                cycle=cycle,
                ic=ic,
                instruction=instr,
                port=ports.port,
                address=addr.address,
                background=data.background,
                repeat_bit=repeat_bit,
                operation=operation,
            )

            # Address stepping: the ADDR_INC field, gated by !last_address.
            if instr.is_memory_op and instr.addr_inc and not was_last:
                addr.increment()

            # Register updates from the decoder strobes.
            if strobes["branch_save"]:
                branch_reg = ic + 1
            if strobes["ref_load"]:
                ref_order, ref_data, ref_compare = (
                    instr.addr_down,
                    instr.data_inv,
                    instr.compare,
                )
                repeat_bit = True
            if strobes["ref_clear"]:
                ref_order = ref_data = ref_compare = False
                repeat_bit = False
            if strobes["data_step"]:
                data.increment()
            if strobes["data_reset"]:
                data.reset()
            if strobes["port_step"]:
                ports.increment()
            if strobes["addr_restart"]:
                restart_pending = True
            if strobes["test_end"]:
                return

            # Instruction sequencing (exactly one of these fires).
            if strobes["ic_load_branch"]:
                ic = branch_reg
            elif strobes["ic_reset0"]:
                ic = 0
                branch_reg = 0
            elif strobes["ic_reset1"]:
                ic = 1
                branch_reg = 1
            elif strobes["ic_inc"]:
                ic += 1
        raise RuntimeError(
            f"microcode program {self.program.name!r} did not terminate within "
            f"{bound} cycles — malformed control flow?"
        )

    def operations(self) -> Iterator[MemoryOperation]:
        for entry in self.trace():
            if entry.operation is not None:
                yield entry.operation

    # -- area model ------------------------------------------------------------

    def hardware(self) -> HardwareSpec:
        caps = self.capabilities
        import math

        ic_bits = max(1, math.ceil(math.log2(self.storage.rows))) + 1
        branch_bits = max(1, math.ceil(math.log2(self.storage.rows)))
        spec = HardwareSpec(
            name=f"Microcode-Based ({self.storage.cell} storage)",
            notes=(
                f"Z={self.storage.rows} rows x {self.storage.width} bits; "
                f"program {self.program.name!r} uses {len(self.program)} rows"
            ),
        )
        spec.extend(self.storage.hardware())
        spec.add(Counter("controller/instruction counter", ic_bits, loadable=True))
        spec.add(Register("controller/branch register", branch_bits))
        spec.add(Register("controller/reference register", 4))
        spec.add(XorArray("controller/reference XOR stage", 3))
        spec.add(
            LogicBlock(
                "controller/instruction decoder",
                decoder_truth_table().gate_equivalents(),
            )
        )
        spec.add(Counter("controller/pause timer", PAUSE_TIMER_BITS))
        spec.extend(
            shared_datapath_hardware(caps.n_words, caps.width, caps.ports)
        )
        return spec
