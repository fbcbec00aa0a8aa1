"""Abstract interpreter: the cycle bound is *exact*, not an estimate.

The headline identity: for every program the verifier accepts, the
interpreter's cycle count equals the number of entries the simulator's
trace produces — checked here for March C on a 64-word memory (the
acceptance benchmark) and across the whole library on mixed geometries.
"""

import pytest

from repro.analysis import Verdict, interpret
from repro.core.controller import ControllerCapabilities
from repro.core.microcode import MicrocodeBistController, assemble
from repro.core.microcode.assembler import MicrocodeProgram
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp
from repro.march import library


def traced_cycles(program, caps):
    controller = MicrocodeBistController(program, caps, verify=False)
    return sum(1 for _ in controller.trace())


def program_of(*instructions, name="handwritten"):
    return MicrocodeProgram(
        name=name, instructions=list(instructions), source=None
    )


class TestMarchC64Exact:
    """Acceptance criterion: exact cycle counts for March C, 64 words."""

    CAPS = ControllerCapabilities(n_words=64)

    @pytest.mark.parametrize("compress", [True, False])
    def test_bound_matches_simulator_exactly(self, compress):
        program = assemble(library.MARCH_C, self.CAPS, compress=compress)
        result = interpret(program, self.CAPS)
        assert result.verdict is Verdict.TERMINATES
        assert result.cycles == traced_cycles(program, self.CAPS)

    def test_compressed_program_costs_two_extra_repeat_cycles(self):
        compressed = assemble(library.MARCH_C, self.CAPS, compress=True)
        plain = assemble(library.MARCH_C, self.CAPS, compress=False)
        # The REPEAT row executes twice (arm + clear); everything else
        # is the same 10N operation stream.
        assert interpret(compressed, self.CAPS).cycles == \
            interpret(plain, self.CAPS).cycles + 2


class TestExactnessAcrossLibrary:
    GEOMETRIES = [
        ControllerCapabilities(n_words=8),
        ControllerCapabilities(n_words=5, width=2, ports=2),
        ControllerCapabilities(n_words=4, width=4),
        ControllerCapabilities(n_words=1),
    ]

    @pytest.mark.parametrize("name", sorted(library.ALGORITHMS))
    @pytest.mark.parametrize("compress", [True, False])
    def test_every_algorithm_every_geometry(self, name, compress):
        test = library.get(name)
        for caps in self.GEOMETRIES:
            program = assemble(test, caps, compress=compress)
            result = interpret(program, caps)
            assert result.verdict is Verdict.TERMINATES
            assert result.cycles == traced_cycles(program, caps), (
                f"{name} on {caps} (compress={compress})"
            )


class TestDivergenceDetection:
    CAPS = ControllerCapabilities(n_words=4)

    def test_loop_without_addr_inc_diverges(self):
        stuck = MicroInstruction(read_en=True, cond=ConditionOp.LOOP)
        result = interpret(program_of(stuck), self.CAPS)
        assert result.verdict is Verdict.DIVERGES
        assert result.location == 0

    def test_double_repeat_diverges_by_state_recurrence(self):
        """A second REPEAT finds the repeat bit cleared and re-arms it:
        the controller state recurs, which the interpreter detects."""
        rows = program_of(
            MicroInstruction(write_en=True, addr_inc=True,
                             cond=ConditionOp.LOOP),
            MicroInstruction(read_en=True, addr_inc=True,
                             cond=ConditionOp.LOOP),
            MicroInstruction(cond=ConditionOp.REPEAT),
            MicroInstruction(cond=ConditionOp.REPEAT),
            MicroInstruction(cond=ConditionOp.TERMINATE),
        )
        result = interpret(rows, self.CAPS)
        assert result.verdict is Verdict.DIVERGES
        assert "recurs" in result.reason

    def test_single_word_memory_cannot_hang_on_loop(self):
        """Last Address is always asserted when N=1, so the stuck LOOP
        still falls through."""
        stuck = MicroInstruction(read_en=True, cond=ConditionOp.LOOP)
        result = interpret(
            program_of(stuck, MicroInstruction(cond=ConditionOp.TERMINATE)),
            ControllerCapabilities(n_words=1),
        )
        assert result.verdict is Verdict.TERMINATES


class TestUnanalyzableShapes:
    CAPS = ControllerCapabilities(n_words=4)

    def test_non_memory_loop_is_unknown(self):
        odd = MicroInstruction(addr_inc=True, cond=ConditionOp.LOOP)
        result = interpret(program_of(odd), self.CAPS)
        assert result.verdict is Verdict.UNKNOWN
        assert result.cycles is None

    def test_mid_sweep_addr_inc_is_unknown(self):
        rows = program_of(
            MicroInstruction(cond=ConditionOp.SAVE),
            MicroInstruction(write_en=True, addr_inc=True),
            MicroInstruction(read_en=True, addr_inc=True,
                             cond=ConditionOp.LOOP),
        )
        result = interpret(rows, self.CAPS)
        assert result.verdict is Verdict.UNKNOWN


class TestFallOffTermination:
    """Programs without TERMINATE end once the IC passes the last
    program row (the paper's 'exhaust the allowed instruction
    addresses'; storage padding rows never execute)."""

    CAPS = ControllerCapabilities(n_words=4)

    def test_fall_off_cycle_count_matches_simulator(self):
        sweep = MicroInstruction(write_en=True, addr_inc=True,
                                 cond=ConditionOp.LOOP)
        program = program_of(sweep)
        result = interpret(program, self.CAPS)
        assert result.verdict is Verdict.TERMINATES
        assert result.reason == "instruction addresses exhausted"
        assert result.cycles == traced_cycles(program, self.CAPS) == 4

    def test_explicit_trailing_nops_are_counted(self):
        sweep = MicroInstruction(write_en=True, addr_inc=True,
                                 cond=ConditionOp.LOOP)
        program = program_of(sweep, MicroInstruction(), MicroInstruction())
        result = interpret(program, self.CAPS)
        assert result.cycles == traced_cycles(program, self.CAPS) == 6


class TestCapabilityLoops:
    def test_background_loop_multiplies_the_program_body(self):
        caps = ControllerCapabilities(n_words=4, width=4)  # 3 backgrounds
        program = assemble(library.MARCH_Y, caps)
        result = interpret(program, caps)
        assert result.verdict is Verdict.TERMINATES
        assert result.cycles == traced_cycles(program, caps)

    def test_port_loop_multiplies_everything_again(self):
        caps = ControllerCapabilities(n_words=4, width=2, ports=3)
        program = assemble(library.MARCH_Y, caps)
        result = interpret(program, caps)
        assert result.verdict is Verdict.TERMINATES
        assert result.cycles == traced_cycles(program, caps)
