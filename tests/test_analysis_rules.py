"""One seeded defect per lint rule, proving each fires with the right
rule id and location (the catalogue contract of ``docs/ANALYSIS.md``)."""

import pytest

from repro.analysis import (
    Severity,
    VerificationError,
    rule_catalogue,
    verify_march,
    verify_program,
)
from repro.core.controller import ControllerCapabilities
from repro.core.microcode import assemble
from repro.core.microcode.assembler import MicrocodeProgram
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp
from repro.march import library
from repro.march.element import MarchElement, Pause
from repro.march.notation import parse_test
from repro.march.test import MarchTest


def program_of(*instructions, name="seeded"):
    return MicrocodeProgram(
        name=name, instructions=list(instructions), source=None
    )


def only(report, rule):
    """The findings a report holds for one rule (must be non-empty)."""
    found = report.by_rule(rule)
    assert found, f"expected {rule} to fire; got {report.format()}"
    return found


W_LOOP = MicroInstruction(write_en=True, addr_inc=True, cond=ConditionOp.LOOP)
R_LOOP = MicroInstruction(read_en=True, addr_inc=True, cond=ConditionOp.LOOP)
TERM = MicroInstruction(cond=ConditionOp.TERMINATE)


class TestProgramRules:
    def test_mc001_no_explicit_terminator(self):
        report = verify_program(program_of(W_LOOP))
        finding = only(report, "MC001")[0]
        assert finding.severity is Severity.WARNING
        assert finding.location.instruction == 0  # the last row

    def test_mc002_unreachable_instruction(self):
        report = verify_program(program_of(W_LOOP, TERM, MicroInstruction()))
        finding = only(report, "MC002")[0]
        assert finding.severity is Severity.WARNING
        assert finding.location.instruction == 2

    def test_mc003_loop_never_advances_address(self):
        stuck = MicroInstruction(read_en=True, cond=ConditionOp.LOOP)
        report = verify_program(
            program_of(stuck, TERM), ControllerCapabilities(n_words=4)
        )
        finding = only(report, "MC003")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.instruction == 0

    def test_mc003_silent_on_single_word_memory(self):
        stuck = MicroInstruction(read_en=True, cond=ConditionOp.LOOP)
        report = verify_program(
            program_of(stuck, TERM), ControllerCapabilities(n_words=1)
        )
        assert not report.by_rule("MC003")

    def test_mc004_multiple_repeat(self):
        repeat = MicroInstruction(cond=ConditionOp.REPEAT)
        report = verify_program(program_of(W_LOOP, R_LOOP, repeat, repeat, TERM))
        finding = only(report, "MC004")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.instruction == 3  # the second REPEAT

    def test_mc005_repeat_without_body(self):
        report = verify_program(
            program_of(MicroInstruction(cond=ConditionOp.REPEAT), TERM)
        )
        finding = only(report, "MC005")[0]
        assert finding.location.instruction == 0

    def test_mc005_repeat_after_multi_row_prefix(self):
        # Instruction 0 is a NOP body row, not a one-row element: the
        # decoder's Reset-to-1 would re-enter mid-element.
        rows = program_of(
            MicroInstruction(write_en=True),
            W_LOOP,
            MicroInstruction(cond=ConditionOp.REPEAT),
            TERM,
        )
        finding = only(verify_program(rows), "MC005")[0]
        assert finding.location.instruction == 2

    def test_mc006_hold_exponent_beyond_timer(self):
        hold = MicroInstruction(cond=ConditionOp.HOLD, hold_exponent=20)
        report = verify_program(program_of(W_LOOP, hold, TERM))
        finding = only(report, "MC006")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.instruction == 1

    def test_mc007_storage_overflow(self):
        rows = [W_LOOP] + [MicroInstruction() for _ in range(4)] + [TERM]
        report = verify_program(program_of(*rows), rows=4)
        finding = only(report, "MC007")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.instruction == 4  # first row past Z

    def test_mc008_next_bg_without_word_oriented_hardware(self):
        next_bg = MicroInstruction(data_inc=True, cond=ConditionOp.NEXT_BG)
        report = verify_program(
            program_of(W_LOOP, next_bg, TERM),
            ControllerCapabilities(n_words=2, width=1),
        )
        finding = only(report, "MC008")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.instruction == 1

    def test_mc008_inc_port_without_multiport_hardware(self):
        inc_port = MicroInstruction(cond=ConditionOp.INC_PORT)
        report = verify_program(
            program_of(W_LOOP, inc_port),
            ControllerCapabilities(n_words=2, ports=1),
        )
        assert only(report, "MC008")[0].location.instruction == 1

    def test_mc009_word_oriented_memory_without_next_bg(self):
        report = verify_program(
            program_of(W_LOOP, TERM),
            ControllerCapabilities(n_words=2, width=4),
        )
        finding = only(report, "MC009")[0]
        assert finding.severity is Severity.WARNING
        assert finding.location.instruction == 1

    def test_mc010_provable_divergence(self):
        stuck = MicroInstruction(read_en=True, cond=ConditionOp.LOOP)
        report = verify_program(
            program_of(stuck, TERM), ControllerCapabilities(n_words=4)
        )
        finding = only(report, "MC010")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.instruction == 0

    def test_mc011_unanalyzable_control_flow(self):
        # A LOOP that is not a memory operation never restarts the
        # address generator; the interpreter refuses to guess.
        odd = MicroInstruction(addr_inc=True, cond=ConditionOp.LOOP)
        report = verify_program(
            program_of(odd, TERM), ControllerCapabilities(n_words=4)
        )
        finding = only(report, "MC011")[0]
        assert finding.severity is Severity.WARNING
        assert finding.location.instruction == 0

    def test_mc012_missed_compression(self):
        program = assemble(
            library.MARCH_C, ControllerCapabilities(n_words=8),
            compress=False, verify=False,
        )
        report = verify_program(program, ControllerCapabilities(n_words=8))
        finding = only(report, "MC012")[0]
        assert finding.severity is Severity.INFO
        assert finding.location.instruction is None  # program-scope

    def test_mc012_not_raised_for_compressed_rows(self):
        program = assemble(
            library.MARCH_C, ControllerCapabilities(n_words=8), verify=False
        )
        report = verify_program(program, ControllerCapabilities(n_words=8))
        assert not report.by_rule("MC012")


class TestMarchRules:
    def test_ma001_empty_element(self):
        element = parse_test("^(w0)").items[0]
        object.__setattr__(element, "ops", ())  # bypass the constructor
        report = verify_march(MarchTest("broken", [element]))
        finding = only(report, "MA001")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.item == 0

    def test_ma002_redundant_consecutive_write(self):
        report = verify_march(parse_test("~(w0);^(w1,w1,r1)"))
        finding = only(report, "MA002")[0]
        assert finding.severity is Severity.WARNING
        assert (finding.location.item, finding.location.op) == (1, 1)

    def test_ma003_read_expects_wrong_value(self):
        report = verify_march(parse_test("~(w0);^(r1)"))
        finding = only(report, "MA003")[0]
        assert finding.severity is Severity.WARNING
        assert finding.location.item == 1

    def test_ma004_advisory_for_microcode_target(self):
        report = verify_march(library.MARCH_B, target="microcode")
        finding = only(report, "MA004")[0]
        assert finding.severity is Severity.INFO
        assert finding.location.item == 1  # the 6-op element

    def test_ma004_fatal_for_progfsm_target(self):
        report = verify_march(library.MARCH_B, target="progfsm")
        finding = only(report, "MA004")[0]
        assert finding.severity is Severity.ERROR

    def test_ma005_pause_not_power_of_two(self):
        element = parse_test("~(w0)").items[0]
        check = parse_test("^(r0)").items[0]
        test = MarchTest("oddpause", [element, Pause(100), check])
        finding = only(verify_march(test), "MA005")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.item == 1

    def test_ma006_pause_beyond_timer_range(self):
        element = parse_test("~(w0)").items[0]
        check = parse_test("^(r0)").items[0]
        test = MarchTest("longpause", [element, Pause(1 << 17), check])
        finding = only(verify_march(test), "MA006")[0]
        assert finding.severity is Severity.ERROR
        assert finding.location.item == 1

    def test_ma007_consecutive_pauses_progfsm(self):
        element = parse_test("~(w0)").items[0]
        check = parse_test("^(r0)").items[0]
        test = MarchTest(
            "doublepause", [element, Pause(256), Pause(256), check]
        )
        report = verify_march(test, target="progfsm")
        finding = only(report, "MA007")[0]
        assert finding.location.item == 2

    def test_ma007_mismatched_durations_progfsm(self):
        element = parse_test("~(w0)").items[0]
        check = parse_test("^(r0)").items[0]
        test = MarchTest(
            "twotimers", [element, Pause(256), check, Pause(512), check]
        )
        report = verify_march(test, target="progfsm")
        assert only(report, "MA007")[0].location.item == 3

    def test_ma007_trailing_pause_progfsm(self):
        element = parse_test("~(w0)").items[0]
        test = MarchTest("trailing", [element, Pause(256)])
        report = verify_march(test, target="progfsm")
        assert only(report, "MA007")[0].location.item == 1

    def test_ma007_silent_for_microcode_target(self):
        element = parse_test("~(w0)").items[0]
        test = MarchTest("trailing", [element, Pause(256)])
        assert not verify_march(test, target="microcode").by_rule("MA007")


class TestWiring:
    """The three enforcement layers reject error-severity findings."""

    def test_assembler_raises_on_bad_pause_with_item_index(self):
        element = parse_test("~(w0)").items[0]
        check = parse_test("^(r0)").items[0]
        test = MarchTest("oddpause", [element, Pause(100), check])
        with pytest.raises(Exception, match=r"item 1 \(Del\(100\)\)"):
            assemble(test, ControllerCapabilities(n_words=4), verify=False)

    def test_assembler_verify_raises_verification_error(self):
        element = parse_test("~(w0)").items[0]
        check = parse_test("^(r0)").items[0]
        test = MarchTest("longpause", [element, Pause(1 << 17), check])
        # 2^17 is a power of two, so row building succeeds; the verifier
        # then rejects the out-of-range HOLD exponent (MC006).
        with pytest.raises(VerificationError) as excinfo:
            assemble(test, ControllerCapabilities(n_words=4))
        assert excinfo.value.report.by_rule("MC006")

    def test_verification_error_is_an_assembly_error(self):
        from repro.core.microcode.assembler import AssemblyError

        assert issubclass(VerificationError, AssemblyError)

    def test_catalogue_is_complete_and_documented(self):
        catalogue = rule_catalogue()
        ids = [spec.rule_id for spec in catalogue]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert {"MC001", "MC003", "MC010", "MA004", "MA007",
                "PF002", "PF003", "RT003", "CV001", "CV013"} <= set(ids)
        assert len(ids) >= 8
        for spec in catalogue:
            assert spec.title
            assert spec.scope in ("program", "march", "fsm", "rtl",
                                  "coverage")
