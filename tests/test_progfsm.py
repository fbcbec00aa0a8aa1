"""Unit tests for the programmable FSM architecture: SM matching,
instruction format, compiler, circular buffer and lower FSM."""

import pytest

from repro.core.controller import ControllerCapabilities
from repro.core.progfsm.compiler import CompileError, compile_to_sm, is_realizable
from repro.core.progfsm.instruction import DataControl, FsmInstruction
from repro.core.progfsm.lower_fsm import (
    LowerFsmState,
    lower_fsm_step,
    lower_fsm_truth_table,
)
from repro.core.progfsm.march_elements import (
    MAX_SM_OPS,
    SM_PATTERNS,
    match_element,
    realizable,
    sm_element,
)
from repro.core.progfsm.upper_buffer import CircularBuffer
from repro.march import library
from repro.march.element import AddressOrder, MarchElement, R0, R1, W0, W1
from repro.march.notation import parse_test

CAPS = ControllerCapabilities(n_words=8)
FULL_CAPS = ControllerCapabilities(n_words=8, width=8, ports=2)


class TestSmPatterns:
    def test_eight_patterns(self):
        assert len(SM_PATTERNS) == 8

    def test_max_four_ops(self):
        assert MAX_SM_OPS == 4

    def test_sm_element_round_trip_all(self):
        """Every (SM, D, C) realisation matches back to itself."""
        for sm in range(8):
            for data in (0, 1):
                for compare in (0, 1):
                    element = sm_element(sm, AddressOrder.UP, data, compare)
                    match = match_element(element)
                    assert match is not None
                    matched_sm, matched_d, matched_c = match
                    rebuilt = sm_element(
                        matched_sm, AddressOrder.UP, matched_d, matched_c
                    )
                    assert rebuilt.ops == element.ops

    def test_march_c_elements_all_match(self):
        for element in library.MARCH_C.elements:
            assert realizable(element), str(element)

    def test_march_a_elements_all_match(self):
        for element in library.MARCH_A.elements:
            assert realizable(element), str(element)

    def test_march_b_long_element_no_match(self):
        long_element = library.MARCH_B.elements[1]  # 6 operations
        assert match_element(long_element) is None

    def test_triple_read_write_mix_no_match(self):
        element = MarchElement(AddressOrder.UP, [R0, R0, R0, W1])
        assert match_element(element) is None

    def test_march_c_element_assignments(self):
        """March C maps to SM0, SM1 x4, SM5 (paper Section 2.2)."""
        matches = [match_element(e)[0] for e in library.MARCH_C.elements]
        assert matches == [0, 1, 1, 1, 1, 5]

    def test_march_a_element_assignments(self):
        matches = [match_element(e)[0] for e in library.MARCH_A.elements]
        assert matches == [0, 6, 3, 6, 3]

    def test_inconsistent_polarity_no_match(self):
        # (r0, w1, w1): rel pattern would need D=1 and D=0 simultaneously
        # for SM3 (r,w,w) = (rD, wD', wD).
        element = MarchElement(AddressOrder.UP, [R0, W1, W1])
        assert match_element(element) is None


class TestFsmInstruction:
    def test_element_encode_decode_roundtrip(self):
        instr = FsmInstruction(
            hold=True, addr_down=True, data_ctrl=DataControl.BASE1,
            compare=True, mode=7,
        )
        assert FsmInstruction.decode(instr.encode()) == instr

    def test_loop_rows_roundtrip(self):
        for ctrl in (DataControl.LOOP_BG, DataControl.LOOP_PORT):
            instr = FsmInstruction(data_ctrl=ctrl)
            assert FsmInstruction.decode(instr.encode()) == instr

    def test_all_words_roundtrip(self):
        for word in range(256):
            instr = FsmInstruction.decode(word)
            assert instr.encode() == word

    def test_mode_range_checked(self):
        with pytest.raises(ValueError):
            FsmInstruction(mode=8)

    def test_oversized_word_rejected(self):
        with pytest.raises(ValueError):
            FsmInstruction.decode(256)

    def test_base_data(self):
        assert FsmInstruction(data_ctrl=DataControl.BASE1).base_data == 1
        assert FsmInstruction(data_ctrl=DataControl.BASE0).base_data == 0

    def test_is_element(self):
        assert FsmInstruction(data_ctrl=DataControl.BASE0).is_element
        assert not FsmInstruction(data_ctrl=DataControl.LOOP_BG).is_element

    def test_str_forms(self):
        assert "SM1" in str(FsmInstruction(mode=1))
        assert "path A" in str(FsmInstruction(data_ctrl=DataControl.LOOP_BG))
        assert "path B" in str(FsmInstruction(data_ctrl=DataControl.LOOP_PORT))


class TestCompiler:
    def test_march_c_compiles_to_eight_rows_full_config(self):
        """Fig. 5's March C program: 6 element rows + 2 loop rows."""
        program = compile_to_sm(library.MARCH_C, FULL_CAPS)
        assert len(program) == 8

    def test_march_c_six_rows_bit_single_port(self):
        program = compile_to_sm(library.MARCH_C, CAPS)
        assert len(program) == 6

    def test_loop_rows_in_order(self):
        program = compile_to_sm(library.MARCH_C, FULL_CAPS)
        assert program.instructions[-2].data_ctrl is DataControl.LOOP_BG
        assert program.instructions[-1].data_ctrl is DataControl.LOOP_PORT

    def test_march_b_rejected(self):
        with pytest.raises(CompileError):
            compile_to_sm(library.MARCH_B, CAPS)

    def test_march_b_error_names_the_march_rule(self):
        with pytest.raises(CompileError, match=r"^March B: error\[MA004\] "):
            compile_to_sm(library.MARCH_B, CAPS)

    def test_verified_compile_runs_the_march_rules_once(self, monkeypatch):
        from repro.analysis import rules

        scopes = []
        run_rules = rules.run_rules

        def counting(scope, *args):
            scopes.append(scope)
            return run_rules(scope, *args)

        monkeypatch.setattr(rules, "run_rules", counting)
        compile_to_sm(library.MARCH_C, CAPS)
        assert sorted(scopes) == ["fsm", "march"]

    def test_march_c_plus_plus_rejected(self):
        with pytest.raises(CompileError):
            compile_to_sm(library.MARCH_C_PLUS_PLUS, CAPS)

    def test_pause_sets_hold_on_following_element(self):
        program = compile_to_sm(library.MARCH_C_PLUS, CAPS)
        holds = [i for i in program.instructions if i.hold]
        assert len(holds) == 2
        assert program.pause_duration == library.RETENTION_PAUSE

    def test_trailing_pause_rejected(self):
        test = parse_test("~(w0); ~(r0); Del(512)")
        with pytest.raises(CompileError):
            compile_to_sm(test, CAPS)

    def test_mismatched_pause_durations_rejected(self):
        test = parse_test("~(w0); Del(512); ~(r0); Del(256); ~(r0)")
        with pytest.raises(CompileError):
            compile_to_sm(test, CAPS)

    def test_is_realizable(self):
        assert is_realizable(library.MARCH_C)
        assert is_realizable(library.MARCH_A_PLUS)
        assert not is_realizable(library.MARCH_B)
        assert not is_realizable(library.MARCH_A_PLUS_PLUS)


class TestCircularBuffer:
    def _program(self):
        return compile_to_sm(library.MARCH_C, CAPS).instructions

    def test_load_and_current(self):
        buffer = CircularBuffer(rows=8, default_program=self._program())
        assert buffer.current().mode == 0

    def test_advance_wraps_within_used_rows(self):
        program = self._program()
        buffer = CircularBuffer(rows=12, default_program=program)
        for _ in range(len(program)):
            buffer.advance()
        assert buffer.pointer == 0

    def test_wrap(self):
        buffer = CircularBuffer(rows=8, default_program=self._program())
        buffer.advance()
        buffer.wrap()
        assert buffer.pointer == 0

    def test_program_too_long_rejected(self):
        with pytest.raises(ValueError):
            CircularBuffer(rows=2, default_program=self._program())

    def test_initialize_default_restores(self):
        program = self._program()
        buffer = CircularBuffer(rows=8, default_program=program)
        buffer.load([FsmInstruction(mode=5)])
        buffer.initialize_default()
        assert buffer.used_rows == len(program)

    def test_hardware_uses_functional_rate_cells(self):
        buffer = CircularBuffer(rows=8)
        registers = [
            c for c in buffer.hardware() if c.name.endswith("circular buffer")
        ]
        assert registers[0].cell == "scan_dff"


class TestLowerFsm:
    def test_idle_waits_for_start(self):
        out = lower_fsm_step(LowerFsmState.IDLE, 0, False, start=False, hold=False)
        assert out.next_state is LowerFsmState.IDLE

    def test_idle_to_reset_on_start(self):
        out = lower_fsm_step(LowerFsmState.IDLE, 0, False, start=True, hold=False)
        assert out.next_state is LowerFsmState.RESET

    def test_reset_loads_sweep(self):
        out = lower_fsm_step(LowerFsmState.RESET, 0, False, True, False)
        assert out.addr_start and out.next_state is LowerFsmState.RW0

    def test_sm0_single_op_loops_until_last(self):
        out = lower_fsm_step(LowerFsmState.RW0, 0, last_address=False,
                             start=True, hold=False)
        assert out.write and out.addr_inc
        assert out.next_state is LowerFsmState.RW0

    def test_sm0_done_on_last_address(self):
        out = lower_fsm_step(LowerFsmState.RW0, 0, last_address=True,
                             start=True, hold=False)
        assert out.next_state is LowerFsmState.DONE

    def test_sm2_walks_four_states(self):
        state = LowerFsmState.RW0
        kinds = []
        for _ in range(4):
            out = lower_fsm_step(state, 2, last_address=True, start=True,
                                 hold=False)
            kinds.append((out.read, out.write, out.rel_polarity))
            state = out.next_state
        assert kinds == [
            (True, False, 0), (False, True, 1), (True, False, 1),
            (False, True, 0),
        ]
        assert state is LowerFsmState.DONE

    def test_done_holds_with_hold_input(self):
        out = lower_fsm_step(LowerFsmState.DONE, 0, False, False, hold=True)
        assert out.next_state is LowerFsmState.DONE and out.done

    def test_done_returns_to_idle(self):
        out = lower_fsm_step(LowerFsmState.DONE, 0, False, False, hold=False)
        assert out.next_state is LowerFsmState.IDLE

    def test_truth_table_matches_function(self):
        table = lower_fsm_truth_table()
        covers = table.synthesize()
        for minterm in range(512):
            state_code = minterm & 0b111
            if state_code > int(LowerFsmState.DONE):
                continue
            out = lower_fsm_step(
                LowerFsmState(state_code),
                (minterm >> 3) & 0b111,
                bool(minterm >> 6 & 1),
                bool(minterm >> 7 & 1),
                bool(minterm >> 8 & 1),
            )
            expected = {
                "ns0": bool(int(out.next_state) & 1),
                "ns1": bool(int(out.next_state) & 2),
                "ns2": bool(int(out.next_state) & 4),
                "read": out.read,
                "write": out.write,
                "rel_polarity": bool(out.rel_polarity),
                "addr_start": out.addr_start,
                "addr_inc": out.addr_inc,
                "done": out.done,
            }
            for name, cover in covers.items():
                got = any(
                    (minterm & care) == (value & care) for value, care in cover
                )
                assert got == expected[name], (name, minterm)
