"""Control-flow-graph construction over microcode programs."""

from repro.analysis import EXIT, EdgeKind, build_cfg
from repro.analysis.cfg import exits_explicitly, loop_target
from repro.core.controller import ControllerCapabilities
from repro.core.microcode import assemble
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp
from repro.march import library

W_LOOP = MicroInstruction(write_en=True, addr_inc=True, cond=ConditionOp.LOOP)
R_LOOP = MicroInstruction(read_en=True, addr_inc=True, cond=ConditionOp.LOOP)
NOP_W = MicroInstruction(write_en=True)
TERM = MicroInstruction(cond=ConditionOp.TERMINATE)


def kinds(cfg, index):
    return {edge.kind for edge in cfg.successors(index)}


class TestLoopTarget:
    def test_power_on_branch_register_is_zero(self):
        assert loop_target([W_LOOP], 0) == 0

    def test_scans_back_over_the_nop_body(self):
        # element body: rows 1-2 are NOPs, row 3 loops; row 0 is the
        # previous element whose LOOP re-seeded the branch register.
        rows = [W_LOOP, NOP_W, NOP_W, R_LOOP]
        assert loop_target(rows, 3) == 1

    def test_adjacent_loops_sweep_single_rows(self):
        rows = [W_LOOP, R_LOOP]
        assert loop_target(rows, 1) == 1


class TestEdges:
    def test_loop_has_back_edge_and_fallthrough(self):
        cfg = build_cfg([W_LOOP, TERM])
        assert kinds(cfg, 0) == {EdgeKind.LOOP_BACK, EdgeKind.FALLTHROUGH}
        back = [e for e in cfg.successors(0)
                if e.kind is EdgeKind.LOOP_BACK][0]
        assert back.dst == 0

    def test_repeat_resets_to_instruction_one(self):
        rows = [W_LOOP, R_LOOP, MicroInstruction(cond=ConditionOp.REPEAT),
                TERM]
        cfg = build_cfg(rows)
        reset = [e for e in cfg.successors(2) if e.kind is EdgeKind.RESET1]
        assert [e.dst for e in reset] == [1]

    def test_next_bg_resets_to_instruction_zero(self):
        rows = [W_LOOP,
                MicroInstruction(data_inc=True, cond=ConditionOp.NEXT_BG),
                TERM]
        cfg = build_cfg(rows)
        reset = [e for e in cfg.successors(1) if e.kind is EdgeKind.RESET0]
        assert [e.dst for e in reset] == [0]

    def test_inc_port_resets_or_exits(self):
        rows = [W_LOOP, MicroInstruction(cond=ConditionOp.INC_PORT)]
        cfg = build_cfg(rows)
        assert kinds(cfg, 1) == {EdgeKind.RESET0, EdgeKind.END}

    def test_terminate_goes_to_exit_only(self):
        cfg = build_cfg([W_LOOP, TERM])
        assert [e.dst for e in cfg.successors(1)] == [EXIT]

    def test_fall_off_the_last_row_is_an_end_edge(self):
        cfg = build_cfg([W_LOOP])
        assert kinds(cfg, 0) == {EdgeKind.LOOP_BACK, EdgeKind.END}


class TestReachability:
    def test_rows_after_terminate_are_unreachable(self):
        cfg = build_cfg([W_LOOP, TERM, NOP_W, R_LOOP])
        assert cfg.unreachable() == [2, 3]

    def test_repeat_keeps_the_whole_body_reachable(self):
        program = assemble(
            library.MARCH_C, ControllerCapabilities(n_words=8)
        )
        cfg = build_cfg(program)
        assert cfg.unreachable() == []

    def test_exits_explicitly_true_for_terminate(self):
        assert exits_explicitly(build_cfg([W_LOOP, TERM]))

    def test_exits_explicitly_false_for_fall_off(self):
        assert not exits_explicitly(build_cfg([W_LOOP]))

    def test_exits_explicitly_false_for_dead_terminate(self):
        # TERMINATE exists but sits behind an earlier TERMINATE's exit.
        cfg = build_cfg([TERM, TERM])
        assert exits_explicitly(cfg)
        # ... whereas an unreachable one after a fall-off end does not
        # count (the END edge of row 0 is the real exit).
        stuck = build_cfg([W_LOOP, TERM, TERM])
        assert exits_explicitly(stuck)


class TestAssembledShapes:
    def test_compressed_march_c_geometry(self):
        caps = ControllerCapabilities(n_words=8)
        program = assemble(library.MARCH_C, caps)
        cfg = build_cfg(program)
        conds = [instr.cond for instr in program.instructions]
        repeat_at = conds.index(ConditionOp.REPEAT)
        assert kinds(cfg, repeat_at) == {EdgeKind.RESET1,
                                         EdgeKind.FALLTHROUGH}
        # every LOOP row has exactly one back edge into the program
        for index, cond in enumerate(conds):
            if cond is ConditionOp.LOOP:
                back = [e for e in cfg.successors(index)
                        if e.kind is EdgeKind.LOOP_BACK]
                assert len(back) == 1
                assert 0 <= back[0].dst <= index

    def test_multiport_word_oriented_tail(self):
        caps = ControllerCapabilities(n_words=4, width=4, ports=2)
        program = assemble(library.MARCH_Y, caps)
        cfg = build_cfg(program)
        conds = [instr.cond for instr in program.instructions]
        assert conds[-2:] == [ConditionOp.NEXT_BG, ConditionOp.INC_PORT]
        assert exits_explicitly(cfg)
        assert cfg.terminating_edges()[-1].src == len(conds) - 1
