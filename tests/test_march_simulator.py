"""Unit tests for the golden march-expansion engine."""

import pytest

from repro.march import library
from repro.march.notation import parse_test
from repro.march.simulator import MemoryOperation, expand, run_on_memory
from repro.memory.sram import Sram


class TestExpand:
    def test_operation_count_bit_oriented(self):
        ops = list(expand(library.MARCH_C, 8))
        assert len(ops) == 10 * 8  # 10N

    def test_up_order(self):
        ops = list(expand(parse_test("^(w0)"), 4))
        assert [op.address for op in ops] == [0, 1, 2, 3]

    def test_down_order(self):
        ops = list(expand(parse_test("v(w0)"), 4))
        assert [op.address for op in ops] == [3, 2, 1, 0]

    def test_any_order_resolves_up(self):
        ops = list(expand(parse_test("~(w0)"), 3))
        assert [op.address for op in ops] == [0, 1, 2]

    def test_ops_per_address_grouped(self):
        """All element ops apply to one address before moving on."""
        ops = list(expand(parse_test("^(r0,w1)"), 3))
        assert [(op.address, op.is_write) for op in ops] == [
            (0, False), (0, True), (1, False), (1, True), (2, False), (2, True),
        ]

    def test_write_values_bit_oriented(self):
        ops = list(expand(parse_test("^(w1)"), 2))
        assert all(op.value == 1 for op in ops)

    def test_read_expectations(self):
        ops = list(expand(parse_test("^(r1)"), 2))
        assert all(op.expected == 1 for op in ops)

    def test_pause_emits_delay(self):
        ops = list(expand(parse_test("~(w0); Del(512); ~(r0)"), 2))
        delays = [op for op in ops if op.is_delay]
        assert len(delays) == 1
        assert delays[0].delay == 512

    def test_word_oriented_repeats_per_background(self):
        ops = list(expand(library.MARCH_C, 4, width=8))
        assert len(ops) == 10 * 4 * 4  # log2(8)+1 backgrounds

    def test_word_oriented_background_values(self):
        ops = list(expand(parse_test("^(w0)"), 1, width=8))
        assert [op.value for op in ops] == [0b0, 0b10101010, 0b11001100, 0b11110000]

    def test_word_oriented_complement_values(self):
        ops = list(expand(parse_test("^(w1)"), 1, width=8))
        assert [op.value for op in ops] == [0xFF, 0b01010101, 0b00110011, 0b00001111]

    def test_multiport_repeats_per_port(self):
        ops = list(expand(library.MARCH_C, 4, ports=3))
        assert len(ops) == 10 * 4 * 3
        assert {op.port for op in ops} == {0, 1, 2}

    def test_port_outermost_loop(self):
        ops = list(expand(parse_test("^(w0)"), 2, width=2, ports=2))
        ports = [op.port for op in ops]
        assert ports == sorted(ports)

    def test_custom_backgrounds(self):
        ops = list(expand(parse_test("^(w0)"), 1, width=4, backgrounds=[0b0101]))
        assert [op.value for op in ops] == [0b0101]

    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            list(expand(library.MARCH_C, 0))

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            list(expand(library.MARCH_C, 4, ports=0))

    def test_single_cell_memory(self):
        ops = list(expand(library.MARCH_C, 1))
        assert len(ops) == 10


class TestMemoryOperation:
    def test_is_read(self):
        op = MemoryOperation(0, 3, False, expected=1)
        assert op.is_read and not op.is_write and not op.is_delay

    def test_is_delay(self):
        op = MemoryOperation(0, 0, False, delay=100)
        assert op.is_delay and not op.is_read

    def test_str_forms(self):
        assert "w@3" in str(MemoryOperation(0, 3, True, value=1))
        assert "r@2" in str(MemoryOperation(0, 2, False, expected=0))
        assert "delay" in str(MemoryOperation(0, 0, False, delay=7))


class TestRunOnMemory:
    def test_fault_free_memory_passes(self):
        memory = Sram(8)
        result = run_on_memory(expand(library.MARCH_C, 8), memory)
        assert result.passed
        assert result.operations == 80

    def test_detects_poked_corruption(self):
        memory = Sram(8)
        ops = list(expand(parse_test("~(w1); ~(r1)"), 8))
        memory.poke(3, 0)  # pre-state; gets overwritten, so still passes
        result = run_on_memory(ops, memory)
        assert result.passed

    def test_failure_records_details(self):
        memory = Sram(4)
        # Expect 1 everywhere but memory holds 0.
        result = run_on_memory(expand(parse_test("~(r1)"), 4), memory)
        assert not result.passed
        assert result.failure_count == 4
        first = result.failures[0]
        assert first.address == 0
        assert first.expected == 1
        assert first.observed == 0
        assert first.failing_bits == 1

    def test_applies_the_whole_stream(self):
        # Streams are open loop: a failing read never stops the run, and
        # a go/no-go verdict is the run's first failure.
        memory = Sram(4)
        result = run_on_memory(expand(parse_test("~(r1)"), 4), memory)
        assert result.operations == 4
        assert [f.op_index for f in result.failures] == [0, 1, 2, 3]
        assert memory.clock.now == 4

    def test_delay_advances_memory_clock(self):
        memory = Sram(2)
        run_on_memory(expand(parse_test("~(w0); Del(512); ~(r0)"), 2), memory)
        assert memory.clock.now >= 512
