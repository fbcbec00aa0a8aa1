"""Unit tests for the classical (pre-march) test algorithms."""

import pytest

from repro.classic import (
    Lfsr,
    Misr,
    checkerboard,
    checkerboard_op_count,
    galpat,
    galpat_op_count,
    pseudorandom_signature,
    pseudorandom_test,
    walking_ones,
    walking_op_count,
    walking_zeros,
)
from repro.conformance.faulty.coverage import evaluate_trace_coverage
from repro.conformance.trace import op_trace
from repro.faults.universe import (
    FaultUniverse,
    coupling_universe,
    stuck_at_universe,
    transition_universe,
)
from repro.march.simulator import run_on_memory
from repro.memory import Sram

N = 6


def _universe(name, faults):
    universe = FaultUniverse(name)
    universe.extend(faults)
    return universe


class TestWalking:
    def test_op_count_matches_stream(self):
        assert len(list(walking_ones(N))) == walking_op_count(N)

    def test_passes_on_good_memory(self):
        memory = Sram(N)
        assert run_on_memory(walking_ones(N), memory).passed
        memory.reset_state()
        assert run_on_memory(walking_zeros(N), memory).passed

    def test_full_saf_and_coupling_coverage(self):
        def both():
            yield from walking_ones(N)
            yield from walking_zeros(N)

        universe = _universe(
            "saf+cf", stuck_at_universe(N) + coupling_universe(N)
        )
        report = evaluate_trace_coverage(op_trace(both()), Sram(N), universe)
        assert report.overall == 1.0

    def test_multiport(self):
        ops = list(walking_ones(2, ports=2))
        assert {op.port for op in ops} == {0, 1}

    def test_quadratic_growth(self):
        assert walking_op_count(100) > 50 * walking_op_count(10) / 10


class TestGalpat:
    def test_op_count_matches_stream(self):
        assert len(list(galpat(N))) == galpat_op_count(N)

    def test_passes_on_good_memory(self):
        assert run_on_memory(galpat(N), Sram(N)).passed

    def test_full_basic_coverage(self):
        universe = _universe(
            "basic",
            stuck_at_universe(N) + transition_universe(N) + coupling_universe(N),
        )
        report = evaluate_trace_coverage(
            op_trace(galpat(N)), Sram(N), universe
        )
        assert report.overall == 1.0

    def test_ping_pong_structure(self):
        """After each other-cell read, the mark cell is re-read."""
        ops = list(galpat(4))
        # Locate one tenure: the mark write to cell 0 in pass 1.
        start = next(
            i for i, op in enumerate(ops) if op.is_write and op.value == 1
        )
        tenure = ops[start + 1 : start + 1 + 2 * 3]  # 2(N-1) reads
        for other_read, mark_read in zip(tenure[::2], tenure[1::2]):
            assert other_read.is_read and other_read.address != 0
            assert mark_read.is_read and mark_read.address == 0
            assert mark_read.expected == 1

    def test_tenure_pre_read_present(self):
        """Each tenure opens by verifying the cell before disturbing it."""
        n = 3
        pass1 = list(galpat(n))[: galpat_op_count(n) // 2]
        mark_writes = [
            i for i, op in enumerate(pass1) if op.is_write and op.value == 1
        ]
        assert len(mark_writes) == n
        for index in mark_writes:
            previous = pass1[index - 1]
            assert previous.is_read
            assert previous.address == pass1[index].address
            assert previous.expected == 0


class TestCheckerboard:
    def test_op_count_matches_stream(self):
        assert len(list(checkerboard(N))) == checkerboard_op_count(N)

    def test_passes_on_good_memory(self):
        assert run_on_memory(checkerboard(N), Sram(N)).passed

    def test_bake_adds_delays(self):
        ops = list(checkerboard(N, bake=512))
        delays = [op for op in ops if op.is_delay]
        assert len(delays) == 2
        assert all(op.delay == 512 for op in delays)

    def test_detects_retention_with_bake(self):
        from repro.faults import DataRetentionFault

        memory = Sram(16)
        memory.attach(DataRetentionFault(5, 0, from_value=1, decay_time=400))
        result = run_on_memory(checkerboard(16, bake=1024), memory)
        assert not result.passed

    def test_detects_all_safs(self):
        universe = _universe("saf", stuck_at_universe(N))
        report = evaluate_trace_coverage(
            op_trace(checkerboard(N)), Sram(N), universe
        )
        assert report.overall == 1.0

    def test_misses_many_couplings(self):
        universe = _universe("cf", coupling_universe(N))
        report = evaluate_trace_coverage(
            op_trace(checkerboard(N)), Sram(N), universe
        )
        assert report.overall < 0.9  # the gap to March C's 100%

    def test_pattern_is_physical_checkerboard(self):
        """Adjacent grid cells carry opposite values in phase 0."""
        from repro.classic.checkerboard import _patterns
        from repro.faults.neighborhood import CellGrid

        grid = CellGrid(16, 1)
        pattern = _patterns(16, 1)
        for word in range(16):
            for neighbour, _bit in grid.neighbours((word, 0)):
                assert pattern[word] != pattern[neighbour]


class TestLfsrMisr:
    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(25)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(8, seed=0)

    @pytest.mark.parametrize("width", [3, 4, 5, 6, 7, 8])
    def test_maximal_period(self, width):
        lfsr = Lfsr(width, seed=1)
        seen = set()
        for _ in range(lfsr.period):
            seen.add(lfsr.step())
        assert len(seen) == lfsr.period
        assert 0 not in seen

    def test_value_returns_requested_bits(self):
        lfsr = Lfsr(8)
        assert 0 <= lfsr.value(5) < 32

    def test_misr_signature_changes_with_input(self):
        a = Misr(16)
        b = Misr(16)
        a.absorb(1)
        b.absorb(2)
        assert a.signature != b.signature

    def test_misr_deterministic(self):
        a, b = Misr(16), Misr(16)
        for value in (3, 1, 4, 1, 5):
            a.absorb(value)
            b.absorb(value)
        assert a.signature == b.signature


class TestPseudorandomTest:
    def test_budget_respected(self):
        ops = list(pseudorandom_test(8, length=100))
        assert len(ops) == 100

    def test_default_budget_matches_march_c(self):
        ops = list(pseudorandom_test(8))
        assert len(ops) == 80

    def test_passes_on_good_memory(self):
        result = run_on_memory(pseudorandom_test(8, length=200), Sram(8))
        assert result.passed

    def test_signature_pass_fail(self):
        from repro.faults import StuckAtFault

        good = Sram(8)
        predicted, observed = pseudorandom_signature(good, 8, length=300)
        assert predicted == observed

        bad = Sram(8)
        bad.attach(StuckAtFault(3, 0, 1))
        predicted, observed = pseudorandom_signature(bad, 8, length=300)
        assert predicted != observed

    def test_escapes_at_equal_budget(self):
        """At March C's 10N budget the pseudorandom test leaves SAF
        escapes — the determinism argument, measured."""
        universe = _universe("saf", stuck_at_universe(8))
        report = evaluate_trace_coverage(
            op_trace(pseudorandom_test(8)), Sram(8), universe
        )
        assert report.overall < 1.0

    def test_coverage_grows_with_budget(self):
        universe = _universe("saf", stuck_at_universe(8))
        short = evaluate_trace_coverage(
            op_trace(pseudorandom_test(8, length=40)), Sram(8), universe
        ).overall
        long = evaluate_trace_coverage(
            op_trace(pseudorandom_test(8, length=2000)), Sram(8), universe
        ).overall
        assert long >= short
        assert long > 0.9  # eventually random excitation gets there
