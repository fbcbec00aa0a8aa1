"""Unit tests for the static read faults (IRF / RDF / DRDF)."""

import pytest

from repro.faults.read_faults import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
    read_fault_universe,
)
from repro.faults.universe import FaultUniverse
from repro.march import library
from repro.conformance.faulty.coverage import evaluate_coverage
from repro.memory import Sram

N = 8


def _universe(kinds=None):
    universe = FaultUniverse("read faults")
    faults = read_fault_universe(N)
    if kinds:
        faults = [fault for fault in faults if fault.kind in kinds]
    universe.extend(faults)
    return universe


class TestIncorrectRead:
    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            IncorrectReadFault(0, 0, 2)

    def test_read_lies_but_cell_intact(self):
        memory = Sram(4)
        memory.attach(IncorrectReadFault(1, 0, state=0))
        assert memory.read(0, 1) == 1  # lies
        assert memory.peek(1) == 0     # cell untouched

    def test_other_state_reads_fine(self):
        memory = Sram(4)
        memory.attach(IncorrectReadFault(1, 0, state=0))
        memory.write(0, 1, 1)
        assert memory.read(0, 1) == 1


class TestReadDestructive:
    def test_read_flips_and_returns_flipped(self):
        memory = Sram(4)
        memory.attach(ReadDestructiveFault(1, 0, state=0))
        assert memory.read(0, 1) == 1  # returns the flipped value
        assert memory.peek(1) == 1     # and the cell flipped

    def test_write_restores(self):
        memory = Sram(4)
        memory.attach(ReadDestructiveFault(1, 0, state=0))
        memory.read(0, 1)
        memory.write(0, 1, 0)
        assert memory.peek(1) == 0


class TestDeceptiveReadDestructive:
    def test_first_read_correct_second_wrong(self):
        memory = Sram(4)
        memory.attach(DeceptiveReadDestructiveFault(1, 0, state=0))
        assert memory.read(0, 1) == 0  # the lie: correct value returned
        assert memory.peek(1) == 1     # but the cell flipped
        assert memory.read(0, 1) == 1  # the second read sees the damage

    def test_other_state_untouched(self):
        memory = Sram(4)
        memory.attach(DeceptiveReadDestructiveFault(1, 0, state=0))
        memory.write(0, 1, 1)
        assert memory.read(0, 1) == 1
        assert memory.peek(1) == 1


class TestUniverse:
    def test_size(self):
        assert len(read_fault_universe(N)) == 6 * N

    def test_kinds(self):
        kinds = {fault.kind for fault in read_fault_universe(2)}
        assert kinds == {"IRF", "RDF", "DRDF"}


class TestCoverage:
    """Measured literature results for read faults."""

    def test_every_algorithm_detects_irf_and_rdf(self):
        universe = _universe(kinds={"IRF", "RDF"})
        for test in library.ALGORITHMS.values():
            report = evaluate_coverage(test, universe, N)
            assert report.overall == 1.0, test.name

    def test_march_c_misses_all_drdf(self):
        """The read that lies needs a second read; March C never reads
        the same state twice without an intervening write."""
        universe = _universe(kinds={"DRDF"})
        report = evaluate_coverage(library.MARCH_C, universe, N)
        assert report.overall == 0.0

    def test_pmovi_detects_all_drdf(self):
        """PMOVI's claim to fame: its read-after-write element structure
        re-reads each state across elements."""
        universe = _universe(kinds={"DRDF"})
        report = evaluate_coverage(library.PMOVI, universe, N)
        assert report.overall == 1.0

    def test_triple_reads_detect_all_drdf(self):
        universe = _universe(kinds={"DRDF"})
        for test in (library.MARCH_C_PLUS_PLUS, library.MARCH_A_PLUS_PLUS):
            report = evaluate_coverage(test, universe, N)
            assert report.overall == 1.0, test.name

    def test_march_y_detects_all_drdf(self):
        universe = _universe(kinds={"DRDF"})
        report = evaluate_coverage(library.MARCH_Y, universe, N)
        assert report.overall == 1.0
