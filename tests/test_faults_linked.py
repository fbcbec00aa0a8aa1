"""Unit tests for linked faults and the March LR result."""

import pytest

from repro.faults.coupling import IdempotentCouplingFault
from repro.faults.linked import (
    CompositeFault,
    linked_cfid_pair,
    linked_cfid_universe,
)
from repro.faults.stuck_at import StuckAtFault
from repro.faults.universe import FaultUniverse
from repro.march import library
from repro.conformance.faulty.coverage import evaluate_coverage
from repro.memory import Sram

N = 8


def _universe(faults):
    universe = FaultUniverse("linked")
    universe.extend(faults)
    return universe


class TestCompositeFault:
    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            CompositeFault([StuckAtFault(0, 0, 1)])

    def test_kind_joined(self):
        composite = CompositeFault(
            [StuckAtFault(0, 0, 1), StuckAtFault(1, 0, 0)]
        )
        assert composite.kind == "SAF&SAF"

    def test_hooks_fan_out(self):
        memory = Sram(4)
        memory.attach(
            CompositeFault([StuckAtFault(0, 0, 1), StuckAtFault(1, 0, 1)])
        )
        memory.write(0, 0, 0)
        memory.write(0, 1, 0)
        assert memory.read(0, 0) == 1
        assert memory.read(0, 1) == 1

    def test_describe_lists_members(self):
        composite = CompositeFault(
            [StuckAtFault(0, 0, 1), StuckAtFault(1, 0, 0)]
        )
        text = composite.describe()
        assert "linked" in text and text.count("SAF") == 2


class TestMasking:
    def test_same_side_pair_masks_within_element(self):
        """Both aggressors toggled before the victim's read: the second
        force undoes the first."""
        memory = Sram(4)
        memory.attach(
            linked_cfid_pair(0, 1, 2, rising1=True, rising2=True, forced1=1)
        )
        memory.write(0, 0, 1)  # fires member 1: victim := 1
        memory.write(0, 1, 1)  # fires member 2: victim := 0
        assert memory.read(0, 2) == 0  # masked

    def test_single_member_alone_detectable(self):
        memory = Sram(4)
        memory.attach(IdempotentCouplingFault(0, 0, 2, 0, True, 1))
        memory.write(0, 0, 1)
        assert memory.read(0, 2) == 1  # visible corruption


class TestLinkedCoverage:
    """The van de Goor / Gaydadjiev result, measured."""

    @pytest.fixture(scope="class")
    def universe(self):
        return _universe(linked_cfid_universe(N))

    def test_universe_size(self, universe):
        # 8 combos x (3 geometries for interior victims, fewer at edges).
        assert len(universe) == sum(
            8 * ((1 if v >= 2 else 0) + (1 if v + 2 < N else 0)
                 + (1 if 1 <= v < N - 1 else 0))
            for v in range(N)
        )

    def test_march_c_misses_linked_cfids(self, universe):
        report = evaluate_coverage(library.MARCH_C, universe, N)
        assert report.overall < 1.0

    def test_march_lr_detects_all(self, universe):
        report = evaluate_coverage(library.MARCH_LR, universe, N)
        assert report.overall == 1.0

    def test_march_a_detects_all(self, universe):
        """March A was designed for linked CFids (van de Goor)."""
        report = evaluate_coverage(library.MARCH_A, universe, N)
        assert report.overall == 1.0

    def test_lr_strictly_better_than_c_here(self, universe):
        march_c = evaluate_coverage(library.MARCH_C, universe, N)
        march_lr = evaluate_coverage(library.MARCH_LR, universe, N)
        assert march_lr.overall > march_c.overall

    def test_march_c_escapes_are_same_side(self, universe):
        """Every March C escape has both aggressors on one side of the
        victim — the structural signature of the masking mechanism."""
        report = evaluate_coverage(library.MARCH_C, universe, N)
        assert report.escapes
        for fault in report.escapes:
            member1, member2 = fault.faults
            victim = member1.victim_word
            side1 = member1.aggressor_word < victim
            side2 = member2.aggressor_word < victim
            assert side1 == side2, fault.describe()
