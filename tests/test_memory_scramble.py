"""Unit tests for address scrambling and its coverage consequences."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.classic import checkerboard
from repro.conformance.faulty.coverage import evaluate_trace_coverage
from repro.conformance.trace import op_trace
from repro.faults.coupling import StateCouplingFault
from repro.faults.neighborhood import CellGrid
from repro.faults.universe import FaultUniverse
from repro.memory import Sram
from repro.memory.scramble import AddressScrambler


class TestScrambler:
    def test_identity_default(self):
        scrambler = AddressScrambler(4)
        assert scrambler.is_identity
        assert scrambler.mapping() == list(range(16))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            AddressScrambler(3, bit_permutation=[0, 0, 1])

    def test_oversized_mask_rejected(self):
        with pytest.raises(ValueError):
            AddressScrambler(3, xor_mask=0b1000)

    def test_zero_bits_rejected(self):
        with pytest.raises(ValueError):
            AddressScrambler(0)

    def test_out_of_range_address_rejected(self):
        with pytest.raises(IndexError):
            AddressScrambler(3).physical(8)

    def test_xor_mask_mirrors(self):
        scrambler = AddressScrambler(3, xor_mask=0b100)
        assert scrambler.physical(0) == 4
        assert scrambler.physical(4) == 0

    def test_bit_permutation(self):
        scrambler = AddressScrambler(2, bit_permutation=[1, 0])
        assert scrambler.physical(0b01) == 0b10

    def test_row_column_interleave_constructor(self):
        scrambler = AddressScrambler.row_column_interleave(4)
        # Low logical bits become the high physical bits.
        assert scrambler.physical(0b0001) == 0b0100

    def test_folded_constructor(self):
        scrambler = AddressScrambler.folded(4)
        assert not scrambler.is_identity
        assert sorted(scrambler.mapping()) == list(range(16))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_bijectivity_property(self, bits, data):
        import random

        rng = random.Random(data.draw(st.integers(0, 2 ** 20)))
        permutation = list(range(bits))
        rng.shuffle(permutation)
        mask = data.draw(st.integers(0, (1 << bits) - 1))
        scrambler = AddressScrambler(bits, permutation, mask)
        mapping = scrambler.mapping()
        assert sorted(mapping) == list(range(1 << bits))
        for logical in range(1 << bits):
            assert scrambler.logical(scrambler.physical(logical)) == logical


class TestScrambledCheckerboard:
    """The coverage consequence: a logical checkerboard through a
    scrambled decoder is not a physical checkerboard, and physical
    bridge faults escape."""

    N = 16

    def _bridge_universe(self, scrambler=None):
        """State-coupling bridges between *physically* adjacent cells."""
        grid = CellGrid(self.N, 1)
        faults = []
        seen = set()
        for physical in range(self.N):
            for neighbour, _bit in grid.neighbours((physical, 0)):
                pair = tuple(sorted((physical, neighbour)))
                if pair in seen:
                    continue
                seen.add(pair)
                # Bridges live on physical cells; the memory is addressed
                # logically, so translate.
                l1 = scrambler.logical(pair[0]) if scrambler else pair[0]
                l2 = scrambler.logical(pair[1]) if scrambler else pair[1]
                for state in (0, 1):
                    faults.append(StateCouplingFault(l1, 0, l2, 0, state, state))
                    faults.append(StateCouplingFault(l2, 0, l1, 0, state, state))
        universe = FaultUniverse("physical bridges")
        universe.extend(faults)
        return universe

    def test_identity_scrambling_full_coverage(self):
        universe = self._bridge_universe()
        report = evaluate_trace_coverage(
            op_trace(checkerboard(self.N)), Sram(self.N), universe
        )
        assert report.overall == 1.0

    def test_naive_checkerboard_misses_bridges_under_scrambling(self):
        # Swapping the top two address bits breaks checkerboard parity
        # (a pure transpose or fold would preserve it on a square grid).
        scrambler = AddressScrambler(4, bit_permutation=[0, 1, 3, 2])
        universe = self._bridge_universe(scrambler)
        report = evaluate_trace_coverage(
            op_trace(checkerboard(self.N)),  # scrambling ignored!
            Sram(self.N), universe,
        )
        assert report.overall < 1.0

    def test_descrambled_checkerboard_recovers_coverage(self):
        scrambler = AddressScrambler(4, bit_permutation=[0, 1, 3, 2])
        universe = self._bridge_universe(scrambler)
        report = evaluate_trace_coverage(
            op_trace(checkerboard(self.N, scrambler=scrambler)),
            Sram(self.N), universe,
        )
        assert report.overall == 1.0

    def test_march_coverage_unaffected_by_scrambling(self):
        """March tests are scrambling-independent for position-free
        fault models — the classical argument for them."""
        from repro.march import library
        from repro.march.simulator import expand

        scrambler = AddressScrambler.folded(4)
        universe = self._bridge_universe(scrambler)
        report = evaluate_trace_coverage(
            op_trace(expand(library.MARCH_C, self.N)), Sram(self.N), universe
        )
        assert report.overall == 1.0


class TestScrambledBitmap:
    def test_bitmap_descrambles_positions(self):
        from repro.diagnostics import FailBitmap, FailLog
        from repro.march.simulator import Failure

        scrambler = AddressScrambler(4, xor_mask=0b1000)
        log = FailLog(
            test_name="x",
            failures=[Failure(0, 0, 3, expected=1, observed=0)],
        )
        bitmap = FailBitmap.from_log(log, 16, scrambler=scrambler)
        assert bitmap.is_failing(3 ^ 8, 0)
        assert not bitmap.is_failing(3, 0)
