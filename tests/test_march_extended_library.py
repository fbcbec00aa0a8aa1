"""Tests for the extended algorithm set (March G, PMOVI, March LR) and
for the word-oriented background rationale."""

import pytest

from repro.conformance.faulty.coverage import (
    evaluate_coverage,
    evaluate_trace_coverage,
)
from repro.conformance.trace import microcode_trace, op_trace
from repro.core.controller import ControllerCapabilities
from repro.core.microcode import MicrocodeBistController
from repro.core.progfsm import ProgrammableFsmBistController
from repro.faults.coupling import StateCouplingFault
from repro.faults.universe import (
    FaultUniverse,
    retention_universe,
    standard_universe,
)
from repro.march import library
from repro.march.properties import is_symmetric
from repro.march.simulator import expand
from repro.memory import Sram

N = 8


class TestNewAlgorithms:
    @pytest.mark.parametrize(
        "name,complexity",
        [("PMOVI", "13N"), ("March LR", "14N"), ("March G", "23N")],
    )
    def test_published_complexities(self, name, complexity):
        assert library.get(name).complexity == complexity

    def test_march_g_extends_march_b(self):
        assert library.MARCH_G.items[: len(library.MARCH_B.items)] == (
            library.MARCH_B.items
        )
        assert len(library.MARCH_G.pauses) == 2

    def test_march_g_detects_retention(self):
        report = evaluate_coverage(library.MARCH_G, _universe(
            "drf", retention_universe(N)), N)
        assert report.overall == 1.0

    def test_march_g_not_repeat_compressible(self):
        """March B's element structure has no mirrored half."""
        assert not is_symmetric(library.MARCH_G)

    def test_march_g_not_sm_realizable(self):
        from repro.core.progfsm.compiler import is_realizable

        assert not is_realizable(library.MARCH_G)

    def test_pmovi_basic_coverage(self):
        universe = standard_universe(N, include_npsf=False)
        report = evaluate_coverage(library.PMOVI, universe, N)
        # Full coverage of the simple fault classes (no pauses/triple
        # reads, so DRF/SOF are out of scope)...
        for kind in ("SAF", "TF", "CFin", "CFst", "AF1", "AF2", "AF3",
                     "AF4"):
            assert report.coverage_of(kind) == 1.0, kind
        # ...but PMOVI lacks March C's final verify sweep, so the CFid
        # class excited by the very last element's aggressor writes
        # escapes: a measured (and mechanically forced) coverage gap.
        assert 0.85 <= report.coverage_of("CFid") < 1.0

    def test_march_lr_full_basic_coverage(self):
        universe = standard_universe(N, include_npsf=False)
        report = evaluate_coverage(library.MARCH_LR, universe, N)
        for kind in ("SAF", "TF", "CFin", "CFid", "CFst"):
            assert report.coverage_of(kind) == 1.0, kind

    @pytest.mark.parametrize(
        "test",
        [library.PMOVI, library.MARCH_LR],
        ids=lambda t: t.name,
    )
    def test_sm_realizable(self, test):
        """PMOVI and March LR compose from SM0-SM7 (March G does not)."""
        caps = ControllerCapabilities(n_words=N)
        controller = ProgrammableFsmBistController(test, caps, buffer_rows=16)
        assert list(controller.operations()) == list(expand(test, N))

    @pytest.mark.parametrize(
        "test",
        [library.MARCH_G, library.PMOVI, library.MARCH_LR],
        ids=lambda t: t.name,
    )
    def test_microcode_equivalence(self, test):
        caps = ControllerCapabilities(n_words=N)
        controller = MicrocodeBistController(test, caps)
        assert list(controller.operations()) == list(expand(test, N))


def _universe(name, faults):
    universe = FaultUniverse(name)
    universe.extend(faults)
    return universe


class TestBackgroundRationale:
    """Why word-oriented testing repeats per background: intra-word
    bridge (state-coupling) faults are invisible under solid patterns —
    both bits always agree — and fully exposed by the checkerboards."""

    def _bridge_universe(self, n_words):
        faults = []
        for word in range(n_words):
            for state in (0, 1):
                faults.append(StateCouplingFault(word, 0, word, 1, state, state))
                faults.append(StateCouplingFault(word, 1, word, 0, state, state))
        return _universe("intra-word bridges", faults)

    def test_solid_background_misses_all_bridges(self):
        universe = self._bridge_universe(4)
        memory = Sram(4, width=2)
        report = evaluate_trace_coverage(
            op_trace(expand(library.MARCH_C, 4, width=2, backgrounds=[0])),
            memory, universe,
        )
        assert report.overall == 0.0

    def test_standard_backgrounds_catch_all_bridges(self):
        universe = self._bridge_universe(4)
        report = evaluate_coverage(library.MARCH_C, universe, 4, width=2)
        assert report.overall == 1.0

    def test_checkerboard_alone_suffices(self):
        universe = self._bridge_universe(4)
        memory = Sram(4, width=2)
        report = evaluate_trace_coverage(
            op_trace(expand(library.MARCH_C, 4, width=2, backgrounds=[0b10])),
            memory, universe,
        )
        assert report.overall == 1.0

    def test_controller_background_loop_achieves_same(self):
        """The microcode NEXT_BG loop delivers the background coverage."""
        caps = ControllerCapabilities(n_words=4, width=2)
        controller = MicrocodeBistController(library.MARCH_C, caps)
        universe = self._bridge_universe(4)
        memory = Sram(4, width=2)
        report = evaluate_trace_coverage(
            microcode_trace(controller), memory, universe
        )
        assert report.overall == 1.0
