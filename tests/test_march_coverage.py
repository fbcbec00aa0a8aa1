"""Fault-coverage tests: the classical march coverage theory, measured.

These are the library's deepest semantic checks: each march algorithm
must detect exactly the fault classes the literature proves it detects.
"""

import pytest

from repro.faults.universe import (
    FaultUniverse,
    address_fault_universe,
    coupling_universe,
    retention_universe,
    standard_universe,
    stuck_at_universe,
    stuck_open_universe,
    transition_universe,
)
from repro.march import library
from repro.conformance.faulty.coverage import evaluate_coverage

N_WORDS = 8


def _universe(name, faults):
    universe = FaultUniverse(name)
    universe.extend(faults)
    return universe


def coverage_of(test, faults, name="u"):
    report = evaluate_coverage(test, _universe(name, faults), N_WORDS)
    return report.overall


class TestStuckAtCoverage:
    def test_march_c_detects_all_safs(self):
        assert coverage_of(library.MARCH_C, stuck_at_universe(N_WORDS)) == 1.0

    def test_mats_detects_all_safs(self):
        assert coverage_of(library.MATS, stuck_at_universe(N_WORDS)) == 1.0

    def test_zero_one_detects_all_safs(self):
        assert coverage_of(library.ZERO_ONE, stuck_at_universe(N_WORDS)) == 1.0


class TestTransitionCoverage:
    def test_march_c_detects_all_tfs(self):
        assert coverage_of(library.MARCH_C, transition_universe(N_WORDS)) == 1.0

    def test_march_y_detects_all_tfs(self):
        assert coverage_of(library.MARCH_Y, transition_universe(N_WORDS)) == 1.0

    def test_mats_misses_some_tfs(self):
        """MATS has no read-after-down-transition; TF coverage < 100 %."""
        assert coverage_of(library.MATS, transition_universe(N_WORDS)) < 1.0

    def test_zero_one_misses_tfs(self):
        assert coverage_of(library.ZERO_ONE, transition_universe(N_WORDS)) < 1.0


class TestCouplingCoverage:
    def test_march_c_detects_all_unlinked_cfs(self):
        assert coverage_of(library.MARCH_C, coupling_universe(N_WORDS)) == 1.0

    def test_march_c_orig_detects_all_unlinked_cfs(self):
        assert coverage_of(library.MARCH_C_ORIG, coupling_universe(N_WORDS)) == 1.0

    def test_mats_plus_misses_couplings(self):
        assert coverage_of(library.MATS_PLUS, coupling_universe(N_WORDS)) < 1.0

    def test_march_x_detects_inversion_couplings(self):
        inversions = [f for f in coupling_universe(N_WORDS) if f.kind == "CFin"]
        assert coverage_of(library.MARCH_X, inversions) == 1.0


class TestAddressDecoderCoverage:
    @pytest.mark.parametrize(
        "test",
        [library.MATS_PLUS, library.MARCH_C, library.MARCH_A, library.MARCH_Y],
        ids=lambda t: t.name,
    )
    def test_march_tests_detect_all_afs(self, test):
        assert coverage_of(test, address_fault_universe(N_WORDS)) == 1.0

    def test_zero_one_misses_afs(self):
        """Zero-One lacks the up/down read-write structure AF detection
        needs (classic result)."""
        assert coverage_of(library.ZERO_ONE, address_fault_universe(N_WORDS)) < 1.0


class TestRetentionCoverage:
    def test_plain_march_c_misses_all_drfs(self):
        assert coverage_of(library.MARCH_C, retention_universe(N_WORDS)) == 0.0

    def test_march_c_plus_detects_all_drfs(self):
        assert coverage_of(library.MARCH_C_PLUS, retention_universe(N_WORDS)) == 1.0

    def test_march_a_plus_detects_all_drfs(self):
        assert coverage_of(library.MARCH_A_PLUS, retention_universe(N_WORDS)) == 1.0


class TestStuckOpenCoverage:
    def test_plain_march_c_misses_all_sofs(self):
        assert coverage_of(library.MARCH_C, stuck_open_universe(N_WORDS)) == 0.0

    def test_march_c_plus_plus_detects_all_sofs(self):
        assert (
            coverage_of(library.MARCH_C_PLUS_PLUS, stuck_open_universe(N_WORDS))
            == 1.0
        )

    def test_march_a_plus_plus_detects_all_sofs(self):
        assert (
            coverage_of(library.MARCH_A_PLUS_PLUS, stuck_open_universe(N_WORDS))
            == 1.0
        )


class TestEnhancementMonotonicity:
    """The paper's premise: enhanced algorithms strictly widen coverage."""

    def test_c_family_monotone(self):
        universe = standard_universe(N_WORDS)
        plain = evaluate_coverage(library.MARCH_C, universe, N_WORDS).overall
        plus = evaluate_coverage(library.MARCH_C_PLUS, universe, N_WORDS).overall
        plusplus = evaluate_coverage(
            library.MARCH_C_PLUS_PLUS, universe, N_WORDS
        ).overall
        assert plain < plus < plusplus

    def test_a_family_monotone(self):
        universe = standard_universe(N_WORDS)
        plain = evaluate_coverage(library.MARCH_A, universe, N_WORDS).overall
        plus = evaluate_coverage(library.MARCH_A_PLUS, universe, N_WORDS).overall
        plusplus = evaluate_coverage(
            library.MARCH_A_PLUS_PLUS, universe, N_WORDS
        ).overall
        assert plain < plus < plusplus


class TestReportShape:
    def test_report_totals_consistent(self):
        universe = standard_universe(4)
        report = evaluate_coverage(library.MARCH_C, universe, 4)
        assert report.total_count == len(universe)
        assert report.detected_count + len(report.escapes) == report.total_count

    def test_rows_percentages(self):
        universe = standard_universe(4)
        report = evaluate_coverage(library.MARCH_C, universe, 4)
        for kind, detected, total, percent in report.as_rows():
            assert 0 <= detected <= total
            assert abs(percent - 100.0 * detected / total) < 1e-9

    def test_str_mentions_test_name(self):
        universe = standard_universe(4)
        report = evaluate_coverage(library.MARCH_C, universe, 4)
        assert "March C" in str(report)
