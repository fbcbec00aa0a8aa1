"""The single-fault simulation loop (``repro.conformance.faulty.coverage``).

Simulated coverage and the certificate cross-check both measure through
``simulate_faults``, which applies one materialised attributed stream
per fault through the scalar oracle's ``capture_response``.  The
payloads below are pinned byte for byte: the digests were measured on
the per-fault ``run_on_memory`` loops this module replaced.
"""

import hashlib
import json

import pytest

import repro.conformance.faulty.coverage as coverage_module
from repro.conformance import check_coverage_conformance
from repro.conformance.check import GOLDEN_CACHE
from repro.conformance.faulty.coverage import (
    evaluate_coverage,
    evaluate_trace_coverage,
    simulate_faults,
)
from repro.conformance.trace import op_trace
from repro.core.controller import ControllerCapabilities
from repro.eval.coverage_study import coverage_table
from repro.eval.prt_study import prt_vs_march
from repro.faults.spec import parse_fault
from repro.faults.universe import FaultUniverse, standard_universe
from repro.march import library
from repro.march.simulator import expand
from repro.memory import Sram
from repro.prt import PRT_RING_DOWN, PRT_RING_UP


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: n_words -> digest of ``coverage_table(n)``'s row JSON.
TABLE_DIGESTS = {
    4: "546bbb009f67778d",
    6: "27b5d2b0c0a8e689",
    8: "4fee9ccd5f6bfbcb",
}

#: (geometry, session) -> digest of ``prt_vs_march(...).to_json()``.
PRT_DIGESTS = {
    ((8, 1, 1), PRT_RING_UP.name): "223361cd7b6b692a",
    ((8, 1, 1), PRT_RING_DOWN.name): "3aa557100909165e",
    ((4, 2, 2), PRT_RING_UP.name): "9e511dd78ad5ebd2",
    ((4, 2, 2), PRT_RING_DOWN.name): "8b5afbecb0e89b73",
}

#: CI geometry -> digest of the library cross-check sans timing.
CROSS_CHECK_DIGESTS = {
    (4, 2, 1): "7d7f6724d120fb2f",
    (8, 1, 1): "3310a8e8b44b5782",
    (4, 2, 2): "dcb2efa6266e65d5",
    (3, 2, 3): "b01a2d0189cf5571",
    (5, 4, 2): "28c47d5b916b520c",
}


class TestPinnedPayloads:
    @pytest.mark.parametrize("n_words", sorted(TABLE_DIGESTS))
    def test_coverage_table(self, n_words):
        rows = coverage_table(n_words)
        assert _digest([row.to_json() for row in rows]) == (
            TABLE_DIGESTS[n_words]
        )

    @pytest.mark.parametrize("geometry,session", sorted(PRT_DIGESTS))
    def test_prt_vs_march(self, geometry, session):
        prt = {s.name: s for s in (PRT_RING_UP, PRT_RING_DOWN)}[session]
        report = prt_vs_march(*geometry, session=prt)
        assert _digest(report.to_json()) == PRT_DIGESTS[geometry, session]

    def test_prt_headline_figures(self):
        payload = prt_vs_march(8, 1, 1).to_json()
        assert payload["prt_overall_percent"] == 75.27
        assert payload["march_overall_percent"] == 84.24

    @pytest.mark.parametrize("geometry", sorted(CROSS_CHECK_DIGESTS))
    def test_library_cross_check(self, geometry):
        result = check_coverage_conformance(geometry=geometry)
        assert result.ok, result.format()
        payload = result.to_json(include_timing=False)
        assert _digest(payload) == CROSS_CHECK_DIGESTS[geometry]


class TestOneLoop:
    def test_cross_check_captures_once_per_decided_pair(self, monkeypatch):
        """Unknown verdicts are never simulated; every decided pair is
        captured exactly once: a covered one up to its witness, a
        not-covered one over the whole golden stream."""
        calls = []
        real = coverage_module.capture_response

        def spy(stream, memory, max_ops=None):
            calls.append(stream)
            return real(stream, memory, max_ops)

        monkeypatch.setattr(coverage_module, "capture_response", spy)
        tests = [library.get("MATS"), library.get("March C")]
        faults = [
            parse_fault(spec)
            for spec in ("saf:0:0:1", "saf:1:0:0", "pafc:1:0:0", "tf:1:0:up")
        ]
        result = check_coverage_conformance(
            tests=tests, geometry=(2, 1, 2), faults=faults
        )
        assert result.ok, result.format()
        assert result.unknown == 2  # the PAFc pair of each test
        decided = result.covered_agree + result.not_covered_agree
        assert decided == result.checked - result.unknown == 6
        assert len(calls) == decided
        caps = ControllerCapabilities(n_words=2, width=1, ports=2)
        goldens = [GOLDEN_CACHE.get(test, caps) for test in tests]
        for index, stream in enumerate(calls):
            golden = goldens[index // 3]
            assert stream.ops == golden.ops[:len(stream)]
        full = [stream for index, stream in enumerate(calls)
                if len(stream) == len(goldens[index // 3])]
        assert len(full) == result.not_covered_agree

    def test_detection_is_a_nonempty_capture(self):
        stream = op_trace(expand(library.MATS, 2))
        faults = [parse_fault("saf:0:0:1"), parse_fault("tf:1:0:down")]
        detections = [
            (fault, bool(events))
            for fault, events in simulate_faults(stream, Sram(2), faults)
        ]
        # MATS reads every cell in both states but never reads a
        # falling transition.
        assert detections == [(faults[0], True), (faults[1], False)]

    def test_golden_coverage_equals_trace_coverage(self):
        universe = standard_universe(4, include_npsf=False)
        golden = evaluate_coverage(library.MARCH_C, universe, 4)
        traced = evaluate_trace_coverage(
            op_trace(expand(library.MARCH_C, 4)), Sram(4), universe,
            test_name="March C",
        )
        assert traced.to_json() == golden.to_json()

    def test_empty_universe_is_vacuous(self):
        report = evaluate_trace_coverage(
            op_trace(expand(library.MATS, 2)), Sram(2), FaultUniverse("none")
        )
        assert report.is_vacuous and report.overall == 0.0
