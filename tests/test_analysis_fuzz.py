"""Fuzz harness: generator well-formedness, determinism, zero mismatches.

A small corpus runs inside the suite (the 500-sample acceptance corpus
and the 10k nightly corpus run in CI); a hypothesis property re-checks
the core cycle-exactness identity with shrinking.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import fuzz
from repro.analysis.fuzz import (
    IDENTITIES,
    FuzzReport,
    check_sample,
    march_test_strategy,
    random_geometry,
    random_march,
    resolve_skip,
    run_fuzz,
)
from repro.cli import main
from repro.march.element import MarchElement, Pause
from repro.march.test import MarchTest


class TestGenerator:
    def test_generates_well_formed_tests(self):
        rng = random.Random(0)
        for _ in range(50):
            test = random_march(rng)
            assert isinstance(test, MarchTest)
            assert any(
                isinstance(item, MarchElement) for item in test.items
            )
            durations = {
                item.duration for item in test.items
                if isinstance(item, Pause)
            }
            assert len(durations) <= 1  # single shared hold duration

    def test_geometries_stay_small(self):
        rng = random.Random(1)
        for _ in range(50):
            caps = random_geometry(rng)
            assert 1 <= caps.n_words <= 9
            assert caps.width in (1, 2, 4)
            assert 1 <= caps.ports <= 3

    def test_generator_is_deterministic_per_seed(self):
        one = random_march(random.Random("x"))
        two = random_march(random.Random("x"))
        assert one.items == two.items


class TestCheckSample:
    def test_sample_zero_agrees_everywhere(self):
        result = check_sample(0, 0)
        assert result.ok, result.mismatches
        assert result.microcode_cycles is not None

    def test_sample_result_serializes(self):
        payload = check_sample(0, 1).to_dict()
        assert payload["index"] == 1
        assert payload["mismatches"] == []


class TestRunFuzz:
    def test_small_corpus_has_zero_mismatches(self):
        report = run_fuzz(40, seed=0, jobs=1)
        assert report.ok
        assert report.checked == 40
        assert report.fsm_compiled > 0  # the SM bias pays off

    def test_report_is_independent_of_jobs(self):
        serial = run_fuzz(24, seed=3, jobs=1)
        parallel = run_fuzz(24, seed=3, jobs=4)
        assert serial.to_json() == parallel.to_json()

    def test_report_format_mentions_the_verdict(self):
        report = run_fuzz(5, seed=0, jobs=1)
        assert "0 mismatch(es)" in report.format()

    def test_json_report_shape(self):
        payload = run_fuzz(5, seed=0, jobs=1).to_json()
        assert payload["samples"] == 5
        assert payload["checked"] == 5
        assert 0.0 <= payload["fsm_compiled_fraction"] <= 1.0
        assert payload["mismatches"] == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_fuzz(0)
        with pytest.raises(ValueError):
            run_fuzz(10, jobs=0)

    def test_mismatches_would_be_reported(self):
        report = FuzzReport(samples=1, seed=0, checked=1,
                            mismatch_count=1,
                            mismatches=[{"index": 0, "notation": "x",
                                         "geometry": [1, 1, 1],
                                         "mismatches": ["boom"]}])
        assert not report.ok
        assert "boom" in report.format()


class TestFaultIdentity:
    """Identity (e): fault-response equivalence inside the fuzz loop."""

    def test_sample_draws_a_fault(self):
        result = check_sample(0, 0)
        assert result.identities["fault_spec"]  # the (e) draw happened ...
        assert result.ok          # ... and the responses agreed

    def test_fault_draw_is_deterministic_per_seed(self):
        one = check_sample(7, 3)
        two = check_sample(7, 3)
        assert one.identities["fault_spec"] == two.identities["fault_spec"]
        assert (one.identities["fault_detected"]
                == two.identities["fault_detected"])

    def test_fault_check_can_be_disabled(self):
        result = check_sample(0, 0, skip={"e"})
        assert result.identities["fault_spec"] is None
        assert not result.identities["fault_detected"]

    def test_report_counts_detecting_samples(self):
        report = run_fuzz(40, seed=0, jobs=1)
        assert report.ok
        detected = report.counts["fault_detected"]
        assert detected > 0  # most random faults are seen
        assert report.to_json()["fault_detected"] == detected
        assert "fault-detecting" in report.format()

    def test_seeded_response_defect_is_caught_and_shrunk(self, monkeypatch):
        """An off-by-one in one architecture's fail logging is invisible
        to the stimulus identities (a)-(d) but must trip identity (e),
        and the report must carry a shrunk (march, geometry, fault)
        reproducer."""
        import dataclasses

        from repro.conformance.faulty import check as faulty_check
        from repro.conformance.faulty import capture_response

        def shifted(stream, memory, max_ops=None):
            capture = capture_response(stream, memory, max_ops=max_ops)
            capture.events = [
                dataclasses.replace(event, op_index=event.op_index + 1)
                for event in capture.events
            ]
            return capture

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "hardwired", shifted
        )
        # jobs=1 keeps the monkeypatch visible (workers would re-import).
        report = run_fuzz(12, seed=0, jobs=1)
        assert not report.ok
        entry = report.mismatches[0]
        assert entry["fault_spec"]
        assert any(
            "fault-response divergence" in m for m in entry["mismatches"]
        )
        shrunk = entry["shrunk_faulty"]
        assert shrunk is not None
        assert shrunk["fault"]
        assert "shrunk faulty reproducer" in report.format()


@pytest.fixture(scope="module")
def unskipped():
    return check_sample(0, 0).to_dict()


class TestIdentityTable:
    """Identities (d)-(j) are rows of one table, skipped by letter."""

    @pytest.mark.parametrize("letter", list("defghij"))
    def test_skip_by_letter(self, letter, unskipped):
        payload = check_sample(0, 0, skip={letter}).to_dict()
        owned = {}
        for row in IDENTITIES:
            if row.letter in resolve_skip({letter}):
                owned.update(row.fields())
        assert owned  # every row owns a key, (d) its shrunk reproducer
        for key, value in unskipped.items():
            assert payload[key] == owned.get(key, value), key
        assert list(payload) == list(unskipped)

    def test_skip_runs_only_the_other_rows_in_table_order(
        self, monkeypatch
    ):
        ran = []

        def spy(row):
            def check(sample, result):
                ran.append(row.letter)
                row.check(sample, result)
            return row._replace(check=check)

        monkeypatch.setattr(
            fuzz, "IDENTITIES", tuple(spy(row) for row in IDENTITIES)
        )
        check_sample(0, 0)
        assert ran == ["d", "e", "g", "f", "h", "i", "j"]
        for letter in "defghij":
            ran.clear()
            check_sample(0, 0, skip={letter})
            expected = [row.letter for row in IDENTITIES
                        if row.letter not in resolve_skip({letter})]
            assert ran == expected, letter

    def test_g_follows_e(self):
        assert resolve_skip({"e"}) == {"e", "g"}
        result = check_sample(0, 0, skip={"e"})
        assert result.identities["vector_checked"] is False
        assert check_sample(0, 0, skip={"g"}).identities["fault_detected"]

    def test_bad_letter(self, capsys):
        assert main(["fuzz", "--samples", "1", "--jobs", "1",
                     "--skip", "z"]) == 2
        assert "unknown fuzz identity z" in capsys.readouterr().err
        with pytest.raises(ValueError):
            run_fuzz(1, skip={"a"})  # (a)-(c) always run
        with pytest.raises(ValueError):
            check_sample(0, 0, skip={"z"})

    def test_pinned_report_layout(self):
        assert run_fuzz(8, seed=0, jobs=1).to_json() == {
            "samples": 8,
            "seed": 0,
            "checked": 8,
            "fsm_compiled": 2,
            "fsm_compiled_fraction": 0.25,
            "fault_detected": 8,
            "vector_checked": 8,
            "coverage_pairs": 228,
            "infield_checked": 8,
            "service_checked": 8,
            "prt_checked": 8,
            "mismatch_count": 0,
            "mismatches": [],
        }
        assert list(FuzzReport(samples=1, seed=0).to_json()) == [
            "samples", "seed", "checked", "fsm_compiled",
            "fsm_compiled_fraction", "fault_detected", "vector_checked",
            "coverage_pairs", "infield_checked", "service_checked",
            "prt_checked", "mismatch_count", "mismatches",
        ]

    def test_pinned_sample_layout(self, unskipped):
        assert list(unskipped) == [
            "index", "sample_seed", "notation", "geometry", "compress",
            "microcode_cycles", "fsm_compiled", "fsm_cycles", "mismatches",
            "shrunk", "fault_spec", "fault_detected", "shrunk_faulty",
            "vector_checked", "coverage_pairs", "shrunk_coverage",
            "infield_checked", "service_checked", "prt_checked",
        ]

    def test_format_reads_every_reproducer_from_the_table(self):
        entry = {
            "index": 3, "sample_seed": "0:3", "notation": "~(w0); ~(r0)",
            "geometry": [2, 1, 1], "mismatches": ["boom", "bang"],
            "shrunk": {"notation": "~(r0)", "geometry": [1, 1, 1],
                       "checks": 4, "reduced": True},
            "fault_spec": "saf:0:0:1",
            "shrunk_faulty": {"notation": "~(w0)", "geometry": [1, 1, 1],
                              "fault": "saf:0:0:0", "checks": 2,
                              "reduced": True},
            "shrunk_coverage": {"notation": "~(r1)", "geometry": [2, 1, 1],
                                "fault": "tf:1:0:up", "checks": 9,
                                "reduced": False},
        }
        report = FuzzReport(samples=4, seed=0, checked=4, fsm_compiled=1,
                            mismatch_count=1, mismatches=[entry],
                            interrupted=True)
        report.counts.update(fault_detected=3, vector_checked=3,
                             coverage_pairs=50, infield_checked=4,
                             service_checked=4, prt_checked=4)
        assert report.format().splitlines() == [
            "fuzz: 4/4 samples checked (seed 0), 1 SM-compilable, "
            "3 fault-detecting, 3 vector-cross-checked, 50 coverage pairs "
            "certified, 4 in-field sessions, 4 resumed-sweep identities, "
            "4 pseudo-ring sessions, 1 mismatch(es) [INTERRUPTED]",
            "  sample 3 (seed 0:3) (2, 1, 1): ~(w0); ~(r0)",
            "    fault: saf:0:0:1",
            "    boom",
            "    bang",
            "    shrunk reproducer: ~(r0) on (1, 1, 1)",
            "    shrunk faulty reproducer: ~(w0) on (1, 1, 1) under "
            "saf:0:0:0",
            "    shrunk coverage reproducer: ~(r1) on (2, 1, 1) under "
            "tf:1:0:up",
        ]


class TestProperty:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(test=march_test_strategy(), data=st.data())
    def test_microcode_cycle_identity(self, test, data):
        """interpret().cycles == len(trace()) for every generated
        algorithm — the identity (a) of the harness, with shrinking."""
        from repro.analysis import Verdict, interpret
        from repro.core.controller import ControllerCapabilities
        from repro.core.microcode import MicrocodeBistController, assemble

        caps = ControllerCapabilities(
            n_words=data.draw(st.integers(1, 9)),
            width=data.draw(st.sampled_from([1, 2, 4])),
            ports=data.draw(st.integers(1, 3)),
        )
        program = assemble(test, caps, verify=False)
        result = interpret(program, caps)
        assert result.verdict is Verdict.TERMINATES
        controller = MicrocodeBistController(program, caps, verify=False)
        assert result.cycles == sum(1 for _ in controller.trace())
