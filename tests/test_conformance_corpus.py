"""The checked-in golden-trace corpus, validated in-process.

``test_checked_in_corpus_is_green`` is the tier-1 equivalent of the CI
``repro conformance corpus-check`` gate: every golden and regression
trace under ``tests/corpus/`` must replay op-for-op.
"""

import json
import pathlib

import pytest

from repro.conformance import check_corpus, record_golden
from repro.conformance.corpus import (
    GOLDEN_GEOMETRIES,
    STREAM_GENERATORS,
    STREAM_GEOMETRIES,
    build_entry,
    build_stream_entry,
    check_entry,
    decode_op,
    encode_op,
    load_entry,
    promote_from_report,
    record_regression,
    record_streams,
    trace_digest,
    write_entry,
)
from repro.march import library
from repro.march.simulator import MemoryOperation

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


class TestOpEncoding:
    @pytest.mark.parametrize("op", [
        MemoryOperation(0, 3, True, value=2),
        MemoryOperation(1, 0, False, expected=1),
        MemoryOperation(2, 0, False, delay=512),
    ])
    def test_round_trip(self, op):
        decoded = decode_op(encode_op(op))
        assert encode_op(decoded) == encode_op(op)

    def test_digest_changes_with_content(self):
        a = trace_digest(["w 0 0 0"])
        b = trace_digest(["w 0 0 1"])
        assert a != b

    def test_bad_line_rejected(self):
        from repro.conformance.corpus import CorpusError

        with pytest.raises(CorpusError):
            decode_op("x 0 0 0")


class TestCheckedInCorpus:
    def test_corpus_exists_and_covers_grid(self):
        golden = list(CORPUS_DIR.glob("golden/*.json"))
        # full library x geometry grid
        assert len(golden) == len(library.ALGORITHMS) * len(
            GOLDEN_GEOMETRIES
        )
        assert list(CORPUS_DIR.glob("regressions/*.json"))

    def test_checked_in_corpus_is_green(self):
        report = check_corpus(CORPUS_DIR)
        assert report.checked > 0
        assert report.ok, report.format()

    def test_progfsm_listed_only_when_realizable(self):
        from repro.core.progfsm.compiler import is_realizable

        for path in CORPUS_DIR.glob("golden/*.json"):
            entry = load_entry(path)
            test = library.get(entry["name"])
            listed = "progfsm" in entry["architectures"]
            assert listed == is_realizable(test), entry["name"]


class TestCorpusChecker:
    def test_tampered_ops_detected(self, tmp_path):
        record_golden(tmp_path, geometries=[(2, 1, 1)],
                      algorithms=["MATS+"])
        path = next(tmp_path.glob("golden/*.json"))
        entry = json.loads(path.read_text())
        entry["ops"][0] = "w 0 0 1"  # flip the first write's value
        path.write_text(json.dumps(entry))
        result = check_entry(path)
        assert not result.ok
        # Both the hash and the fresh golden expansion disagree.
        assert any("hash" in p for p in result.problems)
        assert any("drifted" in p for p in result.problems)

    def test_rehashed_tamper_still_detected(self, tmp_path):
        """Fixing up the hash after an edit doesn't help — the fresh
        golden expansion still disagrees."""
        from repro.conformance.corpus import trace_digest as digest

        record_golden(tmp_path, geometries=[(2, 1, 1)],
                      algorithms=["MATS+"])
        path = next(tmp_path.glob("golden/*.json"))
        entry = json.loads(path.read_text())
        entry["ops"][0] = "w 0 0 1"
        entry["sha256"] = digest(entry["ops"])
        path.write_text(json.dumps(entry))
        result = check_entry(path)
        assert not result.ok
        assert any("drifted" in p for p in result.problems)

    def test_unreadable_entry_reported_not_raised(self, tmp_path):
        path = tmp_path / "golden" / "broken.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        result = check_entry(path)
        assert not result.ok
        assert "unreadable" in result.problems[0]

    def test_empty_corpus_not_ok(self, tmp_path):
        report = check_corpus(tmp_path)
        assert report.checked == 0
        assert not report.ok

    def test_regression_entry_round_trips(self, tmp_path):
        path = record_regression(
            tmp_path, "~(w0); ^(r0)", (2, 1, 1), name="demo",
            provenance={"seed": 7},
        )
        entry = load_entry(path)
        assert entry["kind"] == "regression"
        assert entry["provenance"]["seed"] == 7
        assert check_entry(path).ok


class TestStreamCorpus:
    def test_checked_in_streams_cover_the_registry(self):
        streams = list(CORPUS_DIR.glob("streams/*.json"))
        assert len(streams) == len(STREAM_GENERATORS) * len(
            STREAM_GEOMETRIES
        )

    def test_record_streams_writes_checkable_entries(self, tmp_path):
        written = record_streams(
            tmp_path,
            geometries=[(4, 1, 1)],
            generators=["walking-ones", "transparent-mats+"],
        )
        assert len(written) == 2
        for path in written:
            result = check_entry(path)
            assert result.ok, result.problems

    def test_stream_drift_detected_even_when_rehashed(self, tmp_path):
        [path] = record_streams(
            tmp_path, geometries=[(4, 1, 1)], generators=["walking-zeros"]
        )
        entry = json.loads(path.read_text())
        tampered = "w 0 0 0" if entry["ops"][0] == "w 0 0 1" else "w 0 0 1"
        entry["ops"][0] = tampered
        entry["sha256"] = trace_digest(entry["ops"])
        path.write_text(json.dumps(entry))
        result = check_entry(path)
        assert not result.ok
        assert any("drifted" in p for p in result.problems)

    def test_unknown_generator_reported(self, tmp_path):
        entry = build_stream_entry("walking-ones", (4, 1, 1))
        entry["generator"] = entry["name"] = "nonesuch"
        path = tmp_path / "streams" / "nonesuch.json"
        path.parent.mkdir(parents=True)
        path = write_entry(path, entry)
        result = check_entry(path)
        assert not result.ok
        assert any("unknown stream generator" in p for p in result.problems)

    def test_transparent_entries_pin_read_verify_phases(self):
        entry = build_stream_entry("transparent-mats+", (4, 1, 1))
        lines = entry["ops"]
        # A transparent session both writes and verifies with expected
        # values derived from the preserved contents.
        assert any(line.startswith("w ") for line in lines)
        assert any(line.startswith("r ") for line in lines)


class TestFaultRegressionEntries:
    def test_fault_entry_round_trips_and_checks(self, tmp_path):
        path = record_regression(
            tmp_path, "^(r0)", (1, 1, 1), name="faulty-demo",
            fault="saf:0:0:1",
            provenance={"scenario": "seeded fail-log off-by-one"},
        )
        entry = load_entry(path)
        assert entry["fault"] == "saf:0:0:1"
        result = check_entry(path)
        assert result.ok, result.problems

    def test_recorded_fault_spec_is_canonical(self, tmp_path):
        path = record_regression(
            tmp_path, "^(r0)", (1, 1, 1), name="spelled",
            fault="TF:0:0:rising",
        )
        assert load_entry(path)["fault"] == "tf:0:0:up"
        assert check_entry(path).ok

    def test_non_canonical_fault_spec_flagged(self, tmp_path):
        path = record_regression(
            tmp_path, "^(r0)", (1, 1, 1), name="spelled",
            fault="saf:0:0:1",
        )
        entry = load_entry(path)
        entry["fault"] = "SAF:0:0:1"
        write_entry(path, entry)
        result = check_entry(path)
        assert not result.ok
        assert result.problems == [
            "fault spec 'SAF:0:0:1' is not canonical "
            "(write it as 'saf:0:0:1')"
        ]

    def test_invalid_fault_spec_rejected_at_record_time(self, tmp_path):
        from repro.faults.spec import FaultSpecError

        with pytest.raises(FaultSpecError):
            record_regression(
                tmp_path, "^(r0)", (1, 1, 1), name="bad",
                fault="saf:not-a-number",
            )

    def test_fault_divergence_flagged_on_replay(self, tmp_path, monkeypatch):
        """A checked-in faulty reproducer re-runs the differential: if
        the seeded response defect reappears, the corpus check fails."""
        import dataclasses

        from repro.conformance.faulty import capture_response
        from repro.conformance.faulty import check as faulty_check

        path = record_regression(
            tmp_path, "^(r0)", (1, 1, 1), name="faulty-demo",
            fault="saf:0:0:1",
        )
        assert check_entry(path).ok

        def shifted(stream, memory, max_ops=None):
            capture = capture_response(stream, memory, max_ops=max_ops)
            capture.events = [
                dataclasses.replace(event, op_index=event.op_index + 1)
                for event in capture.events
            ]
            return capture

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "microcode", shifted
        )
        result = check_entry(path)
        assert not result.ok
        assert any(
            "fault-response regression under saf:0:0:1" in p
            for p in result.problems
        )


class TestPromoteFromReport:
    def test_prefers_shrunk_reproducer(self, tmp_path):
        report = {
            "seed": 3,
            "mismatches": [{
                "index": 12,
                "sample_seed": "3:12",
                "notation": "~(w0); ^(r0,w1); v(r1)",
                "geometry": [5, 2, 2],
                "compress": True,
                "mismatches": ["behavioural divergence: demo"],
                "shrunk": {
                    "notation": "~(w0)",
                    "geometry": [1, 1, 1],
                    "checks": 9,
                    "reduced": True,
                },
            }],
        }
        written = promote_from_report(tmp_path, report)
        assert len(written) == 1
        entry = load_entry(written[0])
        assert entry["notation"] == "~(w0)"
        assert entry["geometry"] == [1, 1, 1]
        assert entry["provenance"]["sample_seed"] == "3:12"
        assert entry["provenance"]["original_notation"] == (
            "~(w0); ^(r0,w1); v(r1)"
        )

    def test_prefers_faulty_reproducer_and_pins_the_fault(self, tmp_path):
        report = {
            "seed": 5,
            "mismatches": [{
                "index": 4,
                "sample_seed": "5:4",
                "notation": "~(w0); ^(r0,w1); v(r1)",
                "geometry": [5, 2, 2],
                "compress": True,
                "fault_spec": "tf:3:1:up",
                "mismatches": ["fault-response divergence under tf:3:1:up"],
                "shrunk": None,
                "shrunk_faulty": {
                    "notation": "^(r0)",
                    "geometry": [1, 1, 1],
                    "fault": "saf:0:0:1",
                    "checks": 17,
                    "reduced": True,
                },
            }],
        }
        written = promote_from_report(tmp_path, report)
        assert len(written) == 1
        entry = load_entry(written[0])
        assert entry["notation"] == "^(r0)"
        assert entry["geometry"] == [1, 1, 1]
        assert entry["fault"] == "saf:0:0:1"
        assert entry["provenance"]["original_fault"] == "tf:3:1:up"
        assert check_entry(written[0]).ok

    def test_falls_back_to_full_sample(self, tmp_path):
        report = {
            "seed": 0,
            "mismatches": [{
                "index": 1,
                "notation": "^(r0)",
                "geometry": [2, 1, 1],
                "mismatches": ["demo"],
                "shrunk": None,
            }],
        }
        written = promote_from_report(tmp_path, report)
        assert load_entry(written[0])["notation"] == "^(r0)"

    def test_clean_report_writes_nothing(self, tmp_path):
        assert promote_from_report(tmp_path, {"mismatches": []}) == []


class TestBuildEntry:
    def test_entry_is_self_consistent(self):
        entry = build_entry(library.get("MATS+"), (2, 1, 1))
        assert entry["sha256"] == trace_digest(entry["ops"])
        assert entry["architectures"] == [
            "microcode", "progfsm", "hardwired"
        ]

    def test_written_entry_ends_with_newline(self, tmp_path):
        entry = build_entry(library.get("MATS+"), (2, 1, 1))
        path = write_entry(tmp_path / "x.json", entry)
        assert path.read_text().endswith("\n")
