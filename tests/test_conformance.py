"""Unit tests for the differential conformance subsystem."""

import hashlib
import json

import pytest

from repro.conformance import (
    ARCHITECTURES,
    GOLDEN_GEOMETRIES,
    check_conformance,
    conformance_predicate,
    first_divergence,
    format_normalized,
    golden_trace,
    normalize,
    shrink_sample,
)
from repro.conformance.trace import op_trace
from repro.core.controller import ControllerCapabilities
from repro.march import library
from repro.march.notation import parse_test
from repro.march.simulator import MemoryOperation, expand

CAPS = ControllerCapabilities(n_words=4, width=1, ports=1)
WORD_CAPS = ControllerCapabilities(n_words=3, width=2, ports=2)


def _library_digest() -> str:
    """sha256 (first 16 hex digits) of every ``check_conformance``
    payload over the library × the corpus geometries × both
    compression settings."""
    payloads = [
        check_conformance(
            library.get(name), ControllerCapabilities(*geometry),
            compress=compress,
        ).to_dict()
        for name in library.ALGORITHMS
        for geometry in GOLDEN_GEOMETRIES
        for compress in (True, False)
    ]
    text = json.dumps(payloads, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: ``_library_digest()`` on healthy controllers and under the seeded
#: progfsm polarity defect of :class:`TestSeededDefect`.
LIBRARY_DIGEST = "8ec7fde755ccd76c"
INVERTED_POLARITY_DIGEST = "2e1504a677985249"


class TestNormalize:
    def test_write_key(self):
        op = MemoryOperation(1, 3, True, value=2)
        assert normalize(op) == ("w", 1, 3, 2)

    def test_read_key(self):
        op = MemoryOperation(0, 5, False, expected=1)
        assert normalize(op) == ("r", 0, 5, 1)

    def test_delay_ignores_placeholder_fields(self):
        """Two pauses differing only in their placeholder address/value
        fields normalise identically — controllers park the address
        counter wherever their datapath leaves it during a hold."""
        a = MemoryOperation(0, 0, False, delay=512)
        b = MemoryOperation(0, 3, False, value=1, delay=512)
        assert normalize(a) == normalize(b) == ("d", 0, 512)

    def test_format_end_of_stream(self):
        assert format_normalized(None) == "<end of stream>"

    def test_format_forms(self):
        assert format_normalized(("w", 0, 2, 1)) == "p0 w@2=1"
        assert format_normalized(("r", 1, 0, 3)) == "p1 r@0?3"
        assert format_normalized(("d", 0, 512)) == "p0 delay(512)"


class TestGoldenTrace:
    def test_matches_expand_exactly(self):
        test = library.get("March C")
        trace = golden_trace(test, WORD_CAPS)
        ops = list(expand(test, 3, width=2, ports=2))
        assert trace.ops == ops

    def test_owner_names_march_item(self):
        trace = golden_trace(parse_test("~(w0); ^(r0,w1)"), CAPS)
        assert trace.owner(0) == "item 0 ~(w0) op 0"
        # element 1 starts after the 4 ops of element 0
        assert trace.owner(4) == "item 1 ^(r0,w1) op 0"
        assert trace.owner(5) == "item 1 ^(r0,w1) op 1"

    def test_pause_owner(self):
        trace = golden_trace(parse_test("~(w0); Del(512); ~(r0)"), CAPS)
        delays = [i for i, op in enumerate(trace.ops) if op.is_delay]
        assert len(delays) == 1
        assert trace.owner(delays[0]) == "item 1 Del(512)"


class TestFirstDivergence:
    def test_equal_streams_no_divergence(self):
        ops = op_trace([MemoryOperation(0, 0, True, value=1)])
        assert first_divergence(ops, ops, "x") is None

    def test_mismatch_located(self):
        ref = op_trace([
            MemoryOperation(0, 0, True, value=0),
            MemoryOperation(0, 1, True, value=0),
        ])
        cand = op_trace([
            MemoryOperation(0, 0, True, value=0),
            MemoryOperation(0, 1, True, value=1),
        ])
        div = first_divergence(ref, cand, "progfsm")
        assert div is not None
        assert div.index == 1
        assert div.kind == "mismatch"
        assert div.architecture == "progfsm"
        assert "expected" in div.describe()

    def test_short_candidate_is_missing(self):
        ref = op_trace([MemoryOperation(0, 0, True, value=0)] * 2)
        cand = op_trace(ref.ops[:1])
        div = first_divergence(ref, cand, "x")
        assert div.kind == "missing" and div.index == 1

    def test_long_candidate_is_extra(self):
        ref = op_trace([MemoryOperation(0, 0, True, value=0)])
        cand = op_trace(ref.ops + [MemoryOperation(0, 1, True, value=0)])
        div = first_divergence(ref, cand, "x")
        assert div.kind == "extra" and div.index == 1


class TestCheckConformance:
    @pytest.mark.parametrize(
        "name", list(library.ALGORITHMS), ids=lambda n: n
    )
    def test_library_conforms_bit_oriented(self, name):
        result = check_conformance(library.get(name), CAPS)
        assert result.ok, result.describe_failures()
        assert "microcode" in result.compared
        assert "hardwired" in result.compared

    def test_word_oriented_multiport_conforms(self):
        result = check_conformance(library.get("March C"), WORD_CAPS)
        assert result.ok
        assert result.compared == list(ARCHITECTURES)

    def test_uncompressed_microcode_conforms(self):
        result = check_conformance(
            library.get("March C"), CAPS, compress=False
        )
        assert result.ok

    def test_outside_boundary_is_skipped_not_failed(self):
        result = check_conformance(library.get("March B"), CAPS)
        assert result.ok
        progfsm = next(
            r for r in result.results if r.architecture == "progfsm"
        )
        assert progfsm.skipped is not None
        assert "progfsm" not in result.compared

    def test_architecture_subset(self):
        result = check_conformance(
            library.get("MATS+"), CAPS, architectures=("hardwired",)
        )
        assert [r.architecture for r in result.results] == ["hardwired"]

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            check_conformance(
                library.get("MATS+"), CAPS, architectures=("quantum",)
            )

    def test_op_counts_reported(self):
        result = check_conformance(parse_test("~(w0); ^(r0)"), CAPS)
        assert result.golden_ops == 8
        assert all(r.op_count == 8 for r in result.results)

    def test_to_dict_and_format(self):
        result = check_conformance(library.get("MATS+"), CAPS)
        payload = result.to_dict()
        assert payload["ok"] is True
        assert len(payload["architectures"]) == 3
        assert "op-for-op equal" in result.format()

    def test_library_payloads_are_pinned(self):
        assert _library_digest() == LIBRARY_DIGEST


class TestSeededDefect:
    """Acceptance scenario: a deliberately seeded datapath defect must
    be caught by conformance and shrunk to a tiny reproducer."""

    @pytest.fixture()
    def inverted_polarity(self, monkeypatch):
        from repro.core.progfsm.instruction import (
            DataControl,
            FsmInstruction,
        )

        monkeypatch.setattr(
            FsmInstruction,
            "base_data",
            property(
                lambda self:
                0 if self.data_ctrl is DataControl.BASE1 else 1
            ),
        )

    def test_defect_caught_with_provenance(self, inverted_polarity):
        result = check_conformance(
            library.get("March C"),
            ControllerCapabilities(n_words=4, width=2, ports=1),
        )
        assert not result.ok
        failing = result.failures
        assert [r.architecture for r in failing] == ["progfsm"]
        div = failing[0].divergence
        assert div.index == 0  # very first write has the wrong polarity
        assert div.kind == "mismatch"
        assert div.reference_owner.startswith("item 0")
        assert div.candidate_owner.startswith("fsm row 0")

    def test_defect_payloads_are_pinned(self, inverted_polarity):
        assert _library_digest() == INVERTED_POLARITY_DIGEST

    def test_defect_shrinks_to_tiny_reproducer(self, inverted_polarity):
        shrunk = shrink_sample(
            library.get("March C"),
            ControllerCapabilities(n_words=4, width=2, ports=1),
            conformance_predicate(),
            max_checks=500,
        )
        assert shrunk.reduced
        assert len(shrunk.test.items) <= 2
        assert shrunk.geometry == (1, 1, 1)
        assert shrunk.to_dict() == {
            "notation": "~(w0)", "geometry": [1, 1, 1], "checks": 8,
            "reduced": True,
        }
        # The reproducer still reproduces.
        result = check_conformance(shrunk.test, shrunk.capabilities)
        assert not result.ok

    def test_healthy_datapath_conforms_again(self):
        """Without the monkeypatch the same check passes — the defect
        tests above prove detection, this proves no false positives."""
        result = check_conformance(
            library.get("March C"),
            ControllerCapabilities(n_words=4, width=2, ports=1),
        )
        assert result.ok
