"""Differential fault-response conformance: events, checker, shrinker.

The acceptance scenario mirrors PR 3's seeded-defect test one layer up
the stack: a deliberately planted *response-path* defect (an off-by-one
in the fail log's detecting op index) is invisible to every fault-free
check, caught by the fault-response differential, and shrunk to a
single-cell fault on a (1,1,1) memory.
"""

import dataclasses
import json

import pytest

from repro.conformance import (
    FaultSweepReport,
    GOLDEN_CACHE,
    check_conformance,
    check_fault_conformance,
    fault_response_predicate,
    run_fault_sweep,
    run_fault_sweeps,
    shrink_faulty_sample,
    sweep_faults,
)
from repro.conformance.check import GoldenTraceCache
from repro.conformance.faulty import check as faulty_check
from repro.conformance.faulty.events import (
    ResponseBudgetExceeded,
    ResponseCapture,
    capture_response,
)
from repro.conformance.faulty.sampling import random_fault, stratified_sample
from repro.conformance.faulty.shrink import _spec_size, simpler_fault_specs
from repro.conformance.trace import AttributedOp, golden_trace
from repro.core.controller import ControllerCapabilities
from repro.core.progfsm.compiler import CompileError
from repro.diagnostics.faillog import FailLog
from repro.faults.concurrent import concurrent_fault_universe
from repro.faults.injector import FaultInjector
from repro.faults.kinds import KINDS
from repro.faults.linked import linked_cfid_universe
from repro.faults.port import PortRestrictedFault
from repro.faults.spec import format_fault, parse_fault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.universe import standard_universe
from repro.march import library
from repro.march.notation import format_test, parse_test
from repro.prt import PRT_RING_UP
from repro.memory.sram import Sram

CAPS = ControllerCapabilities(n_words=4, width=2, ports=1)


def _faulty_memory(spec, caps=CAPS):
    memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
    memory.attach(parse_fault(spec))
    return memory


#: (stimulus, mode, partner) for every non-architecture partner: the
#: differential loop's error arms must hold for all stimulus families.
PARTNER_CAPS = ControllerCapabilities(n_words=4, width=1, ports=2)
NON_MARCH_PARTNERS = [
    (PRT_RING_UP, "sequential", "prt-controller"),
    (PRT_RING_UP, "sequential", "replay"),
    (library.get("MATS+"), "infield", "replay"),
    (library.get("MATS+"), "concurrent", "replay"),
]


def _patch_partner_capture(monkeypatch, partner, capture):
    """Swap one resolved partner's capture path (golden stays intact)."""
    resolve = faulty_check.resolve_stimulus

    def patched(*args, **kwargs):
        stimulus = resolve(*args, **kwargs)
        return dataclasses.replace(stimulus, partners=tuple(
            dataclasses.replace(p, capture=capture) if p.name == partner
            else p
            for p in stimulus.partners
        ))

    monkeypatch.setattr(faulty_check, "resolve_stimulus", patched)


class TestFailEvents:
    def test_capture_records_attributed_mismatches(self):
        stream = golden_trace(library.get("March C"), CAPS)
        capture = capture_response(stream, _faulty_memory("saf:2:1:1"))
        assert capture.detected
        assert capture.ops_applied == len(stream)
        event = capture.events[0]
        assert event.address == 2
        assert stream[event.op_index].owner  # provenance by op index
        assert stream[event.op_index].op.is_read

    def test_fault_free_memory_yields_no_events(self):
        stream = golden_trace(library.get("March C"), CAPS)
        memory = Sram(CAPS.n_words, width=CAPS.width, ports=CAPS.ports)
        capture = capture_response(stream, memory)
        assert not capture.detected

    def test_key_excludes_owner(self):
        # Two streams that differ only in their owners log equal
        # failures: the owner is the stream's, looked up by op index.
        golden = golden_trace(library.get("March C"), CAPS)
        renamed = [AttributedOp(entry.op, "fsm row") for entry in golden]
        captures = [
            capture_response(stream, _faulty_memory("saf:2:1:1"))
            for stream in (golden, renamed)
        ]
        assert captures[0].events
        assert captures[0].events == captures[1].events

    def test_budget_trips_as_classified_error(self):
        stream = golden_trace(library.get("MATS"), CAPS)
        with pytest.raises(ResponseBudgetExceeded):
            capture_response(
                stream, _faulty_memory("saf:0:0:1"), max_ops=2
            )

    def test_budget_boundary(self):
        # The budget is checked once, before the loop: a stream that
        # fits is applied whole, and one op too many still applies
        # exactly ``max_ops`` ops before the raise.
        stream = golden_trace(library.get("MATS"), CAPS)
        assert all(entry.op.delay == 0 for entry in stream)
        fits = capture_response(
            stream, _faulty_memory("saf:0:0:1"), max_ops=len(stream)
        )
        assert fits.ops_applied == len(stream)
        max_ops = len(stream) - 1
        memory = _faulty_memory("saf:0:0:1")
        with pytest.raises(ResponseBudgetExceeded) as raised:
            capture_response(stream, memory, max_ops=max_ops)
        assert str(raised.value) == (
            f"op budget of {max_ops} exceeded after {max_ops} operation(s)"
        )
        assert memory.clock.now == max_ops

    def test_capture_converts_to_faillog(self):
        stream = golden_trace(library.get("March C"), CAPS)
        capture = capture_response(stream, _faulty_memory("saf:2:1:1"))
        log = capture.log("March C")
        assert log.failing_addresses() == [2]
        assert log.failing_cells() == [(2, 1)]


class TestCheckFaultConformance:
    @pytest.mark.parametrize(
        "spec",
        ["saf:2:1:1", "tf:1:0:up", "af2:0:2", "cfin:1:0:2:0:up",
         "irf:2:0:1", "cfst:0:0:1:0:1:0", "paf:0:2:1"],
    )
    def test_architectures_agree_on_library_algorithm(self, spec):
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault(spec)
        )
        assert result.ok, result.describe_failures()
        assert result.detected
        assert [r.status for r in result.responses] == ["ok"] * 3

    def test_whole_library_against_stratified_sample(self):
        caps = ControllerCapabilities(n_words=3, width=1, ports=1)
        faults = sweep_faults(caps, per_kind=1)
        tests = [library.get(name) for name in library.ALGORITHMS]
        report = run_fault_sweep(tests, caps, faults)
        assert report.ok, report.format()
        assert report.checked == len(tests) * len(faults)
        assert report.detected > 0

    def test_undetected_fault_is_ok_but_not_detected(self):
        # A retention fault never decays without a march pause: no
        # session ever observes it, so all responses are (vacuously)
        # equal.  March C is pause-free by construction.
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault("drf:1:0:1")
        )
        assert result.ok
        assert not result.detected
        assert result.golden_events == 0

    def test_progfsm_skipped_outside_boundary(self):
        result = check_fault_conformance(
            library.get("March B"), CAPS, parse_fault("saf:0:0:1")
        )
        assert result.ok  # skips do not fail the check
        progfsm = [
            r for r in result.responses if r.architecture == "progfsm"
        ][0]
        assert progfsm.status == "skipped"
        assert "SM0-SM7" in progfsm.detail

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            check_fault_conformance(
                library.get("MATS"),
                CAPS,
                parse_fault("saf:0:0:1"),
                architectures=["microcode", "risc-v"],
            )

    def test_wedged_session_is_error_not_mismatch(self, monkeypatch):
        def wedged(stream, memory, max_ops=None):
            raise ResponseBudgetExceeded("op budget of 1 exceeded")

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "hardwired", wedged
        )
        result = check_fault_conformance(
            library.get("MATS"), CAPS, parse_fault("saf:0:0:1")
        )
        hardwired = result.failures[0]
        assert hardwired.architecture == "hardwired"
        assert hardwired.status == "error"
        assert "wedged" in hardwired.detail
        assert hardwired.divergence is None

    def test_crashed_session_is_error(self, monkeypatch):
        def crashed(stream, memory, max_ops=None):
            raise IndexError("comparator bank out of range")

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "microcode", crashed
        )
        result = check_fault_conformance(
            library.get("MATS"), CAPS, parse_fault("saf:0:0:1")
        )
        microcode = result.failures[0]
        assert microcode.status == "error"
        assert "crashed" in microcode.detail
        assert "IndexError" in microcode.detail

    @pytest.mark.parametrize("stimulus, mode, partner", NON_MARCH_PARTNERS)
    def test_wedged_partner_is_error_for_every_stimulus(
        self, monkeypatch, stimulus, mode, partner
    ):
        def wedged(stream, memory, max_ops=None):
            raise ResponseBudgetExceeded("op budget of 1 exceeded")

        _patch_partner_capture(monkeypatch, partner, wedged)
        result = check_fault_conformance(
            stimulus, PARTNER_CAPS, parse_fault("saf:0:0:1"), mode=mode
        )
        [failure] = result.failures
        assert failure.architecture == partner
        assert failure.status == "error"
        assert "wedged" in failure.detail
        assert failure.divergence is None

    @pytest.mark.parametrize("stimulus, mode, partner", NON_MARCH_PARTNERS)
    def test_crashed_partner_is_error_for_every_stimulus(
        self, monkeypatch, stimulus, mode, partner
    ):
        def crashed(stream, memory, max_ops=None):
            raise IndexError("comparator bank out of range")

        _patch_partner_capture(monkeypatch, partner, crashed)
        result = check_fault_conformance(
            stimulus, PARTNER_CAPS, parse_fault("saf:0:0:1"), mode=mode
        )
        [failure] = result.failures
        assert failure.architecture == partner
        assert failure.status == "error"
        assert "crashed" in failure.detail
        assert "IndexError" in failure.detail

    def test_nonterminating_controller_is_error(self, monkeypatch):
        def hangs(test, caps, compress):
            raise RuntimeError("cycle bound 100000 exceeded")

        monkeypatch.setitem(
            faulty_check.STREAM_BUILDERS, "hardwired", hangs
        )
        result = check_fault_conformance(
            library.get("MATS"), CAPS, parse_fault("saf:0:0:1")
        )
        hardwired = result.failures[0]
        assert hardwired.status == "error"
        assert "did not terminate" in hardwired.detail

    def test_to_dict_and_format(self):
        result = check_fault_conformance(
            library.get("MATS+"), CAPS, parse_fault("tf:1:0:up")
        )
        payload = result.to_dict()
        assert payload["ok"] and payload["detected"]
        assert payload["fault_spec"] == "tf:1:0:up"
        assert len(payload["architectures"]) == 3
        assert "identical fail log and diagnosis" in result.format()


class _ShiftedIndexCapture:
    """The seeded response-path defect: the fail log latches the
    detecting op index one too late (classic off-by-one in the address
    pipeline's fail register).  Stimulus is untouched, and a fault-free
    run logs nothing — the defect is invisible until a fault fires."""

    def __call__(self, stream, memory, max_ops=None):
        capture = capture_response(stream, memory, max_ops=max_ops)
        capture.events = [
            dataclasses.replace(event, op_index=event.op_index + 1)
            for event in capture.events
        ]
        return capture


class TestSeededResponseDefect:
    @pytest.fixture()
    def faillog_off_by_one(self, monkeypatch):
        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES,
            "progfsm",
            _ShiftedIndexCapture(),
        )

    def test_invisible_to_fault_free_checks(self, faillog_off_by_one):
        # Stimulus conformance never consults the response path ...
        assert check_conformance(library.get("March C"), CAPS).ok
        # ... and under an undetected fault nothing is ever logged, so
        # the fault-response differential passes too.
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault("drf:1:0:1")
        )
        assert result.ok and not result.detected

    def test_caught_by_fault_response_differential(self, faillog_off_by_one):
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault("saf:2:1:1")
        )
        assert not result.ok
        failing = result.failures
        assert [r.architecture for r in failing] == ["progfsm"]
        assert failing[0].layer == "events"
        divergence = failing[0].divergence
        assert divergence.kind == "mismatch"
        assert divergence.candidate.op_index == (
            divergence.reference.op_index + 1
        )
        assert divergence.reference_owner  # provenance survives
        # Each owner is looked up in its own stream, at the logged op
        # index: the shifted one names the op after the failing read.
        test = library.get("March C")
        golden = golden_trace(test, CAPS)
        fsm = faulty_check.STREAM_BUILDERS["progfsm"](test, CAPS, True)
        assert divergence.reference_owner == (
            golden[divergence.reference.op_index].owner
        )
        assert divergence.candidate_owner == (
            fsm[divergence.candidate.op_index].owner
        )

    def test_shrinks_to_single_cell_fault_on_minimal_memory(
        self, faillog_off_by_one
    ):
        # Start bit-oriented: at width > 1 the golden expansion walks
        # data backgrounds, and the resulting background-mismatch events
        # would let the defect fire without any fault at all.
        shrunk = shrink_faulty_sample(
            library.get("March C"),
            ControllerCapabilities(n_words=4, width=1, ports=1),
            "saf:2:0:1",
            fault_response_predicate(),
            max_checks=500,
        )
        assert shrunk.reduced
        assert shrunk.geometry == (1, 1, 1)
        assert shrunk.fault_spec == "saf:0:0:1"
        assert len(shrunk.test.items) == 1
        # Key order too: fuzz reports embed this dict.
        assert list(shrunk.to_dict().items()) == [
            ("notation", "^(r0)"), ("geometry", [1, 1, 1]),
            ("fault", "saf:0:0:1"), ("checks", 15), ("reduced", True),
        ]
        # The minimal triple still reproduces.
        final = check_fault_conformance(
            shrunk.test,
            shrunk.capabilities,
            parse_fault(shrunk.fault_spec),
        )
        assert not final.ok

    def test_healthy_response_path_conforms_again(self):
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault("saf:2:1:1")
        )
        assert result.ok


class _PastEndCapture:
    """A fail register that latches one extra event, repeating the last
    failing read at an op index one past the end of the stream."""

    def __call__(self, stream, memory, max_ops=None):
        capture = capture_response(stream, memory, max_ops=max_ops)
        if capture.events:
            capture.events.append(dataclasses.replace(
                capture.events[-1], op_index=len(stream)
            ))
        return capture


class TestClassifierCrashFolding:
    def test_event_past_the_stream_folds_into_the_diagnosis(
        self, monkeypatch
    ):
        # The classifier cannot place an op index outside the golden
        # stream; the harness must fold its crash into the comparable
        # verdict and still report the divergence, not raise.
        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "hardwired", _PastEndCapture()
        )
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault("saf:2:1:1")
        )
        by_name = {r.architecture: r for r in result.responses}
        hardwired = by_name.pop("hardwired")
        assert hardwired.status == "diverged"
        assert hardwired.layer == "events"
        assert hardwired.divergence.reference is None
        assert hardwired.divergence.candidate.op_index == (
            hardwired.ops_applied
        )
        assert hardwired.diagnosis == [
            "<classifier failed: list index out of range>"
        ]
        assert [r.status for r in by_name.values()] == ["ok", "ok"]
        assert all(
            r.diagnosis == ["(2,1): SA1/TF-down"] for r in by_name.values()
        )


class _DefectiveAggregation(ResponseCapture):
    """Events intact, downstream aggregation broken — exercises the
    coarser comparison layers the event diff cannot reach."""

    def __init__(self, capture, drop_address=None, shift_log_index=0):
        super().__init__(
            ops_applied=capture.ops_applied, events=list(capture.events)
        )
        self._drop_address = drop_address
        self._shift = shift_log_index

    def log(self, test_name):
        failures = super().log(test_name).failures
        if self._drop_address is not None:
            failures = [
                f for f in failures if f.address != self._drop_address
            ]
        if self._shift:
            failures = [
                dataclasses.replace(f, op_index=f.op_index + self._shift)
                for f in failures
            ]
        return FailLog(test_name=test_name, failures=failures)


class TestCoarserLayers:
    def _patched(self, monkeypatch, **kwargs):
        def defective(stream, memory, max_ops=None):
            return _DefectiveAggregation(
                capture_response(stream, memory, max_ops=max_ops),
                **kwargs,
            )

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "hardwired", defective
        )

    def test_faillog_layer_divergence(self, monkeypatch):
        # af3 aliases two addresses, so the golden log fails at both;
        # the defective aggregation silently drops one of them.
        self._patched(monkeypatch, drop_address=0)
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault("af3:0:1")
        )
        failing = result.failures[0]
        assert failing.status == "diverged"
        assert failing.layer == "faillog"
        assert "failing cells" in failing.mismatch

    def test_diagnosis_layer_divergence(self, monkeypatch):
        # Same cells, shifted op indices: the fail log aggregations
        # agree but the classifier reads different march contexts.
        self._patched(monkeypatch, shift_log_index=1)
        result = check_fault_conformance(
            library.get("March C"), CAPS, parse_fault("saf:2:1:1")
        )
        failing = result.failures[0]
        assert failing.status == "diverged"
        assert failing.layer == "diagnosis"

    #: Faults that fail at address 0 (what the drop-address defect
    #: removes) and elsewhere, with and without retention pauses.
    SWEEP_TESTS = [library.get("March C"), library.get("March C+")]
    SWEEP_FAULTS = ["af3:0:1", "saf:0:0:1", "saf:2:1:1", "tf:1:0:up",
                    "drf:1:0:1", "cfin:1:0:2:0:up", "saf:0:1:0"]

    @pytest.mark.parametrize("defect, layer", [
        ({"drop_address": 0}, "faillog"),
        ({"shift_log_index": 1}, "diagnosis"),
    ], ids=["drop-address", "shift-index"])
    def test_sweep_memo_matches_per_pair_checks(
        self, monkeypatch, defect, layer
    ):
        """A sweep memoises fail-log aggregations per stimulus; a
        per-pair check resolves a fresh stimulus every time.  Keyed by
        the log, the memo never hands a defective aggregation the
        golden one's layers, so both agree record for record."""
        self._patched(monkeypatch, **defect)
        faults = [parse_fault(spec) for spec in self.SWEEP_FAULTS]
        report = run_fault_sweep(self.SWEEP_TESTS, CAPS, faults)
        expected = FaultSweepReport(geometry=report.geometry)
        by_pair = {}
        for test in self.SWEEP_TESTS:
            results = {
                index: check_fault_conformance(test, CAPS, faults[index])
                for index in reversed(range(len(faults)))
            }
            for index in range(len(faults)):
                expected.add(results[index])
                by_pair[format_test(test), self.SWEEP_FAULTS[index]] = (
                    results[index]
                )
        assert any(
            failure["architectures"][-1]["layer"] == layer
            for failure in report.failures
        )
        for failure in report.failures:
            pair = by_pair[failure["notation"], failure["fault_spec"]]
            *others, hardwired = failure["architectures"]
            assert [other["status"] for other in others] == ["ok", "ok"]
            (alone,) = pair.failures
            assert hardwired["architecture"] == alone.architecture
            assert hardwired["layer"] == alone.layer
            assert hardwired["mismatch"] == alone.mismatch
            assert hardwired["failing_cells"] == [
                list(cell) for cell in alone.failing_cells
            ]
            assert hardwired["diagnosis"] == alone.diagnosis
        assert _payload(report) == _payload(expected)

    @pytest.mark.parametrize("defect", [None, {"drop_address": 0}],
                             ids=["healthy", "drop-address"])
    def test_classifier_runs_once_per_distinct_log(self, monkeypatch, defect):
        from repro.diagnostics import classifier

        if defect:
            self._patched(monkeypatch, **defect)
        classify = classifier.classify
        classified, captured = [], []

        def spy(log, *args, **kwargs):
            classified.append(tuple(log.failures))
            return classify(log, *args, **kwargs)

        def recording(capture_fn):
            def record(stream, memory, max_ops=None):
                capture = capture_fn(stream, memory, max_ops=max_ops)
                captured.append(tuple(capture.log("").failures))
                return capture

            return record

        monkeypatch.setattr(classifier, "classify", spy)
        monkeypatch.setattr(
            faulty_check, "capture_response",
            recording(faulty_check.capture_response),
        )
        for architecture, capture_fn in list(
            faulty_check.RESPONSE_CAPTURES.items()
        ):
            monkeypatch.setitem(
                faulty_check.RESPONSE_CAPTURES, architecture,
                recording(capture_fn),
            )
        faults = [parse_fault(spec) for spec in self.SWEEP_FAULTS]
        for test in self.SWEEP_TESTS:
            classified.clear()
            captured.clear()
            # One test, one shard: the whole sweep is one Stimulus.
            report = run_fault_sweep([test], CAPS, faults)
            assert report.checked == len(faults)
            assert len(classified) == len(set(classified))
            assert set(classified) == set(captured)
            assert len(classified) < len(captured)


class TestFaultAxisShrinking:
    def test_spec_size_strictly_decreases(self):
        for spec in ("cfid:3:1:2:0:down:1", "af3:2:1", "tf:4:0:down"):
            size = _spec_size(spec)
            for candidate in simpler_fault_specs(spec):
                assert _spec_size(candidate) < size

    def test_canonical_swap_tried_first(self):
        first = next(simpler_fault_specs("cfin:1:0:2:0:up"))
        assert first == "saf:0:0:0"

    def test_non_reproducing_triple_unchanged(self):
        result = shrink_faulty_sample(
            library.get("MATS"),
            CAPS,
            "saf:1:0:1",
            fault_response_predicate(),
        )
        assert not result.reduced
        assert result.fault_spec == "saf:1:0:1"
        assert result.checks == 1

    def test_structural_predicate_shrinks_all_three_axes(self):
        # Reproduces whenever the fault touches an odd-polarity SAF and
        # the march still reads — independent of the architecture, so
        # the shrinker's own mechanics are isolated from the checkers.
        def predicate(test, caps, spec):
            fault = parse_fault(spec)
            return (
                getattr(fault, "value", None) == 1
                and any(
                    op.is_read
                    for item in test.elements
                    for op in item.ops
                )
            )

        result = shrink_faulty_sample(
            library.get("March C"),
            ControllerCapabilities(n_words=6, width=4, ports=2),
            "saf:5:3:1",
            predicate,
        )
        assert result.reduced
        assert result.geometry == (1, 1, 1)
        assert result.fault_spec == "saf:0:0:1"
        assert result.to_dict()["fault"] == "saf:0:0:1"


def _regrouping_stratified_sample(universe, per_kind, seed):
    """``stratified_sample`` as it was when it regrouped the universe
    for every kind: the reference its one-grouping form must match."""
    import random

    from repro.conformance.faulty.sampling import spec_expressible

    rng = random.Random(seed)
    sample = []
    for kind in universe.kinds():
        population = spec_expressible(universe.by_kind()[kind])
        if not population:
            continue
        if len(population) <= per_kind:
            sample.extend(population)
            continue
        picks = [population[0], population[-1]]
        middle = population[1:-1]
        rng.shuffle(middle)
        picks.extend(middle)
        sample.extend(picks[:per_kind])
    return sample


class TestSampling:
    def test_stratified_sample_covers_every_kind(self):
        universe = standard_universe(4, width=1, include_npsf=False)
        sample = stratified_sample(universe, per_kind=2)
        assert {f.kind for f in sample} == set(universe.kinds())
        assert all(format_fault(f) is not None for f in sample)

    def test_stratified_sample_deterministic(self):
        universe = standard_universe(4, width=1, include_npsf=False)
        a = [format_fault(f) for f in stratified_sample(universe, seed=7)]
        b = [format_fault(f) for f in stratified_sample(universe, seed=7)]
        assert a == b

    @pytest.mark.parametrize("per_kind", [1, 2, 3])
    @pytest.mark.parametrize("geometry", [(4, 2, 2), (8, 1, 1), (5, 4, 2)])
    def test_one_grouping_draws_the_per_kind_sample(
        self, geometry, per_kind, monkeypatch
    ):
        """The universe is grouped by kind once, and the sample is the
        one a regrouping per kind drew."""
        n_words, width, ports = geometry
        universe = standard_universe(
            n_words, width=width, include_npsf=False, ports=ports
        )
        expected = [
            format_fault(fault)
            for fault in _regrouping_stratified_sample(
                universe, per_kind=per_kind, seed=3
            )
        ]
        calls = []
        by_kind = universe.by_kind

        def counted():
            calls.append(1)
            return by_kind()

        monkeypatch.setattr(universe, "by_kind", counted)
        sample = stratified_sample(universe, per_kind=per_kind, seed=3)
        assert [format_fault(fault) for fault in sample] == expected
        assert len(calls) == 1

    def test_random_fault_is_seed_deterministic(self):
        import random

        caps = ControllerCapabilities(n_words=5, width=2, ports=1)
        a = format_fault(random_fault(random.Random("3:17"), caps))
        b = format_fault(random_fault(random.Random("3:17"), caps))
        assert a == b

    def test_random_fault_spreads_over_kinds(self):
        import random

        rng = random.Random(0)
        caps = ControllerCapabilities(n_words=4, width=1, ports=1)
        kinds = {random_fault(rng, caps).kind for _ in range(60)}
        assert len(kinds) >= 5  # uniform over kinds, not instances


class TestPortUniverse:
    """The sweep universe must see port faults on multi-port geometries
    (regression: ``sweep_faults`` never passed ``capabilities.ports``,
    so ``repro.faults.port`` faults were never swept)."""

    def test_default_universe_has_no_port_stratum(self):
        universe = standard_universe(4, width=2, include_npsf=False)
        assert "PAF" not in universe.kinds()
        explicit = standard_universe(4, width=2, include_npsf=False, ports=1)
        assert [format_fault(f) for f in explicit] == [
            format_fault(f) for f in universe
        ]

    def test_multiport_universe_gains_one_paf_per_cell_per_port(self):
        universe = standard_universe(4, width=2, include_npsf=False, ports=2)
        port_faults = universe.by_kind()["PAF"]
        assert len(port_faults) == 2 * 4 * 2  # ports x words x width
        specs = {format_fault(f) for f in port_faults}
        assert "paf:0:0:0" in specs and "paf:1:3:1" in specs
        # Only the port stratum is new; the rest of the population is
        # untouched.
        base = standard_universe(4, width=2, include_npsf=False)
        assert len(universe) == len(base) + len(port_faults)

    def test_stratified_sample_includes_the_port_stratum(self):
        universe = standard_universe(3, width=1, include_npsf=False, ports=2)
        sample = stratified_sample(universe, per_kind=2)
        assert sum(1 for f in sample if f.kind == "PAF") == 2

    def test_sweep_faults_threads_ports(self):
        multiport = ControllerCapabilities(n_words=3, width=1, ports=2)
        sample = sweep_faults(multiport, per_kind=1)
        assert any(
            format_fault(f).startswith("paf:") for f in sample
        ), "port faults missing from the multi-port sweep population"
        single = sweep_faults(
            ControllerCapabilities(n_words=3, width=1, ports=1), per_kind=1
        )
        assert not any(format_fault(f).startswith("paf:") for f in single)

    def test_full_universe_counts_pinned(self):
        caps = ControllerCapabilities(n_words=4, width=2, ports=2)
        full = sweep_faults(caps, full=True)
        counts = {}
        for fault in full:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        assert counts["PAF"] == 16
        assert len(full) == 328 + 16

    def test_multiport_sweep_conforms_under_port_faults(self):
        caps = ControllerCapabilities(n_words=2, width=1, ports=2)
        faults = [f for f in sweep_faults(caps, per_kind=2)
                  if f.kind == "PAF"]
        assert faults
        report = run_fault_sweep([library.get("March C")], caps, faults)
        assert report.ok, report.format()


def _payload(report, include_timing=False):
    return json.dumps(
        report.to_json(include_timing=include_timing), sort_keys=True
    )


class TestParallelSweep:
    def test_jobs_independent_payload(self):
        """Sharded and serial sweeps must agree byte-for-byte (timing
        aside), same as the fuzz determinism guarantee."""
        caps = ControllerCapabilities(n_words=3, width=1, ports=1)
        faults = sweep_faults(caps, per_kind=1)
        tests = [library.get(name) for name in library.ALGORITHMS]
        serial = run_fault_sweep(tests, caps, faults, jobs=1)
        parallel = run_fault_sweep(tests, caps, faults, jobs=4)
        assert _payload(serial) == _payload(parallel)
        assert parallel.jobs == 4
        assert len(parallel.shards) > 1
        assert sum(s["runs"] for s in parallel.shards) == serial.checked
        assert parallel.wall_time_s > 0

    def test_timing_lives_only_under_the_timing_key(self):
        caps = ControllerCapabilities(n_words=2, width=1, ports=1)
        report = run_fault_sweep(
            [library.get("MATS")], caps, sweep_faults(caps, per_kind=1)
        )
        payload = report.to_json()
        assert payload["timing"]["jobs"] == 1
        assert payload["timing"]["wall_time_s"] > 0
        assert payload["timing"]["runs_per_s"] > 0
        assert payload["timing"]["shards"][0]["runs"] == report.checked
        assert "timing" not in report.to_json(include_timing=False)

    def test_merge_matches_the_serial_report(self):
        caps = ControllerCapabilities(n_words=3, width=1, ports=1)
        tests = [library.get("MATS"), library.get("March C")]
        faults = [parse_fault(s)
                  for s in ("saf:0:0:1", "tf:1:0:up", "drf:1:0:1")]
        serial = run_fault_sweep(tests, caps, faults)
        shards = [run_fault_sweep([test], caps, faults) for test in tests]
        merged = FaultSweepReport.merge(shards)
        assert _payload(merged) == _payload(serial)

    def test_merge_rejects_mixed_geometries(self):
        a = FaultSweepReport(geometry=(2, 1, 1))
        b = FaultSweepReport(geometry=(3, 1, 1))
        with pytest.raises(ValueError, match="different geometries"):
            FaultSweepReport.merge([a, b])
        with pytest.raises(ValueError, match="empty"):
            FaultSweepReport.merge([])

    def test_non_positive_jobs_rejected(self):
        caps = ControllerCapabilities(n_words=2, width=1, ports=1)
        with pytest.raises(ValueError, match="at least one job"):
            run_fault_sweep(
                [library.get("MATS")], caps, [parse_fault("saf:0:0:1")],
                jobs=0,
            )

    def test_failure_lines_carry_geometry_and_layer(self, monkeypatch):
        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "progfsm",
            _ShiftedIndexCapture(),
        )
        report = run_fault_sweep(
            [library.get("March C")], CAPS, [parse_fault("saf:2:1:1")]
        )
        assert not report.ok
        line = report.format().splitlines()[-1]
        assert "(4, 2, 1)" in line
        assert "progfsm" in line and "events layer" in line

    def test_error_failure_lines_name_the_architecture(self, monkeypatch):
        def crashed(stream, memory, max_ops=None):
            raise IndexError("comparator bank out of range")

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "microcode", crashed
        )
        report = run_fault_sweep(
            [library.get("MATS")], CAPS, [parse_fault("saf:0:0:1")]
        )
        assert "microcode: error" in report.format().splitlines()[-1]


class TestMultiGeometrySweeps:
    def test_sections_per_geometry(self):
        report = run_fault_sweeps(
            [(3, 1, 1), (2, 2, 1)], [library.get("MATS+")], per_kind=1
        )
        assert report.ok, report.format()
        assert [s.geometry for s in report.sweeps] == [(3, 1, 1), (2, 2, 1)]
        payload = report.to_json()
        assert [g["geometry"] for g in payload["geometries"]] == [
            [3, 1, 1], [2, 2, 1]
        ]
        assert payload["checked"] == report.checked
        assert payload["timing"]["wall_time_s"] > 0
        formatted = report.format()
        assert "(3, 1, 1)" in formatted and "(2, 2, 1)" in formatted

    @pytest.mark.parametrize(
        "count, noun", [(1, "1 geometry"), (2, "2 geometries")]
    )
    def test_summary_counts_geometries_in_words(self, count, noun):
        sweeps = [
            faulty_check.FaultSweepReport(geometry=(2 + index, 1, 1))
            for index in range(count)
        ]
        report = faulty_check.MultiGeometrySweepReport(sweeps=sweeps)
        assert report.format().splitlines()[0] == (
            f"multi-geometry fault-response sweep: {noun}, 0 runs, "
            "0 failure(s)"
        )

    def test_two_component_geometry_defaults_to_one_port(self):
        report = run_fault_sweeps([(2, 2)], [library.get("MATS")],
                                  per_kind=1)
        assert report.sweeps[0].geometry == (2, 2, 1)

    def test_multiport_geometry_draws_its_own_population(self):
        caps = ControllerCapabilities(n_words=2, width=1, ports=2)
        report = run_fault_sweeps(
            [(2, 1, 1), (2, 1, 2)], [library.get("March C")], per_kind=1
        )
        single, multi = report.sweeps
        assert multi.checked == len(sweep_faults(caps, per_kind=1))
        assert multi.checked > single.checked  # the PAF stratum

    def test_explicit_faults_reused_for_every_geometry(self):
        report = run_fault_sweeps(
            [(3, 1, 1), (2, 1, 1)],
            [library.get("MATS")],
            faults=[parse_fault("saf:0:0:1")],
        )
        assert [s.checked for s in report.sweeps] == [1, 1]

    def test_empty_geometry_list_rejected(self):
        with pytest.raises(ValueError, match="at least one geometry"):
            run_fault_sweeps([], [library.get("MATS")])


class TestGoldenTraceMemoisation:
    def test_cache_hit_during_a_shrink(self):
        """The perf regression: a shrink run must reuse memoised golden
        expansions instead of re-expanding the champion every check.
        The predicate rejects n_words < 2, so the geometry probe of
        (1, 1, 1) is retried in the second fixpoint round with identical
        champion state — that repeat must be served from the cache."""
        GOLDEN_CACHE.clear()

        def predicate(test, caps):
            check_conformance(test, caps)
            return caps.n_words >= 2

        from repro.conformance import shrink_sample

        shrink_sample(
            library.get("March C"),
            ControllerCapabilities(n_words=4, width=1, ports=1),
            predicate,
            max_checks=100,
        )
        assert GOLDEN_CACHE.hits > 0

    def test_cache_key_is_notation_and_geometry(self):
        cache = GoldenTraceCache()
        test = library.get("MATS")
        first = cache.get(test, CAPS)
        second = cache.get(test, CAPS)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        other = cache.get(
            test, ControllerCapabilities(n_words=2, width=1, ports=1)
        )
        assert other is not first
        assert cache.misses == 2

    def test_cache_is_bounded(self):
        cache = GoldenTraceCache(maxsize=2)
        for n_words in (1, 2, 3):
            cache.get(
                library.get("MATS"),
                ControllerCapabilities(n_words=n_words, width=1, ports=1),
            )
        assert len(cache) == 2

    def test_fault_check_uses_the_shared_cache(self):
        GOLDEN_CACHE.clear()
        check_fault_conformance(
            library.get("MATS"), CAPS, parse_fault("saf:0:0:1")
        )
        check_fault_conformance(
            library.get("MATS"), CAPS, parse_fault("saf:0:0:0")
        )
        assert GOLDEN_CACHE.hits >= 1


#: Two march tests (March B is outside progfsm's SM0–SM7 boundary;
#: March C+ pauses, so retention faults fire) and a pseudo-ring session.
BUILD_ONCE_TESTS = [library.get("March B"), library.get("March C+"),
                    PRT_RING_UP]
#: Stateful faults among them: retention (DRF), stuck-open (SOF) and
#: read-destructive (RDF/DRDF) state is what the injector must reset
#: between runs, so streams reused across faults must not carry it.
STATEFUL_FAULTS = ["saf:2:1:1", "tf:1:0:up", "drf:1:0:1", "drf:2:1:0",
                   "sof:3:0:1", "rdf:0:1:1", "drdf:2:0:0",
                   "cfin:1:0:2:0:up", "af2:0:2"]


@pytest.fixture()
def build_counts(monkeypatch):
    """Count every controller stream build.

    March builds are keyed ``(test name, architecture)``; pseudo-ring
    builds ``(session config, "session" | "prt-controller")``.
    """
    from collections import Counter

    from repro.prt.controller import PrtController
    from repro.prt.session import PrtSession

    counts = Counter()
    for architecture, builder in list(faulty_check.STREAM_BUILDERS.items()):
        def counted(test, caps, compress, _arch=architecture, _build=builder):
            counts[test.name, _arch] += 1
            return _build(test, caps, compress)

        monkeypatch.setitem(
            faulty_check.STREAM_BUILDERS, architecture, counted
        )
    session_stream = PrtSession.attributed_stream
    controller_stream = PrtController.attributed_stream

    def counted_session(self, caps):
        counts[self.config, "session"] += 1
        return session_stream(self, caps)

    def counted_controller(self):
        counts[self.config, "prt-controller"] += 1
        return controller_stream(self)

    monkeypatch.setattr(PrtSession, "attributed_stream", counted_session)
    monkeypatch.setattr(
        PrtController, "attributed_stream", counted_controller
    )
    return counts


def _expected_builds(tests, per_test):
    """Build counts when test ``i`` is resolved ``per_test[i]`` times.

    A pseudo-ring session builds its stream twice per resolve: once as
    the golden reference and once as the independent ``replay``.
    """
    expected = {}
    for test, resolves in zip(tests, per_test):
        if test is PRT_RING_UP:
            expected[test.config, "session"] = 2 * resolves
            expected[test.config, "prt-controller"] = resolves
        else:
            for architecture in faulty_check.ARCHITECTURES:
                expected[test.name, architecture] = resolves
    return expected


class TestStreamsBuiltOncePerShard:
    """A controller's stream depends on (test, geometry, compression),
    never on the fault: a sweep builds it once per (shard, test) and
    only captures and compares per pair."""

    FAULTS = [parse_fault(spec) for spec in STATEFUL_FAULTS[:6]]

    def test_serial_sweep_builds_each_stream_once(self, build_counts):
        report = run_fault_sweep(BUILD_ONCE_TESTS, CAPS, self.FAULTS)
        assert report.ok
        assert report.checked == len(BUILD_ONCE_TESTS) * len(self.FAULTS)
        assert dict(build_counts) == _expected_builds(
            BUILD_ONCE_TESTS, [1] * len(BUILD_ONCE_TESTS)
        )

    def test_sharded_sweep_builds_once_per_shard_and_test(
        self, build_counts, tmp_path
    ):
        from repro.service.store import ResultStore

        report = run_fault_sweep(
            BUILD_ONCE_TESTS, CAPS, self.FAULTS,
            store=ResultStore(tmp_path / "store"),
        )
        assert report.ok
        assert len(report.shards) > len(BUILD_ONCE_TESTS)
        # Shards are contiguous product chunks, merged in shard order.
        per_test = [0] * len(BUILD_ONCE_TESTS)
        start = 0
        for shard in report.shards:
            end = start + shard["runs"]
            first, last = start, end - 1
            for test_index in range(
                first // len(self.FAULTS), last // len(self.FAULTS) + 1
            ):
                per_test[test_index] += 1
            start = end
        assert max(per_test) > 1  # some test really spans two shards
        assert dict(build_counts) == _expected_builds(
            BUILD_ONCE_TESTS, per_test
        )

    @pytest.mark.parametrize("sharding", ["store", "jobs"])
    def test_whole_test_shards_build_each_stream_once(
        self, monkeypatch, tmp_path, sharding
    ):
        """Once a shard holds a whole test, shards are cut on test
        boundaries: every test's streams are built in exactly one shard,
        in this process (``store=``) or in a forked worker (``jobs=2``),
        so builds are logged to a file both can append to."""
        from collections import Counter

        from repro.service.store import ResultStore

        tests = [library.get(name) for name in library.ALGORITHMS]
        faults = self.FAULTS[:2]
        serial = run_fault_sweep(tests, CAPS, faults)
        log = tmp_path / "builds.log"
        for architecture, builder in list(
            faulty_check.STREAM_BUILDERS.items()
        ):
            def logged(test, caps, compress, _arch=architecture,
                       _build=builder):
                with open(log, "a") as handle:
                    handle.write(f"{test.name}\t{_arch}\n")
                return _build(test, caps, compress)

            monkeypatch.setitem(
                faulty_check.STREAM_BUILDERS, architecture, logged
            )
        if sharding == "store":
            options = {"store": ResultStore(tmp_path / "store")}
        else:
            options = {"jobs": 2}
        report = run_fault_sweep(tests, CAPS, faults, **options)
        assert len(report.shards) > 1
        assert all(
            shard["runs"] % len(faults) == 0 for shard in report.shards
        )
        builds = Counter(
            tuple(line.split("\t")) for line in log.read_text().splitlines()
        )
        assert builds == Counter({
            (test.name, architecture): 1
            for test in tests
            for architecture in faulty_check.ARCHITECTURES
        })
        assert _payload(report) == _payload(serial)

    @pytest.mark.parametrize("raised, detail", [
        (RuntimeError("cycle bound 100000 exceeded"),
         "simulation did not terminate: cycle bound 100000 exceeded"),
        (ValueError("bad opcode"), "controller crashed: ValueError"),
    ])
    def test_failed_build_is_recorded_once_and_replayed(
        self, monkeypatch, raised, detail
    ):
        calls = []

        def broken(test, caps, compress):
            calls.append(test.name)
            raise raised

        monkeypatch.setitem(faulty_check.STREAM_BUILDERS, "hardwired", broken)
        report = run_fault_sweep([library.get("MATS")], CAPS, self.FAULTS)
        assert calls == ["MATS"]
        assert len(report.failures) == len(self.FAULTS)
        for failure in report.failures:
            microcode, progfsm, hardwired = failure["architectures"]
            assert microcode["status"] == progfsm["status"] == "ok"
            assert hardwired["status"] == "error"
            assert hardwired["detail"].startswith(detail)

    @pytest.mark.parametrize("notation, caps, raised", [
        ("~(w0); ^(r0)", CAPS, RuntimeError("cycle bound 100000 exceeded")),
        ("~(w0); ^(r0)", CAPS, ValueError("bad opcode")),
        ("~(w0); ^(r0)", CAPS, CompileError("no SM0-SM7 element")),
        # The real assembler rejects a pause that is not a power of two.
        ("~(w0); Del(3); ^(r0)", ControllerCapabilities(4, 1, 1), None),
    ], ids=["hang", "crash", "not-realisable", "assembler-rejects-pause"])
    def test_stimulus_and_response_checks_classify_builds_alike(
        self, monkeypatch, notation, caps, raised
    ):
        """Both checks run on one differential loop, so a partner whose
        build fails gets the same status and text from each."""
        if raised is not None:
            def broken(test, caps, compress):
                raise raised

            monkeypatch.setitem(faulty_check.STREAM_BUILDERS, "microcode",
                                broken)
        test = parse_test(notation, name="sample")
        stimulus = check_conformance(test, caps)
        response = check_fault_conformance(
            test, caps, parse_fault("saf:0:0:1")
        )
        arch = stimulus.results[0]
        status = (
            "skipped" if arch.skipped is not None
            else "error" if arch.error is not None
            else "ok"
        )
        assert arch.architecture == response.responses[0].architecture
        assert status == response.responses[0].status != "ok"
        assert (arch.skipped or arch.error) == response.responses[0].detail
        assert [r.ok for r in stimulus.results[1:]] == [True, True]

    def test_skip_is_replayed_to_every_pair(self, build_counts):
        report = run_fault_sweep(
            [library.get("March B")], CAPS, self.FAULTS
        )
        assert report.ok
        assert report.skipped_runs == len(self.FAULTS)
        assert build_counts["March B", "progfsm"] == 1

    @pytest.mark.parametrize("defect", [False, True])
    def test_reused_streams_carry_no_fault_state(self, monkeypatch, defect):
        """The sweep (streams reused across faults) equals per-pair
        checks (everything rebuilt) run over the population in reverse
        order.  The planted fail-log defect turns every detected pair
        into a failure record, so whole responses are compared."""
        if defect:
            monkeypatch.setitem(
                faulty_check.RESPONSE_CAPTURES, "hardwired",
                _ShiftedIndexCapture(),
            )
        faults = [parse_fault(spec) for spec in STATEFUL_FAULTS]
        report = run_fault_sweep(BUILD_ONCE_TESTS, CAPS, faults)
        expected = FaultSweepReport(geometry=report.geometry)
        for test in BUILD_ONCE_TESTS:
            results = {
                index: check_fault_conformance(test, CAPS, faults[index])
                for index in reversed(range(len(faults)))
            }
            for index in range(len(faults)):
                expected.add(results[index])
        assert report.detected > 0
        assert bool(report.failures) == defect
        assert _payload(report) == _payload(expected)


#: The geometry the golden-capture sharing tests run on: every
#: realisable controller stream equals golden there.
SHARE_CAPS = ControllerCapabilities(n_words=4, width=2, ports=2)


def _every_kind_population(caps):
    """``sweep_faults(caps, full=True)`` plus one member of each
    :data:`KINDS` row it lacks (no spec form or not sequential)."""
    faults = list(sweep_faults(caps, full=True))
    extra = [
        *standard_universe(
            caps.n_words, width=caps.width, ports=caps.ports
        ).faults,
        *linked_cfid_universe(caps.n_words),
        *concurrent_fault_universe(caps.n_words, caps.width, caps.ports),
        PortRestrictedFault(1, StuckAtFault(2, 1, 1)),
    ]
    for row in KINDS:
        if not any(type(fault) is row.cls for fault in faults):
            faults.append(next(f for f in extra if type(f) is row.cls))
    return faults


def _flipped_first_read(builder):
    """``builder`` with its stream's first read expecting the other
    value: a controller that is not stimulus-conformant."""
    def flipped(test, caps, compress):
        stream = list(builder(test, caps, compress))
        index = next(i for i, e in enumerate(stream) if e.op.is_read)
        entry = stream[index]
        stream[index] = dataclasses.replace(entry, op=dataclasses.replace(
            entry.op, expected=entry.op.expected ^ 1
        ))
        return stream

    return flipped


class TestGoldenCaptureSharing:
    """A controller partner whose stream is the golden stream, captured
    through the golden path, reuses the golden capture of the pair."""

    def test_capture_is_a_function_of_the_ops_alone(self):
        """The premise of sharing: one injector, one stream, one fault
        give equal captures however often, and whatever fault was
        injected in between."""
        faults = _every_kind_population(SHARE_CAPS)
        assert len(sweep_faults(SHARE_CAPS, full=True)) == 344
        assert {type(fault) for fault in faults} == {
            row.cls for row in KINDS
        }
        stream = GOLDEN_CACHE.get(library.get("March C+"), SHARE_CAPS)
        assert any(entry.op.is_delay for entry in stream)
        injector = FaultInjector(Sram(
            SHARE_CAPS.n_words, width=SHARE_CAPS.width,
            ports=SHARE_CAPS.ports,
        ))

        def capture(fault):
            with injector.injected(fault) as memory:
                return capture_response(stream, memory)

        detected = 0
        for index, fault in enumerate(faults):
            first, again = capture(fault), capture(fault)
            capture(faults[index - 1])
            after_other = capture(fault)
            assert first == again == after_other, fault.describe()
            detected += first.detected
        assert detected > 0

    @pytest.fixture
    def capture_calls(self, monkeypatch):
        """Every capture the differential loop makes, counted through
        one wrapper per capture function, installed the way a profiler
        would: golden and controller paths stay identical."""
        calls = []

        def counted(capture_fn):
            def count(stream, memory, max_ops=None):
                calls.append(len(stream))
                return capture_fn(stream, memory, max_ops=max_ops)

            return count

        shared = counted(faulty_check.capture_response)
        monkeypatch.setattr(faulty_check, "capture_response", shared)
        for architecture in list(faulty_check.RESPONSE_CAPTURES):
            monkeypatch.setitem(
                faulty_check.RESPONSE_CAPTURES, architecture, shared
            )
        monkeypatch.setattr(
            faulty_check, "capture_cycle_response",
            counted(faulty_check.capture_cycle_response),
        )
        return calls

    LIBRARY = [library.get(name) for name in library.ALGORITHMS]

    def test_library_sweep_captures_once_per_pair(
        self, monkeypatch, capture_calls
    ):
        faults = sweep_faults(SHARE_CAPS, per_kind=1)
        report = run_fault_sweep(self.LIBRARY, SHARE_CAPS, faults)
        assert report.ok, report.format()
        assert report.skipped_runs > 0  # progfsm outside SM0-SM7
        assert len(capture_calls) == report.checked
        # Distinct capture objects defeat the identity precondition:
        # every realised partner captures on its own memory, and the
        # report is the same byte for byte.
        for architecture in list(faulty_check.RESPONSE_CAPTURES):
            monkeypatch.setitem(
                faulty_check.RESPONSE_CAPTURES, architecture,
                lambda *args, **kwargs: capture_response(*args, **kwargs),
            )
        own = run_fault_sweep(self.LIBRARY, SHARE_CAPS, faults)
        assert _payload(own) == _payload(report)

    @pytest.mark.parametrize("stimulus, mode", [
        (PRT_RING_UP, "sequential"),
        (library.get("MATS+"), "infield"),
        (library.get("MATS+"), "concurrent"),
    ], ids=["prt", "infield", "concurrent"])
    def test_replay_and_prt_partners_capture_on_their_own(
        self, capture_calls, stimulus, mode
    ):
        faults = sweep_faults(PARTNER_CAPS, per_kind=1)
        report = run_fault_sweep([stimulus], PARTNER_CAPS, faults, mode=mode)
        assert report.ok, report.format()
        partners = len(faulty_check.resolve_stimulus(
            stimulus, PARTNER_CAPS, mode
        ).partners)
        assert len(capture_calls) == report.checked * (1 + partners)

    def test_non_conformant_stream_still_diverges(
        self, monkeypatch, capture_calls
    ):
        monkeypatch.setitem(
            faulty_check.STREAM_BUILDERS, "hardwired",
            _flipped_first_read(faulty_check.STREAM_BUILDERS["hardwired"]),
        )
        faults = sweep_faults(SHARE_CAPS, per_kind=1)
        report = run_fault_sweep(self.LIBRARY, SHARE_CAPS, faults)
        # One golden capture per pair, plus the hardwired partner's own.
        assert len(capture_calls) == 2 * report.checked
        assert len(report.failures) == report.checked
        result = check_fault_conformance(
            library.get("March C"), SHARE_CAPS, parse_fault("saf:2:1:1")
        )
        [hardwired] = result.failures
        assert hardwired.status == "diverged"
        assert hardwired.layer == "events"
        assert hardwired.divergence.describe() == "\n".join([
            "hardwired fail log diverges from the golden response at "
            "event 0 (mismatch):",
            "  expected op 8: p0 r@2 expected 0 observed 2  "
            "<- item 1 ^(r0,w1) op 0",
            "  got      op 4: p0 r@0 expected 1 observed 0  "
            "<- hardwired state 2 (op r0)",
        ])
