"""The projected sweep engine against the scalar oracle.

Three layers of evidence that ``engine="vector"`` is a pure
performance change:

* **verdict level** — the support-projected replay of the verified
  golden stream must give :func:`capture_response`'s detected /
  not-detected verdict on an injected :class:`Sram` for every
  spec-expressible fault, for the library, the PRT sessions and
  in-field mode, on geometries from the degenerate (1,1,1) up to
  multi-bit multi-port;
* **report level** — ``run_fault_sweep`` payloads (timing aside) must
  be identical across engines and across ``jobs``;
* **fallback level** — everything outside the projection (subclassed
  faults, supports reaching outside the memory, patched capture
  tables, fault-free streams that already fail) must take the scalar
  path, be *counted*, and still match the scalar report byte for byte.
"""

import dataclasses
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.analysis.fuzz import random_march
from repro.conformance import (
    GOLDEN_CACHE,
    run_fault_sweep,
    sweep_faults,
)
from repro.conformance.faulty import check as faulty_check
from repro.conformance.faulty.check import (
    CrossEngineResult,
    FaultSweepReport,
    MultiGeometrySweepReport,
    resolve_stimulus,
)
from repro.conformance.faulty.events import (
    ResponseBudgetExceeded,
    capture_response,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.coupling import InversionCouplingFault
from repro.faults.injector import FaultInjector
from repro.faults.linked import CompositeFault, linked_cfid_universe
from repro.faults.port import PortRestrictedFault, PortStuckOpenAccess
from repro.faults.stuck_at import StuckAtFault
from repro.faults.universe import npsf_universe, standard_universe
from repro.march import library
from repro.march.notation import format_test, parse_test
from repro.march.projection import MarchProjection
from repro.memory.sram import Sram
from repro.prt import PRT_RING_DOWN, PRT_RING_UP
from repro.vector import sweep as vector_sweep
from repro.vector.sweep import (
    _decide,
    _GoldenIndex,
    _population,
    _projection,
)

MARCH_C = library.get("March C")
LIBRARY = [library.get(name) for name in library.ALGORITHMS]

#: Stimulus families of the verdict-level check: (tests, mode).
FAMILIES = {
    "library": (LIBRARY, "sequential"),
    "prt": ([PRT_RING_UP, PRT_RING_DOWN], "sequential"),
    "infield": (LIBRARY, "infield"),
}


def _caps(words, width=1, ports=1):
    return ControllerCapabilities(n_words=words, width=width, ports=ports)


def _scalar_capture(stream, caps, fault):
    memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
    memory.attach(fault)
    fault.reset()
    return capture_response(stream, memory)


def _payloads_equal(a, b):
    return a.to_json(include_timing=False) == b.to_json(include_timing=False)


def sweep_verdicts(stimulus, test, caps, faults, population, max_ops=None):
    """The vector sweep's verdict per fault (``None``: the scalar
    fallback) and the test's plan: the per-stratum decisions of
    ``_decide``, expanded through the shard's grouping ``population``."""
    plan = vector_sweep._plan_test(stimulus, test, caps, max_ops)
    verdicts = [None] * len(faults)
    if plan.detects is not None:
        decided, _ = _decide(plan, faults, population)
        for members, start, stop, detected in decided:
            for index in members[start:stop]:
                verdicts[index] = detected
    return verdicts, plan


class TestVerdictLevelEquivalence:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize(
        "geometry", [(1, 1, 1), (4, 2, 1), (8, 1, 1), (4, 2, 2)]
    )
    def test_full_universe_verdicts_match(self, geometry, family):
        """Every spec-expressible fault, verdict for verdict.

        ``sweep_faults(full=True)`` enumerates every stratum the
        universe generator knows (including the PAF stratum on the
        multi-port geometry and nothing but SAF/TF/retention on the
        degenerate single-cell one); each must be projected — no
        fallback — and agree with a full scalar capture of the golden
        stream.  March stimuli share one replay per stratum, so this
        also checks the stratum key.
        """
        caps = _caps(*geometry)
        tests, mode = FAMILIES[family]
        faults = sweep_faults(caps, full=True, mode=mode)
        population = _population(faults, caps.n_words)
        assert population[2] == []  # nothing loose
        injector = FaultInjector(
            Sram(caps.n_words, width=caps.width, ports=caps.ports)
        )
        for test in tests:
            stimulus = resolve_stimulus(test, caps, mode)
            verdicts, _ = sweep_verdicts(
                stimulus, test, caps, faults, population
            )
            golden = stimulus.golden().stream
            for fault, verdict in zip(faults, verdicts):
                with injector.injected(fault) as memory:
                    expected = capture_response(golden, memory).detected
                assert verdict is expected, (test.name, fault.describe())


def _notation_marches(count=24):
    """Fuzz-generated marches plus hand-written edge cases: a test whose
    fault-free run fails reads, pauses, and ANY-order elements."""
    marches = [
        random_march(random.Random(seed)) for seed in range(count)
    ]
    marches += [
        parse_test(notation, name=f"edge-{index}")
        for index, notation in enumerate((
            "^(w0); ^(r1)",
            "^(w0); Del(64); v(r0,w1); Del(64); ^(r1)",
            "~(w1); ~(r1,w0,r0); Del(8)",
            "v(w1,r1); ^(r0)",
        ))
    ]
    return marches


class TestNotationPath:
    """A sequential march's verdicts are read off its notation
    (:class:`MarchProjection`) instead of its materialised golden
    stream; each shortcut is checked against what it replaces."""

    MARCHES = LIBRARY + _notation_marches()

    @pytest.mark.parametrize("ports", [1, 2])
    @pytest.mark.parametrize("width", [1, 2, 8, 128])
    @pytest.mark.parametrize("words", [1, 3, 5])
    def test_symbolic_fault_free_check_matches_sram_capture(
        self, words, width, ports
    ):
        caps = _caps(words, width, ports)
        clean = []
        for test in self.MARCHES:
            notation = MarchProjection(test, words, width, ports)
            golden = GOLDEN_CACHE.get(test, caps)
            assert notation.length == len(golden), test.name
            capture = capture_response(
                golden, Sram(words, width=width, ports=ports)
            )
            assert (not notation.free_failures) is (not capture.events), (
                format_test(test)
            )
            clean.append(not capture.events)
        assert any(clean) and not all(clean)

    @pytest.mark.parametrize("geometry", [(4, 1, 1), (5, 4, 2), (3, 2, 3)])
    def test_notation_verdicts_match_the_golden_index(self, geometry):
        caps = _caps(*geometry)
        faults = list(
            standard_universe(caps.n_words, caps.width, ports=caps.ports)
            .faults
        ) + linked_cfid_universe(caps.n_words)
        population = _population(faults, caps.n_words)
        projections = population[0]
        assert None not in projections
        seen = set()
        stratified = 0
        for test in self.MARCHES:
            notation = MarchProjection(
                test, caps.n_words, caps.width, caps.ports
            )
            golden = _GoldenIndex(GOLDEN_CACHE.get(test, caps), caps)
            replays = []
            for fault, (addresses, _) in zip(faults, projections):
                detected = notation.detects(fault, addresses)
                assert detected is golden.detects(fault, addresses), (
                    format_test(test), fault.describe()
                )
                replays.append(detected)
            seen.update(replays)
            # One replay per stratum decides every member alike.
            verdicts, plan = sweep_verdicts(
                resolve_stimulus(test, caps), test, caps, faults, population
            )
            if plan.detects is not None:
                stratified += plan.stratified
                assert verdicts == replays, format_test(test)
        assert seen == {True, False}
        assert stratified

    @pytest.mark.parametrize("test", [MARCH_C, library.get("March B")])
    def test_budget_below_the_analytic_length_trips_like_scalar(self, test):
        caps = _caps(5, 2, 2)
        faults = [StuckAtFault(1, 0, 1), StuckAtFault(4, 1, 0)]
        length = MarchProjection(test, 5, 2, 2).length
        with pytest.raises(ResponseBudgetExceeded) as vector_error:
            run_fault_sweep(
                [test], caps, faults, max_ops=length - 1, engine="vector"
            )
        with pytest.raises(ResponseBudgetExceeded) as scalar_error:
            run_fault_sweep([test], caps, faults, max_ops=length - 1)
        assert str(vector_error.value) == str(scalar_error.value)
        vector = run_fault_sweep(
            [test], caps, faults, max_ops=length, engine="vector"
        )
        assert vector.fallback_runs == 0
        assert _payloads_equal(
            vector, run_fault_sweep([test], caps, faults, max_ops=length)
        )


class TestSweepLevelCases:
    def test_multiport_paf_detected_only_via_faulty_port(self):
        caps = _caps(4, 2, 2)
        fault = PortStuckOpenAccess(port=1, word=2, bit=1)
        vector = run_fault_sweep([MARCH_C], caps, [fault], engine="vector")
        scalar = run_fault_sweep([MARCH_C], caps, [fault])
        assert vector.fallback_runs == 0
        assert vector.detected == 1
        assert _payloads_equal(vector, scalar)
        capture = _scalar_capture(
            GOLDEN_CACHE.get(MARCH_C, caps), caps, fault
        )
        assert {event.port for event in capture.events} == {1}

    def test_budget_trip_matches_scalar_classification(self):
        """A golden stream over the op budget is a per-test fallback, so
        the sweep trips exactly as the scalar one does."""
        caps = _caps(4, 2, 1)
        faults = [StuckAtFault(0, 0, 1)]
        with pytest.raises(ResponseBudgetExceeded) as vector_error:
            run_fault_sweep(
                [MARCH_C], caps, faults, max_ops=3, engine="vector"
            )
        with pytest.raises(ResponseBudgetExceeded) as scalar_error:
            run_fault_sweep([MARCH_C], caps, faults, max_ops=3)
        assert str(vector_error.value) == str(scalar_error.value)


class _SubclassedStuckAt(StuckAtFault):
    """Same behaviour, unknown type: must take the scalar fallback
    (``support_of`` dispatches on the exact type, so a subclass that
    overrides hooks never gets a support it might not respect)."""


class _RemoveRaisesStuckAt(StuckAtFault):
    def remove(self, memory) -> None:
        raise RuntimeError("deliberately broken remove()")


def _cross_engine(tests, caps, faults, **kwargs) -> CrossEngineResult:
    """Sweep through both engines and pair the reports."""
    return CrossEngineResult(*(
        run_fault_sweep(tests, caps, faults, engine=engine, **kwargs)
        for engine in ("scalar", "vector")
    ))


class TestReportLevelEquivalence:
    TESTS = [library.get(name) for name in ("MATS", "March C", "March Y")]

    def test_cross_engine_identity_stratified(self):
        caps = _caps(4, 2, 1)
        faults = sweep_faults(caps, per_kind=1, seed=3)
        result = _cross_engine(self.TESTS, caps, faults)
        assert result.ok
        assert result.divergence() is None
        assert "IDENTICAL" in result.format()
        assert result.vector.engine == "vector"
        assert result.vector.checked == result.scalar.checked > 0

    def test_single_cell_geometry_sweep(self):
        caps = _caps(1, 1, 1)
        faults = sweep_faults(caps, full=True)
        result = _cross_engine(self.TESTS, caps, faults)
        assert result.ok
        assert result.scalar.checked == len(self.TESTS) * len(faults)

    def test_vector_jobs_independence(self):
        caps = _caps(4, 2, 1)
        faults = sweep_faults(caps, per_kind=1, seed=5)
        serial = run_fault_sweep(
            self.TESTS, caps, faults, engine="vector", jobs=1
        )
        sharded = run_fault_sweep(
            self.TESTS, caps, faults, engine="vector", jobs=3
        )
        assert _payloads_equal(serial, sharded)
        assert sharded.jobs == 3

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_fault_sweep(
                self.TESTS, _caps(4), [StuckAtFault(0, 0, 1)],
                engine="warp",
            )

    def test_cross_engine_divergence_formatting(self):
        """A synthetic disagreement names the first differing field."""
        scalar = FaultSweepReport(geometry=(4, 2, 1), checked=3, detected=2)
        vector = FaultSweepReport(
            geometry=(4, 2, 1), checked=3, detected=1, engine="vector"
        )
        result = CrossEngineResult(scalar=scalar, vector=vector)
        assert not result.ok
        assert result.divergence() == "detected: scalar 2 != vector 1"
        assert "DIVERGED" in result.format()
        assert result.to_json()["ok"] is False

    def test_cross_engine_divergence_names_the_nested_leaf(self):
        """Multi-geometry reports diverge inside a section: the message
        is the path to the differing leaf, not the top-level key."""
        def sweeps(second_detected, engine):
            return MultiGeometrySweepReport(sweeps=[
                FaultSweepReport(
                    geometry=(4, 2, 1), checked=3, detected=2,
                    engine=engine,
                ),
                FaultSweepReport(
                    geometry=(8, 1, 1), checked=3,
                    detected=second_detected, engine=engine,
                ),
            ])

        result = CrossEngineResult(
            scalar=sweeps(3, "scalar"), vector=sweeps(1, "vector")
        )
        assert result.divergence() == (
            "geometries[1].detected: scalar 3 != vector 1"
        )
        assert result.to_json()["divergence"] == result.divergence()
        text = result.format()
        assert "DIVERGED" in text
        assert text.endswith("geometries[1].detected: scalar 3 != vector 1")
        identical = CrossEngineResult(
            scalar=sweeps(3, "scalar"), vector=sweeps(3, "vector")
        )
        assert identical.ok and identical.divergence() is None

    def test_cross_engine_divergence_in_lists_and_keys(self):
        """Lists are walked item by item, a length difference is named,
        and so is a key only one side carries."""
        def section(failures=(), interrupted=False):
            return FaultSweepReport(
                geometry=(4, 1, 1), checked=1, failures=list(failures),
                interrupted=interrupted,
            )

        def divergence(scalar, vector):
            return CrossEngineResult(
                scalar=MultiGeometrySweepReport(sweeps=scalar),
                vector=MultiGeometrySweepReport(sweeps=vector),
            ).divergence()

        assert divergence([section(), section()], [section()]) == (
            "geometries: scalar has 2 item(s), vector 1"
        )
        assert divergence(
            [section([{"fault": "TF"}])], [section([{"fault": "SAF"}])]
        ) == "geometries[0].failures[0].fault: scalar 'TF' != vector 'SAF'"
        assert divergence([section(interrupted=True)], [section()]) == (
            "geometries[0].interrupted: only in the scalar payload"
        )

    def test_cross_engine_ok_needs_a_clean_oracle(self):
        """Identical payloads that carry failures are not ok."""
        failing = [{"fault": "SAF"}]
        result = CrossEngineResult(
            scalar=FaultSweepReport(
                geometry=(4, 1, 1), checked=1, failures=list(failing)
            ),
            vector=FaultSweepReport(
                geometry=(4, 1, 1), checked=1, failures=list(failing),
                engine="vector",
            ),
        )
        assert result.divergence() is None
        assert not result.ok
        assert result.to_json()["ok"] is False


class TestFallbacks:
    def test_subclassed_fault_falls_back_and_matches(self):
        caps = _caps(4, 2, 1)
        faults = [_SubclassedStuckAt(1, 0, 1), StuckAtFault(2, 1, 0)]
        tests = [MARCH_C]
        vector = run_fault_sweep(tests, caps, faults, engine="vector")
        scalar = run_fault_sweep(tests, caps, faults, engine="scalar")
        assert vector.fallback_runs == 1
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )

    def test_fallback_only_batch_counts_every_run(self):
        """PortRestrictedFault has a support (its inner fault's), so it
        is projected; the fallback count reads zero."""
        caps = _caps(4, 1, 2)
        faults = [
            PortRestrictedFault(port=1, fault=StuckAtFault(0, 0, 1)),
            PortRestrictedFault(port=0, fault=StuckAtFault(2, 0, 0)),
        ]
        vector = run_fault_sweep([MARCH_C], caps, faults, engine="vector")
        scalar = run_fault_sweep([MARCH_C], caps, faults, engine="scalar")
        assert vector.fallback_runs == 0
        assert vector.checked == len(faults)
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )
        assert "0 scalar fallback(s)" in vector.format()

    def test_npsf_and_linked_faults_are_projected(self):
        """NPSF and linked (composite) faults have supports too."""
        caps = _caps(8, 1, 1)
        faults = npsf_universe(8, 1)[:12] + linked_cfid_universe(8)[:6]
        tests = [MARCH_C, library.get("March B")]
        vector = run_fault_sweep(tests, caps, faults, engine="vector")
        scalar = run_fault_sweep(tests, caps, faults)
        assert vector.fallback_runs == 0
        assert 0 < vector.detected < vector.checked
        assert _payloads_equal(vector, scalar)

    def test_support_outside_the_memory_falls_back(self):
        """A support the memory does not have is the full memory's to
        judge: both engines raise the same error for it."""
        caps = _caps(4, 1, 1)
        faults = [StuckAtFault(1, 0, 1), InversionCouplingFault(0, 0, 9, 0, True)]
        assert _projection(faults[1], caps.n_words) is None
        with pytest.raises(IndexError) as scalar_error:
            run_fault_sweep([MARCH_C], caps, faults)
        with pytest.raises(IndexError) as vector_error:
            run_fault_sweep([MARCH_C], caps, faults, engine="vector")
        assert str(vector_error.value) == str(scalar_error.value)

    def test_bit_beyond_the_word_width_matches_scalar(self):
        """Sram.force_bit does not mask, so a forced bit beyond the word
        width can still trigger a coupling; the shadow must agree."""
        caps = _caps(4, 1, 1)
        fault = CompositeFault([
            StuckAtFault(1, 3, 1),
            InversionCouplingFault(1, 3, 0, 0, False),
        ])
        tests = [library.get("MATS")]
        vector = run_fault_sweep(tests, caps, [fault], engine="vector")
        scalar = run_fault_sweep(tests, caps, [fault])
        assert vector.fallback_runs == 0
        assert vector.detected == scalar.detected == 1
        assert _payloads_equal(vector, scalar)

    def test_failing_fault_free_stream_falls_back_per_test(self):
        """A stimulus whose fault-free capture already fails reads can
        not be decided on the support alone: the whole test falls back."""
        caps = _caps(4, 1, 1)
        broken = parse_test("^(w0); ^(r1)", name="reads-the-wrong-value")
        faults = [StuckAtFault(2, 0, 0), StuckAtFault(3, 0, 1)]
        vector = run_fault_sweep(
            [broken, MARCH_C], caps, faults, engine="vector"
        )
        scalar = run_fault_sweep([broken, MARCH_C], caps, faults)
        assert vector.fallback_runs == len(faults)
        assert vector.detected == scalar.detected == 2 + 2
        assert _payloads_equal(vector, scalar)

    def test_remove_raising_mid_batch_propagates_like_scalar(self):
        """A fallback fault whose ``remove()`` raises surfaces the same
        error from both engines, after the batch's earlier faults ran."""
        caps = _caps(4, 2, 1)
        faults = [StuckAtFault(0, 0, 1), _RemoveRaisesStuckAt(1, 1, 0)]
        with pytest.raises(RuntimeError, match="deliberately broken"):
            run_fault_sweep([MARCH_C], caps, faults, engine="scalar")
        with pytest.raises(RuntimeError, match="deliberately broken"):
            run_fault_sweep([MARCH_C], caps, faults, engine="vector")

    def test_patched_capture_table_disables_fast_path(self, monkeypatch):
        """The seeded-defect harness swaps RESPONSE_CAPTURES entries;
        the vector fast path's capture-identity precondition is gone,
        so the whole sweep must take the scalar road (and therefore
        still *see* the patched capture)."""
        calls = []

        def counting_capture(stream, memory, max_ops=None):
            calls.append(1)
            return capture_response(stream, memory, max_ops=max_ops)

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "microcode", counting_capture
        )
        caps = _caps(4, 1, 1)
        faults = [StuckAtFault(0, 0, 1), StuckAtFault(3, 0, 0)]
        report = run_fault_sweep([MARCH_C], caps, faults, engine="vector")
        assert report.fallback_runs == report.checked == 2
        assert calls  # the patched capture actually ran

    def test_wide_word_geometry_falls_back(self):
        """Words of any width are projected (no element-size limit)."""
        caps = _caps(2, 128, 1)
        faults = [StuckAtFault(0, 100, 1)]
        vector = run_fault_sweep([library.get("MATS")], caps, faults,
                                 engine="vector")
        scalar = run_fault_sweep([library.get("MATS")], caps, faults,
                                 engine="scalar")
        assert vector.fallback_runs == 0
        assert vector.detected == 1
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )


class TestStimulusFamiliesOnTheKernel:
    """PRT and in-field stimuli are projected, not sent to the fallback."""

    @staticmethod
    def _assert_vectorised(scalar, vector):
        assert vector.fallback_runs == 0
        assert vector.checked == scalar.checked
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )

    @pytest.mark.parametrize("geometry", [(4, 1, 1), (3, 2, 2)])
    def test_prt_sessions_full_universe(self, geometry):
        caps = _caps(*geometry)
        faults = sweep_faults(caps, full=True)
        tests = [PRT_RING_UP, PRT_RING_DOWN]
        self._assert_vectorised(
            run_fault_sweep(tests, caps, faults),
            run_fault_sweep(tests, caps, faults, engine="vector"),
        )

    @pytest.mark.parametrize("geometry", [(4, 1, 1), (3, 2, 2)])
    def test_infield_sessions_full_universe(self, geometry):
        caps = _caps(*geometry)
        faults = sweep_faults(caps, full=True, mode="infield")
        tests = [library.get(name) for name in library.ALGORITHMS]
        self._assert_vectorised(
            run_fault_sweep(tests, caps, faults, mode="infield"),
            run_fault_sweep(
                tests, caps, faults, engine="vector", mode="infield"
            ),
        )

    def test_diverging_prt_controller_takes_the_counted_fallback(
        self, monkeypatch
    ):
        """The partner check is not vacuous: a controller stream that
        lost one op sends the session to the scalar oracle, which names
        the controller's event divergence."""
        from repro.prt.controller import PrtController

        build = PrtController.attributed_stream

        def lost_first_op(self):
            stream = build(self)
            return dataclasses.replace(
                stream, ops=stream.ops[1:], owners=stream.owners[1:]
            )

        monkeypatch.setattr(PrtController, "attributed_stream", lost_first_op)
        caps = _caps(4)
        faults = [StuckAtFault(2, 0, 1), StuckAtFault(1, 0, 0)]
        scalar = run_fault_sweep([PRT_RING_UP], caps, faults)
        vector = run_fault_sweep(
            [PRT_RING_UP], caps, faults, engine="vector"
        )
        assert vector.fallback_runs == vector.checked == len(faults)
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )
        assert len(scalar.failures) == len(faults)
        for failure in scalar.failures:
            controller, replay = failure["architectures"]
            assert controller["architecture"] == "prt-controller"
            assert controller["status"] == "diverged"
            assert controller["layer"] == "events"
            assert replay["status"] == "ok"

    def test_concurrent_sweep_falls_back_per_test(self):
        caps = _caps(3, 1, 2)
        faults = sweep_faults(caps, per_kind=1, mode="concurrent")
        tests = [library.MATS_PLUS, MARCH_C]
        scalar = run_fault_sweep(tests, caps, faults, mode="concurrent")
        vector = run_fault_sweep(
            tests, caps, faults, engine="vector", mode="concurrent"
        )
        assert vector.fallback_runs == vector.checked == scalar.checked
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )

    def test_per_test_fallback_reuses_the_planned_streams(
        self, monkeypatch
    ):
        """A partner stream that diverges from golden sends the whole
        test to the scalar check; that check runs on the stimulus the
        planner already resolved, so no stream is rebuilt per fault."""
        calls = []
        builders = dict(faulty_check.STREAM_BUILDERS)

        def counted(architecture):
            def build(test, caps, compress):
                calls.append(architecture)
                stream = builders[architecture](test, caps, compress)
                return stream[1:] if architecture == "hardwired" else stream

            return build

        for architecture in builders:
            monkeypatch.setitem(
                faulty_check.STREAM_BUILDERS, architecture,
                counted(architecture),
            )
        caps = _caps(4)
        faults = [StuckAtFault(word, 0, 1) for word in range(4)]
        vector = run_fault_sweep([MARCH_C], caps, faults, engine="vector")
        assert vector.fallback_runs == vector.checked == len(faults)
        assert sorted(calls) == sorted(builders)
        scalar = run_fault_sweep([MARCH_C], caps, faults)
        assert vector.to_json(include_timing=False) == scalar.to_json(
            include_timing=False
        )
        assert len(scalar.failures) == len(faults)


def _reference_verdicts(stimulus, test, caps, faults, projections, max_ops):
    """The sweep's verdict per fault as it was computed before the sweep
    grouped its population: one pass over every fault, a replay per
    stratum key not yet seen."""
    plan = vector_sweep._plan_test(stimulus, test, caps, max_ops)
    if plan.detects is None:
        return [None] * len(faults), plan
    strata = {} if plan.stratified else None
    verdicts = []
    for fault, projection in zip(faults, projections):
        detected = None
        if projection is not None:
            addresses, key = projection
            if strata is not None and key in strata:
                detected = strata[key]
            else:
                try:
                    detected = plan.detects(fault, addresses)
                except Exception:
                    pass
                else:
                    if strata is not None:
                        strata[key] = detected
        verdicts.append(detected)
    return verdicts, plan


def _reference_shard(args):
    """``_vector_shard`` tallying per fault: the reference the
    per-stratum tally must match field for field."""
    (shard_index, tests, caps, faults, start, count, compress,
     max_ops, mode) = args
    report = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports), engine="vector",
        mode=mode,
    )
    projections = [_projection(fault, caps.n_words) for fault in faults]
    for test in tests[start:start + count]:
        stimulus = resolve_stimulus(test, caps, mode, compress=compress)
        verdicts, plan = _reference_verdicts(
            stimulus, test, caps, faults, projections, max_ops
        )
        report.partners_proved += plan.proved
        report.partners_simulated += plan.simulated
        for fault, detected in zip(faults, verdicts):
            if detected is None:
                report.add(vector_sweep._check_pair(
                    stimulus, test, caps, fault, max_ops
                ))
                report.fallback_runs += 1
            else:
                report.checked += 1
                report.detected += detected
                report.skipped_runs += plan.skipped
    report.shards = [{"shard": shard_index, "runs": count * len(faults),
                      "wall_time_s": 0.0}]
    return report


def _tallies(report):
    return (
        report.to_json(include_timing=False), report.fallback_runs,
        report.partners_proved, report.partners_simulated,
    )


class TestStratumTallies:
    """The sweep tallies each stratum's verdict once per test; its
    report must equal the per-fault tally's, field for field."""

    @staticmethod
    def _assert_tallies_match(monkeypatch, tests, caps, faults, mode,
                              jobs=(1,)):
        with monkeypatch.context() as patched:
            patched.setattr(vector_sweep, "_vector_shard", _reference_shard)
            reference = run_fault_sweep(
                tests, caps, faults, engine="vector", mode=mode
            )
        for count in jobs:
            report = run_fault_sweep(
                tests, caps, faults, engine="vector", mode=mode, jobs=count
            )
            assert _tallies(report) == _tallies(reference), count
        return reference

    @pytest.mark.parametrize(
        "geometry",
        [(1, 1, 1), (4, 2, 1), (8, 1, 1), (4, 2, 2), (3, 2, 3), (5, 4, 2)],
    )
    def test_library_full_universe(self, monkeypatch, geometry):
        caps = _caps(*geometry)
        faults = sweep_faults(caps, full=True)
        jobs = (1, 2) if geometry == (4, 2, 2) else (1,)
        reference = self._assert_tallies_match(
            monkeypatch, LIBRARY, caps, faults, "sequential", jobs
        )
        assert reference.fallback_runs == 0

    def test_library_and_prt_sessions(self, monkeypatch):
        caps = _caps(8, 1, 1)
        self._assert_tallies_match(
            monkeypatch, LIBRARY + [PRT_RING_UP, PRT_RING_DOWN], caps,
            sweep_faults(caps, full=True), "sequential",
        )

    def test_infield(self, monkeypatch):
        caps = _caps(4, 1, 1)
        self._assert_tallies_match(
            monkeypatch, LIBRARY, caps,
            sweep_faults(caps, full=True, mode="infield"), "infield",
        )

    def test_concurrent_falls_back_per_test(self, monkeypatch):
        caps = _caps(2, 2, 2)
        faults = sweep_faults(caps, full=True, mode="concurrent")
        tests = [library.MATS_PLUS, MARCH_C]
        reference = self._assert_tallies_match(
            monkeypatch, tests, caps, faults, "concurrent"
        )
        assert reference.fallback_runs == len(tests) * len(faults)

    def test_loose_faults_interleaved(self, monkeypatch):
        caps = _caps(4, 2, 1)
        faults = sweep_faults(caps, per_kind=2, seed=1)
        for index in (0, 5, len(faults) // 2, len(faults) - 1):
            faults[index] = _SubclassedStuckAt(index % 4, index % 2, index % 2)
        reference = self._assert_tallies_match(
            monkeypatch, LIBRARY, caps, faults, "sequential", jobs=(1, 2)
        )
        assert reference.fallback_runs == 4 * len(LIBRARY)

    def test_raising_first_member_falls_back_in_fault_order(
        self, monkeypatch
    ):
        """A replay that raises for a stratum's first member: its
        stratum-mate decides the rest, and it falls back in fault order
        between the loose faults."""
        caps = _caps(8, 1, 1)
        faults = sweep_faults(caps, full=True)
        _, strata, _ = _population(faults, caps.n_words)
        members = next(
            m for m in strata.values() if len(m) >= 3 and m[0] > 0
        )
        chosen = faults[members[0]]
        loose = (members[0] - 1, members[0] + 1, len(faults) - 1)
        for index in loose:
            faults[index] = _SubclassedStuckAt(index % 8, 0, index % 2)
        detects = MarchProjection.detects

        def raising(self, fault, addresses):
            if fault is chosen:
                raise RuntimeError("deliberately broken replay")
            return detects(self, fault, addresses)

        monkeypatch.setattr(MarchProjection, "detects", raising)
        checked = []
        check_pair = vector_sweep._check_pair

        def recorded(stimulus, test, caps, fault, max_ops):
            checked.append(faults.index(fault))
            return check_pair(stimulus, test, caps, fault, max_ops)

        monkeypatch.setattr(vector_sweep, "_check_pair", recorded)
        tests = [MARCH_C, library.get("March B")]
        reference = self._assert_tallies_match(
            monkeypatch, tests, caps, faults, "sequential"
        )
        assert reference.fallback_runs == 4 * len(tests)
        order = sorted(loose + (members[0],))
        assert checked == order * 2 * len(tests)  # reference, then sweep
        scalar = run_fault_sweep(tests, caps, faults)
        assert _payloads_equal(reference, scalar)

    def test_replaced_capture_falls_back_with_failures_in_order(
        self, monkeypatch
    ):
        def lossy_capture(stream, memory, max_ops=None):
            capture = capture_response(stream, memory, max_ops=max_ops)
            del capture.events[1:]
            return capture

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "microcode", lossy_capture
        )
        caps = _caps(4, 1, 1)
        faults = sweep_faults(caps, per_kind=2)
        tests = [MARCH_C, library.get("March B")]
        reference = self._assert_tallies_match(
            monkeypatch, tests, caps, faults, "sequential"
        )
        assert reference.fallback_runs == len(tests) * len(faults)
        assert len(reference.failures) > 1

    def test_one_replay_per_test_and_stratum(self, monkeypatch):
        caps = _caps(64, 2, 1)
        faults = sweep_faults(caps, full=True)
        _, strata, loose = _population(faults, caps.n_words)
        assert loose == []
        runs = []
        run = MarchProjection.run

        def counted(self, *args, **kwargs):
            runs.append(1)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(MarchProjection, "run", counted)
        report = run_fault_sweep(LIBRARY, caps, faults, engine="vector")
        assert report.fallback_runs == 0
        assert len(runs) == len(LIBRARY) * len(strata) == 1955


class TestPartnerAccounting:
    """``partners_proved`` / ``partners_simulated``: how the planner
    verified the differential partners, outside the compared payload."""

    def test_library_partners_are_proved_not_simulated(self):
        caps = _caps(64, 2, 1)
        faults = sweep_faults(caps, per_kind=1)
        vector = run_fault_sweep(LIBRARY, caps, faults, engine="vector")
        assert vector.partners_simulated == 0
        # 17 tests x 3 architectures, less the 4 outside SM0-SM7.
        assert vector.partners_proved == 3 * len(LIBRARY) - 4
        assert "0 simulated" in vector.format()
        timing = vector.to_json()["timing"]
        assert timing["partners_proved"] == vector.partners_proved
        assert "partners_proved" not in vector.to_json(include_timing=False)
        assert FaultSweepReport.from_json(vector.to_json()).partners_proved == (
            vector.partners_proved
        )

    def test_counters_merge_across_shards(self):
        caps = _caps(4, 1, 1)
        faults = sweep_faults(caps, per_kind=1)
        tests = LIBRARY[:5] + [PRT_RING_UP]
        serial = run_fault_sweep(tests, caps, faults, engine="vector")
        sharded = run_fault_sweep(tests, caps, faults, engine="vector", jobs=2)
        assert (sharded.partners_proved, sharded.partners_simulated) == (
            serial.partners_proved, serial.partners_simulated
        )
        # The PRT session's controller and replay partners are simulated.
        assert serial.partners_simulated == 2

    def test_replaced_builder_is_simulated(self, monkeypatch):
        caps = _caps(4, 1, 1)
        builders = dict(faulty_check.STREAM_BUILDERS)
        monkeypatch.setitem(
            faulty_check.STREAM_BUILDERS, "hardwired",
            lambda test, caps, compress: builders["hardwired"](
                test, caps, compress
            ),
        )
        faults = [StuckAtFault(0, 0, 1)]
        vector = run_fault_sweep([MARCH_C], caps, faults, engine="vector")
        assert (vector.partners_proved, vector.partners_simulated) == (2, 1)
        assert vector.fallback_runs == 0


class TestFuzzVectorIdentity:
    def test_sample_reports_vector_checked(self):
        from repro.analysis.fuzz import check_sample

        result = check_sample(11, 0, skip={"d", "f"})
        assert result.identities["vector_checked"]
        assert result.ok, result.mismatches

    def test_vector_identity_can_be_disabled(self):
        from repro.analysis.fuzz import check_sample

        result = check_sample(11, 0, skip={"d", "f", "g"})
        assert not result.identities["vector_checked"]


class TestNumpyFree:
    """The engine is pure Python: numpy is neither needed nor imported."""

    @staticmethod
    def _run(script):
        """Run ``script`` in a fresh interpreter on this checkout's
        ``repro``; returns its standard output."""
        source_root = str(pathlib.Path(repro.__file__).parents[1])
        path = os.pathsep.join(
            filter(None, [source_root, os.environ.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=path),
        ).stdout

    def test_vector_sweep_without_numpy(self):
        out = self._run("""
            import sys
            sys.modules["numpy"] = None  # any numpy import now fails
            from repro.conformance import run_fault_sweep, sweep_faults
            from repro.core.controller import ControllerCapabilities
            from repro.march import library

            caps = ControllerCapabilities(n_words=4, width=2, ports=1)
            tests = [library.get(name) for name in library.ALGORITHMS]
            faults = sweep_faults(caps, per_kind=1, seed=0)
            vector = run_fault_sweep(tests, caps, faults, engine="vector")
            scalar = run_fault_sweep(tests, caps, faults)
            assert vector.fallback_runs == 0, vector.fallback_runs
            assert vector.to_json(include_timing=False) == scalar.to_json(
                include_timing=False
            )
            print("ok", vector.checked)
        """)
        assert out.startswith("ok ")

    def test_import_pulls_in_neither_numpy_nor_the_analysis_package(self):
        out = self._run("""
            import sys
            import repro.vector.sweep
            print(sorted(
                name for name in sys.modules
                if name == "numpy" or name.startswith("repro.analysis")
            ))
        """)
        assert out.strip() == "[]"
