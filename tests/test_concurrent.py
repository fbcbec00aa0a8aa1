"""Concurrent dual-port stimuli: arbitration, expansion, fault catches.

Covers the same-cycle multi-port op groups (:class:`repro.march.
concurrent.CycleOps`), the :meth:`repro.memory.sram.Sram.cycle`
arbitration contract, the concurrent golden expansion, and the
concurrency-sensitised fault models (PAFc / CFxp) — including the
defining proof that a port-aware fault *missed* by the sequential
per-port expansion is *caught* by the concurrent one, with the exact
fail-event sets pinned on (2,2,2) and (4,2,2).
"""

from dataclasses import astuple

import pytest

from repro.conformance import (
    CONCURRENT_CACHE,
    CrossEngineResult,
    check_fault_conformance,
    concurrent_trace,
    run_fault_sweep,
    sweep_faults,
)
from repro.conformance.faulty.events import capture_cycle_response
from repro.core.controller import ControllerCapabilities
from repro.faults.concurrent import (
    ConcurrentPortAccessFault,
    CrossPortCouplingFault,
    concurrent_fault_universe,
)
from repro.faults.injector import FaultInjector
from repro.faults.spec import format_fault, parse_fault
from repro.march import library
from repro.march.concurrent import (
    CycleOps,
    cycle_count,
    expand_concurrent,
    run_cycles_on_memory,
)
from repro.march.notation import parse_test
from repro.march.simulator import (
    MemoryOperation,
    expand,
    operation_count,
    run_on_memory,
)
from repro.memory.sram import Sram


def _caps(geometry):
    words, width, ports = geometry
    return ControllerCapabilities(n_words=words, width=width, ports=ports)


def _memory(geometry):
    words, width, ports = geometry
    return Sram(words, width=width, ports=ports)


# ---------------------------------------------------------------------------
# CycleOps construction contract.
# ---------------------------------------------------------------------------


class TestCycleOps:
    def test_sorted_ascending_by_port(self):
        group = CycleOps(
            [
                MemoryOperation(1, 0, False, expected=0),
                MemoryOperation(0, 1, True, value=1),
            ]
        )
        assert group.ports == (0, 1)
        assert [op.port for op in group] == [0, 1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            CycleOps([])

    def test_rejects_duplicate_port(self):
        with pytest.raises(ValueError, match="duplicate port"):
            CycleOps(
                [
                    MemoryOperation(0, 0, False, expected=0),
                    MemoryOperation(0, 1, True, value=1),
                ]
            )

    def test_pause_travels_alone(self):
        with pytest.raises(ValueError, match="pause"):
            CycleOps(
                [
                    MemoryOperation(0, 0, False, delay=128),
                    MemoryOperation(1, 0, False, expected=0),
                ]
            )
        lone = CycleOps([MemoryOperation(0, 0, False, delay=128)])
        assert lone.is_delay


# ---------------------------------------------------------------------------
# Sram.cycle arbitration contract (documented in docs/TESTING.md).
# ---------------------------------------------------------------------------


class TestSramCycleArbitration:
    def test_reads_sample_pre_cycle_contents(self):
        # Read-first: a same-cycle write+read race on one cell observes
        # the OLD word through every reading port.
        memory = Sram(2, width=2, ports=2)
        memory.poke(0, 1)
        observed = memory.cycle(
            [
                MemoryOperation(0, 0, True, value=3),
                MemoryOperation(1, 0, False, expected=1),
            ]
        )
        assert observed == {1: 1}
        assert memory.peek(0) == 3

    def test_write_write_race_highest_port_wins(self):
        memory = Sram(1, width=2, ports=3)
        memory.cycle(
            [
                MemoryOperation(0, 0, True, value=1),
                MemoryOperation(2, 0, True, value=2),
                MemoryOperation(1, 0, True, value=3),
            ]
        )
        assert memory.peek(0) == 2

    def test_single_clock_advance_per_group(self):
        memory = Sram(2, width=1, ports=2)
        before = memory.clock.now
        memory.cycle(
            [
                MemoryOperation(0, 0, True, value=1),
                MemoryOperation(1, 1, False, expected=0),
            ]
        )
        assert memory.clock.now == before + 1

    def test_rejects_two_ops_on_one_port(self):
        memory = Sram(2, width=1, ports=2)
        with pytest.raises(ValueError, match="port 0"):
            memory.cycle(
                [
                    MemoryOperation(0, 0, True, value=1),
                    MemoryOperation(0, 1, False, expected=0),
                ]
            )

    def test_rejects_pause_sharing_a_cycle(self):
        memory = Sram(2, width=1, ports=2)
        with pytest.raises(ValueError, match="pause"):
            memory.cycle(
                [
                    MemoryOperation(0, 0, False, delay=64),
                    MemoryOperation(1, 0, False, expected=0),
                ]
            )

    def test_lone_pause_elapses(self):
        memory = Sram(2, width=1, ports=1)
        before = memory.clock.now
        out = memory.cycle([MemoryOperation(0, 0, False, delay=64)])
        assert out == {}
        assert memory.clock.now == before + 64


# ---------------------------------------------------------------------------
# Concurrent expansion semantics.
# ---------------------------------------------------------------------------


class TestExpandConcurrent:
    @pytest.mark.parametrize("geometry", [(4, 1, 1), (3, 2, 1), (2, 4, 1)])
    def test_single_port_degenerates_to_sequential(self, geometry):
        words, width, ports = geometry
        cycles = list(
            expand_concurrent(library.MARCH_C, words, width=width, ports=ports)
        )
        sequential = list(
            expand(library.MARCH_C, words, width=width, ports=ports)
        )
        assert [cycle.ops for cycle in cycles] == [
            (op,) for op in sequential
        ]

    @pytest.mark.parametrize(
        "geometry", [(2, 2, 2), (4, 2, 2), (3, 1, 3), (2, 4, 2)]
    )
    def test_base_ops_are_the_sequential_stream(self, geometry):
        words, width, ports = geometry
        cycles = list(
            expand_concurrent(library.MARCH_C, words, width=width, ports=ports)
        )
        sequential = list(
            expand(library.MARCH_C, words, width=width, ports=ports)
        )
        base_ops = []
        for cycle, golden in zip(cycles, sequential):
            picked = [op for op in cycle if op.port == golden.port]
            assert len(picked) == 1
            base_ops.append(picked[0])
        assert base_ops == sequential

    @pytest.mark.parametrize("name", ["MATS+", "March C", "March Y"])
    @pytest.mark.parametrize("geometry", [(2, 2, 2), (4, 1, 2), (3, 2, 3)])
    def test_cycle_count_matches_operation_count(self, name, geometry):
        words, width, ports = geometry
        test = library.get(name)
        cycles = list(expand_concurrent(test, words, width=width, ports=ports))
        assert len(cycles) == cycle_count(test, words, width, ports)
        assert len(cycles) == operation_count(test, words, width, ports)

    @pytest.mark.parametrize("name", ["MATS+", "March C", "March Y", "March B"])
    @pytest.mark.parametrize("geometry", [(2, 2, 2), (4, 1, 2), (3, 2, 3)])
    def test_fault_free_run_is_clean(self, name, geometry):
        words, width, ports = geometry
        test = library.get(name)
        result = run_cycles_on_memory(
            expand_concurrent(test, words, width=width, ports=ports),
            _memory(geometry),
        )
        assert result.failures == []

    def test_run_applies_every_cycle(self):
        # Cycle streams are open loop too: every cycle is applied, and
        # every mismatching read of a cycle fails, in ascending port
        # order.
        def read(port, address, expected):
            return MemoryOperation(port, address, False, expected=expected)

        memory = Sram(2, width=1, ports=2)
        cycles = [
            CycleOps([read(1, 1, 1), read(0, 0, 1)]),
            CycleOps([read(0, 1, 0), read(1, 0, 1)]),
        ]
        result = run_cycles_on_memory(cycles, memory)
        assert result.operations == 2
        assert [(f.op_index, f.port) for f in result.failures] == [
            (0, 0), (0, 1), (1, 1)
        ]
        assert memory.clock.now == 2

    def test_companion_expects_pre_cycle_value_on_writes(self):
        # ^(w1) over a zeroed memory: the base port writes the solid-1
        # background while the companion reads the pre-cycle 0.
        cycles = list(
            expand_concurrent(parse_test("^(w1)"), 2, width=1, ports=2)
        )
        first = cycles[0]
        assert first.ops[0].is_write and first.ops[0].value == 1
        assert first.ops[1].is_read and first.ops[1].expected == 0

    def test_pauses_stay_single_op_cycles(self):
        test = parse_test("^(w0); Del(128); ^(r0)")
        cycles = list(expand_concurrent(test, 2, width=1, ports=2))
        delays = [cycle for cycle in cycles if cycle.is_delay]
        assert len(delays) == 2  # one per base-port rotation
        assert all(len(cycle) == 1 for cycle in delays)


# ---------------------------------------------------------------------------
# The concurrency-sensitised fault universe.
# ---------------------------------------------------------------------------


class TestConcurrentUniverse:
    def test_empty_for_single_port(self):
        assert concurrent_fault_universe(4, 2, 1) == []

    def test_population_counts(self):
        faults = concurrent_fault_universe(2, 2, 2)
        kinds = {fault.kind for fault in faults}
        assert kinds == {"PAFc", "CFxp"}
        # PAFc: ports x words x bits; CFxp: words x ordered bit pairs
        # x 2 directions x 2 forced values.
        assert sum(f.kind == "PAFc" for f in faults) == 2 * 2 * 2
        assert sum(f.kind == "CFxp" for f in faults) == 2 * 2 * 2 * 2

    def test_bit_oriented_has_no_cross_port_coupling(self):
        faults = concurrent_fault_universe(4, 1, 2)
        assert {fault.kind for fault in faults} == {"PAFc"}

    def test_spec_round_trip(self):
        for fault in concurrent_fault_universe(2, 2, 2):
            spec = format_fault(fault)
            assert spec is not None
            rebuilt = parse_fault(spec)
            assert format_fault(rebuilt) == spec

    def test_install_rejects_missing_port(self):
        memory = Sram(2, width=1, ports=1)
        with pytest.raises(ValueError, match="no port 1"):
            memory.attach(ConcurrentPortAccessFault(1, 0, 0))

    def test_no_self_coupling(self):
        with pytest.raises(ValueError, match="itself"):
            CrossPortCouplingFault(0, 0, 0, 0, True, 1)

    def test_sweep_population_gains_concurrent_stratum(self):
        caps = _caps((4, 2, 2))
        kinds = {f.kind for f in sweep_faults(caps, per_kind=1, mode="concurrent")}
        assert {"PAFc", "CFxp"} <= kinds
        sequential_kinds = {f.kind for f in sweep_faults(caps, per_kind=1)}
        assert "PAFc" not in sequential_kinds
        assert "CFxp" not in sequential_kinds
        # Single-port geometries have no concurrent stratum to add.
        solo = _caps((4, 2, 1))
        assert {f.kind for f in sweep_faults(solo, per_kind=1, mode="concurrent")} == {
            f.kind for f in sweep_faults(solo, per_kind=1)
        }


# ---------------------------------------------------------------------------
# Sequential miss / concurrent catch — the reason this mode exists.
# ---------------------------------------------------------------------------

#: Faults invisible to one-port-at-a-time stimuli by construction.
CONCURRENT_ONLY_SPECS = ("pafc:1:0:0", "cfxp:0:0:0:1:up:1")


class TestSequentialMissConcurrentCatch:
    @pytest.mark.parametrize("spec", CONCURRENT_ONLY_SPECS)
    @pytest.mark.parametrize("geometry", [(2, 2, 2), (4, 2, 2)])
    def test_raw_streams(self, spec, geometry):
        words, width, ports = geometry
        fault = parse_fault(spec)

        memory = _memory(geometry)
        with FaultInjector(memory).injected(fault):
            sequential = run_on_memory(
                expand(library.MARCH_C, words, width=width, ports=ports),
                memory,
            )
        assert sequential.failures == []

        memory = _memory(geometry)
        with FaultInjector(memory).injected(fault):
            concurrent = run_cycles_on_memory(
                expand_concurrent(
                    library.MARCH_C, words, width=width, ports=ports
                ),
                memory,
            )
        assert concurrent.failures

    @pytest.mark.parametrize("spec", CONCURRENT_ONLY_SPECS)
    def test_through_conformance_api(self, spec):
        caps = _caps((2, 2, 2))
        fault = parse_fault(spec)
        sequential = check_fault_conformance(library.MARCH_C, caps, fault)
        assert sequential.ok
        assert not sequential.detected
        concurrent = check_fault_conformance(
            library.MARCH_C, caps, fault, mode="concurrent"
        )
        assert concurrent.ok
        assert concurrent.detected
        assert concurrent.mode == "concurrent"


# ---------------------------------------------------------------------------
# Pinned fail-event sets (event-level regression).
# ---------------------------------------------------------------------------

#: Exact concurrent-mode fail-event keys (op_index, port, address,
#: expected, observed) of March C under each fault.  Any change to the
#: expansion order, the arbitration contract or the fault models moves
#: these — review deliberately before re-pinning.
PINNED_EVENT_KEYS = {
    ((2, 2, 2), "pafc:1:0:0"): [
        (6, 1, 0, 3, 2), (7, 1, 0, 3, 2), (16, 1, 0, 3, 2),
        (17, 1, 0, 3, 2), (26, 1, 0, 1, 0), (27, 1, 0, 1, 0),
        (36, 1, 0, 1, 0), (37, 1, 0, 1, 0), (46, 0, 0, 3, 2),
        (46, 1, 0, 3, 2), (47, 0, 0, 3, 2), (56, 0, 0, 3, 2),
        (56, 1, 0, 3, 2), (57, 0, 0, 3, 2), (66, 0, 0, 1, 0),
        (66, 1, 0, 1, 0), (67, 0, 0, 1, 0), (76, 0, 0, 1, 0),
        (76, 1, 0, 1, 0), (77, 0, 0, 1, 0),
    ],
    ((2, 2, 2), "cfxp:0:0:0:1:up:1"): [
        (26, 0, 0, 1, 3), (26, 1, 0, 1, 3), (27, 1, 0, 1, 3),
        (36, 0, 0, 1, 3), (36, 1, 0, 1, 3), (37, 1, 0, 1, 3),
        (66, 0, 0, 1, 3), (66, 1, 0, 1, 3), (67, 0, 0, 1, 3),
        (76, 0, 0, 1, 3), (76, 1, 0, 1, 3), (77, 0, 0, 1, 3),
    ],
    ((4, 2, 2), "pafc:1:0:0"): [
        (12, 1, 0, 3, 2), (13, 1, 0, 3, 2), (34, 1, 0, 3, 2),
        (35, 1, 0, 3, 2), (52, 1, 0, 1, 0), (53, 1, 0, 1, 0),
        (74, 1, 0, 1, 0), (75, 1, 0, 1, 0), (92, 0, 0, 3, 2),
        (92, 1, 0, 3, 2), (93, 0, 0, 3, 2), (114, 0, 0, 3, 2),
        (114, 1, 0, 3, 2), (115, 0, 0, 3, 2), (132, 0, 0, 1, 0),
        (132, 1, 0, 1, 0), (133, 0, 0, 1, 0), (154, 0, 0, 1, 0),
        (154, 1, 0, 1, 0), (155, 0, 0, 1, 0),
    ],
}


class TestPinnedEvents:
    @pytest.mark.parametrize(
        "geometry,spec", sorted(PINNED_EVENT_KEYS, key=str)
    )
    def test_exact_event_keys(self, geometry, spec):
        caps = _caps(geometry)
        stream = concurrent_trace(library.MARCH_C, caps)
        memory = _memory(geometry)
        with FaultInjector(memory).injected(parse_fault(spec)):
            capture = capture_cycle_response(stream, memory)
        assert list(map(astuple, capture.events)) == PINNED_EVENT_KEYS[
            (geometry, spec)
        ]

    @pytest.mark.parametrize("geometry", [(2, 2, 2), (4, 2, 2)])
    def test_classic_paf_matches_contention_paf_concurrently(self, geometry):
        # The port-blind stuck-open access fault (PAF, sequentially
        # detectable) and its contention-gated cousin (PAFc,
        # sequentially invisible) produce the SAME concurrent event
        # set: every cycle of the concurrent stream is a genuine
        # two-port access, so the contention gate is always open.
        caps = _caps(geometry)
        stream = concurrent_trace(library.MARCH_C, caps)
        captures = {}
        for spec in ("paf:1:0:0", "pafc:1:0:0"):
            memory = _memory(geometry)
            with FaultInjector(memory).injected(parse_fault(spec)):
                captures[spec] = capture_cycle_response(stream, memory)
        assert captures["paf:1:0:0"].events == (
            captures["pafc:1:0:0"].events
        )
        # ...but only the classic PAF is sequentially detectable.
        words, width, ports = geometry
        for spec, detected in (("paf:1:0:0", True), ("pafc:1:0:0", False)):
            memory = _memory(geometry)
            with FaultInjector(memory).injected(parse_fault(spec)):
                result = run_on_memory(
                    expand(library.MARCH_C, words, width=width, ports=ports),
                    memory,
                )
            assert bool(result.failures) == detected


# ---------------------------------------------------------------------------
# Mode threading: sweeps, caching, engines.
# ---------------------------------------------------------------------------


class TestModeThreading:
    def test_concurrent_cache_returns_attributed_cycles(self):
        caps = _caps((2, 2, 2))
        stream = CONCURRENT_CACHE.get(library.MATS_PLUS, caps)
        assert stream is CONCURRENT_CACHE.get(library.MATS_PLUS, caps)
        assert all(isinstance(cycle, CycleOps) for cycle in stream.ops)

    def test_rejects_unknown_mode(self):
        caps = _caps((2, 1, 1))
        with pytest.raises(ValueError, match="unknown mode"):
            check_fault_conformance(
                library.MATS_PLUS, caps, parse_fault("saf:0:0:1"),
                mode="quantum",
            )

    def test_sweep_report_carries_mode(self):
        caps = _caps((2, 2, 2))
        faults = sweep_faults(caps, per_kind=1, mode="concurrent")
        report = run_fault_sweep(
            [library.MATS_PLUS], caps, faults, mode="concurrent"
        )
        assert report.ok
        assert report.mode == "concurrent"
        assert report.to_json()["mode"] == "concurrent"

    def test_vector_engine_counts_whole_sweep_fallback(self):
        # The projection replays sequential single-port streams only;
        # a concurrent-mode sweep through engine="vector" must run
        # scalar and COUNT the fallback rather than silently pretending
        # the projection ran.
        caps = _caps((2, 2, 2))
        faults = sweep_faults(caps, per_kind=1, seed=3, mode="concurrent")
        scalar = run_fault_sweep(
            [library.MATS_PLUS], caps, faults, mode="concurrent"
        )
        vector = run_fault_sweep(
            [library.MATS_PLUS], caps, faults, mode="concurrent",
            engine="vector",
        )
        assert vector.engine == "vector"
        assert vector.fallback_runs == vector.checked == scalar.checked
        assert (
            scalar.to_json(include_timing=False)
            == vector.to_json(include_timing=False)
        )

    def test_cross_engine_agrees_in_concurrent_mode(self):
        caps = _caps((2, 2, 2))
        faults = sweep_faults(caps, per_kind=1, seed=1, mode="concurrent")
        result = CrossEngineResult(*(
            run_fault_sweep(
                [library.MATS_PLUS], caps, faults, mode="concurrent",
                engine=engine,
            )
            for engine in ("scalar", "vector")
        ))
        assert result.ok

    def test_mixed_mode_reports_do_not_merge(self):
        from repro.conformance.faulty.check import FaultSweepReport

        first = FaultSweepReport(geometry=(2, 2, 2), mode="concurrent")
        second = FaultSweepReport(geometry=(2, 2, 2), mode="sequential")
        with pytest.raises(ValueError, match="modes"):
            FaultSweepReport.merge([first, second])
