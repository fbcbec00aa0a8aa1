"""End-to-end integration scenarios spanning the whole stack."""

import pytest

from repro import (
    ControllerCapabilities,
    HardwiredBistController,
    MemoryBistUnit,
    MicrocodeBistController,
    ProgrammableFsmBistController,
    Sram,
    library,
    parse_test,
)
from repro.conformance.faulty.coverage import (
    evaluate_coverage,
    evaluate_trace_coverage,
)
from repro.conformance.trace import op_trace
from repro.core.transparent import TransparentBistRun, transparent_version
from repro.diagnostics import FailBitmap, FailLog, diagnose
from repro.faults import FaultInjector, StuckAtFault, standard_universe


class TestProductionFlow:
    """The paper's motivation: one programmable BIST unit serving every
    fabrication stage — production go/no-go, enhanced screening,
    retention screening — without hardware change."""

    def test_same_hardware_runs_all_stages(self):
        caps = ControllerCapabilities(n_words=32)
        controller = MicrocodeBistController(library.MARCH_A_PLUS_PLUS, caps)
        memory = Sram(32)
        memory.attach(StuckAtFault(17, 0, 0))
        unit = MemoryBistUnit(controller, memory)

        for stage_algorithm in (
            library.MARCH_C,          # wafer sort: fast go/no-go
            library.MARCH_C_PLUS,     # package test: retention screen
            library.MARCH_A_PLUS_PLUS,  # burn-in: full fault model
        ):
            controller.load(stage_algorithm)
            memory.reset_state()
            result = unit.run()
            assert not result.passed, stage_algorithm.name

    def test_stage_escalation_catches_weaker_defect(self):
        from repro.faults import DataRetentionFault

        caps = ControllerCapabilities(n_words=32)
        controller = MicrocodeBistController(library.MARCH_A_PLUS_PLUS, caps)
        memory = Sram(32)
        memory.attach(DataRetentionFault(9, 0, from_value=1))
        unit = MemoryBistUnit(controller, memory)

        controller.load(library.MARCH_C)
        memory.reset_state()
        assert unit.run().passed  # escapes the fast screen

        controller.load(library.MARCH_C_PLUS)
        memory.reset_state()
        assert not unit.run().passed  # caught by the retention screen


class TestCoverageEquivalence:
    """X1: controller streams have identical fault coverage to golden."""

    @pytest.mark.parametrize(
        "controller_cls",
        [
            MicrocodeBistController,
            ProgrammableFsmBistController,
            HardwiredBistController,
        ],
        ids=lambda c: c.__name__,
    )
    def test_controller_coverage_equals_golden(self, controller_cls):
        n_words = 6
        caps = ControllerCapabilities(n_words=n_words)
        universe = standard_universe(n_words, include_npsf=False)
        controller = controller_cls(library.MARCH_C_PLUS, caps)
        memory = Sram(n_words)
        report = evaluate_trace_coverage(
            op_trace(controller.operations()), memory, universe,
            test_name=controller.architecture,
        )
        golden = evaluate_coverage(library.MARCH_C_PLUS, universe, n_words)
        assert report.detected == golden.detected
        assert report.total == golden.total


class TestDiagnosticFlow:
    def test_bist_to_bitmap_pipeline(self):
        caps = ControllerCapabilities(n_words=64)
        memory = Sram(64)
        for word in (3, 4, 40):
            memory.attach(StuckAtFault(word, 0, 0))
        unit = MemoryBistUnit(
            MicrocodeBistController(library.MARCH_C_PLUS_PLUS, caps), memory
        )
        result = unit.run()
        log = FailLog.from_result(result)
        bitmap = FailBitmap.from_log(log, 64)
        assert bitmap.fail_count == 3
        assert {cell[0] for cluster in bitmap.clusters() for cell in cluster} == {
            3, 4, 40,
        }

    def test_diagnose_after_bist_failure(self):
        memory = Sram(32)
        memory.attach(StuckAtFault(11, 0, 1))
        diags = diagnose(memory)
        assert diags[0].label == "SA1/TF-down"


class TestTransparentOnline:
    """X4: the on-line testing extension the conclusion points to."""

    def test_online_test_between_workload_phases(self):
        memory = Sram(32, width=8)
        # A "live application" writes its working set.
        for word in range(32):
            memory.write(0, word, (word * 13) & 0xFF)
        working_set = memory.snapshot()

        run = TransparentBistRun(transparent_version(library.MARCH_C), memory)
        result = run.run()
        assert result.passed
        assert memory.snapshot() == working_set  # application unaffected

    def test_online_test_catches_field_failure(self):
        memory = Sram(32, width=8)
        for word in range(32):
            memory.write(0, word, (word * 13) & 0xFF)
        memory.attach(StuckAtFault(20, 2, 0))
        run = TransparentBistRun(transparent_version(library.MARCH_C), memory)
        assert not run.run().passed


class TestCustomAlgorithmFlow:
    def test_user_defined_algorithm_end_to_end(self):
        algorithm = parse_test(
            "~(w0); ^(r0,w1,r1); v(r1,w0,r0); ~(r0)", name="My March"
        )
        caps = ControllerCapabilities(n_words=16)
        memory = Sram(16)
        unit = MemoryBistUnit(MicrocodeBistController(algorithm, caps), memory)
        assert unit.run().passed

    def test_injector_sweep_with_controller_stream(self):
        caps = ControllerCapabilities(n_words=4)
        controller = MicrocodeBistController(library.MARCH_C, caps)
        memory = Sram(4)
        injector = FaultInjector(memory)
        detected = 0
        faults = [StuckAtFault(w, 0, v) for w in range(4) for v in (0, 1)]
        for fault in faults:
            with injector.injected(fault) as faulty:
                from repro.march.simulator import run_on_memory

                if run_on_memory(controller.operations(), faulty).failures:
                    detected += 1
        assert detected == len(faults)
