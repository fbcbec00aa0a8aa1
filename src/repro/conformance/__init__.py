"""Differential conformance of the three BIST controller architectures.

Public surface:

* :func:`check_conformance` — op-for-op equivalence of the microcode,
  programmable-FSM and hardwired simulations against the golden
  :func:`repro.march.simulator.expand` stream, with structured
  first-divergence reports.
* :func:`shrink_sample` / :func:`conformance_predicate` — delta-debug a
  failing (march, geometry) sample to a minimal reproducer.
* :mod:`repro.conformance.corpus` — the checked-in golden-trace
  regression corpus under ``tests/corpus/`` and its checker.
* :mod:`repro.conformance.faulty` — differential *fault-response*
  conformance (same fault, three BIST sessions, layered comparison of
  fail events / fail logs / diagnosis) plus the three-axis shrinker.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.conformance.check": [
        "ARCHITECTURES", "ArchitectureResult", "CONCURRENT_CACHE",
        "ConformanceResult", "GOLDEN_CACHE", "GoldenTraceCache",
        "STREAM_BUILDERS", "check_conformance",
    ],
    "repro.conformance.faulty": [
        "CoverageConformanceResult", "CoverageDisagreement",
        "CrossEngineResult", "FaultResponseResult", "FaultSweepReport",
        "FaultyShrinkResult", "MODES", "MultiGeometrySweepReport",
        "ResponseBudgetExceeded", "capture_cycle_response", "capture_response",
        "check_coverage_conformance", "check_fault_conformance",
        "coverage_disagreement_predicate", "fault_detection_predicate",
        "fault_response_predicate", "random_fault", "run_fault_sweep",
        "run_fault_sweeps", "shrink_faulty_sample", "sweep_faults",
    ],
    "repro.conformance.infield": [
        "DEFAULT_INFIELD_TESTS", "Checkpoint", "CheckpointResult",
        "InFieldPlan", "InFieldResult", "build_infield_plan",
        "cached_infield_plan", "fault_free_session", "run_infield_session",
    ],
    "repro.conformance.corpus": [
        "DEFAULT_CORPUS_DIR", "GOLDEN_GEOMETRIES", "CorpusReport",
        "check_corpus", "promote_from_report", "record_golden",
        "record_regression",
    ],
    "repro.conformance.divergence": ["Divergence", "first_divergence"],
    "repro.conformance.shrink": [
        "ShrinkResult", "conformance_predicate", "shrink_sample",
    ],
    "repro.conformance.trace": [
        "AttributedCycle", "AttributedOp", "concurrent_trace", "format_cycle",
        "format_normalized", "fsm_trace", "golden_trace", "hardwired_trace",
        "microcode_trace", "normalize", "normalize_cycle",
    ],
})

__all__ = [
    "ARCHITECTURES",
    "ArchitectureResult",
    "AttributedCycle",
    "AttributedOp",
    "CONCURRENT_CACHE",
    "Checkpoint",
    "CheckpointResult",
    "ConformanceResult",
    "CorpusReport",
    "CoverageConformanceResult",
    "CoverageDisagreement",
    "CrossEngineResult",
    "DEFAULT_CORPUS_DIR",
    "DEFAULT_INFIELD_TESTS",
    "Divergence",
    "FaultResponseResult",
    "FaultSweepReport",
    "FaultyShrinkResult",
    "GOLDEN_CACHE",
    "GOLDEN_GEOMETRIES",
    "GoldenTraceCache",
    "InFieldPlan",
    "InFieldResult",
    "MODES",
    "MultiGeometrySweepReport",
    "ResponseBudgetExceeded",
    "STREAM_BUILDERS",
    "ShrinkResult",
    "build_infield_plan",
    "cached_infield_plan",
    "capture_cycle_response",
    "capture_response",
    "check_conformance",
    "check_corpus",
    "check_coverage_conformance",
    "check_fault_conformance",
    "concurrent_trace",
    "conformance_predicate",
    "coverage_disagreement_predicate",
    "fault_detection_predicate",
    "fault_free_session",
    "fault_response_predicate",
    "first_divergence",
    "format_cycle",
    "format_normalized",
    "fsm_trace",
    "golden_trace",
    "hardwired_trace",
    "microcode_trace",
    "normalize",
    "normalize_cycle",
    "promote_from_report",
    "random_fault",
    "record_golden",
    "record_regression",
    "run_fault_sweep",
    "run_fault_sweeps",
    "run_infield_session",
    "shrink_faulty_sample",
    "shrink_sample",
    "sweep_faults",
]
