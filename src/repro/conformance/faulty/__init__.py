"""Differential fault-response conformance of the BIST architectures.

The stimulus harness (:mod:`repro.conformance`) proves the three
architectures issue identical operations; this package proves they give
identical *verdicts* when the memory is actually broken: the same
injected fault, three full BIST sessions, and a layered comparison of
fail events, fail-log aggregations and diagnosis.  See
``docs/TESTING.md`` for the event normalisation and budget semantics.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.conformance.faulty.check": [
        "ArchitectureResponse", "CrossEngineResult", "ENGINES",
        "FaultResponseResult", "FaultSweepReport", "MODES",
        "MultiGeometrySweepReport", "RESPONSE_CAPTURES", "ResponseDivergence",
        "check_fault_conformance", "first_fail_divergence", "run_fault_sweep",
        "run_fault_sweeps",
    ],
    "repro.conformance.faulty.events": [
        "ResponseBudgetExceeded", "ResponseCapture", "capture_cycle_response",
        "capture_response",
    ],
    "repro.conformance.faulty.coverage": [
        "CoverageConformanceResult", "CoverageDisagreement",
        "check_coverage_conformance", "coverage_disagreement_predicate",
    ],
    "repro.conformance.faulty.sampling": [
        "random_fault", "spec_expressible", "stratified_sample",
        "sweep_faults",
    ],
    "repro.conformance.faulty.shrink": [
        "CANONICAL_SPECS", "FaultyPredicate", "FaultyShrinkResult",
        "fault_detection_predicate", "fault_response_predicate",
        "shrink_faulty_sample", "simpler_fault_specs",
    ],
})

__all__ = [
    "ArchitectureResponse",
    "CANONICAL_SPECS",
    "CoverageConformanceResult",
    "CoverageDisagreement",
    "CrossEngineResult",
    "ENGINES",
    "FaultResponseResult",
    "FaultSweepReport",
    "FaultyPredicate",
    "FaultyShrinkResult",
    "MODES",
    "MultiGeometrySweepReport",
    "RESPONSE_CAPTURES",
    "ResponseBudgetExceeded",
    "ResponseCapture",
    "ResponseDivergence",
    "capture_cycle_response",
    "capture_response",
    "check_coverage_conformance",
    "check_fault_conformance",
    "coverage_disagreement_predicate",
    "fault_detection_predicate",
    "fault_response_predicate",
    "first_fail_divergence",
    "random_fault",
    "run_fault_sweep",
    "run_fault_sweeps",
    "shrink_faulty_sample",
    "simpler_fault_specs",
    "spec_expressible",
    "stratified_sample",
    "sweep_faults",
]
