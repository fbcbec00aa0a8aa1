"""Which entry points the traced run wraps, layer by layer.

Each function patches one group of layers on a :class:`Tracer`.  A
name is replaced at every site its callers look it up, and nowhere
else:

* ``capture_response`` is one wrapper object installed in
  ``events``, in ``faulty.check`` *and* in every ``RESPONSE_CAPTURES``
  entry.  The vector sweep only takes its fast path while those table
  entries are identical to ``events.capture_response``
  (``_captures_patched``); replacing only some of them would silently
  send every pair to the scalar oracle.  The traced run asserts that
  its ``fallback_runs`` equals the untraced run's.
* ``check_fault_conformance`` is looked up in ``faulty.check`` (scalar
  shards) and in ``vector.sweep`` (the counted fallback); both get the
  same wrapper.
"""

from __future__ import annotations

from tracing import Tracer


def _lane_ops(tracer: Tracer, result, args, kwargs) -> None:
    compiled, specs = args[0], args[3]
    tracer.counters["vector.lane_ops"] += compiled.length * (1 + len(specs))


def _capture_ops(tracer: Tracer, result, args, kwargs) -> None:
    if result is not None:
        tracer.counters["conformance.capture_ops"] += result.ops_applied


def _stream_key(architecture: str):
    def record(tracer: Tracer, result, args, kwargs) -> None:
        test, caps, compress = args
        tracer.distinct(
            "core.stream_build",
            (architecture, id(test), caps.n_words, caps.width, caps.ports,
             compress),
        )

    return record


def sweep_layers(tracer: Tracer) -> None:
    """Planning, kernel, scalar oracle, PRT and diagnosis layers."""
    from repro.conformance import check as stimulus_check
    from repro.conformance.faulty import check as faulty_check
    from repro.conformance.faulty import events
    from repro.diagnostics import classifier
    from repro.prt.controller import PrtController
    from repro.prt.session import PrtSession
    from repro.vector import sweep as vector_sweep

    tracer.patch(vector_sweep, "_plan_test", "vector.plan")
    tracer.patch(vector_sweep, "lane_spec", "vector.lane_spec")
    tracer.patch(vector_sweep, "compile_stream", "vector.compile")
    tracer.patch(
        vector_sweep, "evaluate_lanes", "vector.kernel", on_return=_lane_ops
    )
    tracer.patch(stimulus_check.GOLDEN_CACHE, "get", "conformance.golden")
    builders = stimulus_check.STREAM_BUILDERS
    for architecture, builder in list(builders.items()):
        tracer.replace_item(
            builders, architecture,
            tracer.wrap(
                "core.stream_build", builder,
                on_return=_stream_key(architecture),
            ),
        )
    check = tracer.patch(
        faulty_check, "check_fault_conformance", "conformance.check"
    )
    tracer.replace(vector_sweep, "check_fault_conformance", check)
    capture = tracer.patch(
        events, "capture_response", "conformance.capture",
        on_return=_capture_ops,
    )
    tracer.replace(faulty_check, "capture_response", capture)
    for architecture in list(faulty_check.RESPONSE_CAPTURES):
        tracer.replace_item(
            faulty_check.RESPONSE_CAPTURES, architecture, capture
        )
    tracer.patch(PrtSession, "attributed_stream", "prt.session_stream")
    tracer.patch(PrtController, "attributed_stream", "prt.controller_stream")
    tracer.patch(classifier, "classify", "diagnostics.classify")


def report_layer(tracer: Tracer) -> None:
    """Shard-report merge and JSON serialisation."""
    from repro.conformance.faulty.check import FaultSweepReport

    tracer.patch(FaultSweepReport, "merge", "conformance.report")
    tracer.patch(FaultSweepReport, "to_json", "conformance.report")


def service_layers(tracer: Tracer) -> None:
    """Job-engine dispatch and result-store I/O (orchestrator side)."""
    from repro.service.engine import JobEngine
    from repro.service.store import ResultStore

    tracer.patch(JobEngine, "run", "service.engine_run")
    tracer.patch(ResultStore, "put", "service.store_put")
    tracer.patch(ResultStore, "get", "service.store_get")


def coverage_layers(tracer: Tracer) -> None:
    """The static prover: certify, support extraction, projected runs,
    certificate serialisation."""
    from repro.analysis import coverage
    from repro.analysis.coverage import prover

    tracer.patch(coverage, "certify", "coverage.certify")
    tracer.patch(prover, "support_of", "coverage.support")
    tracer.patch(prover._Projection, "run", "coverage.project")
    tracer.patch(coverage.CoverageCertificate, "to_json", "coverage.report")
