"""Batch-kernel execution of fault-response conformance sweeps.

The scalar sweep (:func:`repro.conformance.faulty.check.run_fault_sweep`)
captures the golden stream plus one stream per differential partner for
every (stimulus, fault) pair.  This module reaches the same report with
two structural savings:

* **per stimulus**: the test is resolved to its
  :class:`~repro.conformance.faulty.check.Stimulus` and every partner's
  stream (the three architectures of a march test, the FSM controller
  and replay of a PRT session, the replay of an in-field session) is
  built once and verified op-for-op equal to the golden stream.
  Response capture is a deterministic function of the normalised ops
  alone, so identical streams give identical captures for *every*
  fault — the per-partner sessions per fault disappear entirely;
* **per fault**: the remaining golden capture is evaluated by the lane
  kernel, hundreds of faults per replay of the stream.

Anything outside those preconditions falls back to the scalar path and
is counted in the report's ``fallback_runs``:

* per fault — no validated lane semantics
  (:func:`~repro.vector.semantics.lane_spec` returned ``None``);
* per test — a cycle-capture stimulus (``concurrent`` mode: the kernel
  has no same-cycle lane semantics), a replaced partner capture path
  (the seeded-defect harness swaps :data:`RESPONSE_CAPTURES` entries;
  capture identity is the precondition the per-test saving rests on), a
  word width beyond the kernel's element size, a golden stream that is
  not realisable or overruns the op budget, a partner stream that
  failed to build with a non-skip error or diverged from the golden
  stream, or a tripped fault-free reference lane
  (:class:`~repro.vector.errors.VectorEngineError`).

The fallback runs the scalar engine's own per-pair check on the test's
already-resolved stimulus (whose streams were built once, during
planning), so its results — including failure records and raised
errors — are the scalar engine's own, byte for byte.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.conformance.faulty import events as faulty_events
from repro.conformance.faulty.check import (
    FaultSweepReport,
    Stimulus,
    _check_pair,
    _op_budget,
    _sharded_sweep,
    check_fault_conformance,  # noqa: F401  (perfbench/layers.py patches it)
    resolve_stimulus,
)
from repro.conformance.faulty.events import (
    FailEvent,
    ResponseBudgetExceeded,
    ResponseCapture,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.base import CellFault
from repro.march.test import MarchTest
from repro.vector.errors import UnsupportedFault, VectorEngineError
from repro.vector.kernel import MAX_WIDTH, evaluate_lanes, state_dtype
from repro.vector.ops import CompiledStream, compile_stream
from repro.vector.semantics import lane_spec

#: Per-batch state budget; lane counts are chunked so the state array
#: stays cache-friendly even for full universes on large geometries.
LANE_BUDGET_BYTES = 32 << 20


def _plan_test(
    stimulus: Stimulus,
    caps: ControllerCapabilities,
    max_ops: Optional[int],
) -> Optional[Tuple[CompiledStream, int]]:
    """Compile the golden stream and verify every partner against it.

    Returns ``(compiled_golden, skipped_partners)`` when every partner
    either is not realisable (a skip) or emits a stream op-for-op equal
    to the golden stream within the op budget, through the shared
    capture path; ``None`` sends the whole test to the scalar engine.
    """
    if (
        stimulus.cycle
        or caps.width > MAX_WIDTH
        or any(
            partner.capture is not faulty_events.capture_response
            for partner in stimulus.partners
        )
    ):
        return None
    golden_stream = stimulus.golden().stream
    if golden_stream is None:
        return None
    if len(golden_stream) > _op_budget(golden_stream, max_ops):
        return None  # scalar reproduces the budget trip exactly
    compiled = compile_stream(golden_stream, (1 << caps.width) - 1)
    skipped = 0
    for partner in stimulus.partners:
        built = partner.build()
        if built.status == "skipped":
            skipped += 1
            continue
        if built.stream is None:
            return None  # error statuses produce per-fault failure records
        if len(built.stream) != compiled.length:
            return None
        if [entry.key for entry in built.stream] != compiled.keys:
            return None
    return compiled, skipped


def _lane_chunk(caps: ControllerCapabilities) -> int:
    """Lanes per kernel batch within :data:`LANE_BUDGET_BYTES`."""
    row_bytes = caps.n_words * state_dtype(caps.width)().itemsize
    return max(16, LANE_BUDGET_BYTES // max(row_bytes, 1))


def _detections(
    compiled: CompiledStream,
    caps: ControllerCapabilities,
    faults: Sequence[CellFault],
) -> Optional[Dict[int, bool]]:
    """Detection verdict per fault index, for faults with lane semantics.

    ``None`` when the kernel's self-check tripped: nothing from the
    batch is safe.
    """
    specs = []
    spec_fault_indices = []
    for index, fault in enumerate(faults):
        spec = lane_spec(fault, caps.n_words, caps.width, caps.ports)
        if spec is not None:
            specs.append(spec)
            spec_fault_indices.append(index)
    detected: Dict[int, bool] = {}
    chunk = _lane_chunk(caps)
    try:
        for start in range(0, len(specs), chunk):
            lane_events, _ = evaluate_lanes(
                compiled, caps.n_words, caps.width,
                specs[start:start + chunk],
            )
            for offset, events in enumerate(lane_events):
                detected[spec_fault_indices[start + offset]] = bool(events)
    except VectorEngineError:
        return None
    return detected


def _sweep_test_into(
    report: FaultSweepReport,
    test: MarchTest,
    caps: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool,
    max_ops: Optional[int],
    mode: str,
) -> None:
    """Sweep one test over the fault population, fault order preserved."""
    stimulus = resolve_stimulus(test, caps, mode, compress=compress)
    plan = _plan_test(stimulus, caps, max_ops)
    detected = None if plan is None else _detections(plan[0], caps, faults)
    for index, fault in enumerate(faults):
        if detected is not None and index in detected:
            report.checked += 1
            report.detected += detected[index]
            report.skipped_runs += plan[1]
        else:
            report.add(_check_pair(stimulus, test, caps, fault, max_ops))
            report.fallback_runs += 1


def _vector_shard(
    args: Tuple[int, Sequence[MarchTest], ControllerCapabilities,
                Sequence[CellFault], int, int, bool, Optional[int], str]
) -> FaultSweepReport:
    """Worker entry point: sweep tests ``start..start+count-1``.

    Vector batches are per-test, so shards are contiguous *test* chunks
    (unlike the scalar engine's product chunks); the product order
    inside each shard is still algorithm-major, so merged reports match
    the serial sweep byte for byte.
    """
    (shard_index, tests, caps, faults, start, count, compress,
     max_ops, mode) = args
    started = time.perf_counter()
    report = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports), engine="vector",
        mode=mode,
    )
    for test in tests[start:start + count]:
        _sweep_test_into(report, test, caps, faults, compress, max_ops, mode)
    report.shards = [{
        "shard": shard_index,
        "runs": count * len(faults),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }]
    return report


def run_vector_fault_sweep(
    tests: Sequence[MarchTest],
    capabilities: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool = True,
    max_ops: Optional[int] = None,
    jobs: int = 1,
    mode: str = "sequential",
    service: Optional[Any] = None,
    store: Optional[Any] = None,
    resume: bool = False,
    shard_timeout: Optional[float] = None,
    chaos: Optional[Any] = None,
) -> FaultSweepReport:
    """Vector-engine counterpart of ``run_fault_sweep`` (same report).

    Sharding is by contiguous test chunks — each test is one batch
    evaluation, so splitting inside a test would only re-replay the
    stream.  Reports merge in shard order; the payload (timing aside)
    is independent of ``jobs`` and equal to the scalar engine's.  The
    service knobs (shared engine, result store, resume, per-shard
    timeout, chaos plan) have ``run_fault_sweep``'s semantics; store
    keys carry ``axis="tests"`` and ``engine="vector"``, so vector
    shards never collide with the scalar engine's product shards.

    Raises:
        SweepInterrupted: SIGINT during a sharded run; carries the
            partial report.
    """
    tests = list(tests)
    faults = list(faults)
    return _sharded_sweep(
        _vector_shard, "vector", "tests", len(tests), 2,
        tests, capabilities, faults, compress, max_ops, jobs, mode,
        service, store, resume, shard_timeout, chaos,
    )


def vector_capture(
    stream,
    capabilities: ControllerCapabilities,
    fault: CellFault,
    max_ops: Optional[int] = None,
) -> ResponseCapture:
    """One fault's response capture via the lane kernel.

    The vector twin of
    :func:`~repro.conformance.faulty.events.capture_response` for a
    single fault — used by the differential tests and the fuzz
    cross-engine identity to compare captures event-for-event.

    Raises:
        UnsupportedFault: the fault has no validated lane semantics.
        ResponseBudgetExceeded: the stream overruns ``max_ops`` (same
            classification as the scalar capture).
    """
    caps = capabilities
    spec = lane_spec(fault, caps.n_words, caps.width, caps.ports)
    if spec is None:
        raise UnsupportedFault(
            f"no vector lane semantics for: {fault.describe()}"
        )
    if max_ops is not None and len(stream) > max_ops:
        raise ResponseBudgetExceeded(
            f"op budget of {max_ops} exceeded after "
            f"{max_ops} operation(s)"
        )
    compiled = compile_stream(stream, (1 << caps.width) - 1)
    lane_events, _ = evaluate_lanes(
        compiled, caps.n_words, caps.width, [spec]
    )
    events: List[FailEvent] = []
    for op_index, observed in lane_events[0]:
        events.append(
            FailEvent(
                op_index=op_index,
                port=int(compiled.ports[op_index]),
                address=int(compiled.addresses[op_index]),
                expected=int(compiled.data[op_index]),
                observed=observed,
                owner=compiled.owners[op_index],
            )
        )
    return ResponseCapture(ops_applied=compiled.length, events=events)
