"""Differential fault-response conformance of the three architectures.

PR 3's :func:`repro.conformance.check_conformance` proves the
architectures emit identical *stimulus* on fault-free memories; this
module proves they give identical *verdicts* on broken ones — the
property the paper actually sells (detection, fail logging, diagnosis
across fabrication stages).  :func:`check_fault_conformance` runs every
architecture's full BIST session against *the same* injected fault
(fresh :meth:`~repro.faults.injector.FaultInjector.injected` context
per run, so dynamic fault state and cell contents never leak between
architectures; an architecture that emits the golden stream through
the golden capture path shares the golden run, see
:func:`shares_golden_capture`) and differentially compares the
responses on three layers, most precise first:

1. **fail events** — the normalised event streams of
   :mod:`repro.conformance.faulty.events`, failure for failure, with a
   provenance-attributed first divergence;
2. **fail-log aggregations** — the
   :class:`~repro.diagnostics.faillog.FailLog` views downstream repair
   consumes (failing addresses / failing cells, in first-failure
   order);
3. **diagnosis** — the :func:`repro.diagnostics.classifier.classify`
   verdict per failing cell.

The golden reference response is the golden expansion applied to the
same fault.  Statuses mirror the stimulus checker and add robustness
classification: ``skipped`` (progfsm outside SM0–SM7), ``error`` (a
controller that hangs, crashes, or overruns the per-run op budget on a
decoder-fault memory is a harness *error*, not a response mismatch)
and ``diverged`` with the offending layer named.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from operator import eq
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.conformance.check import (
    ARCHITECTURES,
    CONCURRENT_CACHE,
    GOLDEN_CACHE,
    STREAM_BUILDERS,
)
from repro.conformance.divergence import first_difference
from repro.conformance.trace import Stream, normalize, stimulus_notation
from repro.conformance.faulty.events import (
    ResponseBudgetExceeded,
    ResponseCapture,
    capture_cycle_response,
    capture_response,
)
from repro.core.controller import ControllerCapabilities
from repro.diagnostics.faillog import FailLog
from repro.faults.base import CellFault
from repro.faults.injector import FaultInjector
from repro.faults.spec import format_fault
from repro.march.notation import format_test
from repro.march.simulator import Failure
from repro.march.test import MarchTest
from repro.memory.sram import Sram
from repro.sweep_options import ENGINES, MODES

#: Default per-run op budget, as a multiple of the golden stream length
#: (every conformant run applies exactly the golden length; the slack
#: only exists so a defective response path is *observed* diverging
#: instead of tripping the budget on the first extra op).
DEFAULT_BUDGET_FACTOR = 4

#: Response-capture path per architecture.  All three default to the
#: shared :func:`capture_response`, but the indirection is the honest
#: model: in silicon each architecture owns its comparator and fail
#: registers, and a defect there (wrong expected polarity, an off-by-one
#: in the latched op index) is architecture-local.  The seeded-defect
#: tests plant exactly such defects here.
RESPONSE_CAPTURES = {architecture: capture_response
                     for architecture in ARCHITECTURES}

#: The comparison layers, most precise first.
LAYERS: Tuple[str, ...] = ("events", "faillog", "diagnosis")


def _regime_tag(mode: str) -> str:
    """Report-header tag naming a non-default stimulus regime."""
    return {"sequential": ""}.get(mode, f" [{mode} mode]")


@dataclass(frozen=True)
class ResponseDivergence:
    """First fail-event disagreement between golden and a candidate.

    ``kind`` is ``mismatch`` (both logged an event, different ones),
    ``missing`` (the candidate logged fewer events) or ``extra`` (the
    candidate logged events the golden response does not have).  The
    owners are the program locations that issued the two reads, looked
    up in each stream by op index (``""`` past its end).
    """

    architecture: str
    index: int
    reference: Optional[Failure]
    candidate: Optional[Failure]
    reference_owner: str
    candidate_owner: str

    @property
    def kind(self) -> str:
        if self.candidate is None:
            return "missing"
        if self.reference is None:
            return "extra"
        return "mismatch"

    def describe(self) -> str:
        expected = _describe_event(self.reference, self.reference_owner)
        got = _describe_event(self.candidate, self.candidate_owner)
        return "\n".join([
            f"{self.architecture} fail log diverges from the golden "
            f"response at event {self.index} ({self.kind}):",
            f"  expected {expected}",
            f"  got      {got}",
        ])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "index": self.index,
            "kind": self.kind,
            "expected": _event_dict(self.reference, self.reference_owner),
            "got": _event_dict(self.candidate, self.candidate_owner),
        }


def _describe_event(failure: Optional[Failure], owner: str) -> str:
    """One side of a divergence report (None = stream end)."""
    if failure is None:
        return "<no event>"
    text = (
        f"op {failure.op_index}: p{failure.port} r@{failure.address} "
        f"expected {failure.expected:x} observed {failure.observed:x}"
    )
    return f"{text}  <- {owner}" if owner else text


def _event_dict(
    failure: Optional[Failure], owner: str
) -> Optional[Dict[str, Any]]:
    if failure is None:
        return None
    return {
        "op_index": failure.op_index,
        "port": failure.port,
        "address": failure.address,
        "expected": failure.expected,
        "observed": failure.observed,
        "owner": owner,
    }


def first_fail_divergence(
    reference: Sequence[Failure],
    candidate: Sequence[Failure],
    architecture: str,
    reference_stream: Stream,
    candidate_stream: Stream,
) -> Optional[ResponseDivergence]:
    """Compare two failure lists event for event; the streams that
    produced them name the owners of the first disagreement."""
    index = first_difference(reference, candidate)
    if index is None:
        return None
    ref = reference[index] if index < len(reference) else None
    cand = candidate[index] if index < len(candidate) else None
    return ResponseDivergence(
        architecture=architecture,
        index=index,
        reference=ref,
        candidate=cand,
        reference_owner=reference_stream.owner(ref.op_index) if ref else "",
        candidate_owner=candidate_stream.owner(cand.op_index) if cand else "",
    )


@dataclass
class ArchitectureResponse:
    """One architecture's fault-response verdict.

    Attributes:
        architecture: architecture name.
        status: ``ok`` | ``diverged`` | ``skipped`` | ``error``.
        ops_applied: operations the BIST session executed.
        event_count: fail events the session logged.
        failing_cells: distinct failing (address, bit) cells, in
            first-failure order (the fail-log aggregation layer).
        diagnosis: classifier verdict per failing cell, as
            ``"(addr,bit): label"`` strings (the diagnosis layer).
        layer: the first comparison layer that disagreed (diverged
            status only).
        divergence: the attributed first event disagreement, when the
            events layer is the one that diverged.
        mismatch: human-readable disagreement of a coarser layer, when
            the events agreed but an aggregation did not (defensive —
            reachable only through an architecture-local response-path
            defect downstream of event capture).
        detail: skip reason or error classification.
    """

    architecture: str
    status: str = "ok"
    ops_applied: int = 0
    event_count: int = 0
    failing_cells: List[Tuple[int, int]] = field(default_factory=list)
    diagnosis: List[str] = field(default_factory=list)
    layer: Optional[str] = None
    divergence: Optional[ResponseDivergence] = None
    mismatch: Optional[str] = None
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Skips do not fail the check (flexibility boundary)."""
        return self.status in ("ok", "skipped")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "status": self.status,
            "ops_applied": self.ops_applied,
            "event_count": self.event_count,
            "failing_cells": [list(cell) for cell in self.failing_cells],
            "diagnosis": self.diagnosis,
            "layer": self.layer,
            "divergence": (
                self.divergence.to_dict() if self.divergence else None
            ),
            "mismatch": self.mismatch,
            "detail": self.detail,
        }


@dataclass
class FaultResponseResult:
    """Outcome of one differential fault-response check."""

    notation: str
    geometry: Tuple[int, int, int]
    fault: str
    fault_spec: Optional[str]
    compress: bool
    golden_events: int = 0
    responses: List[ArchitectureResponse] = field(default_factory=list)
    mode: str = "sequential"

    @property
    def ok(self) -> bool:
        return all(response.ok for response in self.responses)

    @property
    def detected(self) -> bool:
        """Whether the golden reference response saw the fault at all."""
        return self.golden_events > 0

    @property
    def failures(self) -> List[ArchitectureResponse]:
        return [response for response in self.responses if not response.ok]

    def describe_failures(self) -> str:
        parts = []
        for response in self.failures:
            if response.status == "error":
                parts.append(f"{response.architecture}: {response.detail}")
            elif response.divergence is not None:
                parts.append(response.divergence.describe())
            else:
                parts.append(
                    f"{response.architecture}: {response.layer} layer "
                    f"disagrees ({response.mismatch})"
                )
        return "; ".join(parts)

    def format(self) -> str:
        regime = _regime_tag(self.mode)
        lines = [
            f"fault-response conformance {self.geometry}{regime}: "
            f"{self.notation}",
            f"  fault: {self.fault}"
            + (f"  [{self.fault_spec}]" if self.fault_spec else ""),
            f"  golden response: {self.golden_events} fail event(s)"
            + ("" if self.detected else "  (fault not detected)"),
        ]
        for response in self.responses:
            name = f"  {response.architecture:<10}"
            if response.status == "skipped":
                lines.append(f"{name} skipped ({response.detail})")
            elif response.status == "error":
                lines.append(f"{name} ERROR: {response.detail}")
            elif response.status == "diverged":
                lines.append(f"{name} DIVERGES ({response.layer} layer)")
                body = (
                    response.divergence.describe()
                    if response.divergence
                    else response.mismatch or ""
                )
                lines.extend("    " + line for line in body.splitlines())
            else:
                lines.append(
                    f"{name} ok ({response.event_count} event(s), "
                    f"identical fail log and diagnosis)"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "notation": self.notation,
            "geometry": list(self.geometry),
            "fault": self.fault,
            "fault_spec": self.fault_spec,
            "compress": self.compress,
            "mode": self.mode,
            "golden_events": self.golden_events,
            "detected": self.detected,
            "ok": self.ok,
            "architectures": [r.to_dict() for r in self.responses],
        }


def _diagnose(
    log: FailLog,
    test: MarchTest,
    caps: ControllerCapabilities,
) -> List[str]:
    """Classifier verdicts of one fail log, as comparable strings.

    A defective architecture can log op indices outside the golden
    stream; the classifier is downstream tooling and must not take the
    harness down, so its crash is folded into the comparable verdict.
    """
    from repro.diagnostics.classifier import classify

    try:
        diagnoses = classify(
            log,
            test,
            caps.n_words,
            width=caps.width,
            ports=caps.ports,
        )
    except Exception as error:
        return [f"<classifier failed: {error}>"]
    return [
        f"({d.address},{d.bit}): {d.label}" for d in diagnoses
    ]


class NotRealisable(Exception):
    """A stimulus (or one partner's realisation of it) does not exist
    here — progfsm outside SM0–SM7, no transparent variant.  The
    differential loop reports it as ``skipped``, never as a failure."""


@dataclass(frozen=True)
class BuildOutcome:
    """The typed outcome of one stream build.

    ``stream`` is the built stream; when it is ``None`` the build ended
    as ``status`` — ``skipped`` (not realisable) or ``error`` (the
    builder hung or crashed) — for the reason in ``detail``.  A
    :class:`Stimulus` records the outcome rather than the exception:
    re-raising one exception object for every fault would grow its
    traceback on each pair.
    """

    stream: Optional[Stream] = None
    status: str = "ok"
    detail: Optional[str] = None


def _build_outcome(
    build: Callable[[], Stream], partner: bool
) -> BuildOutcome:
    """Run ``build`` and classify how it ended.

    Not realisable is ``skipped`` for every builder.  A partner that
    hangs (``RuntimeError``) or crashes is an ``error`` outcome; a
    golden builder's crash propagates — there is nothing to compare.
    """
    try:
        return BuildOutcome(build())
    except NotRealisable as error:
        return BuildOutcome(status="skipped", detail=str(error))
    except Exception as error:
        if not partner:
            raise
        if isinstance(error, RuntimeError):
            detail = f"simulation did not terminate: {error}"
        else:
            detail = f"controller crashed: {type(error).__name__}: {error}"
        return BuildOutcome(status="error", detail=detail)


def _once(
    build: Callable[[], Stream], partner: bool = True
) -> Callable[[], BuildOutcome]:
    """``build`` run on the first call only; later calls replay its
    recorded :class:`BuildOutcome`."""
    memo: List[BuildOutcome] = []

    def built() -> BuildOutcome:
        if not memo:
            memo.append(_build_outcome(build, partner))
        return memo[0]

    return built


@dataclass(frozen=True)
class Partner:
    """One differential partner: how it builds its stream, how it captures.

    ``build`` takes no arguments and returns the partner's
    :class:`BuildOutcome`, building the stream on the first call only;
    ``capture`` has :func:`capture_response`'s signature.
    """

    name: str
    build: Callable[[], BuildOutcome]
    capture: Callable[..., ResponseCapture]


@dataclass(frozen=True)
class Stimulus:
    """Everything the differential loop needs to know about one stimulus.

    A controller's stream is a function of (stimulus, geometry,
    compression), never of the fault, so the golden and partner
    builders run at most once per :class:`Stimulus` and every fault
    checked against it reuses their outcomes.  Likewise the fail-log
    aggregations are a function of the fail log alone: ``aggregations``
    memoises them per distinct log, so the classifier runs once per
    distinct log however many captures produce it.  Captures are per
    pair, and a partner shares the golden capture exactly when
    :func:`shares_golden_capture` holds; ``golden_matches`` memoises
    the stream compare that rule rests on.

    Attributes:
        name: fail-log name (the algorithm or session name).
        notation: stable string identity, as reports print it.
        mode: the stimulus regime reported in results (see :data:`MODES`).
        golden: zero-argument, memoised builder of the golden reference
            stream's :class:`BuildOutcome` (``stream`` or ``skipped``).
        partners: the differential partners, in report order.
        compress: microcode REPEAT compression the streams were built
            with (reported in results).
        cycle: golden stream is a same-cycle multi-port cycle stream
            (captured with :func:`capture_cycle_response`).
        march: a sequential march stimulus — the golden stream is
            :func:`~repro.march.simulator.expand` of the notation, so
            the diagnosis layer applies (the classifier's op-index model
            is that stream) and the projected sweep decides verdicts
            from the notation without building the stream.
        aggregations: memo of :func:`_aggregate`, keyed by a fail
            log's failures, holding its ``(failing cells, diagnosis)``.
        golden_matches: memo of :func:`matches_golden`, keyed by
            partner name.
            Neither memo is an ``__init__`` argument, so every
            :class:`Stimulus`, including a :func:`dataclasses.replace`
            copy, starts empty.
    """

    name: str
    notation: str
    mode: str
    golden: Callable[[], BuildOutcome]
    partners: Tuple[Partner, ...]
    compress: bool = True
    cycle: bool = False
    march: bool = False
    aggregations: Dict[
        Tuple[Failure, ...], Tuple[List[Tuple[int, int]], List[str]]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)
    golden_matches: Dict[str, bool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def matches_golden(stimulus: Stimulus, partner: Partner) -> bool:
    """Whether ``partner`` builds the golden stream op for op.

    Streams are compared by normalised key
    (:func:`~repro.conformance.trace.normalize`), the only part of an op
    a capture reads; a stream that was not built (skipped, error)
    matches nothing.  Both streams are functions of the stimulus, so the
    compare runs once per (stimulus, partner) and is memoised on
    ``stimulus``.
    """
    matches = stimulus.golden_matches.get(partner.name)
    if matches is None:
        golden, built = stimulus.golden().stream, partner.build().stream
        matches = (
            golden is not None and built is not None
            and len(golden) == len(built)
            and all(map(eq, map(normalize, golden.ops),
                         map(normalize, built.ops)))
        )
        stimulus.golden_matches[partner.name] = matches
    return matches


def shares_golden_capture(
    stimulus: Stimulus,
    partner: Partner,
    capture_golden: Callable[..., ResponseCapture],
) -> bool:
    """Whether ``partner``'s capture of a pair *is* the golden capture.

    A fault's response is a function of the ops applied alone, not of
    the controller that issued them, so a controller partner of a march
    stimulus that captures through the golden path (identity, not
    equality: a swapped :data:`RESPONSE_CAPTURES` entry never shares)
    and builds the golden stream (:func:`matches_golden`) gets the
    golden :class:`ResponseCapture` instead of a session of its own.
    Replay and PRT-controller partners always capture on their own
    memory: that second session is how they catch leaked fault state
    or a non-deterministic stimulus.
    """
    return (
        stimulus.march
        and partner.capture is capture_golden
        and matches_golden(stimulus, partner)
    )


def resolve_stimulus(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    mode: str = "sequential",
    infield_seed: int = 0,
    architectures: Sequence[str] = ARCHITECTURES,
    compress: bool = True,
) -> Stimulus:
    """Describe ``test`` under ``mode`` as a :class:`Stimulus`.

    The only place that knows the stimulus families apart:

    * a march test in ``sequential`` mode is checked against the
      controller ``architectures``, each capturing through its
      :data:`RESPONSE_CAPTURES` entry, with the diagnosis layer;
    * a :class:`~repro.prt.session.PrtSession` (sequential only) is
      checked against its cycle-stepped FSM (``prt-controller``) and an
      independent rebuild of the session stream (``replay``);
    * the ``concurrent`` and ``infield`` regimes have no controller
      realisation (the paper's architectures are sequential by
      construction), so the partner is a ``replay`` of the golden
      stream on a freshly injected memory: leaking fault state or a
      non-deterministic stimulus surfaces as a replay divergence.

    Nothing is built here.  Each builder runs on its first call and
    records its :class:`BuildOutcome`; the architecture builders are
    looked up in :data:`~repro.conformance.check.STREAM_BUILDERS` at
    that moment, not at resolve time.

    Raises:
        ValueError: unknown mode or architecture, or a PRT session in a
            non-sequential mode.
    """
    from repro.prt.session import PrtSession

    caps = capabilities
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {list(MODES)}")
    unknown = set(architectures) - set(ARCHITECTURES)
    if unknown:
        raise ValueError(
            f"unknown architecture(s) {sorted(unknown)}; "
            f"known: {list(ARCHITECTURES)}"
        )
    if isinstance(test, PrtSession):
        from repro.prt.controller import PrtController

        if mode != "sequential":
            raise ValueError(
                f"PRT sessions are sequential stimuli; mode {mode!r} is "
                "not realisable"
            )

        def session_stream():
            return test.attributed_stream(caps)

        def controller_stream():
            return PrtController(test.config, caps).attributed_stream()

        return Stimulus(
            test.name, test.notation, mode,
            _once(session_stream, partner=False),
            (Partner("prt-controller", _once(controller_stream),
                     capture_response),
             Partner("replay", _once(session_stream), capture_response)),
            compress,
        )
    notation = format_test(test)
    if mode == "sequential":
        from repro.core.progfsm.compiler import CompileError

        def architecture_stream(architecture: str):
            try:
                return STREAM_BUILDERS[architecture](test, caps, compress)
            except CompileError as error:
                raise NotRealisable(
                    f"outside the SM0-SM7 boundary: {error}"
                ) from error

        partners = tuple(
            Partner(
                architecture,
                _once(functools.partial(architecture_stream, architecture)),
                RESPONSE_CAPTURES[architecture],
            )
            for architecture in ARCHITECTURES
            if architecture in architectures
        )
        return Stimulus(
            test.name, notation, mode,
            _once(lambda: GOLDEN_CACHE.get(test, caps), partner=False),
            partners, compress, march=True,
        )
    if mode == "concurrent":
        def cycle_stream():
            return CONCURRENT_CACHE.get(test, caps)

        return Stimulus(
            test.name, notation, mode, _once(cycle_stream, partner=False),
            (Partner("replay", _once(cycle_stream), capture_cycle_response),),
            compress, cycle=True,
        )

    def infield_stream():
        from repro.conformance.infield import cached_infield_plan

        try:
            plan = cached_infield_plan(caps, seed=infield_seed, tests=(test,))
        except ValueError as error:
            raise NotRealisable(
                f"no transparent variant: {error}"
            ) from error
        return plan.stream

    return Stimulus(
        test.name, notation, mode, _once(infield_stream, partner=False),
        (Partner("replay", _once(infield_stream), capture_response),),
        compress,
    )


def _op_budget(length: int, max_ops: Optional[int]) -> int:
    """The per-run op budget for a golden stream of ``length`` ops:
    ``max_ops``, or the default multiple."""
    if max_ops is not None:
        return max_ops
    return DEFAULT_BUDGET_FACTOR * max(length, 1)


def check_fault_conformance(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    fault: CellFault,
    architectures: Sequence[str] = ARCHITECTURES,
    compress: bool = True,
    max_ops: Optional[int] = None,
    mode: str = "sequential",
    infield_seed: int = 0,
) -> FaultResponseResult:
    """Differentially test the partners' responses to ``fault``.

    The stimulus is resolved (:func:`resolve_stimulus`), then checked
    against ``fault`` by :func:`_check_pair`: each partner's stream is
    captured under a freshly injected ``fault`` (or shares the golden
    capture, :func:`shares_golden_capture`) and compared with the
    golden capture layer by layer — events, fail log and (where it
    applies) diagnosis.  Typed outcomes: a partner that is not
    realisable is ``skipped``; one that fails to build, trips the op
    budget or crashes is an ``error``.

    Args:
        test: the march algorithm, or a
            :class:`repro.prt.session.PrtSession` (sequential mode
            only; compared against its FSM controller and a replay).
        capabilities: memory geometry all controllers target.
        fault: the single fault injected for every run (state is reset
            between runs by the injector).
        architectures: subset of :data:`ARCHITECTURES` to compare
            (sequential march tests only).
        compress: microcode REPEAT compression.
        max_ops: per-run op budget; defaults to
            :data:`DEFAULT_BUDGET_FACTOR` × the golden stream length.
        mode: stimulus regime (see :data:`MODES`).  The non-sequential
            regimes compare golden against an independent replay
            instead of the controller architectures.
        infield_seed: session seed for ``mode="infield"``.

    Returns:
        A :class:`FaultResponseResult`; ``.ok`` means every compared
        partner produced the golden fail events, fail-log aggregations
        and diagnosis.
    """
    stimulus = resolve_stimulus(
        test, capabilities, mode, infield_seed, architectures, compress
    )
    return _check_pair(stimulus, test, capabilities, fault, max_ops)


def _aggregate(
    stimulus: Stimulus,
    capture: ResponseCapture,
    test: MarchTest,
    caps: ControllerCapabilities,
) -> Tuple[List[Tuple[int, int]], List[str]]:
    """The fail-log layers of one capture: its failing cells and (for
    a march stimulus) its diagnosis.

    Both are pure functions of the fail log, so they are computed once
    per distinct log and memoised on ``stimulus``; each call returns
    its own copies, so no two responses share a list.  The key is the
    log the capture aggregates, not its events: a response path whose
    aggregation disagrees with its events still gets its own entry.
    """
    log = capture.log(stimulus.name)
    key = tuple(log.failures)
    layers = stimulus.aggregations.get(key)
    if layers is None:
        layers = stimulus.aggregations[key] = (
            log.failing_cells(),
            _diagnose(log, test, caps) if stimulus.march else [],
        )
    cells, diagnosis = layers
    return list(cells), list(diagnosis)


def _check_pair(
    stimulus: Stimulus,
    test: MarchTest,
    caps: ControllerCapabilities,
    fault: CellFault,
    max_ops: Optional[int],
) -> FaultResponseResult:
    """Check one resolved stimulus against one fault.

    The streams come from the stimulus's memoised builders (built on
    the first fault, replayed for the rest); everything fault-dependent
    happens here, per pair: a fresh :class:`FaultInjector` memory for
    the golden capture and for each partner that does not share it
    (:func:`shares_golden_capture`), the op budget, and the three-layer
    compare.  The fail-log layers come from the stimulus's aggregation
    memo (:func:`_aggregate`).
    """
    result = FaultResponseResult(
        notation=stimulus.notation,
        geometry=(caps.n_words, caps.width, caps.ports),
        fault=fault.describe(),
        fault_spec=format_fault(fault),
        compress=stimulus.compress,
        mode=stimulus.mode,
    )
    golden_built = stimulus.golden()
    if golden_built.stream is None:
        result.responses = [
            ArchitectureResponse(
                partner.name, "skipped", detail=golden_built.detail
            )
            for partner in stimulus.partners
        ]
        return result
    golden_stream = golden_built.stream
    budget = _op_budget(len(golden_stream), max_ops)
    capture_golden = (
        capture_cycle_response if stimulus.cycle else capture_response
    )
    injector = FaultInjector(
        Sram(caps.n_words, width=caps.width, ports=caps.ports)
    )
    with injector.injected(fault) as memory:
        golden = capture_golden(golden_stream, memory, max_ops=budget)
    result.golden_events = len(golden.events)
    golden_cells, golden_diagnosis = _aggregate(stimulus, golden, test, caps)

    for partner in stimulus.partners:
        response = ArchitectureResponse(architecture=partner.name)
        result.responses.append(response)
        built = partner.build()
        if built.stream is None:
            response.status = built.status
            response.detail = built.detail
            continue
        if shares_golden_capture(stimulus, partner, capture_golden):
            capture = golden
        else:
            try:
                with injector.injected(fault) as memory:
                    capture = partner.capture(
                        built.stream, memory, max_ops=budget
                    )
            except ResponseBudgetExceeded as error:
                response.status = "error"
                response.detail = f"wedged BIST session: {error}"
                continue
            except Exception as error:
                response.status = "error"
                response.detail = (
                    f"BIST session crashed: {type(error).__name__}: {error}"
                )
                continue
        response.ops_applied = capture.ops_applied
        response.event_count = len(capture.events)
        response.failing_cells, response.diagnosis = _aggregate(
            stimulus, capture, test, caps
        )

        divergence = first_fail_divergence(
            golden.events, capture.events, partner.name,
            golden_stream, built.stream,
        )
        if divergence is not None:
            response.status = "diverged"
            response.layer = "events"
            response.divergence = divergence
        elif response.failing_cells != golden_cells:
            response.status = "diverged"
            response.layer = "faillog"
            response.mismatch = (
                f"failing cells {response.failing_cells} != golden "
                f"{golden_cells}"
            )
        elif response.diagnosis != golden_diagnosis:
            response.status = "diverged"
            response.layer = "diagnosis"
            response.mismatch = (
                f"diagnosis {response.diagnosis} != golden "
                f"{golden_diagnosis}"
            )
    return result


def _first_failure_summary(failure: Dict[str, Any]) -> str:
    """The first non-ok architecture of a failure dict, with its layer.

    Multi-geometry sweeps print many failure lines; naming the diverged
    architecture and comparison layer (or the error class) makes each
    line actionable without opening the JSON report.
    """
    if failure.get("kind") == "shard-lost":
        return f"service: {failure.get('error', 'shard lost')}"
    for response in failure.get("architectures", []):
        status = response.get("status")
        if status in ("ok", "skipped"):
            continue
        if status == "error":
            return f"{response['architecture']}: error"
        return f"{response['architecture']}: {response.get('layer')} layer"
    return "no failing architecture recorded"


@dataclass
class FaultSweepReport:
    """Aggregated outcome of a (algorithms × faults) sweep.

    Reports are *mergeable*: a sharded sweep produces one report per
    shard and reduces them with :meth:`merge`, and because shards are
    contiguous chunks of the (algorithm, fault) product in serial
    order, the merged report is byte-identical to a serial sweep's —
    timing aside.  All timing lives under the ``timing`` key of
    :meth:`to_json` (pass ``include_timing=False`` to drop it), so the
    jobs-independence contract is simply "payloads without ``timing``
    compare equal".

    ``interrupted`` marks a *partial* report: a sweep stopped by SIGINT
    after some shards completed.  Its payload carries
    ``"interrupted": true`` so downstream tooling never mistakes it for
    a verdict; re-running with the same :class:`ResultStore` and
    ``resume=True`` completes the missing shards and yields the full
    report.  ``service_stats`` (retries, crashes, quarantines, store
    hit rates) lives under ``timing`` — execution metadata, not
    verdict.  So do the vector engine's ``fallback_runs`` and its
    partner accounting: ``partners_proved`` differential partners were
    verified from their program's op summary
    (:mod:`repro.core.walk`), ``partners_simulated`` by building their
    stream and comparing it with golden.
    """

    geometry: Tuple[int, int, int]
    checked: int = 0
    detected: int = 0
    skipped_runs: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)
    wall_time_s: float = 0.0
    jobs: int = 1
    shards: List[Dict[str, Any]] = field(default_factory=list)
    engine: str = "scalar"
    fallback_runs: int = 0
    partners_proved: int = 0
    partners_simulated: int = 0
    mode: str = "sequential"
    interrupted: bool = False
    service_stats: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, result: FaultResponseResult) -> None:
        self.checked += 1
        if result.detected:
            self.detected += 1
        self.skipped_runs += sum(
            1 for r in result.responses if r.status == "skipped"
        )
        if not result.ok:
            self.failures.append(result.to_dict())

    @classmethod
    def merge(
        cls, reports: Sequence["FaultSweepReport"]
    ) -> "FaultSweepReport":
        """Reduce shard reports (in shard order) into one report.

        Counters sum and failures concatenate, so as long as ``reports``
        arrives in shard order the merged failure list preserves the
        serial sweep's ordering exactly.
        """
        if not reports:
            raise ValueError("cannot merge an empty report sequence")
        geometries = {report.geometry for report in reports}
        if len(geometries) > 1:
            raise ValueError(
                f"cannot merge sweeps of different geometries: "
                f"{sorted(geometries)}"
            )
        engines = {report.engine for report in reports}
        if len(engines) > 1:
            raise ValueError(
                f"cannot merge sweeps of different engines: {sorted(engines)}"
            )
        modes = {report.mode for report in reports}
        if len(modes) > 1:
            raise ValueError(
                f"cannot merge sweeps of different modes: {sorted(modes)}"
            )
        merged = cls(
            geometry=reports[0].geometry,
            engine=reports[0].engine,
            mode=reports[0].mode,
        )
        for report in reports:
            merged.checked += report.checked
            merged.detected += report.detected
            merged.skipped_runs += report.skipped_runs
            merged.failures.extend(report.failures)
            merged.shards.extend(report.shards)
            merged.fallback_runs += report.fallback_runs
            merged.partners_proved += report.partners_proved
            merged.partners_simulated += report.partners_simulated
        return merged

    def format(self) -> str:
        engine = ""
        if self.engine != "scalar":
            engine = (
                f"  [{self.engine} engine, "
                f"{self.fallback_runs} scalar fallback(s), "
                f"{self.partners_proved} partner(s) proved, "
                f"{self.partners_simulated} simulated]"
            )
        regime = _regime_tag(self.mode)
        lines = [
            f"fault-response sweep {self.geometry}{regime}: {self.checked} "
            f"(algorithm, fault) runs, {self.detected} detected the "
            f"fault, {self.skipped_runs} skip(s), "
            f"{len(self.failures)} failure(s)" + engine
        ]
        for failure in self.failures:
            lines.append(
                f"  FAIL {tuple(failure['geometry'])} "
                f"{failure['notation']} under {failure['fault']}  "
                f"[{_first_failure_summary(failure)}]"
            )
        return "\n".join(lines)

    def to_json(self, include_timing: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "geometry": list(self.geometry),
            "mode": self.mode,
            "checked": self.checked,
            "detected": self.detected,
            "skipped_runs": self.skipped_runs,
            "ok": self.ok,
            "failures": self.failures,
        }
        if self.interrupted:
            payload["interrupted"] = True
        if include_timing:
            # Engine identity and fallback accounting live with the
            # timing block on purpose: the cross-engine contract is
            # "payloads without ``timing`` compare equal", and which
            # engine produced the numbers (and how often it had to ask
            # the scalar oracle) is execution metadata, not verdict.
            payload["timing"] = {
                "wall_time_s": round(self.wall_time_s, 6),
                "jobs": self.jobs,
                "runs_per_s": (
                    round(self.checked / self.wall_time_s, 2)
                    if self.wall_time_s > 0
                    else None
                ),
                "shards": self.shards,
                "engine": self.engine,
                "fallback_runs": self.fallback_runs,
                "partners_proved": self.partners_proved,
                "partners_simulated": self.partners_simulated,
            }
            if self.service_stats is not None:
                payload["timing"]["service"] = self.service_stats
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "FaultSweepReport":
        """Rebuild a report from its :meth:`to_json` payload.

        The resume path round-trips shard reports through the
        :class:`~repro.service.store.ResultStore`; this inverse keeps
        them mergeable with freshly computed shards.
        """
        timing = payload.get("timing") or {}
        return cls(
            geometry=tuple(payload["geometry"]),
            checked=payload.get("checked", 0),
            detected=payload.get("detected", 0),
            skipped_runs=payload.get("skipped_runs", 0),
            failures=list(payload.get("failures", [])),
            wall_time_s=timing.get("wall_time_s", 0.0),
            jobs=timing.get("jobs", 1),
            shards=list(timing.get("shards", [])),
            engine=timing.get("engine", "scalar"),
            fallback_runs=timing.get("fallback_runs", 0),
            partners_proved=timing.get("partners_proved", 0),
            partners_simulated=timing.get("partners_simulated", 0),
            mode=payload.get("mode", "sequential"),
            interrupted=bool(payload.get("interrupted", False)),
        )


class SweepInterrupted(RuntimeError):
    """SIGINT stopped a sweep; ``report`` holds the completed shards.

    The partial report is a real, mergeable artifact: it is marked
    ``interrupted`` and — when the sweep ran with a
    :class:`~repro.service.store.ResultStore` — every completed shard
    is already checkpointed, so rerunning the same sweep with
    ``resume=True`` finishes from where this one stopped.
    """

    def __init__(self, report: Any) -> None:
        self.report = report
        super().__init__("sweep interrupted; partial report preserved")


def _sweep_shard(
    args: Tuple[int, Sequence[MarchTest], ControllerCapabilities,
                Sequence[CellFault], int, int, bool, Optional[int], str]
) -> FaultSweepReport:
    """Worker entry point: check product pairs ``start..start+count-1``.

    The (algorithm, fault) product is flattened algorithm-major, the
    same order the serial loop visits, so the merged failure list
    matches the serial one — and a shard's pairs come in runs of one
    test.  Each test is resolved once per shard: its controller streams
    are built, and compared with the golden stream, on its first pair
    and reused for the rest, and its fail-log aggregations are
    memoised per distinct log, while capture and compare stay per pair
    (:func:`_check_pair`; a partner shares the golden capture by
    :func:`shares_golden_capture`).
    :func:`run_fault_sweep` cuts shards on test boundaries whenever a
    shard holds a whole test, so each test is then resolved once per
    sweep.  Only the current test's :class:`Stimulus` is held.
    """
    (shard_index, tests, caps, faults, start, count, compress,
     max_ops, mode) = args
    started = time.perf_counter()
    report = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports), mode=mode
    )
    end, per_test = start + count, len(faults)
    for test_index in range(start // per_test, (end - 1) // per_test + 1):
        test = tests[test_index]
        stimulus = resolve_stimulus(test, caps, mode, compress=compress)
        first = test_index * per_test
        for fault in faults[max(start - first, 0):end - first]:
            report.add(_check_pair(stimulus, test, caps, fault, max_ops))
    report.shards = [{
        "shard": shard_index,
        "runs": count,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }]
    return report


def _fault_cache_key(fault: CellFault) -> str:
    """A stable string identity for ``fault`` in store keys.

    Spec-expressible faults use their canonical spec string; the rest
    (randomised couplings etc.) fall back to :meth:`describe`, which
    names every parameter and is deterministic for a fixed population.
    """
    spec = format_fault(fault)
    if spec is not None:
        return spec
    return f"describe:{fault.describe()}"


def _shard_key_fields(
    axis: str,
    engine: str,
    mode: str,
    tests: Sequence[MarchTest],
    caps: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool,
    max_ops: Optional[int],
) -> Dict[str, Any]:
    """The store-key fields of one sweep's shards (minus the range).

    ``axis`` (what a shard slices) and ``engine`` keep the scalar
    engine's product shards and the vector engine's test shards from
    ever sharing — or poisoning — each other's cache entries.
    """
    from repro.service.store import payload_digest

    return {
        "kind": "fault-sweep-shard",
        "axis": axis,
        "tests": payload_digest([stimulus_notation(t) for t in tests]),
        "geometry": [caps.n_words, caps.width, caps.ports],
        "faults": payload_digest([_fault_cache_key(f) for f in faults]),
        "compress": compress,
        "max_ops": max_ops,
        "mode": mode,
        "engine": engine,
    }


def run_fault_sweep(
    tests: Sequence[MarchTest],
    capabilities: ControllerCapabilities,
    faults: Sequence[CellFault],
    compress: bool = True,
    max_ops: Optional[int] = None,
    jobs: int = 1,
    engine: str = "scalar",
    mode: str = "sequential",
    service: Optional[Any] = None,
    store: Optional[Any] = None,
    resume: bool = False,
    shard_timeout: Optional[float] = None,
    chaos: Optional[Any] = None,
) -> FaultSweepReport:
    """Check every (algorithm, fault) pair; used by CI and the CLI.

    A sweep that shards (``jobs > 1``, or any service knob) cuts its
    units into shards finer than the worker count, because stimuli
    differ widely in stream length and ``jobs``-sized chunks would
    leave workers idle behind the longest.  The scalar engine's units
    are the flattened (algorithm, fault) pairs, four shards per worker;
    a shard that holds at least one whole test is rounded down to whole
    tests, so each test is resolved, and its streams built, in exactly
    one shard.  The vector engine plans per test, so its units are
    whole tests, two shards per worker.  Shards run through
    :func:`~repro.service.engine.run_jobs`, each checkpointed in
    ``store`` as it completes, and merge in shard order, so the report
    (timing aside) is independent of the shard count.

    Args:
        tests: the stimuli to sweep — march algorithms and
            :class:`~repro.prt.session.PrtSession` objects, mixed.
        capabilities: memory geometry all controllers target.
        faults: the fault population (every fault runs against every
            algorithm).
        compress: microcode REPEAT compression.
        max_ops: per-run op budget override.
        jobs: worker-process count; 1 runs inline (no pool).
        engine: ``scalar`` (per-run :class:`~repro.memory.sram.Sram`
            simulation, the oracle) or ``vector`` (the projected engine
            of :mod:`repro.vector`: partners verified against the
            golden stream once per test, then one support-projected
            replay per fault or stratum; falls back to the scalar path
            per fault/test where a projection does not apply, and
            reports the fallback count).  The report payload (timing
            aside) is identical for both.
        mode: stimulus regime (see :data:`MODES`).  Sequential march,
            PRT and in-field sweeps are projected; a same-cycle group
            is not a sequence of single-port accesses, so every
            ``concurrent`` test takes the counted per-test scalar
            fallback (``fallback_runs == checked``).
        service: a shared :class:`~repro.service.engine.JobEngine` to
            run shards on (the multi-geometry sweep passes one pool for
            all geometries); ``None`` spins a private engine when the
            configuration shards.
        store: a :class:`~repro.service.store.ResultStore`; completed
            shards are checkpointed into it, and with ``resume=True``
            previously stored shards are cache hits.  Keys carry the
            engine and its shard axis, so the two engines never share
            (or poison) each other's entries.
        resume: read matching shard results back from ``store``.
        shard_timeout: per-shard wall-clock budget (seconds) enforced
            by the engine (ignored when a shared ``service`` engine
            carries its own).
        chaos: a :class:`~repro.service.chaos.ChaosPlan` misbehaving on
            schedule — test-only.

    Raises:
        SweepInterrupted: SIGINT during a sharded run; carries the
            partial report (see the class docstring).
    """
    if jobs <= 0:
        raise ValueError(f"need at least one job, got {jobs}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {list(ENGINES)}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {list(MODES)}")
    tests = list(tests)
    faults = list(faults)
    if engine == "vector":
        # Looked up per call, so a patched shard function takes effect.
        from repro.vector import sweep as vector_sweep

        shard_fn, axis, units, per_worker, pairs_per_unit = (
            vector_sweep._vector_shard, "tests", len(tests), 2, len(faults)
        )
    else:
        shard_fn, axis, units, per_worker, pairs_per_unit = (
            _sweep_shard, "product", len(tests) * len(faults), 4, 1
        )
    caps = capabilities
    geometry = (caps.n_words, caps.width, caps.ports)
    started = time.perf_counter()
    workers = min(jobs, units)
    serviced = service is not None or store is not None or chaos is not None
    if units == 0 or not faults:
        report = FaultSweepReport(geometry=geometry, engine=engine, mode=mode)
    elif workers == 1 and not serviced:
        report = shard_fn(
            (0, tests, caps, faults, 0, units, compress, max_ops, mode)
        )
    else:
        from repro.service.engine import run_jobs

        shards = min(units, max(workers, 2) * per_worker)
        chunk = (units + shards - 1) // shards
        if axis == "product" and chunk > len(faults):
            # Whole tests per shard: each test is resolved, and its
            # streams built, in exactly one shard.
            chunk -= chunk % len(faults)
        work = [
            (shard, tests, caps, faults, start,
             min(chunk, units - start), compress, max_ops, mode)
            for shard, start in enumerate(range(0, units, chunk))
        ]
        reports: List[Optional[FaultSweepReport]] = [None] * len(work)
        keys: List[Any] = [None] * len(work)
        if store is not None:
            store_before = store.stats()
            key_fields = _shard_key_fields(
                axis, engine, mode, tests, caps, faults, compress, max_ops
            )
            for shard, args in enumerate(work):
                keys[shard] = store.key(
                    **key_fields, shard={"start": args[4], "count": args[5]}
                )
                cached = store.get(keys[shard]) if resume else None
                if cached is not None:
                    reports[shard] = FaultSweepReport.from_json(cached)

        def complete(shard: int, shard_report: FaultSweepReport) -> None:
            # Checkpointed as soon as it exists, so a killed sweep
            # resumes from every shard that finished.
            reports[shard] = shard_report
            if keys[shard] is not None:
                store.put(keys[shard], shard_report.to_json())

        run = run_jobs(
            shard_fn,
            [
                (shard,
                 f"shard:{shard}" if keys[shard] is None
                 else keys[shard].digest,
                 work[shard])
                for shard in range(len(work)) if reports[shard] is None
            ],
            workers, complete, service=service, timeout=shard_timeout,
            chaos=chaos,
        )
        for shard, incident in run.lost.items():
            # A shard the service could not finish is reported, not
            # dropped: a ``shard-lost`` failure names its pairs and the
            # incident, so checked plus lost runs is the whole product.
            start, count = (n * pairs_per_unit for n in work[shard][4:6])
            lost = FaultSweepReport(geometry=geometry, engine=engine, mode=mode)
            lost.failures.append({
                "kind": "shard-lost",
                "notation": f"<shard {shard}: {count} run(s) at {start}>",
                "geometry": list(geometry),
                "fault": "<service incident>",
                "fault_spec": None,
                "mode": mode,
                "ok": False,
                "error": incident,
                "architectures": [],
            })
            lost.shards = [{
                "shard": shard, "runs": count, "wall_time_s": 0.0,
                "lost": True,
            }]
            reports[shard] = lost
        done = [r for r in reports if r is not None]
        report = (
            FaultSweepReport.merge(done) if done
            else FaultSweepReport(geometry=geometry, engine=engine, mode=mode)
        )
        stats = dict(run.stats or {})
        if store is not None:
            after = store.stats()
            stats["store"] = {
                name: after[name] - store_before[name] for name in after
            }
        report.service_stats = stats or None
        report.interrupted = run.interrupted
    report.jobs = jobs
    report.wall_time_s = time.perf_counter() - started
    if report.interrupted:
        raise SweepInterrupted(report)
    return report


def _first_difference(scalar: Any, vector: Any, path: str) -> Optional[str]:
    """Where two JSON payloads first differ: a leaf path and both values.

    Dict keys are visited in the scalar payload's order, list items in
    index order, so the answer is deterministic and names the deepest
    differing field (``geometries[0].detected``), not its section.
    """
    if scalar == vector:
        return None
    if isinstance(scalar, dict) and isinstance(vector, dict):
        for key in [*scalar, *(key for key in vector if key not in scalar)]:
            where = f"{path}.{key}" if path else key
            if key not in vector or key not in scalar:
                side = "scalar" if key in scalar else "vector"
                return f"{where}: only in the {side} payload"
            found = _first_difference(scalar[key], vector[key], where)
            if found is not None:
                return found
    if isinstance(scalar, list) and isinstance(vector, list):
        for index, pair in enumerate(zip(scalar, vector)):
            found = _first_difference(*pair, f"{path}[{index}]")
            if found is not None:
                return found
        return (
            f"{path}: scalar has {len(scalar)} item(s), "
            f"vector {len(vector)}"
        )
    return f"{path}: scalar {scalar!r} != vector {vector!r}"


@dataclass
class CrossEngineResult:
    """Differential comparison of the two sweep engines on one input.

    The scalar engine is the oracle; conformance identity (g) in
    ``docs/TESTING.md`` is that the vector engine's report payload —
    everything except the ``timing`` block — is byte-identical to it.
    Both sides are sweep reports of the same shape: two
    :class:`FaultSweepReport` objects or two
    :class:`MultiGeometrySweepReport` objects.  A sequential march, PRT
    or in-field sweep compares the projection against the oracle; a
    ``concurrent`` vector sweep is the counted per-test scalar
    fallback, so there the comparison is a replay determinism check.
    """

    scalar: Union[FaultSweepReport, MultiGeometrySweepReport]
    vector: Union[FaultSweepReport, MultiGeometrySweepReport]

    @property
    def ok(self) -> bool:
        """Identity (g) holds *and* the oracle's own report is clean."""
        return self.divergence() is None and self.scalar.ok

    def divergence(self) -> Optional[str]:
        """First differing payload leaf, or ``None`` when identical."""
        return _first_difference(
            self.scalar.to_json(include_timing=False),
            self.vector.to_json(include_timing=False),
            "",
        )

    def format(self) -> str:
        divergence = self.divergence()
        lines = [
            "cross-engine fault-sweep comparison: "
            + ("IDENTICAL" if divergence is None else "DIVERGED")
        ]
        for engine, report in (
            ("scalar", self.scalar), ("vector", self.vector)
        ):
            first, *rest = report.format().splitlines()
            lines.append(f"  {engine}: {first}")
            lines.extend("  " + line for line in rest)
        if divergence is not None:
            lines.append(f"  {divergence}")
        return "\n".join(lines)

    def to_json(self, include_timing: bool = True) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "divergence": self.divergence(),
            "scalar": self.scalar.to_json(include_timing=include_timing),
            "vector": self.vector.to_json(include_timing=include_timing),
        }


Geometry = Union[Tuple[int, ...], ControllerCapabilities]


def _as_capabilities(geometry: Geometry) -> ControllerCapabilities:
    """Coerce a ``(words, width[, ports])`` tuple to capabilities."""
    if isinstance(geometry, ControllerCapabilities):
        return geometry
    parts = tuple(int(part) for part in geometry)
    if len(parts) == 2:
        parts = parts + (1,)
    if len(parts) != 3:
        raise ValueError(
            f"geometry must be (words, width) or (words, width, ports), "
            f"got {geometry!r}"
        )
    n_words, width, ports = parts
    return ControllerCapabilities(n_words=n_words, width=width, ports=ports)


@dataclass
class MultiGeometrySweepReport:
    """Per-geometry sections of one multi-geometry fault sweep."""

    sweeps: List[FaultSweepReport] = field(default_factory=list)
    wall_time_s: float = 0.0
    jobs: int = 1
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return all(sweep.ok for sweep in self.sweeps)

    @property
    def checked(self) -> int:
        return sum(sweep.checked for sweep in self.sweeps)

    @property
    def failure_count(self) -> int:
        return sum(len(sweep.failures) for sweep in self.sweeps)

    def format(self) -> str:
        count = len(self.sweeps)
        lines = [
            f"multi-geometry fault-response sweep: {count} "
            f"{'geometry' if count == 1 else 'geometries'}, "
            f"{self.checked} runs, {self.failure_count} failure(s)"
        ]
        for sweep in self.sweeps:
            lines.extend("  " + line for line in sweep.format().splitlines())
        return "\n".join(lines)

    def to_json(self, include_timing: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "geometries": [
                sweep.to_json(include_timing=include_timing)
                for sweep in self.sweeps
            ],
            "checked": self.checked,
            "failure_count": self.failure_count,
            "ok": self.ok,
        }
        if self.interrupted:
            payload["interrupted"] = True
        if include_timing:
            payload["timing"] = {
                "wall_time_s": round(self.wall_time_s, 6),
                "jobs": self.jobs,
            }
        return payload


#: The keyword options of :func:`run_fault_sweeps` that configure a
#: sweep's fault population and stimulus regime — the keys of a
#: ``repro serve`` session spec besides its algorithms and geometries.
SWEEP_OPTIONS: Tuple[str, ...] = (
    "per_kind", "seed", "full", "compress", "max_ops", "engine", "mode",
)


def run_fault_sweeps(
    geometries: Sequence[Geometry],
    tests: Sequence[MarchTest],
    faults: Optional[Sequence[CellFault]] = None,
    per_kind: int = 3,
    seed: int = 0,
    full: bool = False,
    compress: bool = True,
    max_ops: Optional[int] = None,
    jobs: int = 1,
    engine: str = "scalar",
    mode: str = "sequential",
    store: Optional[Any] = None,
    resume: bool = False,
    shard_timeout: Optional[float] = None,
    chaos: Optional[Any] = None,
) -> MultiGeometrySweepReport:
    """Sweep ``tests`` across several memory geometries.

    When ``faults`` is ``None`` each geometry draws its own population
    with :func:`~repro.conformance.faulty.sampling.sweep_faults` (the
    universe depends on the geometry — bigger memories have more cells
    to couple, multi-port ones gain the port-fault stratum, and
    concurrent-mode sweeps of multi-port geometries add the
    concurrency-sensitised stratum); an explicit ``faults`` sequence is
    reused verbatim for every geometry.  Geometries run in sequence,
    each internally sharded over ``jobs`` — on **one shared**
    :class:`~repro.service.engine.JobEngine` pool (no fresh pool per
    geometry).  SIGINT raises :class:`SweepInterrupted` carrying the
    partial multi-geometry report (completed geometries plus the
    interrupted one's completed shards).
    """
    from repro.conformance.faulty.sampling import sweep_faults

    if not geometries:
        raise ValueError("need at least one geometry to sweep")
    started = time.perf_counter()
    report = MultiGeometrySweepReport(jobs=jobs)
    shared = None
    if jobs > 1:
        from repro.service.engine import JobEngine

        shared = JobEngine(workers=jobs, timeout=shard_timeout)
    try:
        for geometry in geometries:
            caps = _as_capabilities(geometry)
            population = (
                list(faults)
                if faults is not None
                else sweep_faults(
                    caps, per_kind=per_kind, seed=seed, full=full, mode=mode
                )
            )
            try:
                report.sweeps.append(
                    run_fault_sweep(
                        tests, caps, population, compress=compress,
                        max_ops=max_ops, jobs=jobs, engine=engine,
                        mode=mode, service=shared, store=store,
                        resume=resume, shard_timeout=shard_timeout,
                        chaos=chaos,
                    )
                )
            except SweepInterrupted as interrupt:
                report.sweeps.append(interrupt.report)
                report.interrupted = True
                report.wall_time_s = time.perf_counter() - started
                raise SweepInterrupted(report) from None
    finally:
        if shared is not None:
            shared.close()
    report.wall_time_s = time.perf_counter() - started
    return report
