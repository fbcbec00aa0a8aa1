"""Projected execution of fault-response conformance sweeps.

The scalar sweep (:func:`repro.conformance.faulty.check.run_fault_sweep`)
captures the golden stream plus one stream per differential partner for
every (stimulus, fault) pair.  This module reaches the same report with
two structural savings:

* **per stimulus**: the test is resolved to its
  :class:`~repro.conformance.faulty.check.Stimulus` and every partner
  is verified equal to the golden stream once.  A controller partner
  (microcode, progfsm, hardwired) with its stock stream builder is
  *proved*: the collapsed walk of its program
  (:mod:`repro.core.walk`) gives an N-free op summary, and a summary
  equal to the one read off the march notation — on a geometry whose
  datapath enumerates what ``expand`` uses — means the stream is the
  golden stream op for op, without cycle-stepping the controller
  (:func:`~repro.conformance.check.proved_conformant`).  Every other
  partner — an UNKNOWN or different summary, a replaced builder, the
  FSM controller and replay of a PRT session, the replay of an
  in-field session — is *simulated*: its stream is built once and
  compared op for op.  The report counts both (``partners_proved``,
  ``partners_simulated``, under ``timing``).  Response capture is a
  deterministic function of the normalised ops alone, so identical
  streams give identical captures for *every* fault — the per-partner
  sessions per fault disappear entirely, and the pair's payload needs
  only one detected / not-detected verdict;
* **per stratum**: a fault's verdict is a *support projection* of the
  golden capture: only the golden ops on its support addresses
  (:func:`~repro.faults.support.support_of`) plus every pause, in
  stream order, against the real fault object on a sparse
  :class:`~repro.memory.shadow.ShadowMemory`, reads compared with the
  expected word exactly as
  :func:`~repro.conformance.faulty.events.capture_response` does.
  Every other address behaves fault-free, and the golden stream's
  fault-free run is checked once per test to fail no read, so the
  replay decides the full capture's verdict.

  For a sequential march stimulus the golden stream is
  :func:`~repro.march.simulator.expand` of the notation, and none of
  this needs it: the op budget is checked against its analytic length,
  the fault-free check is the single-symbolic-cell pass, and each
  replay is read off the notation by
  :class:`~repro.march.projection.MarchProjection` — the coverage
  prover's own replay loop — so a test costs O(items) to plan and a
  replay O(|support| · ops), at any memory size.  Faults of one stratum
  (:meth:`~repro.faults.support.FaultSupport.project`, the key the
  coverage prover uses) see isomorphic replays and share one; a shard
  groups its faults by stratum once, and a test tallies each stratum
  once, so it costs O(strata + fallbacks).  The stream is built only
  for a simulated partner's compare or a scalar fallback.

  PRT and in-field streams do not come from the notation: their golden
  stream is built, captured fault-free on a plain
  :class:`~repro.memory.sram.Sram` once per test and indexed once by
  address, pauses kept apart; and since they do not visit addresses in
  rank order, they are replayed fault by fault.

Anything outside those preconditions falls back to the scalar path and
is counted in the report's ``fallback_runs``:

* per fault — no support (``support_of`` returned ``None``: a type
  outside the support registry, subclasses included), a support that
  reaches outside the memory, or a projected run that raised;
* per test — a cycle-capture stimulus (``concurrent`` mode: a
  same-cycle group is not a sequence of single-port accesses), a
  replaced partner capture path (the seeded-defect harness swaps
  :data:`RESPONSE_CAPTURES` entries; capture identity is the
  precondition the per-test saving rests on), a golden stream that is
  not realisable or overruns the op budget, a simulated partner
  stream that failed to build with a non-skip error or diverged from
  the golden stream, or a golden stream whose fault-free run fails a
  read (for PRT and in-field: whose fault-free capture on a plain
  :class:`~repro.memory.sram.Sram` raised — a port or address out of
  range — or recorded a fail event).

The fallback runs the scalar engine's own per-pair check on the test's
already-resolved stimulus (whose simulated streams were built once,
during planning; proved ones are built there on first use), so its
results — including failure records and raised errors — are the scalar
engine's own, byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.conformance.check import PROGRAM_WALKS, proved_conformant
from repro.conformance.trace import AttributedOp
from repro.core.controller import ControllerCapabilities
from repro.core.progfsm.compiler import CompileError
from repro.faults.base import CellFault
from repro.faults.support import support_of
from repro.march.projection import MarchProjection
from repro.march.simulator import MemoryOperation
from repro.march.test import MarchTest
from repro.memory.shadow import ShadowMemory
from repro.memory.sram import Sram

# Inert: perfbench/layers.py patches these kernel names until it reads spans.
lane_spec = compile_stream = evaluate_lanes = None

#: A fault's projection: (in-range support addresses, stratum key).
Projection = Tuple[Tuple[int, ...], Tuple]

#: A shard's faults: projections, indices by stratum key, loose indices.
Population = Tuple[List[Optional[Projection]], Dict[Tuple, List[int]],
                   List[int]]


#: A fault's verdict replay: (fault, in-range support) -> detected.
Replay = Callable[[CellFault, Sequence[int]], bool]


@dataclass
class _Plan:
    """A test's plan: the verified replay that decides each fault
    (``None`` sends the whole test to the scalar engine), whether one
    replay decides a whole stratum, its skipped partners, and how the
    rest were verified."""

    detects: Optional[Replay] = None
    stratified: bool = False
    skipped: int = 0
    proved: int = 0
    simulated: int = 0


def _plan_test(
    stimulus: Stimulus,
    test: MarchTest,
    caps: ControllerCapabilities,
    max_ops: Optional[int],
) -> _Plan:
    """Verify every partner against the golden stream, and golden itself.

    The plan carries a replay when every partner either is not
    realisable (a skip) or emits a stream op-for-op equal to the golden
    stream within the op budget, through the shared capture path, and
    the golden stream's fault-free run fails no read.  A controller
    partner whose op summary proves it golden
    (:func:`~repro.conformance.check.proved_conformant`) is verified
    without building its stream; every other partner — UNKNOWN, a
    different summary, a replaced builder, a PRT or replay partner — is
    built and compared.

    A sequential march stimulus's golden stream is ``expand`` of the
    notation: its length, its fault-free run and each fault's
    replay are read off the notation (:class:`MarchProjection`), and
    the stream is only built when a simulated partner must be compared
    with it.  Every other stimulus's golden stream is built, captured
    fault-free on a plain :class:`Sram` and indexed by address
    (:class:`_GoldenIndex`).
    """
    plan = _Plan()
    if stimulus.cycle or any(
        partner.capture is not faulty_events.capture_response
        for partner in stimulus.partners
    ):
        return plan
    notation = golden_stream = None
    if stimulus.march:
        notation = MarchProjection(test, caps.n_words, caps.width, caps.ports)
        length = notation.length
    else:
        golden_stream = stimulus.golden().stream
        if golden_stream is None:
            return plan
        length = len(golden_stream)
    if length > _op_budget(length, max_ops):
        return plan  # scalar reproduces the budget trip exactly
    keys = None
    for partner in stimulus.partners:
        if partner.name in PROGRAM_WALKS:
            try:
                proved = proved_conformant(
                    partner.name, test, caps, stimulus.compress
                )
            except CompileError:
                plan.skipped += 1  # the builder skips it the same way
                continue
            except Exception:
                proved = None  # the builder meets the same error and records it
            if proved:
                plan.proved += 1
                continue
        built = partner.build()
        if built.status == "skipped":
            plan.skipped += 1
            continue
        plan.simulated += 1
        if built.stream is None:
            return plan  # error statuses produce per-fault failure records
        if keys is None:
            keys = [entry.key for entry in stimulus.golden().stream]
        if [entry.key for entry in built.stream] != keys:
            return plan
    if notation is not None:
        if not notation.free_failures:
            # One replay per stratum is sound: every element visits the
            # support in rank order.
            plan.detects, plan.stratified = notation.detects, True
        return plan
    try:
        memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
        free = faulty_events.capture_response(golden_stream, memory)
    except Exception:
        return plan  # scalar reproduces the error
    if not free.events:
        plan.detects = _GoldenIndex(golden_stream, caps).detects
    return plan


class _GoldenIndex:
    """A verified PRT or in-field golden stream, indexed for
    support-projected replays."""

    def __init__(
        self, stream: Sequence[AttributedOp], caps: ControllerCapabilities
    ) -> None:
        self.caps = caps
        self.by_address: Dict[int, List[Tuple[int, MemoryOperation]]] = {}
        self.delays: List[Tuple[int, MemoryOperation]] = []
        for index, entry in enumerate(stream):
            op = entry.op
            if op.is_delay:
                self.delays.append((index, op))
            else:
                self.by_address.setdefault(op.address, []).append((index, op))

    def detects(self, fault: CellFault, addresses: Sequence[int]) -> bool:
        """Whether ``fault`` makes a golden read of ``addresses`` mismatch.

        Replays the ops on ``addresses`` plus every pause, in stream
        order, against ``fault`` on a :class:`ShadowMemory`.  The fault's
        dynamic state is reset around the run, as in the coverage
        prover's projection, so shared universe instances stay reusable.
        """
        runs = [self.by_address.get(address, ()) for address in addresses]
        runs.append(self.delays)
        ops = sorted(chain.from_iterable(runs), key=itemgetter(0))
        caps = self.caps
        shadow = ShadowMemory(caps.n_words, width=caps.width, ports=caps.ports)
        fault.reset()
        shadow.attach(fault)
        try:
            for _, op in ops:
                if op.is_delay:
                    shadow.elapse(op.delay)
                elif op.is_write:
                    shadow.write(op.port, op.address, op.value)
                elif shadow.read(op.port, op.address) != op.expected:
                    return True
        finally:
            shadow.detach_all()
            fault.reset()
        return False


def _projection(fault: CellFault, n_words: int) -> Optional[Projection]:
    """``fault``'s projection, or ``None`` for the per-fault fallback."""
    support = support_of(fault)
    if support is None:
        return None
    visited, _, key = support.project(n_words)
    if len(visited) != len(support.addresses):
        return None  # the full memory decides what an outside cell does
    return visited, key


def _population(faults: Sequence[CellFault], n_words: int) -> Population:
    """Each fault's projection, the fault indices grouped by stratum key
    in order of first appearance, and the loose ones (no projection)."""
    projections = [_projection(fault, n_words) for fault in faults]
    loose = [index for index, p in enumerate(projections) if p is None]
    strata: Dict[Tuple, List[int]] = {}
    for index, projection in enumerate(projections):
        if projection is not None:
            strata.setdefault(projection[1], []).append(index)
    return projections, strata, loose


def _decide(
    plan: _Plan, faults: Sequence[CellFault], population: Population
) -> Tuple[List[Tuple[List[int], int, int, bool]], List[int]]:
    """One replay per group: each decision ``(members, start, stop,
    detected)`` is the verdict of ``members[start:stop]`` (a stratum's
    rest if stratified, else one fault); raised faults fall back."""
    projections, strata, _ = population
    decided: List[Tuple[List[int], int, int, bool]] = []
    raised: List[int] = []
    for members in strata.values():
        for position, index in enumerate(members):
            try:
                detected = plan.detects(faults[index], projections[index][0])
            except Exception:
                raised.append(index)  # the scalar check reproduces it
                continue
            stop = len(members) if plan.stratified else position + 1
            decided.append((members, position, stop, detected))
            if plan.stratified:
                break
    return decided, raised


def _sweep_test_into(
    report: FaultSweepReport,
    test: MarchTest,
    caps: ControllerCapabilities,
    faults: Sequence[CellFault],
    population: Population,
    compress: bool,
    max_ops: Optional[int],
    mode: str,
) -> None:
    """Sweep one test over the fault population: tally each decision at
    once, then check the fallbacks in fault order."""
    stimulus = resolve_stimulus(test, caps, mode, compress=compress)
    plan = _plan_test(stimulus, test, caps, max_ops)
    report.partners_proved += plan.proved
    report.partners_simulated += plan.simulated
    fallback: Sequence[int] = range(len(faults))
    if plan.detects is not None:
        decided, raised = _decide(plan, faults, population)
        runs = sum(stop - start for _, start, stop, _ in decided)
        hits = sum(stop - start for _, start, stop, hit in decided if hit)
        report.checked += runs
        report.detected += hits
        report.skipped_runs += plan.skipped * runs
        fallback = sorted(population[2] + raised) if raised else population[2]
    for index in fallback:
        report.add(_check_pair(stimulus, test, caps, faults[index], max_ops))
        report.fallback_runs += 1


def _vector_shard(
    args: Tuple[int, Sequence[MarchTest], ControllerCapabilities,
                Sequence[CellFault], int, int, bool, Optional[int], str]
) -> FaultSweepReport:
    """Worker entry point: sweep tests ``start..start+count-1``.

    Planning is per test, so shards are contiguous *test* chunks
    (unlike the scalar engine's product chunks); the product order
    inside each shard is still algorithm-major, so merged reports match
    the serial sweep byte for byte.  Each fault's support is extracted,
    and the population grouped by stratum, once per shard.
    """
    (shard_index, tests, caps, faults, start, count, compress,
     max_ops, mode) = args
    started = time.perf_counter()
    report = FaultSweepReport(
        geometry=(caps.n_words, caps.width, caps.ports), engine="vector",
        mode=mode,
    )
    population = _population(faults, caps.n_words)
    for test in tests[start:start + count]:
        _sweep_test_into(
            report, test, caps, faults, population, compress, max_ops, mode
        )
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

    Sharding is by contiguous test chunks — each test is planned once
    per shard, so splitting inside a test would only re-plan it.
    Reports merge in shard order; the payload (timing aside) is
    independent of ``jobs`` and equal to the scalar engine's.  The
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
