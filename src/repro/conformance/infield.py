"""Deterministic in-field transparent test sessions over live memory.

Off-line BIST owns the memory; *in-field* BIST shares it with a running
system (à la *Embedding of Deterministic Test Data for In-Field
Testing*, Li & Dubrova — PAPERS.md): the memory carries live user data,
and the controller periodically steals idle slots to run a *transparent*
march variant (:func:`repro.core.transparent.transparent_version`) that
tests the array while provably restoring the user's contents.

:func:`build_infield_plan` compiles such a session into a fully
deterministic, open-loop :class:`~repro.conformance.trace.Stream`
whose owners name the seed write, the traffic op or the transparent
slot's march item behind every op:

1. a **seed phase** writes every address with seeded pseudo-random user
   data;
2. each **slot** is a seeded user-traffic burst (reads expecting the
   tracked fault-free shadow, writes updating it) followed by one
   transparent test expanded against the shadow's slot-start snapshot
   (per-port passes, by the expansion
   :class:`~repro.core.transparent.TransparentBistRun` runs,
   :func:`~repro.core.transparent.transparent_stream`);
3. after every slot a **checkpoint** records the op index and the
   fault-free shadow contents — what the memory must hold if the
   transparent slot really was transparent.

Everything — traffic, slot expansion, expectations, checkpoints — is a
pure function of ``(geometry, seed, tests, traffic_ops)``: the shadow is
the traffic-only reference run, computed at plan-build time, so applying
the same plan twice (or on two memories) is bit-reproducible.  The
determinism contract is documented in ``docs/TESTING.md``.

:func:`run_infield_session` applies a plan to a memory through
:func:`~repro.march.simulator.run_on_memory`, recording
:class:`~repro.march.simulator.Failure` mismatches (the owner of one is
``plan.stream.owner(failure.op_index)``) and verifying every
checkpoint, with optional mid-stream fault injection.  On a fault-free
memory a session yields zero events and bit-identical checkpoints
(fuzz identity (h)); the default slot trio (transparent MATS+/March
C/March Y) reads every cell with both relative polarities, so a
stuck-at fault injected at any slot boundary is guaranteed to be
detected by that very slot.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.faulty.events import (
    ResponseBudgetExceeded,
    budget_cut,
)
from repro.conformance.trace import Stream, item_owner, tabulate
from repro.core.controller import ControllerCapabilities
from repro.core.transparent import transparent_stream, transparent_version
from repro.march import library
from repro.march.simulator import Failure, MemoryOperation, run_on_memory
from repro.march.test import MarchTest
from repro.memory.sram import Sram

#: Default in-field slot trio.  Each transparent variant reads every
#: cell with both relative polarities, so any single slot detects any
#: stuck-at fault present while it runs.
DEFAULT_INFIELD_TESTS: Tuple[MarchTest, ...] = (
    library.MATS_PLUS,
    library.MARCH_C,
    library.MARCH_Y,
)

#: Default user-traffic burst length per slot.
DEFAULT_TRAFFIC_OPS = 16


@dataclass(frozen=True)
class Checkpoint:
    """A user-data integrity check scheduled after one transparent slot.

    Attributes:
        slot: slot index (0-based).
        op_index: number of stream operations applied when the check
            fires (the check runs after ``stream[:op_index]``).
        start_index: stream index of the slot's first transparent
            operation — the canonical mid-stream injection point for
            "fault appears while this slot runs" experiments.
        expected: fault-free shadow contents the memory must hold.
    """

    slot: int
    op_index: int
    start_index: int
    expected: Tuple[int, ...]


@dataclass(frozen=True)
class InFieldPlan:
    """A compiled in-field session: open-loop stream plus checkpoints.

    Attributes:
        capabilities: memory geometry the plan was compiled for.
        seed: session seed (traffic and user data derive from it).
        test_names: transparent slot algorithms, in slot order.
        stream: the full operation stream, owners attributed by
            :func:`_infield_owner`.
        checkpoints: one per slot, in slot order.
    """

    capabilities: ControllerCapabilities
    seed: int
    test_names: Tuple[str, ...]
    stream: Stream
    checkpoints: Tuple[Checkpoint, ...]

    @property
    def geometry(self) -> Tuple[int, int, int]:
        caps = self.capabilities
        return (caps.n_words, caps.width, caps.ports)


def _infield_owner(entry: Tuple, op: MemoryOperation) -> str:
    """Owner text of an in-field plan's owner entry: ``("seed",)`` (the
    address is the op's), ``("traffic", slot, j)`` or ``("slot", slot,
    test name, port, item index, item, op index)``."""
    if entry[0] == "seed":
        return f"seed addr {op.address}"
    if entry[0] == "traffic":
        return f"traffic {entry[1]} op {entry[2]}"
    _, slot, name, port, *item = entry
    return item_owner((f"slot {slot} ({name}) port {port} ", *item), op)


def build_infield_plan(
    capabilities: ControllerCapabilities,
    seed: int = 0,
    tests: Optional[Sequence[MarchTest]] = None,
    traffic_ops: int = DEFAULT_TRAFFIC_OPS,
) -> InFieldPlan:
    """Compile a deterministic in-field session for a geometry.

    Args:
        capabilities: memory geometry (words, width, ports).
        seed: session seed; all traffic addresses, values, ports and the
            seeded user data are drawn from
            ``random.Random(f"infield:{seed}:{words}:{width}:{ports}")``.
        tests: base march algorithms for the transparent slots (made
            transparent here); defaults to :data:`DEFAULT_INFIELD_TESTS`.
            Tests without reads are rejected by
            :func:`~repro.core.transparent.transparent_version`.
        traffic_ops: user-traffic burst length preceding each slot.
    """
    caps = capabilities
    base_tests = tuple(DEFAULT_INFIELD_TESTS if tests is None else tests)
    slot_tests = tuple(transparent_version(test) for test in base_tests)
    rng = random.Random(
        f"infield:{seed}:{caps.n_words}:{caps.width}:{caps.ports}"
    )
    mask = (1 << caps.width) - 1
    shadow: List[int] = [0] * caps.n_words
    issued: List[Tuple[MemoryOperation, Tuple]] = []
    checkpoints: List[Checkpoint] = []

    # Seed phase: establish pseudo-random user data on every address.
    for address in range(caps.n_words):
        value = rng.randrange(mask + 1)
        shadow[address] = value
        issued.append(
            (MemoryOperation(0, address, True, value=value), ("seed",))
        )

    for slot, test in enumerate(slot_tests):
        # User-traffic burst: seeded reads (expecting the shadow) and
        # writes (updating it), on random ports and addresses.
        for j in range(traffic_ops):
            port = rng.randrange(caps.ports)
            address = rng.randrange(caps.n_words)
            if rng.random() < 0.5:
                op = MemoryOperation(
                    port, address, False, expected=shadow[address]
                )
            else:
                value = rng.randrange(mask + 1)
                shadow[address] = value
                op = MemoryOperation(port, address, True, value=value)
            issued.append((op, ("traffic", slot, j)))
        # Transparent slot, expanded against the slot-start shadow by
        # the expansion TransparentBistRun runs: polarity 0 means the
        # cell's slot-start content, polarity 1 its complement.
        start_index = len(issued)
        initial = tuple(shadow)
        for port, item_index, op_index, op in transparent_stream(
            test, initial, caps.width, caps.ports
        ):
            issued.append((op, (
                "slot", slot, test.name, port,
                item_index, test.items[item_index], op_index,
            )))
        # Transparency: the slot restores the slot-start contents, so
        # the fault-free shadow is unchanged — the checkpoint pins that.
        checkpoints.append(
            Checkpoint(
                slot=slot,
                op_index=len(issued),
                start_index=start_index,
                expected=initial,
            )
        )

    return InFieldPlan(
        capabilities=caps,
        seed=seed,
        test_names=tuple(test.name for test in slot_tests),
        stream=tabulate(issued, _infield_owner),
        checkpoints=tuple(checkpoints),
    )


#: Bounded memo for compiled plans (sessions are pure functions of the
#: key, and fuzz/sweeps rebuild the same geometry's plan repeatedly).
_PLAN_CACHE: Dict[tuple, InFieldPlan] = {}
_PLAN_CACHE_MAX = 64


def cached_infield_plan(
    capabilities: ControllerCapabilities,
    seed: int = 0,
    tests: Optional[Sequence[MarchTest]] = None,
) -> InFieldPlan:
    """Memoised :func:`build_infield_plan` (default traffic length).

    Keyed on geometry, seed and the slot algorithms' notation — the
    same plan purity argument as the golden-trace cache: two tests that
    format identically compile to identical sessions.
    """
    from repro.march.notation import format_test

    caps = capabilities
    notations = (
        None
        if tests is None
        else tuple(format_test(test) for test in tests)
    )
    key = (caps.n_words, caps.width, caps.ports, seed, notations)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = build_infield_plan(caps, seed=seed, tests=tests)
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
        _PLAN_CACHE[key] = plan
    return plan


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one user-data integrity check.

    ``mismatches`` lists ``(address, expected, observed)`` triples —
    empty on a preserved checkpoint.
    """

    checkpoint: Checkpoint
    mismatches: Tuple[Tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass
class InFieldResult:
    """Outcome of applying an in-field plan to a memory.

    Attributes:
        ops_applied: stream operations executed.
        events: read mismatches, in detection order, indexed in the
            plan's stream (traffic reads and transparent-slot reads
            both contribute).
        checkpoints: per-slot user-data integrity outcomes.
    """

    ops_applied: int = 0
    events: List[Failure] = field(default_factory=list)
    checkpoints: List[CheckpointResult] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.events)

    @property
    def user_data_preserved(self) -> bool:
        """Every checkpoint found the memory bit-identical to the
        traffic-only shadow (the in-field transparency identity (h) —
        meaningful on fault-free runs)."""
        return all(result.ok for result in self.checkpoints)


def run_infield_session(
    plan: InFieldPlan,
    memory: Sram,
    inject: Optional[Tuple[object, int]] = None,
    max_ops: Optional[int] = None,
) -> InFieldResult:
    """Apply an in-field plan to a memory, checking every checkpoint.

    Args:
        plan: a compiled session from :func:`build_infield_plan`.
        memory: the memory under test; geometry must match the plan.
            Attach faults beforehand for present-from-power-on defects.
        inject: optional ``(fault, op_index)`` — the fault is reset and
            attached just before ``stream[op_index]`` executes,
            modelling a defect appearing mid-session (checkpoint
            ``start_index`` values are the canonical choices).  The
            caller owns detaching it afterwards.
        max_ops: hard op budget (:exc:`ResponseBudgetExceeded` beyond).
    """
    if (memory.n_words, memory.width, memory.ports) != plan.geometry:
        raise ValueError(
            f"memory geometry {(memory.n_words, memory.width, memory.ports)} "
            f"does not match plan geometry {plan.geometry}"
        )
    result = InFieldResult()
    stream = plan.stream
    cut = budget_cut(len(stream), max_ops)
    applied = len(stream) if cut is None else cut
    checkpoints = sorted(plan.checkpoints, key=lambda c: c.op_index)
    # Apply the stream in segments between the injection point and the
    # checkpoints; a checkpoint fires once its ops have run, and the
    # fault is attached just before the op at its index.
    bounds = {c.op_index for c in checkpoints}
    if inject is not None:
        bounds.add(inject[1])
    start = 0
    for end in sorted(b for b in bounds if 0 < b < applied) + [applied]:
        if inject is not None and inject[1] == start < applied:
            fault, _ = inject
            fault.reset()
            memory.attach(fault)
        run = run_on_memory(stream.ops[start:end], memory)
        result.events.extend(
            dataclasses.replace(failure, op_index=failure.op_index + start)
            for failure in run.failures
        )
        start = end
        while checkpoints and checkpoints[0].op_index <= end:
            checkpoint = checkpoints.pop(0)
            snapshot = memory.snapshot()
            mismatches = tuple(
                (address, expected, snapshot[address])
                for address, expected in enumerate(checkpoint.expected)
                if snapshot[address] != expected
            )
            result.checkpoints.append(
                CheckpointResult(checkpoint, mismatches)
            )
    if cut is not None:
        raise ResponseBudgetExceeded(
            f"op budget of {max_ops} exceeded after {cut} operation(s)"
        )
    result.ops_applied = applied
    return result


def fault_free_session(
    capabilities: ControllerCapabilities, seed: int = 0
) -> InFieldResult:
    """Run the default session on a pristine memory (identity (h) probe)."""
    plan = cached_infield_plan(capabilities, seed=seed)
    caps = capabilities
    memory = Sram(caps.n_words, caps.width, caps.ports)
    return run_infield_session(plan, memory)
