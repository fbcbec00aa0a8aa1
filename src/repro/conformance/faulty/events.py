"""Normalised, provenance-attributed fail-event capture.

Where :mod:`repro.conformance.trace` normalises the *stimulus* a
controller emits, this module normalises the *response* a memory gives
back: :func:`capture_response` applies an attributed operation stream
to a (typically faulty) memory and records every read mismatch as a
:class:`FailEvent` — the detecting op index within the stream (which,
for a stimulus-conformant architecture, *is* the index within the
golden expansion), the port, the failing address, the expected versus
observed data, and the owning program location that issued the
detecting read.  Two architectures respond identically to the same
fault exactly when their event streams are equal key-for-key.

The capture carries a hard per-run op budget: a faulty memory cannot
lengthen an open-loop stimulus stream, but the harness compares
arbitrary (possibly defective) response paths, and a wedged run must
surface as a classified *error*, never as a hang — see
:exc:`ResponseBudgetExceeded` and the budget/hang semantics in
``docs/TESTING.md``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.conformance.trace import AttributedCycle, AttributedOp
from repro.diagnostics.faillog import FailLog
from repro.march.simulator import Failure

#: Canonical comparison key of one fail event.
FailKey = Tuple[int, int, int, int, int]


class ResponseBudgetExceeded(RuntimeError):
    """A response capture overran its per-run op budget (wedged run)."""


@dataclass(frozen=True)
class FailEvent:
    """One read mismatch, normalised and attributed.

    Attributes:
        op_index: index of the detecting read within the applied stream
            (equals the golden-expansion op index when the architecture
            is stimulus-conformant).
        port: port the detecting read was issued on.
        address: failing word address.
        expected: word the read should have observed.
        observed: word the memory actually returned.
        owner: program location that issued the detecting read (march
            item / microcode row / buffer row / hardwired state).
    """

    op_index: int
    port: int
    address: int
    expected: int
    observed: int
    owner: str = ""

    @property
    def key(self) -> FailKey:
        """Canonical comparison key (the owner does not participate)."""
        return (
            self.op_index,
            self.port,
            self.address,
            self.expected,
            self.observed,
        )

    def describe(self) -> str:
        text = (
            f"op {self.op_index}: p{self.port} r@{self.address} "
            f"expected {self.expected:x} observed {self.observed:x}"
        )
        if self.owner:
            text += f"  <- {self.owner}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op_index": self.op_index,
            "port": self.port,
            "address": self.address,
            "expected": self.expected,
            "observed": self.observed,
            "owner": self.owner,
        }


def format_fail(event: Optional[FailEvent]) -> str:
    """Render a fail event for divergence reports (None = stream end)."""
    return event.describe() if event is not None else "<no event>"


@dataclass
class ResponseCapture:
    """Outcome of applying one attributed stream to a memory.

    Attributes:
        ops_applied: operations executed (the whole stream, unless the
            budget tripped first).
        events: read mismatches in detection order.
    """

    ops_applied: int = 0
    events: List[FailEvent] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.events)

    def failures(self) -> List[Failure]:
        """The events as raw :class:`~repro.march.simulator.Failure`
        records (the :class:`FailLog` input type)."""
        return [
            Failure(e.op_index, e.port, e.address, e.expected, e.observed)
            for e in self.events
        ]

    def log(self, test_name: str) -> FailLog:
        """The capture as a :class:`~repro.diagnostics.faillog.FailLog`,
        ready for the aggregations and the classifier."""
        return FailLog(test_name=test_name, failures=self.failures())


def capture_response(
    stream: Sequence[AttributedOp],
    memory,
    max_ops: Optional[int] = None,
) -> ResponseCapture:
    """Apply ``stream`` to ``memory``, recording attributed mismatches.

    Args:
        stream: an attributed operation stream (golden or from any of
            the :data:`repro.conformance.check.STREAM_BUILDERS`).
        memory: the memory under test — typically an
            :class:`~repro.memory.sram.Sram` inside a
            :meth:`~repro.faults.injector.FaultInjector.injected`
            context.
        max_ops: hard per-run op budget; ``None`` disables it.

    Raises:
        ResponseBudgetExceeded: when the budget trips — the caller
            classifies the run as an *error*, not a mismatch.  The
            first ``max_ops`` operations are applied before the raise.
    """
    capture = ResponseCapture()
    events = capture.events
    read, write, elapse = memory.read, memory.write, memory.elapse
    # The stream is open-loop, so the budget is decided before the
    # loop: apply what fits, then trip if anything is left over.
    applied = len(stream)
    over_budget = max_ops is not None and applied > max(max_ops, 0)
    if over_budget:
        applied = max(max_ops, 0)
        stream = itertools.islice(stream, applied)
    for index, entry in enumerate(stream):
        op = entry.op
        if op.delay > 0:
            elapse(op.delay)
        elif op.is_write:
            write(op.port, op.address, op.value)
        else:
            observed = read(op.port, op.address)
            if observed != op.expected:
                events.append(
                    FailEvent(
                        op_index=index,
                        port=op.port,
                        address=op.address,
                        expected=op.expected,
                        observed=observed,
                        owner=entry.owner,
                    )
                )
    if over_budget:
        raise ResponseBudgetExceeded(
            f"op budget of {max_ops} exceeded after "
            f"{applied} operation(s)"
        )
    capture.ops_applied = applied
    return capture


def capture_cycle_response(
    stream: Sequence[AttributedCycle],
    memory,
    max_ops: Optional[int] = None,
) -> ResponseCapture:
    """Apply an attributed *cycle* stream to ``memory``.

    The concurrent analogue of :func:`capture_response`: each
    :class:`~repro.march.concurrent.CycleOps` group is applied
    atomically via :meth:`~repro.memory.sram.Sram.cycle`, and every
    mismatching read of a cycle yields one :class:`FailEvent` carrying
    the **cycle** index as ``op_index`` (ascending port order within a
    cycle).  The budget counts cycles.
    """
    capture = ResponseCapture()
    for index, entry in enumerate(stream):
        if max_ops is not None and capture.ops_applied >= max_ops:
            raise ResponseBudgetExceeded(
                f"cycle budget of {max_ops} exceeded after "
                f"{capture.ops_applied} cycle(s)"
            )
        capture.ops_applied += 1
        observed_by_port = memory.cycle(entry.cycle.ops)
        for op in entry.cycle.ops:
            if not op.is_read:
                continue
            observed = observed_by_port[op.port]
            if observed != op.expected:
                capture.events.append(
                    FailEvent(
                        op_index=index,
                        port=op.port,
                        address=op.address,
                        expected=op.expected,
                        observed=observed,
                        owner=entry.owner,
                    )
                )
    return capture
