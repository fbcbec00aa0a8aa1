"""Normalised fail-event capture.

Where :mod:`repro.conformance.trace` normalises the *stimulus* a
controller emits, this module normalises the *response* a memory gives
back: :func:`capture_response` applies the ops of a
:class:`~repro.conformance.trace.Stream` to a (typically faulty) memory
through
:func:`~repro.march.simulator.run_on_memory` and records every read
mismatch as a :class:`~repro.march.simulator.Failure` — the detecting
op index within the stream (which, for a stimulus-conformant
architecture, *is* the index within the golden expansion), the port,
the failing address and the expected versus observed data.  Two
architectures respond identically to the same fault exactly when their
failure lists are equal.  A failure carries no owner: the program
location that issued the detecting read is ``stream.owner(op_index)``,
looked up where a report needs it.

The capture carries a hard per-run op budget: a faulty memory cannot
lengthen an open-loop stimulus stream, but the harness compares
arbitrary (possibly defective) response paths, and a wedged run must
surface as a classified *error*, never as a hang — see
:exc:`ResponseBudgetExceeded` and the budget/hang semantics in
``docs/TESTING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import List, Optional

from repro.conformance.trace import Stream
from repro.diagnostics.faillog import FailLog
from repro.march.concurrent import run_cycles_on_memory
from repro.march.simulator import Failure, run_on_memory


class ResponseBudgetExceeded(RuntimeError):
    """A response capture overran its per-run op budget (wedged run)."""


def budget_cut(length: int, max_ops: Optional[int]) -> Optional[int]:
    """How much of an open-loop stream of ``length`` ops a budget lets
    run: ``None`` when all of it fits, else the ``max_ops`` ops applied
    before :exc:`ResponseBudgetExceeded` is raised."""
    if max_ops is None or length <= max(max_ops, 0):
        return None
    return max(max_ops, 0)


@dataclass
class ResponseCapture:
    """Outcome of applying one stream to a memory.

    Attributes:
        ops_applied: operations executed (the whole stream, unless the
            budget tripped first).
        events: read mismatches in detection order.
    """

    ops_applied: int = 0
    events: List[Failure] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return bool(self.events)

    def log(self, test_name: str) -> FailLog:
        """The capture as a :class:`~repro.diagnostics.faillog.FailLog`,
        ready for the aggregations and the classifier."""
        return FailLog(test_name=test_name, failures=self.events)


def capture_response(
    stream: Stream,
    memory,
    max_ops: Optional[int] = None,
) -> ResponseCapture:
    """Apply ``stream`` to ``memory``, recording its mismatches.

    Args:
        stream: an operation stream (golden or from any of the
            :data:`repro.conformance.check.STREAM_BUILDERS`).
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
    cut = budget_cut(len(stream), max_ops)
    run = run_on_memory(islice(stream.ops, cut), memory)
    if cut is not None:
        raise ResponseBudgetExceeded(
            f"op budget of {max_ops} exceeded after {cut} operation(s)"
        )
    return ResponseCapture(run.operations, run.failures)


def capture_cycle_response(
    stream: Stream,
    memory,
    max_ops: Optional[int] = None,
) -> ResponseCapture:
    """Apply a *cycle* stream to ``memory``.

    The concurrent analogue of :func:`capture_response`: each
    :class:`~repro.march.concurrent.CycleOps` group is applied
    atomically via :meth:`~repro.memory.sram.Sram.cycle`, and every
    mismatching read of a cycle yields one :class:`Failure` carrying
    the **cycle** index as ``op_index`` (ascending port order within a
    cycle).  The budget counts cycles.
    """
    cut = budget_cut(len(stream), max_ops)
    run = run_cycles_on_memory(islice(stream.ops, cut), memory)
    if cut is not None:
        raise ResponseBudgetExceeded(
            f"cycle budget of {max_ops} exceeded after {cut} cycle(s)"
        )
    return ResponseCapture(run.operations, run.failures)
