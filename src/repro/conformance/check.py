"""Op-for-op conformance of the three controller architectures.

The paper's central claim (its R1) is that the microcode-based, the
programmable FSM-based and the hardwired controllers realise the *same*
march semantics at different flexibility/area points.
:func:`check_conformance` makes that claim checkable for any algorithm
and geometry: it extracts the normalised operation stream from every
architecture's cycle-accurate simulation and asserts op-for-op equality
against the golden :func:`repro.march.simulator.expand` reference, with
a structured first-divergence report (op index, both operations, the
owning march item on the golden side and the owning microcode row /
buffer row / FSM state on the candidate side).

Architectures outside their flexibility boundary are *skipped*, not
failed: the programmable FSM unit legitimately cannot run March B, and
that boundary is measured elsewhere (:mod:`repro.eval.flexibility`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.conformance.divergence import Divergence, first_divergence
from repro.conformance.trace import (
    AttributedOp,
    concurrent_trace,
    fsm_trace,
    golden_trace,
    hardwired_trace,
    microcode_trace,
)
from repro.core.controller import ControllerCapabilities
from repro.march.notation import format_test
from repro.march.test import MarchTest

#: All differentially-tested architectures, in report order.
ARCHITECTURES: Tuple[str, ...] = ("microcode", "progfsm", "hardwired")


class GoldenTraceCache:
    """Bounded memo of golden traces keyed by ``(notation, geometry)``.

    The delta-debugging shrinker evaluates its predicate hundreds of
    times, and most evaluations revisit a (march, geometry) pair an
    earlier round already expanded — most obviously the current
    champion, re-checked after every rejected mutation.  Re-expanding
    the golden stream dominated shrink time on big nightly finds, so
    :func:`check_conformance` (and the fault-response checker, which
    replays the golden stream once per architecture) memoises here.

    The key is the *notation* rather than object identity: two
    ``MarchTest`` objects that format identically expand identically
    (owners embed item strings only, never the test name).  Entries are
    immutable attributed streams shared between callers; nobody
    mutates them.  ``hits``/``misses`` are exposed for the perf
    regression test.

    ``builder`` is the trace expander the cache memoises — the
    sequential :func:`~repro.conformance.trace.golden_trace` by default;
    :data:`CONCURRENT_CACHE` memoises the concurrent cycle traces with
    the same keying and eviction.
    """

    def __init__(self, maxsize: int = 128, builder=golden_trace) -> None:
        self.maxsize = maxsize
        self.builder = builder
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[str, int, int, int], List[AttributedOp]]" = (
            OrderedDict()
        )

    def get(
        self, test: MarchTest, caps: ControllerCapabilities
    ) -> List[AttributedOp]:
        key = (format_test(test), caps.n_words, caps.width, caps.ports)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        entry = self.builder(test, caps)
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide golden-expansion memo (fuzz workers each get their own
#: copy via fork/spawn, so there is no cross-sample interference).
GOLDEN_CACHE = GoldenTraceCache()

#: Same memo for the concurrent golden *cycle* streams
#: (:func:`~repro.conformance.trace.concurrent_trace`).
CONCURRENT_CACHE = GoldenTraceCache(builder=concurrent_trace)


@dataclass
class ArchitectureResult:
    """One architecture's verdict against the golden stream.

    Attributes:
        architecture: architecture name (see :data:`ARCHITECTURES`).
        op_count: operations the architecture's simulation emitted.
        divergence: first op-for-op disagreement, or None.
        skipped: reason the architecture was not compared (flexibility
            boundary), or None when it ran.
        error: runtime failure of the simulation itself (a controller
            hang is a conformance failure too), or None.
    """

    architecture: str
    op_count: int = 0
    divergence: Optional[Divergence] = None
    skipped: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "op_count": self.op_count,
            "ok": self.ok,
            "skipped": self.skipped,
            "error": self.error,
            "divergence": (
                self.divergence.to_dict() if self.divergence else None
            ),
        }


@dataclass
class ConformanceResult:
    """Outcome of one differential conformance check.

    ``ok`` is True when every *compared* architecture reproduced the
    golden stream exactly; skipped architectures (flexibility boundary)
    do not fail the check.
    """

    notation: str
    geometry: Tuple[int, int, int]
    compress: bool
    golden_ops: int
    results: List[ArchitectureResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> List[ArchitectureResult]:
        return [result for result in self.results if not result.ok]

    @property
    def compared(self) -> List[str]:
        return [r.architecture for r in self.results if r.skipped is None]

    def describe_failures(self) -> str:
        """One-paragraph failure summary (used by the fuzz harness)."""
        parts = []
        for result in self.failures:
            if result.error is not None:
                parts.append(f"{result.architecture}: {result.error}")
            elif result.divergence is not None:
                parts.append(result.divergence.describe())
        return "; ".join(parts)

    def format(self) -> str:
        lines = [
            f"conformance {self.geometry}: {self.notation}",
            f"  golden stream: {self.golden_ops} operation(s)",
        ]
        for result in self.results:
            if result.skipped is not None:
                lines.append(
                    f"  {result.architecture:<10} skipped ({result.skipped})"
                )
            elif result.error is not None:
                lines.append(
                    f"  {result.architecture:<10} ERROR: {result.error}"
                )
            elif result.divergence is not None:
                lines.append(f"  {result.architecture:<10} DIVERGES")
                lines.extend(
                    "    " + line
                    for line in result.divergence.describe().splitlines()
                )
            else:
                lines.append(
                    f"  {result.architecture:<10} ok "
                    f"({result.op_count} ops, op-for-op equal)"
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "notation": self.notation,
            "geometry": list(self.geometry),
            "compress": self.compress,
            "golden_ops": self.golden_ops,
            "ok": self.ok,
            "architectures": [result.to_dict() for result in self.results],
        }


def _microcode_stream(
    test: MarchTest, caps: ControllerCapabilities, compress: bool
) -> List[AttributedOp]:
    from repro.core.microcode.assembler import assemble
    from repro.core.microcode.controller import MicrocodeBistController

    program = assemble(test, caps, compress=compress, verify=False)
    controller = MicrocodeBistController(program, caps, verify=False)
    return microcode_trace(controller)


def _fsm_stream(
    test: MarchTest, caps: ControllerCapabilities, compress: bool
) -> List[AttributedOp]:
    from repro.core.progfsm.compiler import compile_to_sm
    from repro.core.progfsm.controller import ProgrammableFsmBistController
    from repro.core.progfsm.upper_buffer import DEFAULT_ROWS

    program = compile_to_sm(test, caps, verify=False)
    controller = ProgrammableFsmBistController(
        program,
        caps,
        buffer_rows=max(DEFAULT_ROWS, len(program)),
        verify=False,
    )
    return fsm_trace(controller)


def _hardwired_stream(
    test: MarchTest, caps: ControllerCapabilities, compress: bool
) -> List[AttributedOp]:
    from repro.core.hardwired.controller import HardwiredBistController

    controller = HardwiredBistController(test, caps)
    return hardwired_trace(controller)


#: Attributed-stream builder per architecture, uniform signature
#: ``(test, caps, compress)`` (only microcode honours ``compress``).
#: Shared by the stimulus check below and the fault-response check in
#: :mod:`repro.conformance.faulty`.
STREAM_BUILDERS = {
    "microcode": _microcode_stream,
    "progfsm": _fsm_stream,
    "hardwired": _hardwired_stream,
}


def _microcode_walk(
    test: MarchTest, caps: ControllerCapabilities, compress: bool
):
    from repro.core.microcode.assembler import assemble
    from repro.core.microcode.controller import runtime_cycle_bound
    from repro.core.microcode.instruction import MicroInstruction
    from repro.core.walk import walk_microcode

    program = assemble(test, caps, compress=compress, verify=False)
    fetched = [  # the rows the storage unit hands the controller
        MicroInstruction.decode(row.encode()) for row in program.instructions
    ]
    return (
        walk_microcode(fetched, caps),
        runtime_cycle_bound(len(program), caps),
    )


def _fsm_walk(test: MarchTest, caps: ControllerCapabilities, compress: bool):
    from repro.core.progfsm.compiler import compile_to_sm
    from repro.core.progfsm.controller import runtime_cycle_bound
    from repro.core.progfsm.instruction import FsmInstruction
    from repro.core.walk import walk_fsm

    program = compile_to_sm(test, caps, verify=False)
    fetched = [  # the rows the circular buffer hands the controller
        FsmInstruction.decode(row.encode()) for row in program.instructions
    ]
    return (
        walk_fsm(fetched, caps, program.pause_duration),
        runtime_cycle_bound(len(program), caps),
    )


def _hardwired_walk(
    test: MarchTest, caps: ControllerCapabilities, compress: bool
):
    from repro.core.hardwired.controller import runtime_cycle_bound
    from repro.core.hardwired.synthesis import synthesize
    from repro.core.walk import walk_hardwired

    graph = synthesize(test, caps)
    return (
        walk_hardwired(graph, caps),
        runtime_cycle_bound(graph.state_count, caps),
    )


#: Per architecture: the stock :data:`STREAM_BUILDERS` entry and the
#: collapsed walk (:mod:`repro.core.walk`) of the program it would
#: simulate, ``(test, caps, compress) -> (walk, default cycle bound)``.
PROGRAM_WALKS = {
    "microcode": (_microcode_stream, _microcode_walk),
    "progfsm": (_fsm_stream, _fsm_walk),
    "hardwired": (_hardwired_stream, _hardwired_walk),
}


def proved_conformant(
    architecture: str,
    test: MarchTest,
    capabilities: ControllerCapabilities,
    compress: bool = True,
) -> Optional[bool]:
    """Whether ``architecture`` emits the golden stream, without running it.

    ``True`` when the architecture's :data:`STREAM_BUILDERS` entry is
    the stock builder, the collapsed walk of its program terminates
    within the controller's default cycle bound, the walk's op summary
    equals :func:`~repro.core.walk.march_summary`, and the datapath
    enumerates what ``expand`` uses on this geometry
    (:func:`~repro.core.walk.datapath_enumerates_expand`): the built
    stream would then equal the golden stream op for op.  ``False``
    when the summaries differ, ``None`` (UNKNOWN) otherwise; either
    way only building the stream decides.

    Raises:
        CompileError: progfsm outside SM0–SM7, as the builder raises.
    """
    from repro.core.walk import datapath_enumerates_expand, march_summary

    stock, walk = PROGRAM_WALKS[architecture]
    if STREAM_BUILDERS[architecture] is not stock:
        return None
    walked, bound = walk(test, capabilities, compress)
    if not datapath_enumerates_expand(capabilities):
        return None
    return walked.matches(march_summary(test, capabilities), bound)


def check_conformance(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    architectures: Sequence[str] = ARCHITECTURES,
    compress: bool = True,
) -> ConformanceResult:
    """Differentially test ``test`` across the controller architectures.

    Args:
        test: the march algorithm.
        capabilities: memory geometry all controllers target.
        architectures: subset of :data:`ARCHITECTURES` to compare.
        compress: microcode REPEAT compression (both settings must
            conform — the fuzz harness draws it randomly).

    Returns:
        A :class:`ConformanceResult`; ``.ok`` is the op-for-op verdict.
    """
    from repro.core.progfsm.compiler import CompileError

    caps = capabilities
    unknown = set(architectures) - set(ARCHITECTURES)
    if unknown:
        raise ValueError(
            f"unknown architecture(s) {sorted(unknown)}; "
            f"known: {list(ARCHITECTURES)}"
        )
    reference = GOLDEN_CACHE.get(test, caps)
    result = ConformanceResult(
        notation=format_test(test),
        geometry=(caps.n_words, caps.width, caps.ports),
        compress=compress,
        golden_ops=len(reference),
    )
    for architecture in ARCHITECTURES:
        if architecture not in architectures:
            continue
        arch_result = ArchitectureResult(architecture=architecture)
        result.results.append(arch_result)
        try:
            stream = STREAM_BUILDERS[architecture](test, caps, compress)
        except CompileError as error:
            arch_result.skipped = f"outside the SM0-SM7 boundary: {error}"
            continue
        except RuntimeError as error:
            arch_result.error = f"simulation did not terminate: {error}"
            continue
        arch_result.op_count = len(stream)
        arch_result.divergence = first_divergence(
            reference, stream, architecture
        )
    return result
