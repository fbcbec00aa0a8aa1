"""Test-logic strategies for a portfolio of embedded memories.

Cost model conventions (shared by all strategies so the comparison is
apples-to-apples):

* every memory always keeps its own *datapath* (address generator, data
  generator, comparator, port sequencer) — it is wired to the array and
  cannot meaningfully be shared across distant macros;
* a *controller* (sequencing logic + any program storage) can be
  duplicated per test, instantiated per memory, or shared chip-wide;
* sharing one controller adds a small per-memory interface (the
  controller's command/response wiring is multiplexed across macros) and
  serialises testing (one memory at a time), which the makespan column
  reports.

Test-time accounting: every memory runs each algorithm of its test plan
once (one run per fabrication stage).  The hardwired-superset strategy
runs its single fixed algorithm at *every* stage — the hidden test-time
cost of avoiding per-test controllers without programmability.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

from repro.area.components import Mux
from repro.area.estimator import estimate
from repro.area.technology import Technology
from repro.core.controller import ControllerCapabilities
from repro.core.hardwired import HardwiredBistController
from repro.core.microcode import MicrocodeBistController, assemble
from repro.core.datapath import shared_datapath_hardware
from repro.soc.plan import MemoryRequirement, StrategyResult


def _datapath_ge(memory: MemoryRequirement, tech: Technology) -> float:
    components = shared_datapath_hardware(memory.n_words, memory.width,
                                          memory.ports)
    return sum(c.gate_equivalents(tech) for c in components)


def _controller_only_ge(controller, tech: Technology) -> float:
    """Controller logic excluding the per-memory datapath blocks."""
    report = estimate(controller.hardware(), tech)
    return report.component_ge("controller/")


def _caps(memory: MemoryRequirement) -> ControllerCapabilities:
    return ControllerCapabilities(
        n_words=memory.n_words, width=memory.width, ports=memory.ports
    )


class Strategy(abc.ABC):
    """A way of provisioning BIST logic for a memory portfolio."""

    name: str = "?"

    @abc.abstractmethod
    def evaluate(
        self, memories: Sequence[MemoryRequirement], tech: Technology
    ) -> StrategyResult:
        """Cost the strategy over the portfolio."""

    def _result(
        self,
        breakdown: List[Tuple[str, float]],
        total_operations: int,
        makespan: int,
        tech: Technology,
    ) -> StrategyResult:
        total = sum(ge for _, ge in breakdown)
        return StrategyResult(
            strategy=self.name,
            total_ge=total,
            area_um2=tech.to_um2(total),
            total_operations=total_operations,
            makespan_operations=makespan,
            breakdown=tuple(breakdown),
        )


class HardwiredPerTest(Strategy):
    """One dedicated hardwired controller per (memory, required test).

    Minimal logic per controller, but the controllers multiply with the
    test plan — the configuration the paper argues "might not truly
    reveal the overhead" comparisons miss.
    """

    name = "hardwired per test"

    def evaluate(self, memories, tech):
        breakdown: List[Tuple[str, float]] = []
        per_memory_time: List[int] = []
        total_operations = 0
        for memory in memories:
            breakdown.append((f"{memory.name}/datapath", _datapath_ge(memory, tech)))
            stage_ops = 0
            for test in memory.tests:
                controller = HardwiredBistController(test, _caps(memory))
                breakdown.append(
                    (
                        f"{memory.name}/hardwired {test.name}",
                        _controller_only_ge(controller, tech),
                    )
                )
                stage_ops += memory.stage_operations(test)
            total_operations += stage_ops
            per_memory_time.append(stage_ops)
        return self._result(
            breakdown, total_operations, max(per_memory_time), tech
        )


class HardwiredSuperset(Strategy):
    """One hardwired controller per memory, fixed to the most capable
    required algorithm, run at every stage.

    Saves controllers but pays in test time: the fast wafer-sort stage
    runs the full burn-in algorithm.
    """

    name = "hardwired superset"

    def evaluate(self, memories, tech):
        breakdown: List[Tuple[str, float]] = []
        per_memory_time: List[int] = []
        total_operations = 0
        for memory in memories:
            superset = memory.superset_test
            controller = HardwiredBistController(superset, _caps(memory))
            breakdown.append((f"{memory.name}/datapath", _datapath_ge(memory, tech)))
            breakdown.append(
                (
                    f"{memory.name}/hardwired {superset.name}",
                    _controller_only_ge(controller, tech),
                )
            )
            stage_ops = memory.stage_operations(superset) * len(memory.tests)
            total_operations += stage_ops
            per_memory_time.append(stage_ops)
        return self._result(
            breakdown, total_operations, max(per_memory_time), tech
        )


class PerMemoryProgrammable(Strategy):
    """One microcode-based controller per memory (scan-only storage),
    reloaded per stage.

    Makespan includes the per-stage program reload latency (the slow
    scan clock of scan-only cells, see
    :meth:`repro.core.microcode.storage.StorageUnit.scan_load_cycles`) —
    which the numbers show to be negligible against the test itself.
    """

    name = "programmable per memory"

    def evaluate(self, memories, tech):
        breakdown: List[Tuple[str, float]] = []
        per_memory_time: List[int] = []
        total_operations = 0
        for memory in memories:
            caps = _caps(memory)
            rows = max(
                len(assemble(test, caps).instructions) for test in memory.tests
            )
            controller = MicrocodeBistController(
                memory.tests[0], caps, storage_rows=max(rows, 2),
                storage_cell="scan_only",
            )
            breakdown.append((f"{memory.name}/datapath", _datapath_ge(memory, tech)))
            breakdown.append(
                (
                    f"{memory.name}/microcode controller",
                    _controller_only_ge(controller, tech),
                )
            )
            stage_ops = sum(memory.stage_operations(t) for t in memory.tests)
            reloads = len(memory.tests) * controller.storage.scan_load_cycles()
            total_operations += stage_ops
            per_memory_time.append(stage_ops + reloads)
        return self._result(
            breakdown, total_operations, max(per_memory_time), tech
        )


class SharedProgrammable(Strategy):
    """One chip-level microcode controller shared by every memory.

    The controller is sized for the worst-case geometry and program; each
    memory keeps its datapath plus a small command/response interface
    mux.  Testing is serialised across memories.
    """

    name = "shared programmable"

    #: Per-memory interface overhead beyond the mux: enable/ready glue.
    INTERFACE_GLUE_GE = 6.0

    def evaluate(self, memories, tech):
        breakdown: List[Tuple[str, float]] = []
        shared_caps = ControllerCapabilities(
            n_words=max(m.n_words for m in memories),
            width=max(m.width for m in memories),
            ports=max(m.ports for m in memories),
        )
        rows = 2
        for memory in memories:
            for test in memory.tests:
                rows = max(
                    rows, len(assemble(test, _caps(memory)).instructions)
                )
        controller = MicrocodeBistController(
            memories[0].tests[0], shared_caps, storage_rows=rows,
            storage_cell="scan_only",
        )
        breakdown.append(
            ("shared/microcode controller", _controller_only_ge(controller, tech))
        )
        total_operations = 0
        reload_cycles = 0
        for memory in memories:
            breakdown.append((f"{memory.name}/datapath", _datapath_ge(memory, tech)))
            interface = Mux(f"{memory.name}/interface mux", 2, memory.width + 2)
            breakdown.append(
                (
                    f"{memory.name}/controller interface",
                    interface.gate_equivalents(tech) + self.INTERFACE_GLUE_GE,
                )
            )
            total_operations += sum(
                memory.stage_operations(t) for t in memory.tests
            )
            reload_cycles += (
                len(memory.tests) * controller.storage.scan_load_cycles()
            )
        # One controller: memories are tested one after another, and
        # every (memory, stage) pair pays one slow-clock program reload.
        return self._result(
            breakdown, total_operations, total_operations + reload_cycles, tech
        )


def default_strategies() -> List[Strategy]:
    """The four built-in strategies, in report order."""
    return [
        HardwiredPerTest(),
        HardwiredSuperset(),
        PerMemoryProgrammable(),
        SharedProgrammable(),
    ]
