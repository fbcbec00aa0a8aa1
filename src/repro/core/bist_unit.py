"""The complete memory BIST unit: controller + datapath + memory.

:class:`MemoryBistUnit` wires any :class:`~repro.core.controller.BistController`
to a memory under test and runs the self-test, producing a go/no-go
verdict plus the fail log that the diagnostics package analyses — the
two usage modes the paper argues a programmable controller should serve
across fabrication stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.area.estimator import AreaReport, estimate
from repro.area.technology import Technology
from repro.core.controller import BistController
from repro.march.simulator import Failure, run_on_memory
from repro.memory.sram import Sram


@dataclass
class BistResult:
    """Outcome of one BIST run.

    Attributes:
        passed: go/no-go verdict (the BIST *Test End* + fail flag).
        operations: memory operations the controller issued.
        failures: read mismatches, in occurrence order (in go/no-go
            mode, only the first).
        controller: architecture name that produced the run.
        test_name: algorithm executed.
    """

    passed: bool
    operations: int
    failures: List[Failure] = field(default_factory=list)
    controller: str = ""
    test_name: str = ""

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({self.failure_count} mismatches)"
        return (
            f"[{self.controller}] {self.test_name}: {verdict} after "
            f"{self.operations} operations"
        )


class MemoryBistUnit:
    """A BIST controller bound to its memory under test.

    Args:
        controller: any of the three architectures.
        memory: the memory under test; its geometry must match the
            controller's capabilities.

    Raises:
        ValueError: on geometry mismatch — a BIST unit is built *for* a
            specific embedded memory.
    """

    def __init__(self, controller: BistController, memory: Sram) -> None:
        caps = controller.capabilities
        if (memory.n_words, memory.width, memory.ports) != (
            caps.n_words,
            caps.width,
            caps.ports,
        ):
            raise ValueError(
                f"memory geometry {memory.n_words}x{memory.width}/"
                f"{memory.ports}p does not match controller capabilities "
                f"{caps.n_words}x{caps.width}/{caps.ports}p"
            )
        self.controller = controller
        self.memory = memory

    def run(self, stop_at_first_failure: bool = False) -> BistResult:
        """Execute the loaded algorithm against the memory.

        Args:
            stop_at_first_failure: go/no-go production mode; leave False
                to capture the complete fail log for diagnostics.  The
                controller stream is open loop, so the go/no-go result
                is the full run's first failure, with the operations
                issued up to it.
        """
        result = run_on_memory(self.controller.operations(), self.memory)
        failures = result.failures
        operations = result.operations
        if stop_at_first_failure and failures:
            failures = failures[:1]
            operations = failures[0].op_index + 1
        return BistResult(
            passed=result.passed,
            operations=operations,
            failures=failures,
            controller=self.controller.architecture,
            test_name=self.controller.loaded_test().name,
        )

    def area(self, tech: Optional[Technology] = None) -> AreaReport:
        """Silicon area of the whole BIST unit (controller + datapath)."""
        return estimate(self.controller.hardware(), tech)
