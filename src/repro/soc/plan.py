"""SoC memory portfolio description and the strategy comparison study."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.area.technology import IBM_CMOS5S, Technology
from repro.march.simulator import operation_count
from repro.march.test import MarchTest


@dataclass(frozen=True)
class MemoryRequirement:
    """One embedded memory and the algorithms its test plan needs.

    A realistic plan runs different algorithms at different fabrication
    stages — e.g. a fast March C at wafer sort, March C+ (retention) at
    package test, March C++ at burn-in.  Non-programmable BIST must pay
    for that diversity in hardware or in test time; programmable BIST
    reloads.

    Attributes:
        name: instance name (for breakdowns).
        n_words / width / ports: geometry.
        tests: the algorithms the test plan requires, in stage order.
    """

    name: str
    n_words: int
    width: int = 1
    ports: int = 1
    tests: Tuple[MarchTest, ...] = ()

    def __post_init__(self) -> None:
        if not self.tests:
            raise ValueError(f"memory {self.name!r} needs at least one test")

    @property
    def superset_test(self) -> MarchTest:
        """The most capable (longest) required algorithm."""
        return max(self.tests, key=lambda t: t.operation_count)

    def stage_operations(self, test: MarchTest) -> int:
        """Operations for one full run of ``test`` on this memory."""
        return operation_count(test, self.n_words, self.width, self.ports)


@dataclass(frozen=True)
class StrategyResult:
    """Costed outcome of one strategy over a memory portfolio.

    Attributes:
        strategy: strategy name.
        total_ge: total test-logic area (gate equivalents).
        area_um2: the same under the technology calibration.
        total_operations: memory operations summed over every required
            stage run of every memory (test *work*).
        makespan_operations: wall-clock test length in operations —
            per-memory controllers run concurrently (max over memories),
            a shared controller tests memories serially (sum).
        breakdown: per-item (label, GE) rows.
    """

    strategy: str
    total_ge: float
    area_um2: float
    total_operations: int
    makespan_operations: int
    breakdown: Tuple[Tuple[str, float], ...]

    def __str__(self) -> str:
        return (
            f"{self.strategy}: {self.total_ge:.0f} GE, "
            f"{self.total_operations} ops total, "
            f"makespan {self.makespan_operations} ops"
        )


class SocBistStudy:
    """Compare BIST test-logic strategies over a memory portfolio.

    Args:
        memories: the SoC's embedded memories and their test plans.
        tech: area calibration (defaults to the IBM CMOS5S model).
    """

    def __init__(
        self,
        memories: Sequence[MemoryRequirement],
        tech: Optional[Technology] = None,
    ) -> None:
        if not memories:
            raise ValueError("the study needs at least one memory")
        names = [m.name for m in memories]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate memory names: {names}")
        self.memories = list(memories)
        self.tech = tech or IBM_CMOS5S

    def run(self, strategies: Optional[Sequence] = None) -> List[StrategyResult]:
        """Cost every strategy; defaults to all four built-ins."""
        from repro.soc.strategies import default_strategies

        chosen = list(strategies) if strategies is not None else default_strategies()
        return [strategy.evaluate(self.memories, self.tech) for strategy in chosen]

    def render(self, results: Optional[List[StrategyResult]] = None) -> str:
        """Text table of the comparison."""
        results = results if results is not None else self.run()
        width = max(len(r.strategy) for r in results)
        lines = [
            f"{'strategy':<{width}}  {'area GE':>9}  {'area um^2':>11}  "
            f"{'total ops':>12}  {'makespan':>12}"
        ]
        for result in results:
            lines.append(
                f"{result.strategy:<{width}}  {result.total_ge:>9.0f}  "
                f"{result.area_um2:>11.0f}  {result.total_operations:>12d}  "
                f"{result.makespan_operations:>12d}"
            )
        return "\n".join(lines)
