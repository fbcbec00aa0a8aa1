"""Algorithm recommendation from measured coverage.

Given the fault classes a test stage must screen, pick the cheapest
library algorithm whose *measured* coverage of every requested class is
100 % — the decision a test engineer makes per fabrication stage, and
the reason a programmable controller earns its area: each stage loads
exactly the algorithm its fault-model contract requires, no more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.eval.coverage_study import (
    COVERAGE_COLUMNS,
    CoverageRow,
    coverage_table,
)
from repro.march import library
from repro.march.test import MarchTest


class NoAlgorithmError(LookupError):
    """No library algorithm fully covers the requested classes."""


@dataclass(frozen=True)
class Recommendation:
    """The chosen algorithm plus the evidence behind the choice.

    Attributes:
        test: the recommended algorithm.
        operation_factor: its per-cell operation count (the k of kN).
        required: the fault classes that had to reach 100 %.
        alternatives: dearer algorithms that also qualify, by cost.
    """

    test: MarchTest
    operation_factor: int
    required: Tuple[str, ...]
    alternatives: Tuple[str, ...]

    def __str__(self) -> str:
        others = ", ".join(self.alternatives) or "none"
        return (
            f"{self.test.name} ({self.test.complexity}) covers "
            f"{{{', '.join(self.required)}}}; costlier alternatives: {others}"
        )


def _qualifies(row: CoverageRow, required: Sequence[str]) -> bool:
    return all(row.percent(column) == 100.0 for column in required)


def recommend(
    required_classes: Iterable[str],
    n_words: int = 8,
    rows: Optional[List[CoverageRow]] = None,
) -> Recommendation:
    """Cheapest library algorithm with full measured coverage of the
    requested fault classes.

    Args:
        required_classes: subset of :data:`COVERAGE_COLUMNS`
            (``SAF TF AF CFin CFid CFst IRF RDF DRDF SOF DRF``).
        n_words: array size for the measurement sweep (coverage
            properties are size-independent; small is fine).
        rows: pre-measured coverage rows (reuse across calls).

    Raises:
        ValueError: for unknown class names.
        NoAlgorithmError: if nothing in the library qualifies.
    """
    required = tuple(dict.fromkeys(required_classes))  # dedupe, keep order
    unknown = [c for c in required if c not in COVERAGE_COLUMNS]
    if unknown:
        raise ValueError(
            f"unknown fault classes {unknown}; known: {list(COVERAGE_COLUMNS)}"
        )
    if not required:
        raise ValueError("at least one fault class is required")
    rows = rows if rows is not None else coverage_table(n_words=n_words)
    qualifying = sorted(
        (row for row in rows if _qualifies(row, required)),
        key=lambda row: library.get(row.algorithm).operation_count,
    )
    if not qualifying:
        raise NoAlgorithmError(
            f"no library algorithm fully covers {list(required)}"
        )
    winner = qualifying[0]
    return Recommendation(
        test=library.get(winner.algorithm),
        operation_factor=library.get(winner.algorithm).operation_count,
        required=required,
        alternatives=tuple(row.algorithm for row in qualifying[1:]),
    )


def stage_plan(
    stages: Sequence[Tuple[str, Iterable[str]]],
    n_words: int = 8,
) -> List[Tuple[str, Recommendation]]:
    """Recommend one algorithm per fabrication stage.

    Args:
        stages: (stage name, required fault classes) pairs, e.g.
            ``[("wafer sort", ["SAF", "TF", "AF"]), ...]``.

    Returns:
        (stage name, recommendation) pairs — the input a
        :class:`repro.soc.MemoryRequirement` test plan is built from.
    """
    rows = coverage_table(n_words=n_words)
    return [
        (name, recommend(classes, n_words=n_words, rows=rows))
        for name, classes in stages
    ]
