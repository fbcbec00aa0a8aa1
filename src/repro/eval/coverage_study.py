"""Library-wide fault-coverage matrix.

The classic textbook table — every march algorithm versus every fault
class — reproduced by measurement over the standard fault universe.
This is the evidence behind the paper's premise that different test
requirements (production, retention screening, burn-in, diagnostics)
need different algorithms, and therefore benefit from a programmable
controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.faulty.coverage import CoverageReport, evaluate_coverage
from repro.faults.conditions import CONDITIONS, condition_for
from repro.faults.universe import standard_universe
from repro.march import library
from repro.march.test import MarchTest

#: Fault-class columns, in report order: detection-condition keys of
#: :data:`repro.faults.conditions.CONDITIONS`.
COVERAGE_COLUMNS = (
    "SAF", "TF", "AF", "CFin", "CFid", "CFst", "IRF", "RDF", "DRDF",
    "SOF", "DRF",
)

#: Default algorithm rows (ordered by operation count).
DEFAULT_ALGORITHMS = (
    "Zero-One", "MATS", "MATS+", "MATS++", "March X", "March Y",
    "March C", "PMOVI", "March LR", "March A", "March B",
    "March C+", "March A+", "March G", "March C++", "March A++",
)


@dataclass(frozen=True)
class CoverageRow:
    """One algorithm's measured coverage per fault class (percent).

    A class percentage of ``None`` means the swept universe held no
    fault of that class (0/0) — rendered ``n/a``, never 100.

    ``escapes`` lists every undetected fault as a portable spec string
    (:func:`repro.faults.spec.format_fault`, with a tagged
    ``unspec:…`` fallback for inexpressible faults).
    """

    algorithm: str
    complexity: str
    by_class: Tuple[Tuple[str, Optional[float]], ...]
    overall: float
    escapes: Tuple[str, ...] = ()

    def percent(self, column: str) -> Optional[float]:
        return dict(self.by_class)[column]

    def to_json(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "complexity": self.complexity,
            "by_class": {column: value for column, value in self.by_class},
            "overall_percent": round(self.overall, 2),
            "escapes": list(self.escapes),
        }


def _column_coverage(
    report: CoverageReport, column: str
) -> Optional[float]:
    """Percent coverage of one report column — the kinds whose detection
    condition the column names (``AF`` gathers AF1–AF4); None for an
    empty (0/0) column, which the caller renders ``n/a`` instead of a
    vacuous 100."""
    condition = CONDITIONS[column]
    kinds = [kind for kind in report.total if condition_for(kind) is condition]
    detected = sum(report.detected.get(kind, 0) for kind in kinds)
    total = sum(report.total[kind] for kind in kinds)
    return 100.0 * detected / total if total else None


def coverage_table(
    n_words: int = 8,
    algorithms: Optional[Sequence[str]] = None,
) -> List[CoverageRow]:
    """Measure the full algorithm × fault-class matrix.

    Args:
        n_words: memory size for the sweep (small sizes suffice — march
            coverage properties are size-independent).
        algorithms: algorithm names; defaults to the library ordered by
            operation count.
    """
    universe = standard_universe(n_words, include_npsf=False)
    rows: List[CoverageRow] = []
    for name in algorithms or DEFAULT_ALGORITHMS:
        test = library.get(name)
        report = evaluate_coverage(test, universe, n_words)
        by_class = tuple(
            (column, _column_coverage(report, column))
            for column in COVERAGE_COLUMNS
        )
        rows.append(
            CoverageRow(
                algorithm=test.name,
                complexity=test.complexity,
                by_class=by_class,
                overall=100.0 * report.overall,
                escapes=tuple(report.escape_specs()),
            )
        )
    return rows


def render_coverage_table(rows: List[CoverageRow]) -> str:
    """Text rendering of the coverage matrix (``n/a`` for 0/0 columns)."""
    header = f"{'algorithm':<12} {'ops':>5} " + " ".join(
        f"{column:>5}" for column in COVERAGE_COLUMNS
    ) + f" {'all':>6}"
    lines = ["Measured fault coverage (%) over the standard universe", header]
    for row in rows:
        cells = " ".join(
            f"{row.percent(column):>5.0f}"
            if row.percent(column) is not None
            else f"{'n/a':>5}"
            for column in COVERAGE_COLUMNS
        )
        lines.append(
            f"{row.algorithm:<12} {row.complexity:>5} {cells} "
            f"{row.overall:>6.1f}"
        )
    return "\n".join(lines)
