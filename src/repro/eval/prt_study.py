"""Pseudo-ring vs march coverage: where PRT wins and loses.

The pseudo-ring scheme trades the march library's per-fault determinism
for a radically smaller engine (no program storage, no background
generator — see :meth:`repro.prt.controller.PrtController.hardware`).
This study measures the price over the standard fault universe:
per-fault-kind simulated coverage of a PRT session against a march
baseline (March C by default) on the same geometry, reporting the kinds
where PRT wins, loses, or ties.  The CLI surfaces it as ``repro prt
coverage`` and the per-PR conformance job runs it as a gate.

The headline pattern the numbers show: PRT's read-then-write
circulation excites and observes most static cell faults (SAF/TF and
many couplings) but — being pseudorandom in its data relations — it
carries escape probability where March C is exhaustive, and it has no
pause phase, so retention kinds escape entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.conformance.check import GOLDEN_CACHE
from repro.conformance.faulty.coverage import (
    CoverageReport,
    evaluate_coverage,
    evaluate_trace_coverage,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.universe import FaultUniverse, standard_universe
from repro.march import library
from repro.memory.sram import Sram
from repro.prt.session import PrtSession


@dataclass(frozen=True)
class PrtKindRow:
    """Per-fault-kind comparison of PRT vs the march baseline."""

    kind: str
    prt_detected: int
    march_detected: int
    total: int

    @property
    def prt_percent(self) -> Optional[float]:
        return 100.0 * self.prt_detected / self.total if self.total else None

    @property
    def march_percent(self) -> Optional[float]:
        return (
            100.0 * self.march_detected / self.total if self.total else None
        )

    @property
    def verdict(self) -> str:
        """``wins`` / ``loses`` / ``ties`` for PRT vs the baseline."""
        if not self.total:
            return "n/a"
        if self.prt_detected > self.march_detected:
            return "wins"
        if self.prt_detected < self.march_detected:
            return "loses"
        return "ties"

    def to_json(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "total": self.total,
            "prt_detected": self.prt_detected,
            "march_detected": self.march_detected,
            "prt_percent": (
                round(self.prt_percent, 2)
                if self.prt_percent is not None else None
            ),
            "march_percent": (
                round(self.march_percent, 2)
                if self.march_percent is not None else None
            ),
            "verdict": self.verdict,
        }


@dataclass
class PrtComparisonReport:
    """The full PRT-vs-march comparison over one geometry."""

    session_notation: str
    baseline_name: str
    geometry: Tuple[int, int, int]
    universe_name: str
    prt_ops: int
    march_ops: int
    rows: List[PrtKindRow] = field(default_factory=list)
    prt: Optional[CoverageReport] = None
    march: Optional[CoverageReport] = None

    @property
    def wins(self) -> List[str]:
        return [row.kind for row in self.rows if row.verdict == "wins"]

    @property
    def losses(self) -> List[str]:
        return [row.kind for row in self.rows if row.verdict == "loses"]

    @property
    def ties(self) -> List[str]:
        return [row.kind for row in self.rows if row.verdict == "ties"]

    def format(self) -> str:
        lines = [
            f"pseudo-ring vs {self.baseline_name} on {self.geometry} "
            f"({self.universe_name}):",
            f"  {self.session_notation}: {self.prt_ops} ops, "
            f"{100.0 * self.prt.overall:.1f}% overall",
            f"  {self.baseline_name}: {self.march_ops} ops, "
            f"{100.0 * self.march.overall:.1f}% overall",
            f"  {'kind':6s} {'faults':>6s} {'PRT':>7s} "
            f"{self.baseline_name:>9s}  verdict",
        ]
        for row in self.rows:
            prt_pct = (
                f"{row.prt_percent:6.1f}%"
                if row.prt_percent is not None else "   n/a "
            )
            march_pct = (
                f"{row.march_percent:8.1f}%"
                if row.march_percent is not None else "     n/a "
            )
            lines.append(
                f"  {row.kind:6s} {row.total:6d} {prt_pct} {march_pct}"
                f"  {row.verdict}"
            )
        lines.append(
            f"  PRT wins: {', '.join(self.wins) or 'none'}; "
            f"loses: {', '.join(self.losses) or 'none'}; "
            f"ties: {', '.join(self.ties) or 'none'}"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "session": self.session_notation,
            "baseline": self.baseline_name,
            "geometry": list(self.geometry),
            "universe": self.universe_name,
            "prt_ops": self.prt_ops,
            "march_ops": self.march_ops,
            "prt_overall_percent": round(100.0 * self.prt.overall, 2),
            "march_overall_percent": round(100.0 * self.march.overall, 2),
            "by_kind": [row.to_json() for row in self.rows],
            "wins": self.wins,
            "losses": self.losses,
            "ties": self.ties,
            "prt": self.prt.to_json(),
            "march": self.march.to_json(),
        }


def prt_vs_march(
    n_words: int = 8,
    width: int = 1,
    ports: int = 1,
    session: Optional[PrtSession] = None,
    baseline: str = "March C",
    universe: Optional[FaultUniverse] = None,
    include_npsf: bool = True,
) -> PrtComparisonReport:
    """Measure PRT vs a march baseline over the standard fault universe.

    Both sides sweep the *same* universe on the same geometry through
    the same single-fault loop
    (:func:`repro.conformance.faulty.coverage.simulate_faults`), so the
    per-kind deltas are measurement, not modelling.
    """
    from repro.prt import PRT_RING_UP

    session = session or PRT_RING_UP
    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    if universe is None:
        universe = standard_universe(
            n_words, width=width, include_npsf=include_npsf, ports=ports
        )
    test = library.get(baseline)
    prt_report = evaluate_trace_coverage(
        session.attributed_stream(caps),
        Sram(n_words, width=width, ports=ports),
        universe,
        test_name=session.name,
    )
    march_report = evaluate_coverage(
        test, universe, n_words, width=width, ports=ports
    )
    report = PrtComparisonReport(
        session_notation=session.notation,
        baseline_name=test.name,
        geometry=(n_words, width, ports),
        universe_name=universe.name,
        prt_ops=session.op_count(caps),
        march_ops=len(GOLDEN_CACHE.get(test, caps)),
        prt=prt_report,
        march=march_report,
    )
    for kind in sorted(prt_report.total):
        report.rows.append(
            PrtKindRow(
                kind=kind,
                prt_detected=prt_report.detected.get(kind, 0),
                march_detected=march_report.detected.get(kind, 0),
                total=prt_report.total[kind],
            )
        )
    return report
