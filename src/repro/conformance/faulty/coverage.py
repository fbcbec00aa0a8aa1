"""Simulated fault coverage, and its cross-check against certificates.

One loop answers "does this stimulus detect this fault by simulation":
:func:`simulate_faults` injects each fault of a population into one
memory in turn and applies a materialised attributed stream through the
scalar oracle's :func:`~repro.conformance.faulty.events.capture_response`.
A fault is detected when its capture holds a fail event.  The loop has
two users:

* :func:`evaluate_trace_coverage` and :func:`evaluate_coverage` count
  detections per fault kind into a :class:`CoverageReport` — the
  measured coverage of the studies (:mod:`repro.eval.coverage_study`,
  :mod:`repro.eval.prt_study`).  A march test's stream is read once
  from :data:`~repro.conformance.check.GOLDEN_CACHE`;
* :func:`check_coverage_conformance` runs the static prover
  (:mod:`repro.analysis.coverage`) and the loop over the same (test,
  fault) product and asserts they agree *fault-for-fault*:

  * a ``covered`` verdict must correspond to a capture with at least
    one fail event, **and** the certificate's witness op index must be
    the op index of one of those events.  The capture stops at the
    witness when the witness read fails there, and runs the whole
    stream otherwise;
  * a ``not-covered`` verdict must correspond to an empty capture;
  * ``unknown`` verdicts are counted (the prover's honesty budget) but
    never simulated — they are the prover declining to claim anything.

:func:`coverage_disagreement_predicate` wraps the single-fault check as
a three-axis shrink predicate, so fuzz identity (f) disagreements reduce
to a minimal (march, geometry, fault) triple exactly like response
divergences do.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.conformance.check import GOLDEN_CACHE
from repro.conformance.faulty.check import Geometry, _as_capabilities
from repro.conformance.faulty.events import capture_response
from repro.conformance.faulty.shrink import FaultyPredicate
from repro.conformance.trace import Stream, op_trace
from repro.core.controller import ControllerCapabilities
from repro.faults.base import CellFault
from repro.faults.injector import FaultInjector
from repro.faults.spec import format_fault, parse_fault
from repro.faults.universe import FaultUniverse, standard_universe
from repro.march.simulator import Failure
from repro.march.test import MarchTest
from repro.memory.sram import Sram


@dataclass
class CoverageReport:
    """Per-kind and overall detection statistics for one test run."""

    test_name: str
    universe_name: str
    detected: Dict[str, int] = field(default_factory=dict)
    total: Dict[str, int] = field(default_factory=dict)
    escapes: List[CellFault] = field(default_factory=list)

    @property
    def detected_count(self) -> int:
        return sum(self.detected.values())

    @property
    def total_count(self) -> int:
        return sum(self.total.values())

    @property
    def is_vacuous(self) -> bool:
        """True when the swept universe contained no faults at all —
        every ratio is then 0/0 and carries no information."""
        return not self.total_count

    @property
    def overall(self) -> float:
        """Overall coverage fraction in [0, 1].

        A 0/0 sweep (empty universe) reports 0.0, *not* 1.0: an empty
        sweep detects nothing and must never read as full coverage.
        Check :attr:`is_vacuous` to distinguish 0/0 from a genuine
        all-escaped 0/N.
        """
        if not self.total_count:
            return 0.0
        return self.detected_count / self.total_count

    def coverage_of(self, kind: str) -> float:
        """Coverage fraction for one fault kind; 0.0 when the universe
        held no fault of that kind (0/0 — see :attr:`is_vacuous`)."""
        total = self.total.get(kind, 0)
        if not total:
            return 0.0
        return self.detected.get(kind, 0) / total

    def as_rows(self) -> List[tuple]:
        """(kind, detected, total, percent) rows, sorted by kind.

        Warns on a vacuous report so table renderers can't silently
        show an empty sweep as a clean one.
        """
        if self.is_vacuous:
            warnings.warn(
                f"coverage report for {self.test_name!r} over "
                f"{self.universe_name!r} is vacuous: 0 faults swept "
                "(0/0 reported as 0%)",
                stacklevel=2,
            )
        rows = []
        for kind in sorted(self.total):
            rows.append(
                (
                    kind,
                    self.detected.get(kind, 0),
                    self.total[kind],
                    100.0 * self.coverage_of(kind),
                )
            )
        return rows

    def escape_specs(self) -> List[str]:
        """The escaped faults as portable strings.

        Spec-expressible faults serialise through
        :func:`repro.faults.spec.format_fault` (re-parseable); the rest
        fall back to a tagged repr ``unspec:<kind>:<description>`` so
        JSON reports never drop an escape silently.
        """
        specs = []
        for fault in self.escapes:
            spec = format_fault(fault)
            if spec is None:
                spec = f"unspec:{fault.kind}:{fault.describe()}"
            specs.append(spec)
        return specs

    def to_json(self) -> Dict[str, Any]:
        return {
            "test": self.test_name,
            "universe": self.universe_name,
            "detected": self.detected_count,
            "total": self.total_count,
            "vacuous": self.is_vacuous,
            "overall_percent": round(100.0 * self.overall, 2),
            "by_kind": {
                kind: {
                    "detected": self.detected.get(kind, 0),
                    "total": self.total[kind],
                }
                for kind in sorted(self.total)
            },
            "escapes": self.escape_specs(),
        }

    def __str__(self) -> str:
        lines = [
            f"coverage of {self.test_name} over {self.universe_name}: "
            f"{100.0 * self.overall:.1f}% "
            f"({self.detected_count}/{self.total_count})"
            + (" [vacuous: 0 faults swept]" if self.is_vacuous else "")
        ]
        for kind, detected, total, percent in self.as_rows():
            lines.append(f"  {kind:6s} {detected:5d}/{total:<5d} {percent:6.1f}%")
        return "\n".join(lines)


def simulate_faults(
    stream: Stream,
    memory: Sram,
    faults: Iterable[CellFault],
) -> Iterator[Tuple[CellFault, List[Failure]]]:
    """Each fault with the fail events ``stream`` captures on ``memory``
    with exactly that fault injected (power-cycled per fault)."""
    injector = FaultInjector(memory)
    for fault in faults:
        with injector.injected(fault) as faulty:
            events = capture_response(stream, faulty).events
        yield fault, events


def evaluate_trace_coverage(
    stream: Stream,
    memory: Sram,
    universe: FaultUniverse,
    test_name: str = "stream",
) -> CoverageReport:
    """Measure the coverage of a materialised stream.

    Args:
        stream: the stimulus, e.g. a :mod:`repro.conformance.trace`
            builder's output or a PRT session's ``attributed_stream``.
        memory: the memory-under-test instance to reuse across faults.
        universe: fault population to sweep.
        test_name: label for the report.
    """
    report = CoverageReport(test_name=test_name, universe_name=universe.name)
    for fault, events in simulate_faults(stream, memory, universe):
        kind = fault.kind
        report.total[kind] = report.total.get(kind, 0) + 1
        if events:
            report.detected[kind] = report.detected.get(kind, 0) + 1
        else:
            report.escapes.append(fault)
    return report


def evaluate_coverage(
    test: MarchTest,
    universe: FaultUniverse,
    n_words: int,
    width: int = 1,
    ports: int = 1,
) -> CoverageReport:
    """Measure the golden-stream coverage of a march test."""
    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    return evaluate_trace_coverage(
        GOLDEN_CACHE.get(test, caps),
        Sram(n_words, width=width, ports=ports),
        universe,
        test_name=test.name,
    )


@dataclass(frozen=True)
class CoverageDisagreement:
    """One (test, fault) pair where prover and sweep disagree."""

    test_name: str
    fault_index: int
    kind: str
    spec: Optional[str]
    description: str
    verdict: str
    detected: bool
    witness: Optional[int]
    reason: str

    def describe(self) -> str:
        return (
            f"{self.test_name} / fault {self.fault_index} "
            f"({self.spec or self.description}): {self.reason}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "test": self.test_name,
            "fault_index": self.fault_index,
            "kind": self.kind,
            "spec": self.spec,
            "description": self.description,
            "verdict": self.verdict,
            "detected": self.detected,
            "witness": self.witness,
            "reason": self.reason,
        }


@dataclass
class CoverageConformanceResult:
    """Aggregated certificate-vs-sweep agreement over a (tests × faults)
    product on one geometry."""

    geometry: Tuple[int, int, int]
    universe_name: str
    tests: List[str] = field(default_factory=list)
    checked: int = 0
    covered_agree: int = 0
    not_covered_agree: int = 0
    unknown: int = 0
    disagreements: List[CoverageDisagreement] = field(default_factory=list)
    static_time_s: float = 0.0
    simulate_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def unknown_rate(self) -> float:
        if not self.checked:
            return 0.0
        return self.unknown / self.checked

    def format(self) -> str:
        words, width, ports = self.geometry
        lines = [
            f"coverage conformance on {words}x{width}x{ports} "
            f"({len(self.tests)} algorithm(s) x {self.universe_name}): "
            f"{self.checked} pairs, {self.covered_agree} covered, "
            f"{self.not_covered_agree} not covered, "
            f"{self.unknown} unknown ({100.0 * self.unknown_rate:.1f}%), "
            f"{len(self.disagreements)} disagreement(s) "
            f"[static {self.static_time_s:.2f}s, "
            f"simulate {self.simulate_time_s:.2f}s]"
        ]
        for disagreement in self.disagreements:
            lines.append("  " + disagreement.describe())
        return "\n".join(lines)

    def to_json(self, include_timing: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "geometry": list(self.geometry),
            "universe": self.universe_name,
            "tests": self.tests,
            "checked": self.checked,
            "covered_agree": self.covered_agree,
            "not_covered_agree": self.not_covered_agree,
            "unknown": self.unknown,
            "unknown_rate": round(self.unknown_rate, 4),
            "ok": self.ok,
            "disagreements": [d.to_dict() for d in self.disagreements],
        }
        if include_timing:
            payload["timing"] = {
                "static_time_s": round(self.static_time_s, 3),
                "simulate_time_s": round(self.simulate_time_s, 3),
            }
        return payload


def check_coverage_conformance(
    tests: Optional[Sequence[MarchTest]] = None,
    geometry: Geometry = (4, 2, 1),
    universe: Optional[FaultUniverse] = None,
    faults: Optional[Sequence[CellFault]] = None,
    universe_name: str = "faults",
) -> CoverageConformanceResult:
    """Cross-check static certificates against simulated sweeps.

    Args:
        tests: march algorithms; defaults to the full library
            (:data:`repro.march.library.ALGORITHMS`).
        geometry: capabilities or a ``(words, width[, ports])`` tuple.
        universe: fault population; defaults to the full standard
            universe of the geometry (NPSF included — the prover
            handles it even though it has no spec form).
        faults: explicit fault list overriding ``universe``.
        universe_name: label when ``faults`` is given.
    """
    from repro.analysis.coverage import COVERED, NOT_COVERED, certify
    from repro.march.library import ALGORITHMS

    caps = _as_capabilities(geometry)
    if tests is None:
        tests = list(ALGORITHMS.values())
    if faults is None:
        if universe is None:
            universe = standard_universe(
                caps.n_words, width=caps.width, ports=caps.ports
            )
        population: Sequence[CellFault] = universe.faults
        universe_name = universe.name
    else:
        population = list(faults)

    result = CoverageConformanceResult(
        geometry=(caps.n_words, caps.width, caps.ports),
        universe_name=universe_name,
    )
    memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)

    def capture(stream: Stream, fault: CellFault):
        ((_, events),) = simulate_faults(stream, memory, (fault,))
        return events

    for test in tests:
        result.tests.append(test.name)
        started = time.perf_counter()
        certificate = certify(
            test,
            caps.n_words,
            width=caps.width,
            ports=caps.ports,
            faults=population,
            universe_name=universe_name,
        )
        result.static_time_s += time.perf_counter() - started
        started = time.perf_counter()
        result.checked += len(certificate.verdicts)
        decided = [
            (verdict, fault)
            for verdict, fault in zip(certificate.verdicts, population)
            if verdict.verdict in (COVERED, NOT_COVERED)
        ]
        result.unknown += len(certificate.verdicts) - len(decided)
        golden = GOLDEN_CACHE.get(test, caps)
        for verdict, fault in decided:
            witness = verdict.witness
            # A covered verdict is confirmed by the capture up to its
            # witness when the witness read fails there; otherwise the
            # whole stream decides the detected flag and the reason.
            prefix = 0
            if verdict.verdict == COVERED and witness is not None and (
                0 <= witness < len(golden)
            ):
                prefix = witness + 1
            events = (
                capture(op_trace(golden.ops[:prefix]), fault) if prefix else []
            )
            if not events or events[-1].op_index != witness:
                events = capture(golden, fault)
            detected = bool(events)
            reason = None
            if verdict.verdict == COVERED:
                if not detected:
                    reason = (
                        "certificate claims covered but the simulated "
                        "sweep saw no failing read"
                    )
                elif witness is None:
                    reason = "covered verdict without a witness"
                elif witness not in {event.op_index for event in events}:
                    reason = (
                        f"witness op {witness} did not fail in "
                        f"the simulated capture"
                    )
                else:
                    result.covered_agree += 1
            else:
                if detected:
                    reason = (
                        "certificate claims not-covered but the "
                        "simulated sweep failed a read"
                    )
                else:
                    result.not_covered_agree += 1
            if reason is not None:
                result.disagreements.append(
                    CoverageDisagreement(
                        test_name=test.name,
                        fault_index=verdict.index,
                        kind=verdict.kind,
                        spec=verdict.spec,
                        description=verdict.description,
                        verdict=verdict.verdict,
                        detected=detected,
                        witness=witness,
                        reason=reason,
                    )
                )
        result.simulate_time_s += time.perf_counter() - started
    return result


def coverage_disagreement_predicate() -> FaultyPredicate:
    """Shrink predicate: True while prover and sweep still disagree.

    Compatible with :func:`repro.conformance.faulty.shrink.
    shrink_faulty_sample`, so a coverage disagreement found by fuzz
    identity (f) reduces along the same three axes as a response
    divergence.  Malformed candidates count as not reproducing.
    """

    def predicate(
        test: MarchTest, caps: ControllerCapabilities, spec: str
    ) -> bool:
        try:
            fault = parse_fault(spec)
            result = check_coverage_conformance(
                tests=[test],
                geometry=caps,
                faults=[fault],
                universe_name=spec,
            )
        except Exception:
            return False
        return not result.ok

    return predicate
