"""Certificate-vs-sweep differential coverage conformance.

The static prover (:mod:`repro.analysis.coverage`) and the single-fault
simulation sweep (:mod:`repro.march.coverage`) are two independent
implementations of the same question — "does this march test detect this
fault?".  :func:`check_coverage_conformance` runs both over the same
(test, fault) product and asserts they agree *fault-for-fault*:

* a ``covered`` verdict must correspond to a simulated run with at least
  one failing read, **and** the certificate's witness op index must be
  one of the failing reads in the simulated capture;
* a ``not-covered`` verdict must correspond to a clean simulated run;
* ``unknown`` verdicts are counted (the prover's honesty budget) but
  never simulated — they are the prover declining to claim anything.

The simulation side replays the golden expansion through
:func:`repro.march.simulator.run_on_memory`, with one optimisation: a
run stops as soon as it has both observed a failure and passed the
witness index, since nothing later can change the verdict comparison.

:func:`coverage_disagreement_predicate` wraps the single-fault check as
a three-axis shrink predicate, so fuzz identity (f) disagreements reduce
to a minimal (march, geometry, fault) triple exactly like response
divergences do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.conformance.faulty.check import Geometry, _as_capabilities
from repro.conformance.faulty.shrink import FaultyPredicate
from repro.core.controller import ControllerCapabilities
from repro.faults.base import CellFault
from repro.faults.injector import FaultInjector
from repro.faults.spec import parse_fault
from repro.faults.universe import FaultUniverse, standard_universe
from repro.march.simulator import Failure, expand, run_on_memory
from repro.march.test import MarchTest
from repro.memory.sram import Sram


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
    injector = FaultInjector(
        Sram(caps.n_words, width=caps.width, ports=caps.ports)
    )
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
        for verdict, fault in zip(certificate.verdicts, population):
            result.checked += 1
            if verdict.verdict not in (COVERED, NOT_COVERED):
                result.unknown += 1
                continue
            witness = verdict.witness
            with injector.injected(fault) as memory:
                stream = expand(
                    test, caps.n_words, width=caps.width, ports=caps.ports
                )
                failures: List[Failure] = []
                if verdict.verdict == COVERED and witness is not None:
                    # Run through the witness in full, then on to the
                    # first failure only if nothing failed yet.
                    failures = run_on_memory(
                        islice(stream, witness + 1), memory
                    ).failures
                witness_failed = bool(failures) and (
                    failures[-1].op_index == witness
                )
                if not failures:
                    failures = run_on_memory(
                        stream, memory, stop_at_first_failure=True
                    ).failures
            detected = bool(failures)
            reason = None
            if verdict.verdict == COVERED:
                if not detected:
                    reason = (
                        "certificate claims covered but the simulated "
                        "sweep saw no failing read"
                    )
                elif witness is None:
                    reason = "covered verdict without a witness"
                elif not witness_failed:
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
