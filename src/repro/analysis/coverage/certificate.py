"""Coverage certificates: per-fault verdicts proved from march notation.

A :class:`CoverageCertificate` is the output of the static prover
(:mod:`repro.analysis.coverage.prover`): for every fault of a universe a
verdict — ``covered`` (the test *must* fail a read), ``not-covered``
(the test provably passes) or ``unknown`` (outside the prover's sound
fragment) — plus, for covered faults, a concrete *witness*: the index of
an operation in the golden expansion (:func:`repro.march.simulator.
expand`) whose read must mismatch when the fault is present.

The contract is one-sided conservatism: a wrong ``covered`` or a wrong
``not-covered`` is a prover bug (the differential cross-check in
:mod:`repro.conformance.faulty.coverage` and fuzz identity (f) exist to
catch it); ``unknown`` is always legal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: Verdict values (plain strings so certificates serialise naturally).
COVERED = "covered"
NOT_COVERED = "not-covered"
UNKNOWN = "unknown"

VERDICTS = (COVERED, NOT_COVERED, UNKNOWN)


class FaultVerdict(NamedTuple):
    """The proved verdict for one fault instance (an immutable record).

    Attributes:
        index: the fault's position in the certified population.
        kind: taxonomy tag (``"SAF"``, ``"CFid"``, ...).
        spec: :mod:`repro.faults.spec` string when expressible, else None.
        description: the fault model's ``describe()`` line.
        verdict: ``covered`` / ``not-covered`` / ``unknown``.
        witness: golden-expansion op index whose read must fail
            (covered faults only).
        stratum: label of the behavioural stratum the verdict was proved
            for — faults in one stratum are isomorphic up to cell
            position and share a verdict.
    """

    index: int
    kind: str
    spec: Optional[str]
    description: str
    verdict: str
    witness: Optional[int] = None
    stratum: str = ""

    def to_json(self) -> Dict[str, Any]:
        return self._asdict()


@dataclass
class CoverageCertificate:
    """Static coverage verdicts of one march test over one fault universe.

    Attributes:
        test_name: the certified algorithm.
        universe_name: label of the fault population.
        n_words / width / ports: the memory geometry the certificate is
            proved for (witness indices are geometry-specific).
        verdicts: one :class:`FaultVerdict` per fault, in universe order.
        strata: per-stratum verdict and member count, keyed by stratum
            label — the dedup structure of the proof (one symbolic run
            per stratum, instantiated per member).
        fault_free_consistent: False when the test's fault-free run
            already fails reads — every fault is then trivially
            "covered" (the sweep's detection criterion is any failing
            read), so covered verdicts carry no design information.
    """

    test_name: str
    universe_name: str
    n_words: int
    width: int
    ports: int
    verdicts: List[FaultVerdict] = field(default_factory=list)
    strata: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    fault_free_consistent: bool = True

    # -- aggregation ---------------------------------------------------------

    def count(self, verdict: str) -> int:
        return sum(1 for v in self.verdicts if v.verdict == verdict)

    @property
    def covered_count(self) -> int:
        return self.count(COVERED)

    @property
    def not_covered_count(self) -> int:
        return self.count(NOT_COVERED)

    @property
    def unknown_count(self) -> int:
        return self.count(UNKNOWN)

    @property
    def unknown_rate(self) -> float:
        """Fraction of the population the prover could not decide."""
        if not self.verdicts:
            return 0.0
        return self.unknown_count / len(self.verdicts)

    def by_kind(self) -> Dict[str, Dict[str, int]]:
        """Per-kind verdict counts: ``{kind: {verdict: count}}``."""
        groups: Dict[str, Dict[str, int]] = {}
        # Kinds keep their order of first appearance: a kind's first
        # (kind, verdict) pair is the first time the counter sees it.
        pairs = Counter(map(attrgetter("kind", "verdict"), self.verdicts))
        for (kind, verdict), count in pairs.items():
            counts = groups.get(kind)
            if counts is None:
                counts = groups[kind] = dict.fromkeys(VERDICTS, 0)
            counts[verdict] += count
        return groups

    def kind_fully_covered(self, kind: str) -> Optional[bool]:
        """True when every instance of ``kind`` is proved covered, False
        when at least one is proved not covered, None when the kind is
        absent or only undecided instances remain."""
        counts = self.by_kind().get(kind)
        if counts is None:
            return None
        if counts[NOT_COVERED]:
            return False
        if counts[COVERED] and not counts[UNKNOWN]:
            return True
        return None

    def escapes(self, kind: Optional[str] = None) -> List[FaultVerdict]:
        """Faults proved *not* covered (optionally of one kind)."""
        return [
            v
            for v in self.verdicts
            if v.verdict == NOT_COVERED and (kind is None or v.kind == kind)
        ]

    # -- serialisation -------------------------------------------------------

    @property
    def geometry(self) -> Tuple[int, int, int]:
        return (self.n_words, self.width, self.ports)

    def to_json(self) -> Dict[str, Any]:
        by_kind = self.by_kind()
        totals = {v: sum(c[v] for c in by_kind.values()) for v in VERDICTS}
        rate = totals[UNKNOWN] / len(self.verdicts) if self.verdicts else 0.0
        return {
            "test": self.test_name,
            "universe": self.universe_name,
            "geometry": list(self.geometry),
            "covered": totals[COVERED],
            "not_covered": totals[NOT_COVERED],
            "unknown": totals[UNKNOWN],
            "unknown_rate": round(rate, 4),
            "fault_free_consistent": self.fault_free_consistent,
            "by_kind": by_kind,
            "strata": self.strata,
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    def format(self) -> str:
        total = len(self.verdicts)
        lines = [
            f"certificate: {self.test_name} over {self.universe_name} "
            f"on {self.n_words}x{self.width}x{self.ports}: "
            f"{self.covered_count}/{total} covered, "
            f"{self.not_covered_count} not covered, "
            f"{self.unknown_count} unknown "
            f"({100.0 * self.unknown_rate:.1f}%)"
        ]
        for kind, counts in sorted(self.by_kind().items()):
            total_kind = sum(counts.values())
            lines.append(
                f"  {kind:12s} {counts[COVERED]:4d}/{total_kind:<4d} covered"
                + (
                    f", {counts[UNKNOWN]} unknown"
                    if counts[UNKNOWN]
                    else ""
                )
            )
        return "\n".join(lines)
