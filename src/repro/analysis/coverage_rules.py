"""Coverage-level lint rules (``CV…``).

These lint a :class:`~repro.march.test.MarchTest` for *fault coverage*
statically: the algorithm is certified by the coverage prover
(:func:`repro.analysis.coverage.certify`) over the full standard fault
universe on a fixed small lint geometry, and each rule reports a fault
kind the test provably misses — with the textbook detection condition
(:mod:`repro.faults.conditions`) as the hint.  Because the prover's
verdicts are exact (cross-validated against simulation by
``check_coverage_conformance`` and fuzz identity (f)), a ``CV`` finding
is a *proof* of an escape, not a heuristic.

Severities grade by how damning the gap is: missing SAF/TF coverage
(ERROR-adjacent but still a legitimate design choice for e.g. a raw
retention test) warns; the specialised kinds (SOF, DRF, coupling, AF,
NPSF, read faults, PAF) are advisory.  ``CV011`` is the exception —
a test *named* after a library algorithm must cover every kind the
library algorithm covers, so a gap there is an ERROR ("claims March C
but the CFid condition is unsatisfied").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.rules import rule, run_rules
from repro.faults.conditions import condition_for
from repro.march.element import MarchElement
from repro.march.test import MarchTest

#: The geometry coverage lint certifies on: big enough that every fault
#: kind of the standard universe exists (multi-word, word-oriented,
#: multi-port), small enough that certification takes milliseconds.
LINT_GEOMETRY: Tuple[int, int, int] = (4, 2, 2)


class CoverageAnalysis:
    """Everything a coverage-level rule may inspect.

    Builds the certificate lazily-once per lint run: the full standard
    universe (NPSF included) on :data:`LINT_GEOMETRY`.
    """

    def __init__(self, test: MarchTest) -> None:
        from repro.analysis.coverage import certify

        self.test = test
        n_words, width, ports = LINT_GEOMETRY
        self.certificate = certify(test, n_words, width=width, ports=ports)

    def gap(self, *kinds: str) -> Dict[str, int]:
        """Escape count per kind, for kinds with at least one escape."""
        by_kind = self.certificate.by_kind()
        out: Dict[str, int] = {}
        for kind in kinds:
            counts = by_kind.get(kind)
            if counts and counts["not-covered"]:
                out[kind] = counts["not-covered"]
        return out


def run_coverage_rules(
    test: MarchTest, target: Optional[str] = None
) -> List[Diagnostic]:
    """Run every coverage-level rule over one algorithm."""
    return run_rules("coverage", CoverageAnalysis(test), target)


def _hint(kind: str) -> Optional[str]:
    condition = condition_for(kind)
    if condition is None:
        return None
    return f"detection condition ({condition.citation}): {condition.condition}"


def _gap_finding(
    analysis: CoverageAnalysis, label: str, *kinds: str
) -> Iterator[Tuple]:
    gaps = analysis.gap(*kinds)
    if not gaps:
        return
    total = sum(gaps.values())
    detail = ", ".join(f"{count} {kind}" for kind, count in sorted(gaps.items()))
    example = next(
        v for v in analysis.certificate.escapes()
        if v.kind in gaps
    )
    yield (
        Location(),
        f"proved escape of {total} {label} fault(s) on "
        f"{'x'.join(str(g) for g in LINT_GEOMETRY)} ({detail}); "
        f"e.g. {example.spec or example.description}",
        _hint(sorted(gaps)[0]),
    )


@rule("CV001", Severity.ERROR, "march test performs no reads",
      scope="coverage")
def _no_reads(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    """A test without reads observes nothing: every fault of every kind
    escapes, whatever the writes do."""
    has_read = any(
        isinstance(item, MarchElement) and item.reads
        for item in analysis.test.items
    )
    if not has_read:
        yield (
            Location(),
            "no element contains a read: the test cannot detect any "
            "fault (all verdicts are not-covered)",
            "add verifying reads, e.g. turn ⇕(w0) into ⇕(w0);⇕(r0)",
        )


@rule("CV002", Severity.WARNING, "stuck-at faults escape", scope="coverage")
def _saf_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(analysis, "stuck-at", "SAF")


@rule("CV003", Severity.WARNING, "transition faults escape", scope="coverage")
def _tf_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(analysis, "transition", "TF")


@rule("CV004", Severity.INFO, "stuck-open faults escape", scope="coverage")
def _sof_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(analysis, "stuck-open", "SOF")


@rule("CV005", Severity.INFO, "data-retention faults escape",
      scope="coverage")
def _drf_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(analysis, "data-retention", "DRF")


@rule("CV006", Severity.INFO, "read faults escape", scope="coverage")
def _read_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(analysis, "read", "IRF", "RDF", "DRDF")


@rule("CV007", Severity.INFO, "coupling faults escape", scope="coverage")
def _coupling_gap(
    analysis: CoverageAnalysis, target: Optional[str]
) -> Iterator:
    yield from _gap_finding(analysis, "coupling", "CFin", "CFid", "CFst")


@rule("CV008", Severity.INFO, "address-decoder faults escape",
      scope="coverage")
def _af_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(
        analysis, "address-decoder", "AF1", "AF2", "AF3", "AF4"
    )


@rule("CV009", Severity.INFO, "neighbourhood pattern sensitive faults escape",
      scope="coverage")
def _npsf_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(analysis, "pattern-sensitive", "PNPSF", "ANPSF")


@rule("CV010", Severity.INFO, "port-access faults escape", scope="coverage")
def _paf_gap(analysis: CoverageAnalysis, target: Optional[str]) -> Iterator:
    yield from _gap_finding(analysis, "port-access", "PAF")


@rule("CV011", Severity.ERROR, "claimed library coverage violated",
      scope="coverage")
def _claims_violated(
    analysis: CoverageAnalysis, target: Optional[str]
) -> Iterator:
    """A test named after a library algorithm claims its coverage.

    The claim set is the library algorithm's own certificate on the
    lint geometry (cached): every kind it fully covers, the same-named
    test must fully cover too.  Running the genuine library algorithm
    trivially satisfies this; a modified body that kept the name fails
    with the violated kinds called out.
    """
    from repro.march.library import ALGORITHMS

    reference = ALGORITHMS.get(analysis.test.name)
    if reference is None or reference.items == analysis.test.items:
        return
    claims = _library_claims(analysis.test.name)
    certificate = analysis.certificate
    violated = sorted(
        kind
        for kind in claims
        if certificate.kind_fully_covered(kind) is not True
    )
    if violated:
        yield (
            Location(),
            f"claims {analysis.test.name!r} but the "
            f"{', '.join(violated)} detection condition(s) are "
            f"unsatisfied (library algorithm covers these fully on "
            f"{'x'.join(str(g) for g in LINT_GEOMETRY)})",
            _hint(violated[0]),
        )


#: Library claim sets, certified once per process.
_CLAIMS_CACHE: Dict[str, Tuple[str, ...]] = {}


def _library_claims(name: str) -> Tuple[str, ...]:
    """Kinds the library algorithm ``name`` fully covers on the lint
    geometry."""
    from repro.analysis.coverage import certify
    from repro.march.library import ALGORITHMS

    if name not in _CLAIMS_CACHE:
        n_words, width, ports = LINT_GEOMETRY
        certificate = certify(
            ALGORITHMS[name], n_words, width=width, ports=ports
        )
        _CLAIMS_CACHE[name] = tuple(
            kind
            for kind in certificate.by_kind()
            if certificate.kind_fully_covered(kind) is True
        )
    return _CLAIMS_CACHE[name]


@rule("CV013", Severity.ERROR, "coverage is vacuous: fault-free run fails",
      scope="coverage")
def _vacuous_coverage(
    analysis: CoverageAnalysis, target: Optional[str]
) -> Iterator:
    """The test fails reads on a perfectly good memory (e.g. it expects
    a data background it never wrote), so *every* fault counts as
    detected under the sweep's any-failing-read criterion.  The
    certificate's covered verdicts carry no design information."""
    if not analysis.certificate.fault_free_consistent:
        yield (
            Location(),
            "the fault-free run fails reads on "
            f"{'x'.join(str(g) for g in LINT_GEOMETRY)}: every fault is "
            "trivially 'covered', the certificate proves nothing about "
            "detection quality",
            "fix the read expectations first (see the MA003 findings of "
            "repro lint --target march)",
        )


@rule("CV012", Severity.INFO, "undecided coverage verdicts",
      scope="coverage")
def _unknown_verdicts(
    analysis: CoverageAnalysis, target: Optional[str]
) -> Iterator:
    """The prover declined to decide some faults (unregistered fault
    types or a projection failure) — honesty, not an escape."""
    unknown = analysis.certificate.unknown_count
    if unknown:
        yield (
            Location(),
            f"{unknown} fault(s) have an unknown static verdict "
            f"({100.0 * analysis.certificate.unknown_rate:.1f}% of the "
            "universe); simulated sweeps remain the authority for them",
            "see docs/ANALYSIS.md, 'static vs simulated coverage'",
        )
