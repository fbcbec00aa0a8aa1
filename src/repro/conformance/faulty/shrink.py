"""Three-axis delta debugging for failing fault-response samples.

A fault-response fuzz failure has one more degree of freedom than a
stimulus failure: the injected fault.  :func:`shrink_faulty_sample`
runs the stimulus shrinker's loop
(:func:`~repro.conformance.shrink.shrink_to_fixpoint`, with its
march-item, operation and geometry passes) and adds a **fault axis**
that simplifies the fault spec itself — first trying to swap the whole
fault for a canonical single-cell stuck-at, then lowering its numeric
coordinates (aggressor/victim cells, sensitising states, polarities)
toward zero — so a nightly find reduces to a minimal *(march,
geometry, single fault)* triple such as ``(r0, (1,1,1), saf:0:0:1)``.

Every accepted fault mutation strictly decreases :func:`_spec_size`,
so the fault pass terminates without extra bookkeeping; the axis order
inside each fixpoint round is items → ops → fault → geometry, because
moving the fault onto cell (0,0) is what makes the later geometry pass
able to drop words/width the fault used to pin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.conformance.shrink import Holds, ShrinkResult, shrink_to_fixpoint
from repro.core.controller import ControllerCapabilities
from repro.faults.spec import FaultSpecError, parse_fault
from repro.march.test import MarchTest

#: A faulty-sample predicate: True when (test, caps, fault spec) still
#: reproduces the failure.
FaultyPredicate = Callable[[MarchTest, ControllerCapabilities, str], bool]

#: The simplest faults that exist: replacing an exotic find with one of
#: these is the single biggest comprehensibility win, so they are tried
#: before any field-by-field lowering.
CANONICAL_SPECS: Tuple[str, ...] = ("saf:0:0:0", "saf:0:0:1")


@dataclass
class FaultyShrinkResult(ShrinkResult):
    """A minimised (march, geometry, fault) reproducer."""

    fault_spec: str = ""

    def to_dict(self) -> dict:
        notation, geometry, *rest = super().to_dict().items()
        return dict([notation, geometry, ("fault", self.fault_spec), *rest])


def fault_response_predicate(
    architectures: Optional[Sequence[str]] = None,
    compress: bool = True,
    max_ops: Optional[int] = None,
    mode: str = "sequential",
) -> FaultyPredicate:
    """The standard predicate: some architecture's *response* diverges.

    A candidate triple reproduces when
    :func:`~repro.conformance.faulty.check.check_fault_conformance`
    reports a divergence or a classified error on at least one of
    ``architectures`` (in the non-sequential ``mode`` regimes: when the
    replay diverges).  Malformed candidates (unparseable spec, a
    mutated march the assembler rejects) count as *not* reproducing.
    """
    from repro.conformance.check import ARCHITECTURES
    from repro.conformance.faulty.check import check_fault_conformance

    selected = tuple(architectures or ARCHITECTURES)

    def predicate(
        test: MarchTest, caps: ControllerCapabilities, spec: str
    ) -> bool:
        try:
            fault = parse_fault(spec)
            result = check_fault_conformance(
                test,
                caps,
                fault,
                architectures=selected,
                compress=compress,
                max_ops=max_ops,
                mode=mode,
            )
        except Exception:
            return False
        return not result.ok

    return predicate


def fault_detection_predicate(
    mode: str = "concurrent",
    detected: bool = True,
    compress: bool = True,
    max_ops: Optional[int] = None,
) -> FaultyPredicate:
    """Predicate preserving a *detection* verdict instead of a divergence.

    Shrinks samples whose interesting property is "this regime detects
    (or misses) the fault" — e.g. a concurrent-only fault caught by the
    dual-port stimulus, or an in-field session flagging a mid-life
    defect.  A candidate reproduces when the golden capture's detection
    verdict equals ``detected``; crashes and malformed candidates count
    as not reproducing, so the shrinker cannot wander into a
    degenerate triple that merely errors out.
    """
    from repro.conformance.faulty.check import check_fault_conformance

    def predicate(
        test: MarchTest, caps: ControllerCapabilities, spec: str
    ) -> bool:
        try:
            fault = parse_fault(spec)
            result = check_fault_conformance(
                test,
                caps,
                fault,
                compress=compress,
                max_ops=max_ops,
                mode=mode,
            )
        except Exception:
            return False
        if not result.ok:
            return False
        return result.detected == detected

    return predicate


def _spec_size(spec: str) -> int:
    """Strictly-decreasing shrink metric of a fault spec.

    The sum of all numeric fields, plus one per non-canonical
    direction token (``down`` simplifies to ``up``), plus a large
    penalty for any kind other than ``saf`` so a canonical swap always
    counts as progress.
    """
    parts = spec.split(":")
    size = 0 if parts[0] == "saf" else 1000
    for token in parts[1:]:
        if token == "down":
            size += 1
        elif token != "up":
            try:
                size += abs(int(token))
            except ValueError:
                size += 1
    return size


def simpler_fault_specs(spec: str) -> Iterator[str]:
    """Candidate simplifications of ``spec``, best first.

    Every yielded candidate has a strictly smaller :func:`_spec_size`
    than ``spec``; the caller just takes the first that still
    reproduces and loops to a fixpoint.
    """
    size = _spec_size(spec)
    for canonical in CANONICAL_SPECS:
        if _spec_size(canonical) < size:
            yield canonical
    parts = spec.split(":")
    for index in range(1, len(parts)):
        token = parts[index]
        if token == "down":
            yield ":".join(parts[:index] + ["up"] + parts[index + 1:])
            continue
        try:
            value = int(token)
        except ValueError:
            continue
        lowered = []
        if abs(value) > 1:
            lowered.append(value // 2)
        if value != 0:
            lowered.append(0)
        for new_value in lowered:
            yield ":".join(
                parts[:index] + [str(new_value)] + parts[index + 1:]
            )


def _parses(spec: str) -> bool:
    try:
        parse_fault(spec)
    except FaultSpecError:
        return False
    return True


def _shrink_fault(
    sample: FaultyShrinkResult, holds: Holds
) -> Tuple[FaultyShrinkResult, bool]:
    """Greedy fault-spec simplification to a local fixpoint.

    A candidate spec that does not parse spends its evaluation without
    reaching the predicate.
    """
    changed = False
    improving = True
    while improving:
        improving = False
        for spec in simpler_fault_specs(sample.fault_spec):
            candidate = replace(sample, fault_spec=spec)
            if holds(candidate, _parses(spec)):
                sample = candidate
                changed = improving = True
                break
    return sample, changed


def shrink_faulty_sample(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    fault_spec: str,
    predicate: FaultyPredicate,
    max_checks: int = 2000,
    max_rounds: int = 10,
) -> FaultyShrinkResult:
    """Minimise a failing (march, geometry, fault) triple.

    Args:
        test: the failing algorithm.
        capabilities: the failing geometry.
        fault_spec: the injected fault, as a
            :mod:`repro.faults.spec` string.
        predicate: three-argument failure predicate, e.g.
            :func:`fault_response_predicate`.
        max_checks: hard cap on predicate evaluations across all axes.
        max_rounds: fixpoint-iteration cap.

    Returns:
        The smallest reproducing triple found, with the march renamed
        ``"shrunk"`` when any axis reduced.
    """
    return shrink_to_fixpoint(
        FaultyShrinkResult(test, capabilities, fault_spec=fault_spec),
        lambda sample: predicate(
            sample.test, sample.capabilities, sample.fault_spec
        ),
        max_checks,
        max_rounds,
        axes_before_geometry=(_shrink_fault,),
    )
