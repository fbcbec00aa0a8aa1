"""Delta-debugging shrinker for failing conformance samples.

A 10k-sample nightly fuzz failure typically arrives as a six-element
march over an awkward geometry.  :func:`shrink_sample` reduces it to a
minimal reproducer while the failure *predicate* keeps holding, over
three dimensions in turn, to a fixpoint:

1. march items — greedy removal of whole elements/pauses (backward, so
   indices stay valid);
2. operations — removal of individual operations inside each element
   (elements keep at least one operation);
3. geometry — words, width and ports are lowered to the smallest values
   that still reproduce.

The predicate is arbitrary, so the shrinker serves both the conformance
harness (``repro conformance shrink``, the fuzz harness's automatic
minimisation) and ad-hoc debugging; :func:`conformance_predicate` builds
the standard "some architecture diverges from the golden stream" one.
The loop itself, :func:`shrink_to_fixpoint`, is shared with the
fault-response shrinker (:mod:`repro.conformance.faulty.shrink`),
which adds its fault axis before the geometry pass.

Greedy one-at-a-time removal (rather than full ddmin) is deliberate:
fuzz samples have at most ~7 items of at most 4 operations over
single-digit geometries, so the predicate-evaluation budget is small
and the fixpoint loop already recovers removals that only become
possible after another dimension shrank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from repro.core.controller import ControllerCapabilities
from repro.march.element import MarchElement
from repro.march.notation import format_test
from repro.march.test import MarchTest

#: A failure predicate: True when (test, caps) still reproduces.
Predicate = Callable[[MarchTest, ControllerCapabilities], bool]


@dataclass
class ShrinkResult:
    """A minimised reproducer.

    The shrink loop also carries its candidates as instances of this
    class (and of :class:`~repro.conformance.faulty.shrink.
    FaultyShrinkResult`, which adds the fault), so one loop serves
    every sample shape.

    Attributes:
        test: the shrunk march algorithm.
        capabilities: the shrunk geometry.
        checks: predicate evaluations spent.
        reduced: whether anything actually shrank.
    """

    test: MarchTest
    capabilities: ControllerCapabilities
    checks: int = 0
    reduced: bool = False

    @property
    def notation(self) -> str:
        return format_test(self.test)

    @property
    def geometry(self) -> Tuple[int, int, int]:
        caps = self.capabilities
        return (caps.n_words, caps.width, caps.ports)

    def to_dict(self) -> dict:
        return {
            "notation": self.notation,
            "geometry": list(self.geometry),
            "checks": self.checks,
            "reduced": self.reduced,
        }


#: Counts one predicate evaluation of a candidate sample and returns
#: its verdict; ``valid=False`` spends the evaluation without running
#: the predicate (the candidate never reproduces).
Holds = Callable[..., bool]

#: One shrink axis: ``(sample, holds) -> (sample, changed)``.
Axis = Callable[[ShrinkResult, Holds], Tuple[ShrinkResult, bool]]


def conformance_predicate(
    architectures: Optional[Sequence[str]] = None,
    compress: bool = True,
) -> Predicate:
    """The standard predicate: some architecture fails conformance.

    A candidate reproduces when :func:`~repro.conformance.check.
    check_conformance` reports a divergence or an error (a hung or
    crashed controller) on at least one of ``architectures``.
    Exceptions out of the check itself (e.g. a golden expansion the
    mutated march cannot have) count as *not* reproducing, so the
    shrinker never wanders into malformed inputs.
    """
    from repro.conformance.check import ARCHITECTURES, check_conformance

    selected = tuple(architectures or ARCHITECTURES)

    def predicate(test: MarchTest, caps: ControllerCapabilities) -> bool:
        try:
            result = check_conformance(
                test, caps, architectures=selected, compress=compress
            )
        except Exception:
            return False
        return not result.ok

    return predicate


def _shrink_items(
    sample: ShrinkResult, holds: Holds
) -> Tuple[ShrinkResult, bool]:
    """Greedy removal of whole march items (elements and pauses)."""
    name = sample.test.name
    items = list(sample.test.items)
    changed = False
    index = len(items) - 1
    while index >= 0 and len(items) > 1:
        candidate_items = items[:index] + items[index + 1:]
        if holds(replace(sample, test=MarchTest(name, candidate_items))):
            items = candidate_items
            changed = True
        index -= 1
    return replace(sample, test=MarchTest(name, items)), changed


def _shrink_ops(
    sample: ShrinkResult, holds: Holds
) -> Tuple[ShrinkResult, bool]:
    """Removal of individual operations inside each element."""
    name = sample.test.name
    items = list(sample.test.items)
    changed = False
    for item_index, item in enumerate(items):
        if not isinstance(item, MarchElement):
            continue
        ops = list(item.ops)
        op_index = len(ops) - 1
        while op_index >= 0 and len(ops) > 1:
            candidate_ops = ops[:op_index] + ops[op_index + 1:]
            candidate_items = list(items)
            candidate_items[item_index] = MarchElement(
                item.order, candidate_ops
            )
            candidate = MarchTest(name, candidate_items)
            if holds(replace(sample, test=candidate)):
                ops = candidate_ops
                items = candidate_items
                changed = True
            op_index -= 1
    return replace(sample, test=MarchTest(name, items)), changed


def _shrink_geometry(
    sample: ShrinkResult, holds: Holds
) -> Tuple[ShrinkResult, bool]:
    """Lower words, width and ports to the smallest reproducing values
    (widths stay powers of two)."""
    changed = False
    for dimension in ("n_words", "width", "ports"):
        current = getattr(sample.capabilities, dimension)
        values = range(1, current)
        if dimension == "width":
            values = [1 << k for k in range(current.bit_length())
                      if 1 << k < current]
        for value in values:
            candidate = replace(sample, capabilities=replace(
                sample.capabilities, **{dimension: value}
            ))
            if holds(candidate):
                sample, changed = candidate, True
                break
    return sample, changed


def shrink_to_fixpoint(
    sample: ShrinkResult,
    reproduces: Callable[[ShrinkResult], bool],
    max_checks: int,
    max_rounds: int,
    axes_before_geometry: Sequence[Axis] = (),
) -> ShrinkResult:
    """The delta-debugging loop every shrinker runs.

    Checks that ``sample`` reproduces, then runs the axes in order —
    march items, operations, ``axes_before_geometry``, geometry — until
    a whole round changes nothing or ``max_rounds`` is reached.  Every
    candidate an axis tries spends one of ``max_checks`` evaluations;
    once they are spent no candidate holds.

    Returns:
        The smallest reproducing sample, its test renamed ``"shrunk"``
        when any reduction happened, with ``checks`` and ``reduced``
        filled in.
    """
    checks = 0

    def holds(candidate: ShrinkResult, valid: bool = True) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        return valid and reproduces(candidate)

    if not holds(sample):
        return replace(sample, checks=checks)
    axes = (_shrink_items, _shrink_ops, *axes_before_geometry,
            _shrink_geometry)
    reduced = False
    for _round in range(max_rounds):
        round_changed = False
        for axis in axes:
            sample, changed = axis(sample, holds)
            round_changed |= changed
        reduced |= round_changed
        if not round_changed:
            break
    if reduced:
        sample = replace(sample, test=sample.test.renamed("shrunk"))
    return replace(sample, checks=checks, reduced=reduced)


def shrink_sample(
    test: MarchTest,
    capabilities: ControllerCapabilities,
    predicate: Predicate,
    max_checks: int = 2000,
    max_rounds: int = 10,
) -> ShrinkResult:
    """Minimise a failing (march, geometry) sample under ``predicate``.

    Args:
        test: the failing algorithm (``predicate(test, capabilities)``
            should be True; if not, the input is returned unchanged).
        capabilities: the failing geometry.
        predicate: failure predicate, e.g. :func:`conformance_predicate`.
        max_checks: hard cap on predicate evaluations.
        max_rounds: fixpoint-iteration cap (each round re-tries all
            three shrink dimensions).

    Returns:
        The smallest reproducer found, renamed ``"shrunk"`` when any
        reduction happened.
    """
    return shrink_to_fixpoint(
        ShrinkResult(test, capabilities),
        lambda sample: predicate(sample.test, sample.capabilities),
        max_checks,
        max_rounds,
    )
