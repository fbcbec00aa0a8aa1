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

Greedy one-at-a-time removal (rather than full ddmin) is deliberate:
fuzz samples have at most ~7 items of at most 4 operations over
single-digit geometries, so the predicate-evaluation budget is small
and the fixpoint loop already recovers removals that only become
possible after another dimension shrank.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Attributes:
        test: the shrunk march algorithm.
        capabilities: the shrunk geometry.
        checks: predicate evaluations spent.
        reduced: whether anything actually shrank.
    """

    test: MarchTest
    capabilities: ControllerCapabilities
    checks: int
    reduced: bool

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


def conformance_predicate(
    architectures: Optional[Sequence[str]] = None,
    compress: bool = True,
) -> Predicate:
    """The standard predicate: some architecture fails conformance.

    A candidate reproduces when :func:`~repro.conformance.check.
    check_conformance` reports a divergence or a simulation error on at
    least one of ``architectures``.  Exceptions out of the check itself
    (e.g. the assembler rejecting a mutated pause) count as *not*
    reproducing, so the shrinker never wanders into malformed inputs.
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


def _geometry(n_words: int, width: int, ports: int) -> ControllerCapabilities:
    return ControllerCapabilities(n_words=n_words, width=width, ports=ports)


class _Budget:
    """Predicate-evaluation counter with a hard cap."""

    def __init__(self, predicate: Predicate, max_checks: int) -> None:
        self.predicate = predicate
        self.max_checks = max_checks
        self.checks = 0

    def holds(self, test: MarchTest, caps: ControllerCapabilities) -> bool:
        if self.checks >= self.max_checks:
            return False
        self.checks += 1
        return self.predicate(test, caps)


def _shrink_items(
    test: MarchTest, caps: ControllerCapabilities, budget: _Budget
) -> Tuple[MarchTest, bool]:
    """Greedy removal of whole march items (elements and pauses)."""
    items = list(test.items)
    changed = False
    index = len(items) - 1
    while index >= 0 and len(items) > 1:
        candidate_items = items[:index] + items[index + 1:]
        candidate = MarchTest(test.name, candidate_items)
        if budget.holds(candidate, caps):
            items = candidate_items
            changed = True
        index -= 1
    return MarchTest(test.name, items), changed


def _shrink_ops(
    test: MarchTest, caps: ControllerCapabilities, budget: _Budget
) -> Tuple[MarchTest, bool]:
    """Removal of individual operations inside each element."""
    items = list(test.items)
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
            candidate = MarchTest(test.name, candidate_items)
            if budget.holds(candidate, caps):
                ops = candidate_ops
                items = candidate_items
                changed = True
            op_index -= 1
    return MarchTest(test.name, items), changed


def _shrink_geometry(
    test: MarchTest, caps: ControllerCapabilities, budget: _Budget
) -> Tuple[ControllerCapabilities, bool]:
    """Lower words, width and ports to the smallest reproducing values."""
    changed = False
    for n_words in range(1, caps.n_words):
        candidate = _geometry(n_words, caps.width, caps.ports)
        if budget.holds(test, candidate):
            caps = candidate
            changed = True
            break
    width = 1
    while width < caps.width:
        candidate = _geometry(caps.n_words, width, caps.ports)
        if budget.holds(test, candidate):
            caps = candidate
            changed = True
            break
        width *= 2
    for ports in range(1, caps.ports):
        candidate = _geometry(caps.n_words, caps.width, ports)
        if budget.holds(test, candidate):
            caps = candidate
            changed = True
            break
    return caps, changed


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
    budget = _Budget(predicate, max_checks)
    if not budget.holds(test, capabilities):
        return ShrinkResult(test, capabilities, budget.checks, reduced=False)
    caps = capabilities
    reduced = False
    for _round in range(max_rounds):
        round_changed = False
        test, changed = _shrink_items(test, caps, budget)
        round_changed |= changed
        test, changed = _shrink_ops(test, caps, budget)
        round_changed |= changed
        caps, changed = _shrink_geometry(test, caps, budget)
        round_changed |= changed
        reduced |= round_changed
        if not round_changed:
            break
    if reduced:
        test = test.renamed("shrunk")
    return ShrinkResult(test, caps, budget.checks, reduced=reduced)
