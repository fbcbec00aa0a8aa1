"""Semantic validation of march tests.

A march test is *consistent* when every read expects the value the
preceding operations actually left in the cells — otherwise it fails on
a perfectly good memory.  Because a march element applies the same
operation sequence to every cell and sweeps the whole address space, the
array state between elements is always uniform, so consistency is
checkable symbolically in O(ops) without simulation:

* track the uniform cell polarity ``v`` (``None`` = power-on unknown);
* inside an element, track the per-cell value as the ops apply;
* a read expecting anything other than the tracked value (or reading
  before any initialising write) is an inconsistency.

The checker is the static counterpart of "expand on a fault-free memory
and look for failures"; the test suite property-checks that the two
always agree.  Controllers accept inconsistent programs (hardware cannot
know), so this is the lint step an algorithm author runs first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.march.element import Pause
from repro.march.test import MarchTest


@dataclass(frozen=True)
class Inconsistency:
    """One semantic problem found in a march test.

    Attributes:
        item_index: position in ``test.items``.
        op_index: operation position within the element (-1 for
            element-level problems).
        message: human-readable description.
    """

    item_index: int
    op_index: int
    message: str

    def __str__(self) -> str:
        return f"item {self.item_index}, op {self.op_index}: {self.message}"


def check_consistency(
    test: MarchTest, power_on: Optional[int] = None
) -> List[Inconsistency]:
    """All semantic problems of ``test`` (empty list = consistent).

    Args:
        test: the algorithm to lint.
        power_on: assumed uniform power-on cell value.  ``None`` (the
            default, and the right setting for real silicon) treats
            power-on contents as unknown, flagging any read issued
            before the first write; 0 matches the behavioural model's
            deterministic zero initialisation.
    """
    problems: List[Inconsistency] = []
    state: Optional[int] = power_on  # uniform cell polarity between elements
    for item_index, item in enumerate(test.items):
        if isinstance(item, Pause):
            continue
        current = state
        for op_index, op in enumerate(item.ops):
            if op.is_write:
                current = op.polarity
                continue
            if current is None:
                problems.append(
                    Inconsistency(
                        item_index,
                        op_index,
                        f"read {op} before any initialising write "
                        "(power-on contents are unknown)",
                    )
                )
            elif op.polarity != current:
                problems.append(
                    Inconsistency(
                        item_index,
                        op_index,
                        f"read {op} but the cells hold polarity {current} "
                        "at this point",
                    )
                )
        state = current
    return problems


def is_consistent(test: MarchTest, power_on: Optional[int] = None) -> bool:
    """Whether ``test`` passes on a fault-free memory."""
    return not check_consistency(test, power_on=power_on)


def assert_consistent(test: MarchTest) -> None:
    """Raise ``ValueError`` with the full problem list if inconsistent."""
    problems = check_consistency(test)
    if problems:
        details = "; ".join(str(p) for p in problems)
        raise ValueError(f"march test {test.name!r} is inconsistent: {details}")
