"""Library of standard march test algorithms.

Contains the six algorithms evaluated by the paper's Table 1/2 baselines
(March C, March C+, March C++, March A, March A+, March A++) plus the
classic tests (MATS family, March X/Y/B) that the programmable controllers
must also be able to realise — they are the *flexibility* workload of
:mod:`repro.eval.flexibility`.

Naming note: the paper's Eq. 1 "March C" is the 10N variant widely known
as March C- (the redundant mid-test read of the original 11N March C
removed).  We follow the paper and call the 10N variant ``MARCH_C``;
``MARCH_C_ORIG`` is the 11N original and ``MARCH_C_MINUS`` aliases
``MARCH_C``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.march.element import (
    AddressOrder,
    MarchElement,
    Operation,
    Pause,
    R0,
    R1,
    W0,
    W1,
)
from repro.march.test import MarchItem, MarchTest

UP = AddressOrder.UP
DOWN = AddressOrder.DOWN
ANY = AddressOrder.ANY

#: Default retention pause length (arbitrary retention-time units).  A
#: power of two, because the microcode HOLD pause timer is a 2^k counter;
#: chosen to exceed the decay time of every data-retention fault in
#: :mod:`repro.faults.retention`'s default universe.
RETENTION_PAUSE = 1024


def _element(order: AddressOrder, *ops: Operation) -> MarchElement:
    return MarchElement(order, ops)


# ---------------------------------------------------------------------------
# Classic short tests (flexibility workload).
# ---------------------------------------------------------------------------

ZERO_ONE = MarchTest(
    "Zero-One",
    [
        _element(ANY, W0),
        _element(ANY, R0),
        _element(ANY, W1),
        _element(ANY, R1),
    ],
)

MATS = MarchTest(
    "MATS",
    [
        _element(ANY, W0),
        _element(ANY, R0, W1),
        _element(ANY, R1),
    ],
)

MATS_PLUS = MarchTest(
    "MATS+",
    [
        _element(ANY, W0),
        _element(UP, R0, W1),
        _element(DOWN, R1, W0),
    ],
)

MATS_PLUS_PLUS = MarchTest(
    "MATS++",
    [
        _element(ANY, W0),
        _element(UP, R0, W1),
        _element(DOWN, R1, W0, R0),
    ],
)

MARCH_X = MarchTest(
    "March X",
    [
        _element(ANY, W0),
        _element(UP, R0, W1),
        _element(DOWN, R1, W0),
        _element(ANY, R0),
    ],
)

MARCH_Y = MarchTest(
    "March Y",
    [
        _element(ANY, W0),
        _element(UP, R0, W1, R1),
        _element(DOWN, R1, W0, R0),
        _element(ANY, R0),
    ],
)

# ---------------------------------------------------------------------------
# March C family (paper baselines).
# ---------------------------------------------------------------------------

MARCH_C = MarchTest(
    "March C",
    [
        _element(ANY, W0),
        _element(UP, R0, W1),
        _element(UP, R1, W0),
        _element(DOWN, R0, W1),
        _element(DOWN, R1, W0),
        _element(ANY, R0),
    ],
)

#: The paper's "March C" is the 10N March C-; keep the common alias.
MARCH_C_MINUS = MARCH_C.renamed("March C-")

MARCH_C_ORIG = MarchTest(
    "March C (original)",
    [
        _element(ANY, W0),
        _element(UP, R0, W1),
        _element(UP, R1, W0),
        _element(ANY, R0),
        _element(DOWN, R0, W1),
        _element(DOWN, R1, W0),
        _element(ANY, R0),
    ],
)


def _retention_suffix(pause: int = RETENTION_PAUSE) -> List[MarchItem]:
    """Retention-detection tail of the paper's '+' algorithm variants.

    After March C / March A complete, every cell holds 0.  The tail is
    ``Del; ^(r0,w1,r1); Del; ^(r1)``: wait for 0-state decay and verify,
    flip to 1, wait for 1-state decay and verify.
    """
    return [
        Pause(pause),
        _element(UP, R0, W1, R1),
        Pause(pause),
        _element(UP, R1),
    ]


def _tripled_reads(test: MarchTest, name: str) -> MarchTest:
    """Replace every read by three consecutive reads (the '++' variants).

    The repeated reads excite and detect disconnected pull-up/pull-down
    devices in the cells (modelled as stuck-open faults in
    :mod:`repro.faults.stuck_open`).
    """
    items: List[MarchItem] = []
    for item in test.items:
        if isinstance(item, Pause):
            items.append(item)
            continue
        ops: List[Operation] = []
        for op in item.ops:
            ops.extend([op, op, op] if op.is_read else [op])
        items.append(MarchElement(item.order, ops))
    return MarchTest(name, items)


MARCH_C_PLUS = MarchTest("March C+", list(MARCH_C.items) + _retention_suffix())

MARCH_C_PLUS_PLUS = _tripled_reads(MARCH_C_PLUS, "March C++")

# ---------------------------------------------------------------------------
# March A / B family.
# ---------------------------------------------------------------------------

MARCH_A = MarchTest(
    "March A",
    [
        _element(ANY, W0),
        _element(UP, R0, W1, W0, W1),
        _element(UP, R1, W0, W1),
        _element(DOWN, R1, W0, W1, W0),
        _element(DOWN, R0, W1, W0),
    ],
)

#: March A leaves every cell at 0 (its last operation is w0), so the same
#: retention tail as March C+ applies.
MARCH_A_PLUS = MarchTest("March A+", list(MARCH_A.items) + _retention_suffix())

MARCH_A_PLUS_PLUS = _tripled_reads(MARCH_A_PLUS, "March A++")

MARCH_B = MarchTest(
    "March B",
    [
        _element(ANY, W0),
        _element(UP, R0, W1, R1, W0, R0, W1),
        _element(UP, R1, W0, W1),
        _element(DOWN, R1, W0, W1, W0),
        _element(DOWN, R0, W1, W0),
    ],
)

#: March G (van de Goor): March B extended with retention pauses and
#: read-verify elements — 23N plus two delays.  Its 6-operation first
#: element puts it outside the SM0–SM7 library (microcode-only), like
#: March B itself.
MARCH_G = MarchTest(
    "March G",
    list(MARCH_B.items)
    + [
        Pause(RETENTION_PAUSE),
        _element(ANY, R0, W1, R1),
        Pause(RETENTION_PAUSE),
        _element(ANY, R1, W0, R0),
    ],
)

#: PMOVI (De Jonge & Smeulders): 13N, a March C-class algorithm whose
#: read-after-write element structure also verifies write recovery.
PMOVI = MarchTest(
    "PMOVI",
    [
        _element(DOWN, W0),
        _element(UP, R0, W1, R1),
        _element(UP, R1, W0, R0),
        _element(DOWN, R0, W1, R1),
        _element(DOWN, R1, W0, R0),
    ],
)

#: March LR (van de Goor & Gaydadjiev 1996): 14N, detects realistic
#: linked faults that March C misses.
MARCH_LR = MarchTest(
    "March LR",
    [
        _element(ANY, W0),
        _element(DOWN, R0, W1),
        _element(UP, R1, W0, R0, W1),
        _element(UP, R1, W0),
        _element(UP, R0, W1, R1, W0),
        _element(ANY, R0),
    ],
)

# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

#: All library algorithms keyed by canonical name.
ALGORITHMS: Dict[str, MarchTest] = {
    test.name: test
    for test in (
        ZERO_ONE,
        MATS,
        MATS_PLUS,
        MATS_PLUS_PLUS,
        MARCH_X,
        MARCH_Y,
        MARCH_C,
        MARCH_C_ORIG,
        MARCH_C_PLUS,
        MARCH_C_PLUS_PLUS,
        MARCH_A,
        MARCH_A_PLUS,
        MARCH_A_PLUS_PLUS,
        MARCH_B,
        MARCH_G,
        PMOVI,
        MARCH_LR,
    )
}

#: The six fixed algorithms realised by the paper's non-programmable
#: baseline controllers, in Table 1/2 row order.
PAPER_BASELINES: Tuple[MarchTest, ...] = (
    MARCH_C,
    MARCH_C_PLUS,
    MARCH_C_PLUS_PLUS,
    MARCH_A,
    MARCH_A_PLUS,
    MARCH_A_PLUS_PLUS,
)


def get(name: str) -> MarchTest:
    """Look up a library algorithm by name.

    Raises:
        KeyError: listing the available names, if ``name`` is unknown.
    """
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown march test {name!r}; known: {known}") from None
