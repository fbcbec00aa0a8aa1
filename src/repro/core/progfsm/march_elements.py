"""The SM0–SM7 march-element library (paper Eq. 2).

Each SM is an operation pattern written relative to the element's base
test data ``D``: the entry ``(kind, rel)`` applies ``kind`` with data
polarity ``rel`` XOR the instruction's base polarity.  Reconstructed set
(the OCR of Eq. 2 loses the complement bars; this reconstruction is the
unique one that realises the March C/C+/A/A+ programs the paper's
Section 2.2 walks through)::

    SM0 = (wD)                 SM4 = (rD rD rD)
    SM1 = (rD wD̄)              SM5 = (rD)
    SM2 = (rD wD̄ rD̄ wD)        SM6 = (rD wD̄ wD wD̄)
    SM3 = (rD wD̄ wD)           SM7 = (rD wD̄ rD̄)

With the base data/compare/order complements applied by the lower FSM,
these compose into March C (SM0·SM1·SM1·SM1·SM1·SM5), March A
(SM0·SM6·SM3·SM6·SM3), the MATS family, March X/Y and the '+' retention
variants (SM7/SM5 suffix) — but *not* March B (6-operation element) or
the '++' triple-read-write mixes, which is the architecture's MEDIUM
flexibility boundary.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.march.element import AddressOrder, MarchElement, OpKind, Operation

#: (kind, relative polarity) per operation, indexed by SM number.
SM_PATTERNS: Tuple[Tuple[Tuple[OpKind, int], ...], ...] = (
    ((OpKind.WRITE, 0),),                                                  # SM0
    ((OpKind.READ, 0), (OpKind.WRITE, 1)),                                 # SM1
    ((OpKind.READ, 0), (OpKind.WRITE, 1), (OpKind.READ, 1), (OpKind.WRITE, 0)),  # SM2
    ((OpKind.READ, 0), (OpKind.WRITE, 1), (OpKind.WRITE, 0)),              # SM3
    ((OpKind.READ, 0), (OpKind.READ, 0), (OpKind.READ, 0)),                # SM4
    ((OpKind.READ, 0),),                                                   # SM5
    ((OpKind.READ, 0), (OpKind.WRITE, 1), (OpKind.WRITE, 0), (OpKind.WRITE, 1)),  # SM6
    ((OpKind.READ, 0), (OpKind.WRITE, 1), (OpKind.READ, 1)),               # SM7
)

#: Longest SM pattern — sizes the lower FSM's read/write state chain.
MAX_SM_OPS = max(len(pattern) for pattern in SM_PATTERNS)


def sm_element(
    sm: int, order: AddressOrder, data: int, compare: int
) -> MarchElement:
    """Concrete march element realised by SM ``sm`` with base values.

    Args:
        sm: SM index 0..7.
        order: traversal order.
        data: base write polarity D (relative polarities XOR with it).
        compare: base read-compare polarity C.
    """
    pattern = SM_PATTERNS[sm]
    ops = []
    for kind, rel in pattern:
        base = data if kind is OpKind.WRITE else compare
        ops.append(Operation(kind, rel ^ base))
    return MarchElement(order, ops)


def match_element(
    element: MarchElement,
) -> Optional[Tuple[int, int, int]]:
    """Find the (SM index, base data, base compare) realising ``element``.

    Returns ``None`` when no SM pattern matches — the architecture's
    flexibility boundary.  Base values not constrained by the pattern
    (no write / no read present) default to 0.
    """
    kinds = tuple(op.kind for op in element.ops)
    for sm, pattern in enumerate(SM_PATTERNS):
        if kinds != tuple(kind for kind, _ in pattern):
            continue
        data: Optional[int] = None
        compare: Optional[int] = None
        consistent = True
        for op, (kind, rel) in zip(element.ops, pattern):
            base = op.polarity ^ rel
            if kind is OpKind.WRITE:
                if data is None:
                    data = base
                elif data != base:
                    consistent = False
                    break
            else:
                if compare is None:
                    compare = base
                elif compare != base:
                    consistent = False
                    break
        if consistent:
            return sm, data if data is not None else 0, (
                compare if compare is not None else 0
            )
    return None


def realizable(element: MarchElement) -> bool:
    """Whether the SM library can realise this element."""
    return match_element(element) is not None
