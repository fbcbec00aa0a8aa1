"""Structural analysis of march tests: symmetry detection.

The microcode architecture's key storage optimisation is the ``REPEAT``
instruction plus *reference register*: if the second half of an algorithm
equals the first half with some combination of complemented address
order, write data and read compare polarity, the second half need not be
stored — one REPEAT instruction re-executes the stored body with the
auxiliary complements XORed in.

March C's down-sweeps are its up-sweeps with only the address order
complemented; March A's second half complements order, data and compare.
:func:`symmetric_split` discovers the decomposition (and which complement
combination applies) automatically; the microcode assembler uses it to
compress programs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.march.element import MarchElement, Pause
from repro.march.test import MarchTest


@dataclass(frozen=True)
class AuxComplement:
    """Which fields the reference register complements on re-execution.

    Attributes:
        address_order: reverse each element's traversal order.
        data: complement the polarity of every write.
        compare: complement the expected polarity of every read.
    """

    address_order: bool
    data: bool
    compare: bool

    @property
    def any(self) -> bool:
        return self.address_order or self.data or self.compare

    def apply(self, element: MarchElement) -> MarchElement:
        """The element as re-executed under this auxiliary setting.

        Orders are resolved before reversal: the hardware stores one
        up/down bit per instruction ("either" is stored as up), and the
        reference register XORs that stored bit — so an "either"-order
        element concretely re-executes downward under an order
        complement.
        """
        order = element.order.resolve()
        if self.address_order:
            order = order.reversed()
        ops = []
        for op in element.ops:
            flip = self.data if op.is_write else self.compare
            ops.append(op.inverted() if flip else op)
        return MarchElement(order, ops)

    def __str__(self) -> str:
        parts = []
        if self.address_order:
            parts.append("order")
        if self.data:
            parts.append("data")
        if self.compare:
            parts.append("compare")
        return "+".join(parts) or "none"


@dataclass(frozen=True)
class SymmetricSplit:
    """Decomposition ``elements = prefix + body + aux(body) + suffix``.

    ``body`` is stored once; the mirrored half is regenerated by a REPEAT
    instruction carrying ``aux``.  ``saved_rows`` is the number of march
    elements that no longer need storage (the compression benefit).
    """

    prefix: Tuple[MarchElement, ...]
    body: Tuple[MarchElement, ...]
    aux: AuxComplement
    suffix: Tuple[MarchElement, ...]

    @property
    def saved_rows(self) -> int:
        return len(self.body)


def _elements_equal(a: MarchElement, b: MarchElement) -> bool:
    return a.order.resolve() is b.order.resolve() and a.ops == b.ops


def symmetric_split(
    test: MarchTest, require_single_op_prefix: bool = False
) -> Optional[SymmetricSplit]:
    """Find the best REPEAT-compressible decomposition of ``test``.

    Searches all prefix lengths, body lengths and the seven non-trivial
    auxiliary complement combinations; returns the split with the longest
    body (most storage saved), or ``None`` when the test has no usable
    symmetry.  Tests containing retention pauses *between* the mirrored
    halves cannot be compressed; pauses confined to the suffix (as in
    March C+ / A+) are fine because the suffix is stored verbatim — for
    simplicity we only exclude pauses from prefix+body+mirror region.

    Args:
        test: the march algorithm to analyse.
        require_single_op_prefix: only accept splits whose prefix is
            exactly one single-operation element (one stored microcode
            row).  The microcode REPEAT instruction branches through the
            decoder's fixed "Reset to 1" path, so the body must begin at
            instruction 1 — this is the constraint the microcode
            assembler passes.
    """
    items = test.items
    # Locate the last leading run of elements with no pauses; the mirror
    # region must sit inside it.  Suffix may contain anything.
    first_pause = next(
        (i for i, item in enumerate(items) if isinstance(item, Pause)), len(items)
    )
    head = [item for item in items[:first_pause]]
    elements = tuple(head)  # all MarchElement by construction

    best: Optional[SymmetricSplit] = None
    aux_options = [
        AuxComplement(*flags)
        for flags in itertools.product((False, True), repeat=3)
        if any(flags)
    ]
    n = len(elements)
    for prefix_len in range(n):
        if require_single_op_prefix:
            if prefix_len != 1 or elements[0].op_count != 1:
                continue
        remaining = n - prefix_len
        for body_len in range(remaining // 2, 0, -1):
            body = elements[prefix_len : prefix_len + body_len]
            mirror = elements[prefix_len + body_len : prefix_len + 2 * body_len]
            for aux in aux_options:
                if all(
                    _elements_equal(aux.apply(b), m) for b, m in zip(body, mirror)
                ):
                    suffix = elements[prefix_len + 2 * body_len :] + tuple(
                        items[first_pause:]
                    )
                    candidate = SymmetricSplit(
                        prefix=elements[:prefix_len],
                        body=body,
                        aux=aux,
                        suffix=suffix,
                    )
                    if best is None or candidate.saved_rows > best.saved_rows:
                        best = candidate
                    break  # longest body for this prefix found
            else:
                continue
            break  # found for this prefix; shorter bodies are worse
    return best


def is_symmetric(test: MarchTest) -> bool:
    """Whether ``test`` benefits from REPEAT compression at all."""
    return symmetric_split(test) is not None


def stored_element_count(test: MarchTest) -> int:
    """March elements that need storage once REPEAT compression applies."""
    split = symmetric_split(test)
    if split is None:
        return test.element_count
    return test.element_count - split.saved_rows
