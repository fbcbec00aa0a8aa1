"""Fault support extraction and behavioural strata.

Soundness of the prover's projection rests on knowing every logical
address a fault can possibly touch (its *support*): the words its hooks
filter on, the cells it forces, and — for decoder faults — every address
whose decode mapping the install rewrites.  This module extracts that
support per concrete fault type.  Extraction is deliberately closed over
the exact types of :mod:`repro.faults`: an unknown type (including a
subclass that might override hooks with wider reach) yields ``None`` and
the caller falls back — the coverage prover
(:mod:`repro.analysis.coverage`) to a conservative ``unknown`` verdict,
the projected sweep engine (:mod:`repro.vector.sweep`) to the scalar
oracle — instead of guessing.

The same extraction produces a *stratum signature*: the fault's
parameters with word coordinates replaced by their rank within the
support.  Two faults with equal signatures see isomorphic projected
executions — the march visits their support cells in the same relative
order with the same operations — so they provably share a verdict, and
a march test needs one projected run per stratum instead of one per
instance (:meth:`FaultSupport.project` gives the key).  Bit positions
stay absolute (data backgrounds make behaviour bit-dependent on
word-oriented memories); word *distances* are erased (no fault
mechanism depends on them).

Each kind's extractor is a row of :data:`repro.faults.kinds.KINDS`;
this module wraps an extraction as a :class:`FaultSupport`.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.faults.base import CellFault
from repro.faults.kinds import EXTRACTORS, W


def _label(node: Any) -> str:
    """Compact deterministic string form of a relativised signature."""
    if isinstance(node, tuple):
        if len(node) == 2 and node[0] is W:
            return f"w{node[1]}"
        return "(" + ",".join(_label(child) for child in node) + ")"
    if isinstance(node, bool):
        return "+" if node else "-"
    return str(node)


class FaultSupport:
    """The prover-facing description of one fault's reach.

    Attributes:
        addresses: sorted logical addresses the projection must visit.
        signature: hashable stratum key — equal signatures guarantee
            isomorphic projected executions (for one test + geometry).
        label: human-readable stratum name for certificates.
    """

    __slots__ = ("addresses", "signature")

    def __init__(self, addresses: Tuple[int, ...], signature: Tuple) -> None:
        self.addresses = addresses
        self.signature = signature

    @property
    def label(self) -> str:
        return _label(self.signature)

    def project(self, n_words: int) -> Tuple[Tuple[int, ...], bool, Tuple]:
        """The support on an ``n_words`` memory, with its stratum key.

        Returns ``(visited, covers_all, key)``: the in-range support
        addresses a projected run visits (ascending), whether they are
        every address of the memory, and the key under which one
        projected run decides every fault of the stratum.  In-range
        membership is part of the key: a stratum-mate whose support is
        partly out of range visits fewer cells and is not isomorphic.
        """
        addresses = self.addresses
        if addresses[0] >= 0 and addresses[-1] < n_words:
            covers_all = len(addresses) == n_words
            in_range = (True,) * len(addresses)
            key = (self.signature, covers_all, in_range)
            return addresses, covers_all, key
        in_range = tuple(0 <= a < n_words for a in addresses)
        visited = tuple(a for a, inside in zip(addresses, in_range) if inside)
        covers_all = len(visited) == n_words
        return visited, covers_all, (self.signature, covers_all, in_range)


def support_of(fault: CellFault) -> Optional[FaultSupport]:
    """Extract a fault's support and stratum signature.

    Returns None for fault types without a kind-table extractor — the
    prover must then report ``unknown`` rather than project unsoundly.
    """
    extractor = EXTRACTORS.get(type(fault))
    extraction = None if extractor is None else extractor(fault)
    return None if extraction is None else FaultSupport(*extraction)
