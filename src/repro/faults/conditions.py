"""Classical per-kind fault detection conditions, as data.

Each fault kind of this package has a closed-form *detection condition*
from the march-test literature: a property of the operation sequence a
test applies to the involved cells that is necessary and sufficient for
a failing read.  The static prover (:mod:`repro.analysis.coverage`)
does not pattern-match these conditions — it decides coverage by exact
projected execution — but the conditions remain the *explanation* layer:
the ``CV`` lint rules cite them as hints when a kind is not covered, and
``docs/ANALYSIS.md`` renders this table.

Conditions are stated in march notation with the usual decomposition
into per-cell *test primitives* (state the cell, observe it): ``…`` is
any operation filler, ``⇑``/``⇓`` the address orders, and ``rX`` a read
expecting the cell in state ``X``.  Citations: [vdG] A.J. van de Goor,
*Testing Semiconductor Memories*, Wiley 1991; [ZU] Zarrineh &
Upadhyaya, DATE 1999 (the source paper); [TP] *Test Primitive: A
Straightforward Method To Decouple March* (see ``PAPERS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.kinds import KINDS


@dataclass(frozen=True)
class DetectionCondition:
    """The textbook detection condition for one fault kind.

    Attributes:
        kind: the key the kind table's rows name (a ``CellFault.kind``
            tag, or ``AF`` for AF1–AF4 and ``linked`` for composites).
        name: full fault-model name.
        condition: prose detection condition.
        primitives: decomposition into per-cell read/write test
            primitives, in march notation.
        citation: literature anchor(s).
    """

    kind: str
    name: str
    condition: str
    primitives: str
    citation: str


_C = DetectionCondition

#: Detection conditions, keyed by the ``condition`` of the kind rows.
CONDITIONS: Dict[str, DetectionCondition] = {
    c.kind: c
    for c in (
        _C(
            "SAF",
            "stuck-at fault",
            "every cell is read in state 0 and read in state 1",
            "{⇕(…,r0,…)} and {⇕(…,r1,…)} with the matching state "
            "established by an earlier write",
            "[vdG] §4.3; [TP] primitives w0…r0 / w1…r1",
        ),
        _C(
            "TF",
            "transition fault",
            "every cell makes an up-transition that is read before the "
            "next write, and likewise a down-transition",
            "{⇕(…,w1,…,r1,…)} after state 0, and {⇕(…,w0,…,r0,…)} "
            "after state 1",
            "[vdG] §4.4 (condition: w↑ then r before any write)",
        ),
        _C(
            "SOF",
            "stuck-open fault",
            "some cell's stored value is read often enough consecutively "
            "(no intervening write to the cell) for the weak node to "
            "collapse and be observed — with the library's two-disturb "
            "model, three consecutive reads of the weak state",
            "{⇕(…,rX,rX,rX,…)} with the cell holding the weak value X",
            "[vdG] §4.6 (sequential-fault read repetition); [ZU] Table 2",
        ),
        _C(
            "DRF",
            "data-retention fault",
            "each cell holds each state across an idle pause longer than "
            "the decay time, and is read after the pause before any "
            "write",
            "⇕(…,wX,…); Del(T≥decay); ⇕(rX,…) for X in {0,1}",
            "[vdG] §4.9; [ZU] March C+/A+ Hold steps",
        ),
        _C(
            "IRF",
            "incorrect read fault",
            "every cell is read while holding the sensitising state",
            "{⇕(…,rX,…)} with the cell in state X",
            "[vdG] §4.7 (read faults decompose like SAF reads)",
        ),
        _C(
            "RDF",
            "read destructive fault",
            "every cell is read while holding the sensitising state "
            "(the first such read already observes the flip)",
            "{⇕(…,rX,…)} with the cell in state X",
            "[vdG] §4.7",
        ),
        _C(
            "DRDF",
            "deceptive read destructive fault",
            "every cell is read twice in the sensitising state with no "
            "intervening write — the first read flips but observes "
            "correctly, the second observes the flip",
            "{⇕(…,rX,rX,…)}, or rX in one element verified by a read "
            "in the next before any write",
            "[vdG] §4.7; [TP] double-read primitive",
        ),
        _C(
            "CFin",
            "inversion coupling fault",
            "for every (aggressor, victim) pair: the aggressor makes the "
            "triggering transition and the victim is read before any "
            "re-write, for both aggressor-before-victim and "
            "victim-before-aggressor address orders",
            "⇑(…,wa↕,…) / ⇓(…,wa↕,…) with a later {r} on the victim; "
            "both orders needed to catch a<v and a>v",
            "[vdG] §4.5 (march condition for CFs: ⇑ and ⇓ sweeps)",
        ),
        _C(
            "CFid",
            "idempotent coupling fault",
            "for every (aggressor, victim) pair, trigger direction and "
            "forced value: the aggressor transition happens while the "
            "victim holds the complement of the forced value, and the "
            "victim is read before it is re-written — in both address "
            "orders",
            "⇑(rX,…,wa↕) and ⇓(rX,…,wa↕) sweep pairs per forced "
            "value X̄; March C's ⇑(r0,w1);⇑(r1,w0);⇓(r0,w1);⇓(r1,w0) "
            "core is the canonical satisfying decomposition",
            "[vdG] §4.5, Table 4.7; [ZU] Table 2",
        ),
        _C(
            "CFst",
            "state coupling fault",
            "for every pair, aggressor state and forced value: the "
            "victim is read expecting the complement of the forced "
            "value while the aggressor holds the sensitising state",
            "{⇕(…,rX,…)} on the victim with the aggressor parked in "
            "state S, for all four (S, X) combinations",
            "[vdG] §4.5 (CFst needs both neighbour states at read time)",
        ),
        _C(
            "AF",
            "address-decoder fault",
            "some address's reads observe a cell other than the one its "
            "writes initialised (wrong cell, no cell, or a wired-AND of "
            "several) — guaranteed by reading each address in both "
            "states with ⇑(rX,…,wX̄,…) and ⇓(rX,…,wX̄,…) sweeps",
            "⇑(rX,…,wX̄) and ⇓(rX,…,wX̄) (van de Goor's AF condition: "
            "a march with both orders, each starting with a read and "
            "containing a complementing write)",
            "[vdG] §4.2, Theorem: AFs need ⇑(r…w̄) and ⇓(r…w̄)",
        ),
        _C(
            "PNPSF",
            "passive neighbourhood pattern sensitive fault",
            "the base cell fails to make a write transition while the "
            "neighbourhood holds the sensitising pattern, and the base "
            "is read before re-write; data backgrounds must establish "
            "the pattern",
            "write base with neighbourhood = pattern, then {r} on base; "
            "checkerboard backgrounds establish mixed patterns",
            "[vdG] §4.8 (type-1 neighbourhoods); [ZU] §2",
        ),
        _C(
            "ANPSF",
            "active neighbourhood pattern sensitive fault",
            "the trigger neighbour makes its transition while the rest "
            "of the neighbourhood holds the pattern, and the base cell "
            "is read afterwards before being re-written",
            "trigger wa↕ with others = pattern, later {r} on base",
            "[vdG] §4.8; [ZU] §2",
        ),
        _C(
            "PAF",
            "port-access fault",
            "the per-port repetition reads every cell in both states "
            "through every port (a cell disconnected from port P only "
            "fails reads issued on P)",
            "the full {⇕(…,r0,…)}/{⇕(…,r1,…)} condition repeated per "
            "port (the paper's port loop, microcode INC_PORT)",
            "[ZU] §3 (multi-port repetition); [vdG] §4.3 applied "
            "per port",
        ),
        _C(
            "PAFc",
            "concurrent port-access fault",
            "the faulty port reads the cell in the complement of its "
            "floating value while another port accesses the same word "
            "in the same cycle, or writes it under such contention and "
            "a later read observes the lost write (one port at a time "
            "never sensitises it)",
            "{⇕(…,rX̄,…)} on port P with a same-cycle companion access "
            "to the word on another port (X the floating value)",
            "[ZU] §3 (multiport regime, Table 2); [vdG] §4.3 applied "
            "to the contended port",
        ),
        _C(
            "CFxp",
            "cross-port coupling fault",
            "for every intra-word (aggressor, victim) pair, trigger "
            "direction and forced value: the aggressor makes the "
            "triggering write transition while another port accesses "
            "the victim's word in the same cycle, the victim holding "
            "the complement of the forced value, and the victim is "
            "read before it is re-written",
            "the CFid decomposition ⇕(rX,…,wa↕) under same-cycle "
            "victim-word access on another port, then {r} on the "
            "victim",
            "[vdG] §4.5 (CFid condition); [ZU] §3 (multiport "
            "co-selection)",
        ),
        _C(
            "linked",
            "linked (composite) fault",
            "some member fault's detection condition is met at an "
            "observation point where the other members' effects do not "
            "mask the failing read (masking makes linked faults "
            "strictly harder than their members)",
            "member primitives with a non-masked observing read; no "
            "compositional closed form — the prover decides by exact "
            "projected execution over the union support",
            "[vdG] §4.10 (linked faults and masking)",
        ),
    )
}


#: Condition key per ``CellFault.kind`` tag, from the kind table.
_KEYS: Dict[str, str] = {
    row.cls.kind: row.condition for row in KINDS if row.condition
}


def condition_for(kind: str) -> Optional[DetectionCondition]:
    """The detection condition for ``kind`` (AF1–AF4 share ``AF``;
    composite kinds like ``CFid&CFid`` share ``linked``)."""
    key = _KEYS.get(kind)
    if key is None and ("&" in kind or "linked" in kind):
        key = "linked"
    return None if key is None else CONDITIONS[key]


def condition_table() -> Tuple[DetectionCondition, ...]:
    """All conditions in a stable order (for docs rendering)."""
    return tuple(CONDITIONS[kind] for kind in sorted(CONDITIONS))
