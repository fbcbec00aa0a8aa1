"""The static fault-coverage prover.

:func:`certify` decides, from march notation alone, whether a march test
detects each fault of a universe — without ever simulating the full
``N``-word memory.  The proof strategy is *projected symbolic execution*:

1.  :func:`repro.faults.support.support_of` bounds the set of
    logical addresses a fault can influence (its support).  Every fault
    hook filters on its own word(s), decoder rewrites are confined to
    the fault's own addresses, and idle time only advances at explicit
    pauses — so the faulty run restricted to the support is *bit-exact*
    regardless of memory size.
2.  The projected run (:class:`repro.march.projection.MarchProjection`,
    the replay loop the projected sweep engine shares) executes the
    real fault object against a sparse
    :class:`~repro.memory.shadow.ShadowMemory`, visiting only
    support addresses in each element's traversal order.  A failing read
    there is a failing read of the full run; no failing read there (for
    a fault-free-consistent test) proves the full run passes.
3.  Faults sharing a *stratum signature* (parameters relativised to
    support ranks) see isomorphic projected runs, so one symbolic
    execution decides the whole stratum.  Everything else about the
    stratum — verdict, label, strata entry and the witness line
    (:meth:`~repro.march.projection.MarchProjection.witness_line`) — is
    settled with it, and each member is only stamped: its witness is
    ``base + stride·address`` at the support slot that failed.

For covered faults the certificate carries a *witness*: the index in the
golden expansion (:func:`repro.march.simulator.expand`) of an operation
whose read must mismatch.  Tests whose fault-free run already fails
reads (possible for fuzz-generated notation, never for the library) are
handled via the fault-free trace: any fault leaving at least one address
untouched is detected at that address, and a fault involving *every*
address makes the projection the full run, which stays exact.

Verdicts are conservative: fault types outside the support registry, or
any projection failure, yield ``unknown`` — never a guessed ``covered``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.coverage.certificate import (
    COVERED,
    NOT_COVERED,
    UNKNOWN,
    CoverageCertificate,
    FaultVerdict,
)
from repro.faults.base import CellFault
from repro.faults.spec import format_fault
from repro.faults.support import support_of
from repro.faults.universe import FaultUniverse, standard_universe
from repro.march.projection import MarchProjection
from repro.march.test import MarchTest

#: perfbench/layers.py times projected runs at ``prover._Projection.run``.
_Projection = MarchProjection


def certify(
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
    universe: Optional[FaultUniverse] = None,
    faults: Optional[Sequence[CellFault]] = None,
    universe_name: str = "faults",
) -> CoverageCertificate:
    """Statically prove per-fault coverage of ``test`` on a geometry.

    Args:
        test: the march algorithm to certify.
        n_words / width / ports: memory geometry (witness indices are
            geometry-specific).
        universe: fault population; defaults to the full
            :func:`repro.faults.universe.standard_universe` of the
            geometry.
        faults: explicit fault list overriding ``universe`` (used by the
            conformance cross-check and fuzz identity (f)).
        universe_name: label when ``faults`` is given.

    Returns:
        A :class:`CoverageCertificate` with one verdict per fault, a
        witness op index for each ``covered`` verdict, and the stratum
        structure of the proof.
    """
    if faults is None:
        if universe is None:
            universe = standard_universe(n_words, width, ports=ports)
        population: Sequence[CellFault] = universe.faults
        universe_name = universe.name
    else:
        population = list(faults)

    projection = MarchProjection(test, n_words, width, ports)
    inconsistent = bool(projection.free_failures)

    certificate = CoverageCertificate(
        test_name=test.name,
        universe_name=universe_name,
        n_words=n_words,
        width=width,
        ports=ports,
        fault_free_consistent=not inconsistent,
    )
    strata = certificate.strata
    # stratum key (None: no support) -> (verdict, label, strata entry,
    # witness base, stride, support slot); slot None: the witness is
    # at the first address the support leaves untouched.
    settled: Dict[Optional[tuple], tuple] = {}

    for index, fault in enumerate(population):
        support = support_of(fault)
        if support is None:
            visited, covers_all, key = (), False, None
        else:
            visited, covers_all, key = support.project(n_words)
        stratum = settled.get(key)
        if stratum is None:
            label = "?" if support is None else support.label
            verdict, base, stride, slot = UNKNOWN, None, None, None
            if support is None:
                pass
            elif inconsistent and not covers_all:
                # Some address is untouched by the fault; it behaves
                # fault-free there, and the fault-free run already fails
                # a read — so the faulty run fails at that address too.
                verdict = COVERED
                base, stride = projection.witness_line(
                    *projection.free_failures[0]
                )
            else:
                try:
                    failure = projection.run(fault, visited)
                except Exception:
                    pass
                else:
                    verdict = NOT_COVERED if failure is None else COVERED
                    if failure is not None:
                        port, bg_idx, item_idx, slot, op_idx = failure
                        base, stride = projection.witness_line(
                            port, bg_idx, item_idx, op_idx
                        )
            entry = strata.get(label)
            if entry is None:
                entry = strata[label] = {"verdict": verdict, "members": 0}
            elif entry["verdict"] != verdict:
                # Same label, different geometry interaction (e.g.
                # support partly out of range) — don't misreport it.
                entry["verdict"] = "mixed"
            stratum = settled[key] = (
                verdict, label, entry, base, stride, slot
            )
        verdict, label, entry, base, stride, slot = stratum
        entry["members"] += 1
        if base is None:
            witness = None
        elif slot is None:
            witness = base + stride * next(
                (a for a, m in enumerate(visited) if a != m), len(visited)
            )
        else:
            witness = base + stride * visited[slot]
        certificate.verdicts.append(
            FaultVerdict(
                index, fault.kind, format_fault(fault), fault.describe(),
                verdict, witness, label,
            )
        )
    return certificate
