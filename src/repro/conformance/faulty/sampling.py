"""Fault populations for the differential response harness.

Two consumers need faults-as-data here:

* The CI sweep wants a **stratified sample** of the standard universe —
  a few representatives of *every* behavioural kind rather than a
  uniform draw that SAF/coupling counts would dominate —
  :func:`stratified_sample`.
* The fuzz harness (assertion (e)) wants one **random fault per
  sample**, drawn deterministically from the sample's own RNG so a
  reproducer needs only the seed — :func:`random_fault`.

Both restrict themselves to spec-expressible faults (see
:mod:`repro.faults.spec`): every fault the harness touches must survive
a JSON round trip into a reproducer or a corpus regression entry.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.controller import ControllerCapabilities
from repro.faults.base import CellFault
from repro.faults.concurrent import concurrent_fault_universe
from repro.faults.spec import format_fault, parse_fault
from repro.faults.universe import FaultUniverse, standard_universe


def spec_expressible(faults: Sequence[CellFault]) -> List[CellFault]:
    """The subset of ``faults`` with a spec-string form."""
    return [fault for fault in faults if format_fault(fault) is not None]


def stratified_sample(
    universe: FaultUniverse,
    per_kind: int = 3,
    seed: int = 0,
) -> List[CellFault]:
    """Up to ``per_kind`` spec-expressible faults of every kind.

    The draw is deterministic in ``seed`` and spread across each kind's
    population (first, last and evenly spaced shuffled picks), so small
    samples still touch different cells and polarities.
    """
    rng = random.Random(seed)
    groups = universe.by_kind()
    sample: List[CellFault] = []
    for kind in sorted(groups):
        population = spec_expressible(groups[kind])
        if not population:
            continue
        if len(population) <= per_kind:
            sample.extend(population)
            continue
        picks = [population[0], population[-1]]
        middle = population[1:-1]
        rng.shuffle(middle)
        picks.extend(middle)
        sample.extend(picks[:per_kind])
    return sample


def sweep_faults(
    capabilities: ControllerCapabilities,
    per_kind: int = 3,
    seed: int = 0,
    full: bool = False,
    mode: str = "sequential",
) -> List[CellFault]:
    """The fault population for a CI sweep of ``capabilities``.

    ``full`` returns the whole spec-expressible standard universe
    (nightly); otherwise a stratified sample (per-PR).  NPSF faults are
    excluded either way — they have no spec form, so a divergence under
    one could not be committed as a reproducer.  Multi-port geometries
    include the port-access (PAF) stratum: the universe is built with
    ``capabilities.ports``, so the faults only per-port repetition can
    catch are actually swept.

    ``mode="concurrent"`` on a multi-port geometry additionally sweeps
    the concurrency-sensitised stratum
    (:func:`repro.faults.concurrent.concurrent_fault_universe` — PAFc
    and CFxp).  Those faults are *not* part of the standard universe:
    they are invisible to sequential stimuli by construction, so adding
    them to the sequential sweep (or the static coverage prover's
    cross-check) would only record guaranteed misses.
    """
    universe = standard_universe(
        capabilities.n_words,
        width=capabilities.width,
        include_npsf=False,
        ports=capabilities.ports,
    )
    if mode == "concurrent" and capabilities.ports > 1:
        universe = FaultUniverse(
            name=f"{universe.name} + concurrent",
            faults=list(universe.faults)
            + concurrent_fault_universe(
                capabilities.n_words,
                capabilities.width,
                capabilities.ports,
            ),
        )
    if full:
        return spec_expressible(universe.faults)
    return stratified_sample(universe, per_kind=per_kind, seed=seed)


def random_fault(
    rng: random.Random,
    capabilities: ControllerCapabilities,
) -> CellFault:
    """Draw one spec-expressible fault for a fuzz sample.

    Uniform over *kinds* first (so rare kinds like AF get drawn as
    often as the huge SAF/coupling strata), then uniform over that
    kind's instances within the sample's geometry.  Always consumes the
    same amount of RNG state for a given universe, keeping per-sample
    seeds reproducible.
    """
    universe = standard_universe(
        capabilities.n_words,
        width=capabilities.width,
        include_npsf=False,
    )
    by_kind = {
        kind: spec_expressible(faults)
        for kind, faults in universe.by_kind().items()
    }
    kinds = sorted(kind for kind, faults in by_kind.items() if faults)
    kind = rng.choice(kinds)
    fault = rng.choice(by_kind[kind])
    # Round-trip through the spec so the object the harness runs is
    # bit-identical to the one a reproducer would rebuild.
    spec = format_fault(fault)
    assert spec is not None
    return parse_fault(spec)
