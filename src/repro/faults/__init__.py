"""Functional memory fault models (van de Goor taxonomy).

The march algorithms realised by the paper's BIST controllers target the
classical functional fault models; this package implements each as a
behavioural distortion plugged into :class:`repro.memory.sram.Sram`:

* :class:`~repro.faults.stuck_at.StuckAtFault` — SAF, cell stuck at 0/1.
* :class:`~repro.faults.transition.TransitionFault` — TF, cell cannot
  make an up (or down) transition.
* :mod:`~repro.faults.coupling` — CFin / CFid / CFst two-cell coupling.
* :mod:`~repro.faults.address_decoder` — AF1–AF4 decoder faults.
* :class:`~repro.faults.stuck_open.StuckOpenFault` — SOF / disconnected
  pull-up: repeated reads disturb the cell (the defect March C++ / A++
  triple reads.
* :class:`~repro.faults.retention.DataRetentionFault` — DRF, cell decays
  after an idle period (detected by the '+' variants' pauses).
* :mod:`~repro.faults.read_faults` — the static read faults IRF / RDF /
  DRDF; the deceptive DRDF needs back-to-back reads (the '++' triple
  reads or PMOVI's read-after-write structure).
* :class:`~repro.faults.neighborhood.PassiveNpsf` /
  :class:`~repro.faults.neighborhood.ActiveNpsf` — neighbourhood pattern
  sensitive faults (march tests only partially cover these; kept in the
  universe to show that boundary).

:mod:`~repro.faults.kinds` states each class once, as a row that the
spec strings, support extraction and detection conditions are read
from.  :mod:`~repro.faults.universe` enumerates standard fault universes
for coverage experiments and :mod:`~repro.faults.injector` manages
injecting one fault at a time into a memory.
"""

from repro.faults.base import CellFault
from repro.faults.concurrent import (
    ConcurrentPortAccessFault,
    CrossPortCouplingFault,
    concurrent_fault_universe,
)
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.address_decoder import (
    AddressMapsNowhere,
    AddressMapsToMultiple,
    AddressMapsToWrongCell,
    TwoAddressesOneCell,
)
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.retention import DataRetentionFault
from repro.faults.neighborhood import ActiveNpsf, PassiveNpsf
from repro.faults.read_faults import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
)
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpecError, format_fault, parse_fault
from repro.faults.universe import FaultUniverse, standard_universe

__all__ = [
    "ActiveNpsf",
    "AddressMapsNowhere",
    "AddressMapsToMultiple",
    "AddressMapsToWrongCell",
    "CellFault",
    "ConcurrentPortAccessFault",
    "CrossPortCouplingFault",
    "DataRetentionFault",
    "DeceptiveReadDestructiveFault",
    "FaultInjector",
    "FaultSpecError",
    "FaultUniverse",
    "IdempotentCouplingFault",
    "IncorrectReadFault",
    "InversionCouplingFault",
    "PassiveNpsf",
    "ReadDestructiveFault",
    "StateCouplingFault",
    "StuckAtFault",
    "StuckOpenFault",
    "TransitionFault",
    "TwoAddressesOneCell",
    "concurrent_fault_universe",
    "format_fault",
    "parse_fault",
    "standard_universe",
]
