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

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.faults.base": ["CellFault"],
    "repro.faults.concurrent": [
        "ConcurrentPortAccessFault", "CrossPortCouplingFault",
        "concurrent_fault_universe",
    ],
    "repro.faults.stuck_at": ["StuckAtFault"],
    "repro.faults.transition": ["TransitionFault"],
    "repro.faults.coupling": [
        "IdempotentCouplingFault", "InversionCouplingFault",
        "StateCouplingFault",
    ],
    "repro.faults.address_decoder": [
        "AddressMapsNowhere", "AddressMapsToMultiple",
        "AddressMapsToWrongCell", "TwoAddressesOneCell",
    ],
    "repro.faults.stuck_open": ["StuckOpenFault"],
    "repro.faults.retention": ["DataRetentionFault"],
    "repro.faults.neighborhood": ["ActiveNpsf", "PassiveNpsf"],
    "repro.faults.read_faults": [
        "DeceptiveReadDestructiveFault", "IncorrectReadFault",
        "ReadDestructiveFault",
    ],
    "repro.faults.injector": ["FaultInjector"],
    "repro.faults.spec": ["FaultSpecError", "format_fault", "parse_fault"],
    "repro.faults.universe": ["FaultUniverse", "standard_universe"],
})

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
