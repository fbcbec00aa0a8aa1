"""Built-in self-repair (BISR): redundancy allocation from fail bitmaps.

The step after diagnostics in a production memory flow: embedded SRAMs
ship with spare rows/columns, and the fail bitmap a diagnostic BIST run
produces drives the allocation of those spares.  This package implements
the classical flow on top of the library's diagnostics:

* :func:`~repro.repair.allocation.allocate_repair` — spare-line
  allocation (must-repair preprocessing + exact branch-and-bound, the
  textbook formulation of the NP-complete spare-allocation problem);
* :func:`~repro.repair.apply.apply_repair` — execute a plan by remapping
  repaired lines to spare words through the address decoder;
* :func:`~repro.repair.apply.repair_flow` — the end-to-end loop:
  diagnose → allocate → apply → re-test.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.repair.allocation": ["RepairPlan", "allocate_repair"],
    "repro.repair.apply": ["RepairOutcome", "apply_repair", "repair_flow"],
})

__all__ = [
    "RepairOutcome",
    "RepairPlan",
    "allocate_repair",
    "apply_repair",
    "repair_flow",
]
