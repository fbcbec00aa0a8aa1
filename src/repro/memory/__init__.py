"""Behavioural SRAM substrate with fault-injection hook points.

The paper's BIST units test embedded SRAMs; this package provides the
memory-under-test model:

* :class:`~repro.memory.sram.Sram` — bit- or word-oriented, single- or
  multi-port behavioural SRAM with per-cell fault hooks and a retention
  time base.
* :class:`~repro.memory.decoder.AddressDecoder` — logical-to-physical
  address mapping, mutable by address-decoder faults.
* :class:`~repro.memory.shadow.ShadowMemory` — an :class:`Sram` over
  sparse storage, which the support-projected runs of the coverage
  prover and the projected sweep engine use.
* :mod:`~repro.memory.retention` — the decay time base used by
  data-retention faults.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.memory.sram": ["Sram"],
    "repro.memory.decoder": ["AddressDecoder"],
    "repro.memory.shadow": ["ShadowMemory"],
})

__all__ = ["AddressDecoder", "ShadowMemory", "Sram"]
