"""Pseudo-ring testing (PRT): a non-march first-class stimulus family.

The memory under test is configured as a linear-feedback shift ring and
circulated; see :mod:`repro.prt.session` for the scheme and
:mod:`repro.prt.controller` for the engine realisation.  The family
plugs into the shared machinery: fault sweeps on both engines
(:func:`repro.conformance.faulty.check.resolve_stimulus` describes a
:class:`PrtSession` and its partners), the stream corpus, coverage
evaluation vs the march library (:mod:`repro.eval.prt_study`), the area
model and fuzz identity (j).
"""

from repro._lazy import attach
from repro.prt.session import PrtConfig, PrtSession

__getattr__, __dir__ = attach(__name__, {
    "repro.prt.controller": ["PrtController", "PrtTraceEntry"],
    "repro.prt.session": ["ring_taps"],
})

#: The default session pair the corpus and CI sweeps pin: the tuned
#: canonical up-ring and a shorter seeded down-ring (the address-order
#: dual).
PRT_RING_UP = PrtSession(PrtConfig())
PRT_RING_DOWN = PrtSession(PrtConfig(passes=3, seed=0xACE1, order="down"))

__all__ = [
    "PRT_RING_DOWN",
    "PRT_RING_UP",
    "PrtConfig",
    "PrtController",
    "PrtSession",
    "PrtTraceEntry",
    "ring_taps",
]
