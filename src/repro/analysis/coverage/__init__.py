"""Static fault-coverage prover over march notation.

Public surface:

- :func:`certify` — prove per-fault coverage of a march test over a
  fault universe, returning a :class:`CoverageCertificate` with concrete
  failing-read witnesses.
- :class:`CoverageCertificate` / :class:`FaultVerdict` — the certificate
  datatypes, with ``covered`` / ``not-covered`` / ``unknown`` verdicts.
- :func:`support_of` — per-fault address support and stratum signature
  (defined in :mod:`repro.faults.support`; the projected replay loop
  lives in :mod:`repro.march.projection`, the sparse
  :class:`ShadowMemory` it runs on in :mod:`repro.memory.shadow`).
"""

# Imported eagerly, unlike the other packages' lazy maps: importing
# this package is asking for the prover, and a lazy map would only move
# its import into the first ``certify`` call.
from repro.analysis.coverage.certificate import (
    COVERED,
    NOT_COVERED,
    UNKNOWN,
    VERDICTS,
    CoverageCertificate,
    FaultVerdict,
)
from repro.analysis.coverage.prover import certify
from repro.faults.support import FaultSupport, support_of
from repro.memory.shadow import ShadowMemory

__all__ = [
    "COVERED",
    "NOT_COVERED",
    "UNKNOWN",
    "VERDICTS",
    "CoverageCertificate",
    "FaultVerdict",
    "ShadowMemory",
    "FaultSupport",
    "certify",
    "support_of",
]
