"""Diagnostics on BIST fail logs.

The paper motivates programmable BIST partly by diagnostics and process
monitoring (its refs [3], [9]): the same controller that gives a go/no-go
verdict in production can, with a diagnostic algorithm loaded, stream out
every failing (address, bit, operation) event.  This package consumes
those events:

* :class:`~repro.diagnostics.faillog.FailLog` — ordered capture of
  failures with operation context;
* :class:`~repro.diagnostics.bitmap.FailBitmap` — the physical fail
  bitmap used for process monitoring;
* :mod:`~repro.diagnostics.classifier` — heuristic fault-type
  classification from march failure signatures;
* :mod:`~repro.diagnostics.address_probe` — the walking-address decoder
  probe that separates AF classes from coupling (march signatures alone
  cannot).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.diagnostics.faillog": ["FailLog"],
    "repro.diagnostics.bitmap": ["FailBitmap"],
    "repro.diagnostics.classifier": ["classify", "diagnose"],
    "repro.diagnostics.address_probe": ["DecoderDiagnosis", "decoder_probe"],
})

__all__ = [
    "DecoderDiagnosis",
    "FailBitmap",
    "FailLog",
    "classify",
    "decoder_probe",
    "diagnose",
]
