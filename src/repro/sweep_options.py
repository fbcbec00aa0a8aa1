"""The choices of a sweep's stimulus regime and engine.

``repro sweep`` and ``repro serve submit`` offer them as ``--mode`` and
``--engine``, and :func:`repro.conformance.faulty.check.run_fault_sweep`
checks its arguments against them.  They live in this module, which
imports nothing, so the CLI parser offers them without loading a
controller.
"""

from typing import Tuple

#: Stimulus regimes the fault-response harness can drive.
#:
#: * ``sequential`` — the classic one-port-at-a-time golden expansion,
#:   differentially compared across the three controller architectures.
#: * ``concurrent`` — the same-cycle dual-port cycle stream of
#:   :func:`repro.march.concurrent.expand_concurrent`.  None of the
#:   paper's controllers realises it (their port loops are sequential by
#:   construction), so the differential partner is a *replay*: a second
#:   independent capture on a freshly injected memory, proving the
#:   response is a deterministic function of (stimulus, fault).
#: * ``infield`` — the deterministic in-field transparent session of
#:   :mod:`repro.conformance.infield`, with the given algorithm's
#:   transparent variant as the test slot; compared replay-style too.
MODES: Tuple[str, ...] = ("sequential", "concurrent", "infield")

#: Sweep engines: the scalar oracle and the projected engine of
#: :mod:`repro.vector` (support-projected replays of the verified
#: golden stream).
ENGINES: Tuple[str, ...] = ("scalar", "vector")
