"""Classical (pre-march) memory test algorithms.

The paper's introduction notes that "three classes of memory tests have
been proposed" for the functional fault models; march tests won because
they reach the same coverage in O(N).  This package implements the other
two classes as operation-stream generators compatible with the whole
coverage/BIST machinery, so the historical trade-off is measurable:

* :mod:`~repro.classic.walking` — Walking 1/0 (O(N²)): every cell
  carries the mark while every other cell is verified;
* :mod:`~repro.classic.galpat` — GALPAT (O(N²) with ping-pong reads):
  the strongest classical test, locating coupled cell pairs exactly;
* :mod:`~repro.classic.checkerboard` — the 4N checkerboard screen used
  for gross defects and retention bake;
* :mod:`~repro.classic.pseudorandom` — pseudorandom BIST (the paper's
  ref [1], Bardell/McAnney/Savir): LFSR-generated accesses compacted by
  a behavioural MISR, with the escape probability march tests eliminate.
"""

from repro._lazy import attach
# Named after their own submodules, so bound eagerly (see repro._lazy).
from repro.classic.checkerboard import checkerboard
from repro.classic.galpat import galpat

__getattr__, __dir__ = attach(__name__, {
    "repro.classic.walking": [
        "walking_ones", "walking_zeros", "walking_op_count",
    ],
    "repro.classic.galpat": ["galpat_op_count"],
    "repro.classic.checkerboard": ["checkerboard_op_count"],
    "repro.classic.geometry": ["check_geometry"],
    "repro.classic.pseudorandom": [
        "MAX_LFSR_WIDTH", "Lfsr", "Misr", "lfsr_taps", "pseudorandom_test",
        "pseudorandom_signature",
    ],
})

__all__ = [
    "MAX_LFSR_WIDTH",
    "Lfsr",
    "Misr",
    "check_geometry",
    "checkerboard",
    "checkerboard_op_count",
    "galpat",
    "galpat_op_count",
    "lfsr_taps",
    "pseudorandom_signature",
    "pseudorandom_test",
    "walking_ones",
    "walking_op_count",
    "walking_zeros",
]
