"""Table 1/2/3 experiment drivers.

Each driver instantiates the same eight designs the paper evaluates —
the two proposed programmable controllers plus six hardwired baselines
(March C / C+ / C++ / A / A+ / A++) — for a memory geometry, costs them
through the structural area model, and returns rows in the paper's
order.  Absolute values depend on the technology calibration; the
*relations* between rows (the paper's actual findings R1–R5, see
DESIGN.md) are calibration-independent and are asserted by the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.area.estimator import estimate
from repro.area.technology import IBM_CMOS5S, Technology
from repro.core.controller import BistController, ControllerCapabilities
from repro.core.hardwired import HardwiredBistController
from repro.core.microcode import MicrocodeBistController
from repro.core.progfsm import ProgrammableFsmBistController
from repro.march import library

#: Memory geometry of the experiments: a 1 K-address embedded SRAM.
DEFAULT_GEOMETRY = {"n_words": 1024}
#: Word width of the Table 2 word-oriented configuration.
WORD_WIDTH = 8
#: Port count of the Table 2 multiport configuration.
MULTIPORT_PORTS = 2


@dataclass(frozen=True)
class Table1Row:
    """One row of a Table-1-style comparison.

    Attributes:
        method: design name (architecture or hardwired algorithm).
        flexibility: HIGH / MEDIUM / LOW grade.
        gate_equivalents: internal area (2-input-NAND equivalents).
        area_um2: size under the technology calibration.
    """

    method: str
    flexibility: str
    gate_equivalents: float
    area_um2: float


def _row(controller: BistController, name: Optional[str] = None,
         tech: Optional[Technology] = None) -> Table1Row:
    report = estimate(controller.hardware(), tech or IBM_CMOS5S)
    return Table1Row(
        method=name or controller.architecture,
        flexibility=controller.flexibility.value,
        gate_equivalents=report.gate_equivalents,
        area_um2=report.area_um2,
    )


def _designs(
    capabilities: ControllerCapabilities,
    storage_cell: str = "scan_dff",
    include_prt: bool = False,
) -> List[Tuple[str, BistController]]:
    """The eight designs of the paper's tables, in row order.

    Both programmable controllers are loaded with March C (the loaded
    program does not change programmable hardware; the hardwired rows
    *are* their algorithms).  ``include_prt`` appends the pseudo-ring
    engine of :mod:`repro.prt` as a ninth, non-paper row — opt-in so
    the paper's pinned eight-row tables stay byte-stable.
    """
    designs: List[Tuple[str, BistController]] = [
        (
            "Microcode-Based",
            MicrocodeBistController(
                library.MARCH_C, capabilities, storage_cell=storage_cell
            ),
        ),
        (
            "Prog. FSM-Based",
            ProgrammableFsmBistController(library.MARCH_C, capabilities),
        ),
    ]
    for test in library.PAPER_BASELINES:
        designs.append(
            (test.name, HardwiredBistController(test, capabilities))
        )
    if include_prt:
        from repro.prt import PrtConfig, PrtController

        designs.append(
            ("Pseudo-Ring PRT", PrtController(PrtConfig(), capabilities))
        )
    return designs


def table1(
    n_words: int = DEFAULT_GEOMETRY["n_words"],
    tech: Optional[Technology] = None,
    include_prt: bool = False,
) -> List[Table1Row]:
    """Table 1: controller sizes for bit-oriented single-port memories."""
    capabilities = ControllerCapabilities(n_words=n_words, width=1, ports=1)
    return [
        _row(controller, name, tech)
        for name, controller in _designs(
            capabilities, include_prt=include_prt
        )
    ]


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: word-oriented and multiport extensions."""

    method: str
    word_ge: float
    word_um2: float
    multiport_ge: float
    multiport_um2: float


def table2(
    n_words: int = DEFAULT_GEOMETRY["n_words"],
    width: int = WORD_WIDTH,
    ports: int = MULTIPORT_PORTS,
    tech: Optional[Technology] = None,
    include_prt: bool = False,
) -> List[Table2Row]:
    """Table 2: the same designs extended for word-oriented and
    multiport memories (two configurations per row, as in the paper)."""
    word_caps = ControllerCapabilities(n_words=n_words, width=width, ports=1)
    multi_caps = ControllerCapabilities(n_words=n_words, width=1, ports=ports)
    rows: List[Table2Row] = []
    word_rows = {
        n: _row(c, n, tech)
        for n, c in _designs(word_caps, include_prt=include_prt)
    }
    multi_rows = {
        n: _row(c, n, tech)
        for n, c in _designs(multi_caps, include_prt=include_prt)
    }
    for name in word_rows:
        rows.append(
            Table2Row(
                method=name,
                word_ge=word_rows[name].gate_equivalents,
                word_um2=word_rows[name].area_um2,
                multiport_ge=multi_rows[name].gate_equivalents,
                multiport_um2=multi_rows[name].area_um2,
            )
        )
    return rows


@dataclass(frozen=True)
class Table3Row:
    """One row of Table 3: the scan-only storage redesign."""

    configuration: str
    gate_equivalents: float
    area_um2: float
    baseline_ge: float
    reduction_percent: float


def table3(
    n_words: int = DEFAULT_GEOMETRY["n_words"],
    width: int = WORD_WIDTH,
    ports: int = MULTIPORT_PORTS,
    tech: Optional[Technology] = None,
) -> List[Table3Row]:
    """Table 3: microcode controller rebuilt with scan-only storage
    cells, for the bit-oriented, word-oriented and multiport
    configurations; the reduction column compares against the full-scan
    storage of Tables 1/2."""
    configurations = [
        ("Bit-Oriented", ControllerCapabilities(n_words=n_words, width=1, ports=1)),
        ("Word-Oriented", ControllerCapabilities(n_words=n_words, width=width, ports=1)),
        ("Multiport", ControllerCapabilities(n_words=n_words, width=1, ports=ports)),
    ]
    rows: List[Table3Row] = []
    for label, capabilities in configurations:
        adjusted = estimate(
            MicrocodeBistController(
                library.MARCH_C, capabilities, storage_cell="scan_only"
            ).hardware(),
            tech or IBM_CMOS5S,
        )
        baseline = estimate(
            MicrocodeBistController(
                library.MARCH_C, capabilities, storage_cell="scan_dff"
            ).hardware(),
            tech or IBM_CMOS5S,
        )
        reduction = 100.0 * (
            1.0 - adjusted.gate_equivalents / baseline.gate_equivalents
        )
        rows.append(
            Table3Row(
                configuration=label,
                gate_equivalents=adjusted.gate_equivalents,
                area_um2=adjusted.area_um2,
                baseline_ge=baseline.gate_equivalents,
                reduction_percent=reduction,
            )
        )
    return rows
