"""Markdown datasheet generation for a BIST configuration.

``python -m repro report`` (or :func:`datasheet`) renders everything a
reviewer or integrator asks about one configuration into a single
document: geometry, the loaded algorithm and its program listing, the
measured fault coverage, the silicon-area breakdown, and the flexibility
statement for the chosen architecture.
"""

from __future__ import annotations

from typing import List, Optional

import repro.core
from repro.area.estimator import estimate
from repro.core.controller import (
    CONTROLLER_CLASSES,
    BistController,
    ControllerCapabilities,
)
from repro.core.microcode import MicrocodeBistController
from repro.core.microcode.disassembler import disassemble
from repro.core.progfsm import ProgrammableFsmBistController
from repro.eval.coverage_study import COVERAGE_COLUMNS, coverage_table
from repro.march import format_test
from repro.march.test import MarchTest


def _program_section(controller: BistController) -> List[str]:
    if isinstance(controller, MicrocodeBistController):
        lines = ["## Microcode program", "", "```"]
        lines.extend(disassemble(controller.program).splitlines())
        lines.append("```")
        return lines
    if isinstance(controller, ProgrammableFsmBistController):
        lines = ["## SM instruction program", "", "```"]
        for index, instruction in enumerate(controller.program.instructions):
            lines.append(f"{index:3d}: {instruction}")
        lines.append("```")
        return lines
    graph = controller.graph
    return [
        "## Hardwired FSM",
        "",
        f"{graph.state_count} states ({graph.state_bits}-bit state register); "
        "any algorithm change requires re-synthesis.",
    ]


def datasheet(
    controller: BistController,
    coverage_words: int = 8,
    title: Optional[str] = None,
) -> str:
    """Render a markdown datasheet for a configured controller.

    Args:
        controller: the BIST controller to document.
        coverage_words: array size for the coverage measurement sweep.
        title: heading override; defaults to architecture + algorithm.
    """
    caps = controller.capabilities
    test = controller.loaded_test()
    report = estimate(controller.hardware())

    lines: List[str] = [
        f"# {title or f'{controller.architecture} MBIST — {test.name}'}",
        "",
        "## Configuration",
        "",
        f"- architecture: **{controller.architecture}** "
        f"(flexibility {controller.flexibility.value})",
        f"- memory under test: {caps.n_words} words × {caps.width} bit(s), "
        f"{caps.ports} port(s)",
        f"- algorithm: **{test.name}** ({test.complexity})",
        f"- notation: `{format_test(test)}`",
        "",
    ]
    lines.extend(_program_section(controller))
    lines.extend([
        "",
        "## Measured fault coverage",
        "",
        "| class | coverage |",
        "|---|---:|",
    ])
    rows = coverage_table(n_words=coverage_words, algorithms=(test.name,))
    for column in COVERAGE_COLUMNS:
        percent = rows[0].percent(column)
        cell = "n/a (0/0)" if percent is None else f"{percent:.0f} %"
        lines.append(f"| {column} | {cell} |")
    lines.append(f"| **overall** | **{rows[0].overall:.1f} %** |")
    lines.extend([
        "",
        "## Silicon area",
        "",
        f"Total: **{report.gate_equivalents:.0f} GE** "
        f"({report.area_um2:.0f} µm², {report.technology})",
        "",
        "| block | GE | share |",
        "|---|---:|---:|",
    ])
    for name, ge in report.breakdown:
        share = 100.0 * ge / report.gate_equivalents
        lines.append(f"| {name} | {ge:.1f} | {share:.1f} % |")
    lines.append("")
    return "\n".join(lines) + "\n"


def build_controller(
    architecture: str,
    test: MarchTest,
    capabilities: ControllerCapabilities,
) -> BistController:
    """Controller factory of the datasheet command."""
    if architecture not in CONTROLLER_CLASSES:
        raise ValueError(
            f"unknown architecture {architecture!r}; "
            f"known: {sorted(CONTROLLER_CLASSES)}"
        )
    controller_class = getattr(repro.core, CONTROLLER_CLASSES[architecture])
    return controller_class(test, capabilities)
