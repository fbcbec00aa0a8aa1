"""Test-time accounting: operations and wall-clock per algorithm.

Production test time is money; this module converts operation counts
into tester seconds at a BIST clock and tabulates the library (plus the
classical O(N²) tests for contrast) across memory sizes — the numbers a
test engineer trades against the coverage matrix when building a stage
plan.

Controller-cycle numbers come in two interchangeable flavours:
*simulated* (count the cycle-accurate trace, O(N·ops)) and *analytic*
(the static analysis' exact proved cycle count, O(program rows) — usable
at geometries far too large to simulate).  The fuzz harness and the test
suite hold the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.classic import galpat_op_count, walking_op_count
from repro.march import library
from repro.march.simulator import operation_count
from repro.march.test import MarchTest

#: Default BIST clock for wall-clock conversion (a modest embedded
#: memory clock for the paper's 0.35 µm era).
DEFAULT_CLOCK_MHZ = 100.0


@dataclass(frozen=True)
class TestTimeRow:
    """Test time of one algorithm at one geometry.

    Attributes:
        algorithm: algorithm name.
        operations: total memory operations (pauses excluded; their idle
            time is reported separately).
        pause_time_units: retention idle time (march pauses).
        milliseconds: wall clock at the configured BIST clock, one
            operation per cycle plus the pause idle cycles.
    """

    algorithm: str
    operations: int
    pause_time_units: int
    milliseconds: float


def march_test_time(
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
) -> TestTimeRow:
    """Test time of one march algorithm at one geometry."""
    from repro.march.backgrounds import background_count

    operations = operation_count(test, n_words, width, ports)
    repeats = background_count(width) * ports
    pause_units = sum(pause.duration for pause in test.pauses) * repeats
    cycles = operations + pause_units
    milliseconds = cycles / (clock_mhz * 1e3)
    return TestTimeRow(
        algorithm=test.name,
        operations=operations - repeats * len(test.pauses),
        pause_time_units=pause_units,
        milliseconds=milliseconds,
    )


def test_time_table(
    n_words: int,
    width: int = 1,
    ports: int = 1,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
    algorithms: Optional[Sequence[str]] = None,
    include_classical: bool = True,
) -> List[TestTimeRow]:
    """Test-time rows for the library (and the classical tests)."""
    names = algorithms or [
        "MATS++", "March C", "PMOVI", "March LR", "March A",
        "March C+", "March C++", "March A++",
    ]
    rows = [
        march_test_time(library.get(name), n_words, width, ports, clock_mhz)
        for name in names
    ]
    if include_classical:
        for label, count in (
            ("Walking 1/0", 2 * walking_op_count(n_words, ports)),
            ("GALPAT", galpat_op_count(n_words, ports)),
        ):
            rows.append(
                TestTimeRow(
                    algorithm=label,
                    operations=count,
                    pause_time_units=0,
                    milliseconds=count / (clock_mhz * 1e3),
                )
            )
    return rows


@dataclass(frozen=True)
class ControllerCycleRow:
    """Exact controller cycles of one algorithm on one architecture.

    Attributes:
        algorithm: algorithm name.
        architecture: ``"microcode"`` or ``"progfsm"``.
        cycles: exact controller trace cycles (proved or simulated).
        milliseconds: wall clock at the configured BIST clock.
    """

    algorithm: str
    architecture: str
    cycles: int
    milliseconds: float


def controller_cycles(
    test: MarchTest,
    n_words: int,
    width: int = 1,
    ports: int = 1,
    architecture: str = "microcode",
    analytic: bool = True,
) -> int:
    """Exact controller cycle count for one algorithm/geometry pair.

    Args:
        analytic: ``True`` asks the abstract interpreter for its proved
            cycle count — O(program rows), independent of memory size;
            ``False`` counts the cycle-accurate trace — O(N·ops).  The
            two are equal (asserted by the test suite and fuzzed by
            ``repro fuzz``).

    Raises:
        ValueError: when the interpreter cannot prove termination, or
            ``architecture`` is unknown.
        CompileError: progfsm architecture, algorithm outside SM0-SM7.
    """
    from repro.core.controller import ControllerCapabilities

    caps = ControllerCapabilities(n_words=n_words, width=width, ports=ports)
    if architecture == "microcode":
        from repro.analysis.interpreter import Verdict, interpret
        from repro.core.microcode.assembler import assemble
        from repro.core.microcode.controller import MicrocodeBistController

        program = assemble(test, caps, verify=False)
        if analytic:
            interp = interpret(program, caps)
            if interp.verdict is not Verdict.TERMINATES:
                raise ValueError(
                    f"{test.name}: no analytic cycle count — "
                    f"{interp.verdict.value} ({interp.reason})"
                )
            return interp.cycles
        controller = MicrocodeBistController(program, caps, verify=False)
        return sum(1 for _ in controller.trace())
    if architecture == "progfsm":
        from repro.analysis.interpreter import Verdict
        from repro.analysis.progfsm_cfg import interpret_fsm
        from repro.core.progfsm.compiler import compile_to_sm
        from repro.core.progfsm.controller import (
            ProgrammableFsmBistController,
        )
        from repro.core.progfsm.upper_buffer import DEFAULT_ROWS

        program = compile_to_sm(test, caps, verify=False)
        if analytic:
            interp = interpret_fsm(program, caps)
            if interp.verdict is not Verdict.TERMINATES:
                raise ValueError(
                    f"{test.name}: no analytic cycle count — "
                    f"{interp.verdict.value} ({interp.reason})"
                )
            return interp.cycles
        controller = ProgrammableFsmBistController(
            program, caps,
            buffer_rows=max(DEFAULT_ROWS, len(program)), verify=False,
        )
        return sum(1 for _ in controller.trace())
    raise ValueError(f"unknown architecture {architecture!r}")


def controller_cycle_table(
    n_words: int,
    width: int = 1,
    ports: int = 1,
    clock_mhz: float = DEFAULT_CLOCK_MHZ,
    algorithms: Optional[Sequence[str]] = None,
    analytic: bool = True,
) -> List[ControllerCycleRow]:
    """Controller-cycle rows for both programmable architectures.

    Algorithms outside the SM0–SM7 library get no progfsm row (the
    architecture's flexibility boundary); every algorithm gets a
    microcode row.
    """
    from repro.core.progfsm.compiler import is_realizable

    names = algorithms or [
        "MATS++", "March C", "PMOVI", "March LR", "March A",
        "March C+", "March C++", "March A++",
    ]
    rows: List[ControllerCycleRow] = []
    for name in names:
        test = library.get(name)
        for architecture in ("microcode", "progfsm"):
            if architecture == "progfsm" and not is_realizable(test):
                continue
            cycles = controller_cycles(
                test, n_words, width, ports,
                architecture=architecture, analytic=analytic,
            )
            rows.append(
                ControllerCycleRow(
                    algorithm=name,
                    architecture=architecture,
                    cycles=cycles,
                    milliseconds=cycles / (clock_mhz * 1e3),
                )
            )
    return rows


def render_controller_cycles(
    rows: List[ControllerCycleRow], n_words: int, analytic: bool = True
) -> str:
    """Text table of a controller-cycle sweep."""
    method = "proved analytically" if analytic else "simulated"
    lines = [
        f"Controller cycles at {n_words} words ({method}, "
        f"{DEFAULT_CLOCK_MHZ:.0f} MHz BIST clock)",
        f"{'algorithm':<12} {'architecture':<12} {'cycles':>12} "
        f"{'time':>12}",
    ]
    for row in rows:
        if row.milliseconds >= 1000:
            time_text = f"{row.milliseconds / 1000:.2f} s"
        elif row.milliseconds >= 1:
            time_text = f"{row.milliseconds:.2f} ms"
        else:
            time_text = f"{row.milliseconds * 1000:.1f} us"
        lines.append(
            f"{row.algorithm:<12} {row.architecture:<12} "
            f"{row.cycles:>12} {time_text:>12}"
        )
    return "\n".join(lines)


def render_test_time(rows: List[TestTimeRow], n_words: int) -> str:
    """Text table of a test-time sweep."""
    lines = [
        f"Test time at {n_words} words "
        f"({DEFAULT_CLOCK_MHZ:.0f} MHz BIST clock)",
        f"{'algorithm':<12} {'operations':>12} {'pause units':>12} "
        f"{'time':>12}",
    ]
    for row in rows:
        if row.milliseconds >= 1000:
            time_text = f"{row.milliseconds / 1000:.2f} s"
        elif row.milliseconds >= 1:
            time_text = f"{row.milliseconds:.2f} ms"
        else:
            time_text = f"{row.milliseconds * 1000:.1f} us"
        lines.append(
            f"{row.algorithm:<12} {row.operations:>12} "
            f"{row.pause_time_units:>12} {time_text:>12}"
        )
    return "\n".join(lines)
