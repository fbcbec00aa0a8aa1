"""Upper-buffer-program lint rules (``PF…``).

These run on compiled :class:`~repro.core.progfsm.compiler.FsmProgram`
rows, through the same :class:`~repro.analysis.rules.ProgramAnalysis`
as the microcode ``MC…`` catalogue, which they mirror where the
architectures share a failure mode:

* ``PF003`` is the buffer-overflow analogue of ``MC007`` — with the
  difference that the circular buffer never auto-grows, so overflowing
  an explicitly-sized buffer is fatal while overflowing the *default*
  depth is a warning (a deeper buffer could still be built);
* ``PF002``/``PF007`` mirror ``MC010``/``MC011`` (termination verdicts
  from the abstract interpreter);
* ``PF004``/``PF005`` mirror ``MC009``/``MC008`` (capability/loop-row
  agreement) — with progfsm-specific severities, because a stray loop
  row degrades gracefully here instead of needing absent hardware.

``docs/ANALYSIS.md`` documents the catalogue; the test suite seeds one
defect per rule to prove each fires with the right id and location.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.analysis.rules import ProgramAnalysis, rule
from repro.core.progfsm.instruction import DataControl
from repro.core.progfsm.upper_buffer import DEFAULT_ROWS
from repro.core.walk import Verdict


@rule("PF001", Severity.WARNING, "unreachable buffer row", scope="fsm")
def _unreachable_row(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """Rows the pointer can never reach — e.g. anything after a
    ``LOOP_PORT`` row, which either wraps to row 0 or ends the test."""
    for index in analysis.cfg.unreachable():
        yield (
            Location(instruction=index),
            f"buffer row {index} "
            f"({analysis.program.instructions[index]}) can never execute",
            "remove the dead row or fix the loop rows before it",
        )


@rule("PF002", Severity.ERROR, "program provably never terminates",
      scope="fsm")
def _nonterminating(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    walk = analysis.walk
    if walk is not None and walk.verdict is Verdict.DIVERGES:
        yield (
            Location(instruction=walk.location),
            f"abstract interpretation proves divergence: {walk.reason}",
            "keep at most one LOOP_BG row, placed after the element rows",
        )


@rule("PF003", Severity.ERROR, "program exceeds the circular buffer",
      scope="fsm")
def _buffer_overflow(analysis: ProgramAnalysis) -> Iterator:
    """The MC007 analogue.  Unlike the microcode storage unit the
    circular buffer never auto-grows — ``CircularBuffer.load`` rejects
    an oversized program outright — so an explicit buffer depth makes
    this fatal, while the default depth only warns (a controller with a
    deeper buffer could still run the program)."""
    rows = len(analysis.program.instructions)
    if analysis.rows is not None:
        if rows > analysis.rows:
            yield (
                Location(instruction=analysis.rows),
                f"program needs {rows} rows but the circular buffer holds "
                f"{analysis.rows}",
                "enlarge the buffer or shorten the algorithm",
            )
    elif rows > DEFAULT_ROWS:
        yield Diagnostic(
            rule="PF003",
            severity=Severity.WARNING,
            message=(f"program needs {rows} rows, beyond the default "
                     f"{DEFAULT_ROWS}-row buffer — the default controller "
                     "build cannot load it"),
            location=Location(instruction=DEFAULT_ROWS),
            hint=f"construct the controller with buffer_rows >= {rows}",
        )


@rule("PF004", Severity.WARNING, "capability loop row missing from the tail",
      scope="fsm")
def _missing_capability_loop(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    caps = analysis.capabilities
    if caps is None:
        return
    ctrls = {instr.data_ctrl for instr in analysis.program.instructions}
    tail = Location(
        instruction=max(0, len(analysis.program.instructions) - 1)
    )
    if caps.word_oriented and DataControl.LOOP_BG not in ctrls:
        yield (
            tail,
            f"width={caps.width} memory but no LOOP_BG row: only the first "
            "data background is ever tested",
            "append a LOOP_BG (path A) row after the element rows",
        )
    if caps.multiport and DataControl.LOOP_PORT not in ctrls:
        yield (
            tail,
            f"ports={caps.ports} memory but no LOOP_PORT row: only port 0 "
            "is ever tested",
            "append a LOOP_PORT (path B) row as the last buffer row",
        )


@rule("PF005", Severity.WARNING, "loop row without matching capability",
      scope="fsm")
def _pointless_loop_row(analysis: ProgramAnalysis) -> Iterator:
    """The MC008 analogue, softened: the shared datapath always exists,
    so a mismatched loop row degrades instead of failing.  A ``LOOP_BG``
    on a bit-oriented target never takes path A (one background, *Last
    Data* is always asserted) — a dead loop worth a warning; a
    ``LOOP_PORT`` on a single-port target ends the test at first reach,
    i.e. it acts as a plain terminator — merely advisory."""
    caps = analysis.capabilities
    if caps is None:
        return
    for index, instr in enumerate(analysis.program.instructions):
        if instr.data_ctrl is DataControl.LOOP_BG and not caps.word_oriented:
            yield (
                Location(instruction=index),
                f"LOOP_BG row {index} on a width={caps.width} target: one "
                "data background, path A is never taken",
                "drop the LOOP_BG row or target a word-oriented memory",
            )
        if instr.data_ctrl is DataControl.LOOP_PORT and not caps.multiport:
            yield Diagnostic(
                rule="PF005",
                severity=Severity.INFO,
                message=(f"LOOP_PORT row {index} on a single-port target "
                         "ends the test at first reach (a plain "
                         "terminator)"),
                location=Location(instruction=index),
                hint="drop the LOOP_PORT row or target a multiport memory",
            )


@rule("PF006", Severity.INFO, "hold bit on a loop row is ignored",
      scope="fsm")
def _hold_on_loop_row(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """Loop rows are handled by the upper controller directly; the lower
    FSM — and with it the hold-in-DONE pause — never runs for them."""
    for index, instr in enumerate(analysis.program.instructions):
        if not instr.is_element and instr.hold:
            yield (
                Location(instruction=index),
                f"row {index} ({instr}) sets the hold bit, but loop rows "
                "never enter the lower FSM's Done state — no pause happens",
                "move the hold bit onto the following element row",
            )


@rule("PF007", Severity.WARNING, "control flow defeats static analysis",
      scope="fsm")
def _unanalyzable(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    walk = analysis.walk
    if walk is not None and walk.verdict is Verdict.UNKNOWN:
        yield (
            Location(instruction=walk.location),
            f"cannot bound the cycle count: {walk.reason}",
            "shorten the program so the row x background x port state "
            "space fits the abstract-step budget",
        )
