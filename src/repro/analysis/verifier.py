"""Verifier entry points: run the full analysis pipeline on a program.

The programmable architectures accept arbitrary user-supplied programs
at test time, so a malformed program can hang the controller or
silently lose coverage — failure modes the hardwired baselines cannot
have.  :func:`verify_program` rejects such programs *before* anything
runs: it builds the control-flow graph, abstractly interprets the
controller (proving termination and an exact cycle bound), and applies
the rule catalogue; :func:`verify_march` lints an algorithm before it
is even assembled.

Wired in at three layers:

* :func:`repro.core.microcode.assembler.assemble` verifies by default
  and raises :class:`VerificationError` on error-severity findings;
* :class:`repro.core.microcode.controller.MicrocodeBistController`
  verifies every program load;
* the ``repro lint`` CLI subcommand prints the full report.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.march_rules import run_march_rules
from repro.core.controller import ControllerCapabilities
from repro.core.microcode.assembler import AssemblyError, MicrocodeProgram
from repro.core.progfsm.compiler import FsmProgram
from repro.march.test import MarchTest


class VerificationError(AssemblyError):
    """A program failed static verification with error-severity findings.

    Attributes:
        report: the full :class:`DiagnosticReport`.
    """

    def __init__(self, report: DiagnosticReport) -> None:
        self.report = report
        errors = report.errors
        detail = "; ".join(str(d) for d in errors[:3])
        if len(errors) > 3:
            detail += f"; … {len(errors) - 3} more"
        super().__init__(
            f"program {report.name!r} failed verification with "
            f"{len(errors)} error(s): {detail}"
        )


def verify_program(
    program: MicrocodeProgram,
    capabilities: Optional[ControllerCapabilities] = None,
    storage_rows: Optional[int] = None,
) -> DiagnosticReport:
    """Statically verify a microcode program.

    Args:
        program: the program to analyse.
        capabilities: target controller geometry; enables the
            capability-mismatch rules and the termination/cycle-bound
            proof (which needs the background and port counts).
        storage_rows: explicit storage depth Z to check the program
            against; ``None`` assumes the controller's auto-sizing.

    Returns:
        The diagnostic report (program rules plus march-level rules on
        the program's source algorithm, when it carries one).
    """
    # The rule families import where they run: the abstract
    # interpreters load the controller walks, which the coverage lint
    # never needs.
    from repro.analysis.cfg import build_cfg
    from repro.analysis.interpreter import interpret
    from repro.analysis.rules import ProgramAnalysis, run_program_rules

    cfg = build_cfg(program)
    interpretation = (
        interpret(program, capabilities, storage_rows=storage_rows)
        if capabilities is not None
        else None
    )
    analysis = ProgramAnalysis(
        program=program,
        cfg=cfg,
        interpretation=interpretation,
        capabilities=capabilities,
        storage_rows=storage_rows,
    )
    report = DiagnosticReport(name=program.name)
    report.extend(run_program_rules(analysis))
    if program.source is not None:
        report.extend(run_march_rules(program.source, target="microcode"))
    return report


def verify_fsm_program(
    program: FsmProgram,
    capabilities: Optional[ControllerCapabilities] = None,
    buffer_rows: Optional[int] = None,
) -> DiagnosticReport:
    """Statically verify an upper-buffer (programmable FSM) program.

    The progfsm mirror of :func:`verify_program`: builds the row-level
    control-flow graph, abstractly interprets the upper controller
    (termination + exact trace-cycle proof), and applies the ``PF``
    rule catalogue plus the march-level rules on the program's source
    algorithm.

    Args:
        program: the compiled upper-buffer program.
        capabilities: target controller geometry; enables the
            capability/loop-row rules and the termination proof.
        buffer_rows: explicit circular-buffer depth to check the program
            against; ``None`` checks the default depth advisorily (the
            buffer never auto-grows, but a deeper one can be built).
    """
    from repro.analysis.progfsm_cfg import build_fsm_cfg, interpret_fsm
    from repro.analysis.progfsm_rules import (
        FsmProgramAnalysis,
        run_fsm_rules,
    )

    cfg = build_fsm_cfg(program)
    interpretation = (
        interpret_fsm(program, capabilities)
        if capabilities is not None
        else None
    )
    analysis = FsmProgramAnalysis(
        program=program,
        cfg=cfg,
        interpretation=interpretation,
        capabilities=capabilities,
        buffer_rows=buffer_rows,
    )
    report = DiagnosticReport(name=program.name)
    report.extend(run_fsm_rules(analysis))
    if program.source is not None:
        report.extend(run_march_rules(program.source, target="progfsm"))
    return report


def verify_march(
    test: MarchTest, target: Optional[str] = "microcode"
) -> DiagnosticReport:
    """Lint a march algorithm before assembly/compilation.

    Args:
        test: the algorithm.
        target: ``"microcode"``, ``"progfsm"`` or ``None`` — controls
            target-dependent severities (see
            :mod:`repro.analysis.march_rules`).
    """
    report = DiagnosticReport(name=test.name)
    report.extend(run_march_rules(test, target=target))
    return report


def verify_coverage(test: MarchTest) -> DiagnosticReport:
    """Lint a march algorithm's *fault coverage* statically.

    Certifies the test with the coverage prover over the full standard
    universe on the lint geometry and reports every proved escape
    (``CV`` rules; see :mod:`repro.analysis.coverage_rules`).
    """
    from repro.analysis.coverage_rules import run_coverage_rules

    report = DiagnosticReport(name=test.name)
    report.extend(run_coverage_rules(test))
    return report


def assert_verified(
    program_or_test: Union[MicrocodeProgram, FsmProgram, MarchTest],
    capabilities: Optional[ControllerCapabilities] = None,
    storage_rows: Optional[int] = None,
) -> DiagnosticReport:
    """Verify and raise :class:`VerificationError` on errors."""
    if isinstance(program_or_test, MarchTest):
        report = verify_march(program_or_test)
    elif isinstance(program_or_test, FsmProgram):
        report = verify_fsm_program(
            program_or_test, capabilities, buffer_rows=storage_rows
        )
    else:
        report = verify_program(
            program_or_test, capabilities, storage_rows=storage_rows
        )
    report.raise_on_errors()
    return report
