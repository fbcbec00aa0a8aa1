"""Verifier entry points: run the full analysis pipeline on a program.

The programmable architectures accept arbitrary user-supplied programs
at test time, so a malformed program can hang the controller or
silently lose coverage — failure modes the hardwired baselines cannot
have.  :func:`verify_program` rejects such programs *before* anything
runs, microcode and upper-buffer programs alike: it builds the
control-flow graph, abstractly interprets the controller (proving
termination and an exact cycle bound), and applies the rule catalogue;
:func:`verify_march` lints an algorithm before it is even assembled.

Wired in at three layers:

* :func:`repro.core.microcode.assembler.assemble` and
  :func:`repro.core.progfsm.compiler.compile_to_sm` verify by default
  and raise :class:`VerificationError` on error-severity findings;
* both programmable controllers verify every program load;
* the ``repro lint`` CLI subcommand prints the full report.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.analysis.diagnostics import DiagnosticReport
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
    program: Union[MicrocodeProgram, FsmProgram],
    capabilities: Optional[ControllerCapabilities] = None,
    rows: Optional[int] = None,
) -> DiagnosticReport:
    """Statically verify a microcode or upper-buffer program.

    Builds the program's control-flow graph, walks the collapsed
    controller (termination + exact cycle proof) and applies the
    program rules — ``MC…`` for microcode, ``PF…`` for the programmable
    FSM — plus the march-level rules on the program's source algorithm.

    Args:
        program: a :class:`MicrocodeProgram` or an :class:`FsmProgram`.
        capabilities: target controller geometry; enables the
            capability rules and the termination/cycle-bound proof
            (which needs the background and port counts).
        rows: explicit storage (microcode) or circular-buffer (progfsm)
            depth to check the program against; ``None`` assumes the
            default — the microcode storage auto-grows, the buffer does
            not, so an oversized upper-buffer program only warns.

    Returns:
        The diagnostic report; with ``capabilities`` it carries the
        walk of the proof as ``report.walk``.
    """
    # The rule families import where they run: the abstract
    # interpreters load the controller walks, which the coverage lint
    # never needs.
    from repro.analysis.cfg import build_cfg, build_fsm_cfg
    from repro.analysis.interpreter import interpret, interpret_fsm
    from repro.analysis.rules import ProgramAnalysis, run_rules

    walk = None
    if isinstance(program, FsmProgram):
        scope, target, cfg = "fsm", "progfsm", build_fsm_cfg(program)
        if capabilities is not None:
            walk = interpret_fsm(program, capabilities)
    else:
        scope, target, cfg = "program", "microcode", build_cfg(program)
        if capabilities is not None:
            walk = interpret(program, capabilities, storage_rows=rows)
    analysis = ProgramAnalysis(program, cfg, walk, capabilities, rows)
    report = DiagnosticReport(name=program.name, walk=walk)
    report.extend(run_rules(scope, analysis))
    if program.source is not None:
        report.extend(run_rules("march", program.source, target))
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
    from repro.analysis.rules import run_rules

    report = DiagnosticReport(name=test.name)
    report.extend(run_rules("march", test, target))
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
    rows: Optional[int] = None,
) -> DiagnosticReport:
    """Verify and raise :class:`VerificationError` on errors."""
    if isinstance(program_or_test, MarchTest):
        report = verify_march(program_or_test)
    else:
        report = verify_program(program_or_test, capabilities, rows)
    report.raise_on_errors()
    return report
