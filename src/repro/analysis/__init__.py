"""Static verification and linting of BIST programs.

The paper's point is *programmability*: microcode words and upper-buffer
instructions are loaded at test time, so — unlike the hardwired
baselines — a malformed program can hang the controller or silently
lose fault coverage.  This package rejects bad programs before they run:

* :mod:`~repro.analysis.cfg` — one control-flow graph for both
  programmable controllers, with a builder each: microcode edges from
  the instruction-decoder semantics, upper-buffer edges from the
  programmable FSM's loop rows and buffer wrap;
* :mod:`~repro.analysis.interpreter` — abstract interpretation over the
  collapsed controller state, *deciding* termination and computing the
  exact cycle count without running the simulator; the result is the
  :class:`~repro.core.walk.Walk` itself;
* :mod:`~repro.analysis.rules` / :mod:`~repro.analysis.march_rules` /
  :mod:`~repro.analysis.progfsm_rules` — the rule catalogue (``MC…``
  program rules, ``MA…`` algorithm rules, ``PF…`` upper-buffer rules;
  see ``docs/ANALYSIS.md``), one analysis record for both program kinds
  and one rule runner for every family;
* :mod:`~repro.analysis.coverage` — the static fault-coverage prover
  (per-fault certificates with failing-read witnesses) and
  :mod:`~repro.analysis.coverage_rules`, the ``CV…`` coverage lint
  family it powers;
* :mod:`~repro.analysis.fixes` — mechanical autofixes behind
  ``repro lint --fix``;
* :mod:`~repro.analysis.fuzz` — the verifier-vs-simulator fuzz harness
  behind ``repro fuzz``;
* :mod:`~repro.analysis.verifier` — orchestration (one
  :func:`~repro.analysis.verifier.verify_program` for both program
  kinds) plus :class:`~repro.analysis.verifier.VerificationError`,
  raised by the assembler, the progfsm compiler, the controllers'
  program loads and ``repro lint`` on error-severity findings.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.analysis.cfg": [
        "EXIT", "ControlFlowGraph", "Edge", "EdgeKind", "build_cfg",
        "build_fsm_cfg",
    ],
    "repro.analysis.diagnostics": [
        "Diagnostic", "DiagnosticReport", "Location", "Severity",
    ],
    "repro.analysis.coverage": [
        "CoverageCertificate", "FaultVerdict", "certify", "support_of",
    ],
    "repro.analysis.coverage_rules": [
        "CoverageAnalysis", "LINT_GEOMETRY", "run_coverage_rules",
    ],
    "repro.analysis.fixes": ["FixResult", "apply_fixes"],
    "repro.analysis.fuzz": [
        "FuzzReport", "SampleResult", "check_sample", "random_geometry",
        "random_march", "run_fuzz",
    ],
    "repro.analysis.interpreter": ["interpret", "interpret_fsm"],
    "repro.analysis.rules": [
        "ProgramAnalysis", "RuleSpec", "rule_catalogue", "run_rules",
    ],
    "repro.analysis.verifier": [
        "VerificationError", "assert_verified", "verify_coverage",
        "verify_march", "verify_program",
    ],
    "repro.core.walk": ["Verdict"],
})

__all__ = [
    "ControlFlowGraph",
    "CoverageAnalysis",
    "CoverageCertificate",
    "Diagnostic",
    "DiagnosticReport",
    "Edge",
    "EdgeKind",
    "EXIT",
    "FixResult",
    "FaultVerdict",
    "FuzzReport",
    "LINT_GEOMETRY",
    "Location",
    "ProgramAnalysis",
    "RuleSpec",
    "SampleResult",
    "Severity",
    "Verdict",
    "VerificationError",
    "apply_fixes",
    "assert_verified",
    "build_cfg",
    "build_fsm_cfg",
    "certify",
    "check_sample",
    "interpret",
    "interpret_fsm",
    "random_geometry",
    "random_march",
    "rule_catalogue",
    "run_coverage_rules",
    "run_fuzz",
    "run_rules",
    "support_of",
    "verify_coverage",
    "verify_march",
    "verify_program",
]
