"""Silicon-area model for BIST controller comparison.

Reproduces the paper's evaluation methodology in structural form: each
controller describes itself as an inventory of registers, counters,
muxes and synthesised combinational blocks
(:class:`~repro.area.components.HardwareSpec`); the estimator costs the
inventory in 2-input-NAND gate equivalents and converts to µm² through a
technology library calibrated to the paper's IBM CMOS5S 0.35 µm process.

FSM next-state/output logic is genuinely synthesised: truth tables are
two-level minimised with the Quine–McCluskey implementation in
:mod:`~repro.area.logic_min` and costed by literal count, so hardwired
controller area really does grow with algorithm complexity, exactly the
trend Tables 1–3 demonstrate.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.area.technology": ["IBM_CMOS5S", "Technology"],
    "repro.area.components": [
        "Comparator", "Counter", "Decoder", "HardwareSpec", "LogicBlock",
        "Mux", "Register", "XorArray",
    ],
    "repro.area.logic_min": [
        "TruthTable", "minimize_sop", "sop_gate_equivalents",
    ],
    "repro.area.estimator": ["AreaReport", "estimate"],
    "repro.area.report": ["format_breakdown"],
})

__all__ = [
    "AreaReport",
    "Comparator",
    "Counter",
    "Decoder",
    "HardwareSpec",
    "IBM_CMOS5S",
    "LogicBlock",
    "Mux",
    "Register",
    "Technology",
    "TruthTable",
    "XorArray",
    "estimate",
    "format_breakdown",
    "minimize_sop",
    "sop_gate_equivalents",
]
