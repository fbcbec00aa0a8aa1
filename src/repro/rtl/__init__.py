"""Synthesisable-RTL export of the BIST designs.

The paper's controllers are silicon blocks; this package emits them as
Verilog-2001 so a downstream user can drop them into a DFT flow:

* :func:`~repro.rtl.verilog.hardwired_controller_verilog` — a hardwired
  controller's FSM, generated from the *same* state graph the Python
  simulator executes (one case arm per state, conditions on the datapath
  status flags);
* :func:`~repro.rtl.verilog.microcode_rom_verilog` — the microcode
  storage unit as a ROM with its image in ``$readmemh`` format
  (:func:`~repro.rtl.verilog.program_memh`);
* :func:`~repro.rtl.verilog.check_verilog_structure` — a structural
  linter (balanced constructs, declared identifiers) used by the test
  suite; no external simulator is assumed in this environment, so
  behavioural equivalence is carried by construction (the emitter walks
  ``step_signals`` output rows) plus the structural checks;
* :func:`~repro.rtl.readback.rom_readback` /
  :func:`~repro.rtl.readback.verify_rom_image` — decode an exported
  ``$readmemh`` image back to a
  :class:`~repro.core.microcode.assembler.MicrocodeProgram` and check
  the round trip is bit-exact (``repro lint --target rtl``).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.rtl.readback": [
        "ReadbackError", "rom_readback", "verify_rom_image",
    ],
    "repro.rtl.verilog": [
        "check_verilog_structure", "hardwired_controller_verilog",
        "lower_fsm_verilog", "microcode_decoder_verilog",
        "microcode_rom_verilog", "program_memh", "sop_module_verilog",
    ],
    "repro.rtl.vcd": ["microcode_trace_vcd", "samples_to_vcd"],
})

__all__ = [
    "ReadbackError",
    "check_verilog_structure",
    "hardwired_controller_verilog",
    "lower_fsm_verilog",
    "microcode_decoder_verilog",
    "microcode_rom_verilog",
    "microcode_trace_vcd",
    "program_memh",
    "rom_readback",
    "samples_to_vcd",
    "sop_module_verilog",
    "verify_rom_image",
]
