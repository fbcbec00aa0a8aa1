"""Rule-based lint engine: registry, runner and the microcode-level rules.

Every rule has a stable identifier (``MC…`` for microcode-program rules,
``MA…`` for march-algorithm rules — those live in
:mod:`repro.analysis.march_rules` — ``PF…`` for the programmable
FSM architecture's upper-buffer programs, in
:mod:`repro.analysis.progfsm_rules`, and ``CV…`` for statically-proved
fault-coverage gaps, in
:mod:`repro.analysis.coverage_rules`), a default severity and a one-line
title; ``docs/ANALYSIS.md`` documents the catalogue and the test suite
seeds one defect per rule to prove each fires with the right id and
location.

A rule is a generator over findings.  It may yield

* a ``(location, message)`` or ``(location, message, hint)`` tuple — the
  engine fills in the rule id and default severity; or
* a complete :class:`~repro.analysis.diagnostics.Diagnostic` — for rules
  whose severity depends on context (e.g. the SM-mappability rule is
  advisory for the microcode target but fatal for the progfsm compiler).

:func:`run_rules` runs one family (its *scope*) in id order; the
``MC`` and ``PF`` families both inspect a :class:`ProgramAnalysis`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.cfg import ControlFlowGraph, exits_explicitly, loop_target
from repro.analysis.diagnostics import Diagnostic, Location, Severity
from repro.core.controller import ControllerCapabilities
from repro.core.microcode.isa import ConditionOp, PAUSE_TIMER_BITS
from repro.core.microcode.storage import DEFAULT_ROWS

if TYPE_CHECKING:  # the walk loads the controller models
    from repro.core.microcode.assembler import MicrocodeProgram
    from repro.core.progfsm.compiler import FsmProgram
    from repro.core.walk import Walk


@dataclass
class ProgramAnalysis:
    """Everything a program-level rule (``MC…`` or ``PF…``) may inspect.

    Attributes:
        program: the microcode or upper-buffer program.
        cfg: its control-flow graph.
        walk: the collapsed walk, or ``None`` without capabilities.
        capabilities: target geometry, if any.
        rows: explicit storage/buffer depth, or ``None`` for the default.
    """

    program: Union[MicrocodeProgram, FsmProgram]
    cfg: ControlFlowGraph
    walk: Optional[Walk]
    capabilities: Optional[ControllerCapabilities] = None
    rows: Optional[int] = None


@dataclass(frozen=True)
class RuleSpec:
    """Registry entry for one lint rule."""

    rule_id: str
    severity: Severity
    title: str
    scope: str                # "program", "march", "fsm", "coverage" or "rtl"
    check: Callable[..., Iterable]

    def build(self, finding) -> Diagnostic:
        if isinstance(finding, Diagnostic):
            return finding
        location, message, *rest = finding
        return Diagnostic(
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            location=location,
            hint=rest[0] if rest else None,
        )


#: All registered rules, by id (each family registers on import).
REGISTRY: Dict[str, RuleSpec] = {}

#: The module that registers each scope's rules.
_FAMILIES: Dict[str, str] = {
    "program": "repro.analysis.rules",
    "march": "repro.analysis.march_rules",
    "fsm": "repro.analysis.progfsm_rules",
    "coverage": "repro.analysis.coverage_rules",
    "rtl": "repro.rtl.readback",
}


def rule(rule_id: str, severity: Severity, title: str, scope: str = "program"):
    """Register a lint rule."""

    def decorate(fn):
        if rule_id in REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        REGISTRY[rule_id] = RuleSpec(rule_id, severity, title, scope, fn)
        return fn

    return decorate


def rule_catalogue() -> List[RuleSpec]:
    """All rules, ordered by id (for docs and the test suite)."""
    for module in _FAMILIES.values():
        importlib.import_module(module)
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


def run_rules(scope: str, *args) -> List[Diagnostic]:
    """Run every rule of ``scope``, in id order, over ``args`` (the
    analysed artifact, plus the target for the march and coverage
    families)."""
    importlib.import_module(_FAMILIES[scope])
    diagnostics: List[Diagnostic] = []
    for spec in sorted(REGISTRY.values(), key=lambda s: s.rule_id):
        if spec.scope == scope:
            diagnostics.extend(spec.build(f) for f in spec.check(*args))
    return diagnostics


# ---------------------------------------------------------------------------
# Microcode-level rules.
# ---------------------------------------------------------------------------


@rule("MC001", Severity.WARNING, "no explicit terminator")
def _missing_terminator(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """The test only ends by exhausting instruction addresses.

    That is legal (the paper's fall-off termination) but fragile: the
    intent is invisible, and appending rows silently extends the test.
    """
    if analysis.program.instructions and not exits_explicitly(analysis.cfg):
        yield (
            Location(instruction=len(analysis.program.instructions) - 1),
            "no reachable TERMINATE or INC_PORT: the test only ends by "
            "running off the end of the program",
            "append a TERMINATE instruction",
        )


@rule("MC002", Severity.WARNING, "unreachable instruction")
def _unreachable(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    for index in analysis.cfg.unreachable():
        yield (
            Location(instruction=index),
            f"instruction {index} "
            f"({analysis.program.instructions[index].cond.name}) can never "
            "execute",
            "remove the dead row or fix the control flow before it",
        )


@rule("MC003", Severity.ERROR, "element sweep never advances the address")
def _loop_never_advances(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """A LOOP whose sweep has no ADDR_INC row re-executes the same
    address forever: Last Address never asserts (for memories larger
    than one word), so the element loop never exits."""
    if analysis.capabilities is not None and analysis.capabilities.n_words <= 1:
        return
    instructions = analysis.program.instructions
    for index, instr in enumerate(instructions):
        if instr.cond is not ConditionOp.LOOP:
            continue
        start = loop_target(instructions, index)
        sweep = instructions[start : index + 1]
        if not any(row.is_memory_op and row.addr_inc for row in sweep):
            yield (
                Location(instruction=index),
                f"LOOP at {index} sweeps rows {start}..{index} but no row "
                "increments the address generator — the element loop can "
                "never reach Last Address",
                "set ADDR_INC on the element's final (LOOP) row",
            )


@rule("MC004", Severity.ERROR, "multiple REPEAT instructions")
def _multiple_repeat(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """One reference register supports exactly one REPEAT.  A second
    REPEAT finds the repeat bit already cleared by the first and
    re-arms it, producing an unbounded Reset-to-1 loop (a symmetric
    program must not be compressed twice)."""
    repeats = [
        index
        for index, instr in enumerate(analysis.program.instructions)
        if instr.cond is ConditionOp.REPEAT
    ]
    for index in repeats[1:]:
        yield (
            Location(instruction=index),
            f"second REPEAT at {index} (first at {repeats[0]}): the single "
            "repeat bit cannot nest, the program re-arms forever",
            "compress at most one symmetric half per program",
        )


@rule("MC005", Severity.ERROR, "REPEAT without a one-row initialisation prefix")
def _repeat_misplaced(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """REPEAT branches through the decoder's fixed Reset-to-1 path, so
    the repeated body must start at instruction 1 — which requires the
    program to open with a single-row element (its LOOP at row 0)."""
    instructions = analysis.program.instructions
    for index, instr in enumerate(instructions):
        if instr.cond is not ConditionOp.REPEAT:
            continue
        if index < 2:
            yield (
                Location(instruction=index),
                f"REPEAT at {index} has no body: Reset-to-1 needs at least "
                "one instruction between row 1 and the REPEAT",
                "place REPEAT after the element body it should re-execute",
            )
        elif instructions[0].cond is not ConditionOp.LOOP:
            yield (
                Location(instruction=index),
                f"REPEAT at {index} but instruction 0 "
                f"({instructions[0].cond.name}) is not a one-row element: "
                "Reset-to-1 would re-enter mid-element",
                "open the program with a single-operation element "
                "(one LOOP row) before using REPEAT",
            )


@rule("MC006", Severity.ERROR, "HOLD exponent exceeds the pause timer")
def _hold_exponent(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    for index, instr in enumerate(analysis.program.instructions):
        if instr.cond is ConditionOp.HOLD and instr.hold_exponent > PAUSE_TIMER_BITS:
            yield (
                Location(instruction=index),
                f"HOLD exponent {instr.hold_exponent} exceeds the "
                f"{PAUSE_TIMER_BITS}-bit pause timer (max pause "
                f"2^{PAUSE_TIMER_BITS})",
                f"use a pause of at most 2^{PAUSE_TIMER_BITS} time units",
            )


@rule("MC007", Severity.ERROR, "program exceeds the storage unit")
def _storage_overflow(analysis: ProgramAnalysis) -> Iterator:
    rows = len(analysis.program.instructions)
    if analysis.rows is not None:
        if rows > analysis.rows:
            yield (
                Location(instruction=analysis.rows),
                f"program needs {rows} rows but the storage unit holds "
                f"Z={analysis.rows}",
                "enlarge the storage or compress the program",
            )
    elif rows > DEFAULT_ROWS:
        yield Diagnostic(
            rule="MC007",
            severity=Severity.INFO,
            message=(f"program needs {rows} rows, beyond the default "
                     f"Z={DEFAULT_ROWS} storage — the controller will "
                     "auto-grow its storage unit"),
            location=Location(instruction=DEFAULT_ROWS),
        )


@rule("MC008", Severity.ERROR, "loop instruction without matching hardware")
def _capability_mismatch(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """NEXT_BG needs the data-background loop datapath (word-oriented
    capability), INC_PORT the port sequencer (multiport capability)."""
    caps = analysis.capabilities
    if caps is None:
        return
    for index, instr in enumerate(analysis.program.instructions):
        if instr.cond is ConditionOp.NEXT_BG and not caps.word_oriented:
            yield (
                Location(instruction=index),
                "NEXT_BG requires the word-oriented data-background loop "
                f"hardware, but the controller targets width={caps.width}",
                "drop the NEXT_BG row or build a word-oriented controller",
            )
        if instr.cond is ConditionOp.INC_PORT and not caps.multiport:
            yield (
                Location(instruction=index),
                "INC_PORT requires the multiport sequencer, but the "
                f"controller targets ports={caps.ports}",
                "drop the INC_PORT row or build a multiport controller",
            )


@rule("MC009", Severity.WARNING, "capability loop missing from the tail")
def _missing_capability_loop(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    caps = analysis.capabilities
    if caps is None:
        return
    conds = {instr.cond for instr in analysis.program.instructions}
    tail = Location(instruction=max(0, len(analysis.program.instructions) - 1))
    if caps.word_oriented and ConditionOp.NEXT_BG not in conds:
        yield (
            tail,
            f"width={caps.width} memory but no NEXT_BG row: only the first "
            "data background is ever tested",
            "append a NEXT_BG row before the terminator",
        )
    if caps.multiport and ConditionOp.INC_PORT not in conds:
        yield (
            tail,
            f"ports={caps.ports} memory but no INC_PORT row: only port 0 "
            "is ever tested",
            "terminate the program with INC_PORT instead of TERMINATE",
        )


@rule("MC010", Severity.ERROR, "program provably never terminates")
def _nonterminating(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    from repro.core.walk import Verdict

    walk = analysis.walk
    if walk is not None and walk.verdict is Verdict.DIVERGES:
        yield (
            Location(instruction=walk.location),
            f"abstract interpretation proves divergence: {walk.reason}",
            "fix the control flow so every loop has an exit condition",
        )


@rule("MC012", Severity.INFO, "symmetric program stored uncompressed")
def _missed_compression(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    """The source algorithm has a REPEAT-compressible symmetric half but
    the program stores both halves verbatim."""
    program = analysis.program
    # Judge by the rows, not the provenance flag: a program reloaded from
    # the interchange format loses the flag but keeps its REPEAT row.
    if program.source is None or any(
        row.cond is ConditionOp.REPEAT for row in program.instructions
    ):
        return
    from repro.march.properties import symmetric_split

    split = symmetric_split(program.source, require_single_op_prefix=True)
    if split is not None:
        saved = sum(element.op_count for element in split.body) - 1
        yield (
            Location(),
            f"'{program.source.name}' is symmetric ({split.aux} complement): "
            f"REPEAT compression would save {saved} storage rows",
            "assemble with compress=True",
        )


@rule("MC011", Severity.WARNING, "control flow defeats static analysis")
def _unanalyzable(analysis: ProgramAnalysis) -> Iterator[Tuple]:
    from repro.core.walk import Verdict

    walk = analysis.walk
    if walk is not None and walk.verdict is Verdict.UNKNOWN:
        yield (
            Location(instruction=walk.location),
            f"cannot bound the cycle count: {walk.reason}",
            "restructure element bodies as straight NOP runs ending in "
            "one LOOP row",
        )
