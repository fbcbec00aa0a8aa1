"""Collapsed walks: what a controller program emits, for every N at once.

Each of the three controller realisations runs a march element as the
same op body repeated over an address sweep.  A *collapsed walk* steps a
program through the controller's own step logic —
:func:`~repro.core.microcode.controller.decoder_outputs`,
:func:`~repro.core.progfsm.lower_fsm.lower_fsm_step`,
:func:`~repro.core.hardwired.synthesis.step_signals` — but executes each
address sweep only twice: once with *last address* false, which must
step the address exactly once and return to the sweep's start state,
and once with it true, which gives the op body a final time and the
state the sweep exits to.  Everything else (background and port loops,
pauses, the reference register, the branch register) is stepped
exactly.  The result is

* an exact cycle count — the microcode and upper-buffer interpreters of
  :mod:`repro.analysis` report the walks' counts, so the sweep-collapse
  rule exists once — and
* an **op summary**: per (port, background) pass, the ordered element
  sweeps ``("sweep", down, ((is_write, polarity), ...))`` and pauses
  ``("pause", duration)``.  It does not depend on N.

:func:`march_summary` reads the same summary off the march notation.
When the two are equal and :func:`datapath_enumerates_expand` holds for
the geometry — the address, data and port generators enumerate exactly
the addresses, background words and ports
:func:`~repro.march.simulator.expand` uses — the controller's stream is
the golden stream op for op, so it need not be simulated.  A program
the walk cannot model exactly gets no summary (``summary is None``,
UNKNOWN, with ``summary_reason``): a memory op outside a sweep, a
sweep whose first address iteration differs from the others, a pause
or loop row inside an element, a step that depends on *last address*
outside a sweep, an address step in the middle of an iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.controller import ControllerCapabilities
from repro.core.datapath import AddressGenerator, DataGenerator, PortSequencer
from repro.core.hardwired.synthesis import step_signals
from repro.core.microcode.controller import decoder_outputs
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp
from repro.core.progfsm.instruction import DataControl, FsmInstruction
from repro.core.progfsm.lower_fsm import LowerFsmState, lower_fsm_step
from repro.march.backgrounds import apply_polarity, background_count, data_backgrounds
from repro.march.element import AddressOrder, OpKind, Pause
from repro.march.simulator import _addresses as expand_addresses
from repro.march.test import MarchTest

#: Abstract-step safety valve (the state space bounds the walk anyway;
#: this guards against pathological Z² blowups on huge programs).
MAX_STEPS = 200_000

#: One (is_write, polarity) op of a sweep body.
SummaryOp = Tuple[bool, int]
#: One pass-tagged summary item: ``(port, background index, item)``.
SummaryItem = Tuple[int, int, Tuple]
#: A program's op summary.
Summary = Tuple[SummaryItem, ...]


class Verdict(enum.Enum):
    """Termination outcome of a collapsed walk."""

    TERMINATES = "terminates"   # halts; ``cycles`` is exact
    DIVERGES = "diverges"       # provably never halts
    UNKNOWN = "unknown"         # control flow outside the analyzable shape


@dataclass(frozen=True)
class Walk:
    """Result of one collapsed walk.

    Attributes:
        verdict: termination verdict.
        cycles: exact executed-step count (TERMINATES only).
        reason: explanation of the verdict.
        location: program row the reason points at, if any.
        states_visited: size of the explored abstract state space.
        summary: the op summary, or ``None`` (UNKNOWN) when the program
            does not terminate or the walk cannot model it exactly.
        summary_reason: why ``summary`` is UNKNOWN.
    """

    verdict: Verdict
    cycles: Optional[int] = None
    reason: str = ""
    location: Optional[int] = None
    states_visited: int = 0
    summary: Optional[Summary] = None
    summary_reason: str = ""

    def matches(self, golden: Summary, bound: int) -> Optional[bool]:
        """Whether the walked program's stream is ``golden``'s.

        ``True`` when the summary equals ``golden`` and the run ends
        within the controller's cycle ``bound``; ``False`` when the
        summaries differ; ``None`` (UNKNOWN) when there is no summary or
        the controller would hit its bound first.
        """
        if self.summary is None or self.cycles >= bound:
            return None
        return self.summary == golden


def march_summary(test: MarchTest, capabilities: ControllerCapabilities) -> Summary:
    """The op summary :func:`~repro.march.simulator.expand` realises."""
    caps = capabilities
    items = tuple(
        ("pause", item.duration) if isinstance(item, Pause) else (
            "sweep",
            item.order.resolve() is AddressOrder.DOWN,
            tuple((op.is_write, op.polarity) for op in item.ops),
        )
        for item in test.items
    )
    return tuple(
        (port, background, item)
        for port in range(caps.ports)
        for background in range(background_count(caps.width))
        for item in items
    )


@lru_cache(maxsize=64)
def datapath_enumerates_expand(capabilities: ControllerCapabilities) -> bool:
    """Whether the shared datapath enumerates what ``expand`` uses.

    Steps :class:`AddressGenerator` through a full sweep in each
    direction (addresses in ``expand``'s order, *last address* on the
    final one only, one increment per iteration),
    :class:`DataGenerator` through its backgrounds (``expand``'s
    background list, *last data* on the final one only, ``word`` equal
    to ``apply_polarity``) and :class:`PortSequencer` through its ports.
    O(N), memoised per geometry; the summaries carry the rest.
    """
    caps = capabilities
    n = caps.n_words
    for order in (AddressOrder.UP, AddressOrder.DOWN):
        generator = AddressGenerator(n)
        generator.start(order)
        for position, address in enumerate(expand_addresses(order, n)):
            if generator.address != address:
                return False
            if generator.last_address != (position == n - 1):
                return False
            if position < n - 1:
                generator.increment()
    data = DataGenerator(caps.width)
    backgrounds = data_backgrounds(caps.width)
    for index, background in enumerate(backgrounds):
        if data.background != background:
            return False
        if data.last_background != (index == len(backgrounds) - 1):
            return False
        for polarity in (0, 1):
            if data.word(polarity) != apply_polarity(background, polarity, caps.width):
                return False
        if index < len(backgrounds) - 1:
            data.increment()
    data.reset()  # the next port's pass starts over
    if data.background != backgrounds[0]:
        return False
    ports = PortSequencer(caps.ports)
    for port in range(caps.ports):
        if ports.port != port or ports.last_port != (port == caps.ports - 1):
            return False
        if port < caps.ports - 1:
            ports.increment()
    return True


class _Summariser:
    """Accumulates pass-tagged summary items until the first UNKNOWN."""

    def __init__(self) -> None:
        self.items: List[SummaryItem] = []
        self.reason = ""

    def unknown(self, reason: str) -> None:
        if not self.reason:
            self.reason = reason

    def add(self, port: int, background: int, item: Tuple) -> None:
        self.items.append((port, background, item))

    def walk(self, verdict: Verdict, reason: str, **kw) -> Walk:
        if verdict is not Verdict.TERMINATES:
            self.unknown(f"{verdict.value}: {reason}")
        return Walk(
            verdict, reason=reason,
            summary=None if self.reason else tuple(self.items),
            summary_reason=self.reason, **kw,
        )


# -- microcode -------------------------------------------------------------


def _op(instr: MicroInstruction, ref_data: bool, ref_compare: bool) -> SummaryOp:
    """The (is_write, polarity) op a memory row issues, as the controller
    computes it after the reference register."""
    if instr.write_en:
        return True, int(instr.data_inv) ^ int(ref_data)
    return False, int(instr.compare) ^ int(ref_compare)


def _only(strobes, name: str) -> bool:
    """Whether ``name`` is the one strobe the decoder raised."""
    return strobes[name] and sum(strobes.values()) == 1


def walk_microcode(
    instructions: Sequence[MicroInstruction],
    capabilities: ControllerCapabilities,
    limit: Optional[int] = None,
) -> Walk:
    """Collapsed walk of a microcode program (see the module docstring).

    The abstract state between steps is ``(IC, branch register, repeat
    bit, background index, port index)`` — at most ``Z × (Z+1) × 2 ×
    B × P`` states, so stepping it *decides* termination: reaching the
    end proves the program halts, revisiting a state proves it never
    does.  The reference register's complement bits and the pending
    sweep restart ride along for the summary; they never influence
    control flow.  A ``LOOP`` row at index *i* with branch register *b*
    is collapsed when its body ``b..i-1`` is a straight run of ``NOP``
    rows that do not step the address — the only shape the assembler
    emits; anything else is UNKNOWN (or DIVERGES, for a LOOP that never
    steps the address of a multi-word memory).  The body rows were
    counted once on the way in (the first address), so the collapse
    adds ``span × (N-1) + 1`` cycles.

    Args:
        instructions: the program rows.
        capabilities: geometry (address-space size, background count,
            port count).
        limit: rows the instruction counter can address before the test
            ends (default: the program length).
    """
    instructions = tuple(instructions)
    if limit is None:
        limit = len(instructions)
    n_words = capabilities.n_words
    n_backgrounds = background_count(capabilities.width)
    n_ports = capabilities.ports

    ic = 0
    branch = 0
    repeat = False
    bg = 0
    port = 0
    cycles = 0
    visited: Set[Tuple[int, int, bool, int, int]] = set()
    ref_order = ref_data = ref_compare = False
    restart = True
    # The open sweep's direction and the ops of its first address.
    sweep_down = False
    sweep: Optional[List[SummaryOp]] = None
    out = _Summariser()

    def strobes(instr: MicroInstruction, last_address: bool):
        return decoder_outputs(
            instr.cond, last_address=last_address,
            last_data=bg >= n_backgrounds - 1, last_port=port >= n_ports - 1,
            repeat_bit=repeat,
        )

    for _ in range(MAX_STEPS):
        if ic >= limit:
            if sweep is not None:
                out.unknown("the last element never loops")
            return out.walk(
                Verdict.TERMINATES, cycles=cycles,
                reason="instruction addresses exhausted",
                states_visited=len(visited),
            )
        state = (ic, branch, repeat, bg, port)
        if state in visited:
            return out.walk(
                Verdict.DIVERGES,
                reason=(f"controller state (ic={ic}, branch={branch}, "
                        f"repeat={int(repeat)}, background={bg}, "
                        f"port={port}) recurs — the program loops forever"),
                location=ic,
                states_visited=len(visited),
            )
        visited.add(state)
        instr = instructions[ic]
        cond = instr.cond

        if instr.is_memory_op:
            # The controller reloads the sweep start on the first memory
            # op after a restart strobe; later ones continue the sweep.
            if restart:
                restart = False
                sweep_down = instr.addr_down ^ ref_order
                sweep = []
            if sweep is None:
                out.unknown(f"row {ic} accesses memory outside an address sweep")
            else:
                sweep.append(_op(instr, ref_data, ref_compare))
        elif cond is not ConditionOp.NOP and sweep is not None:
            out.unknown(f"row {ic} ({cond.name}) runs inside an element")

        if cond is ConditionOp.LOOP:
            if branch > ic:
                return out.walk(
                    Verdict.UNKNOWN,
                    reason=(f"LOOP at {ic} reached with branch register "
                            f"{branch} ahead of it"),
                    location=ic, states_visited=len(visited),
                )
            span = ic - branch + 1
            body = instructions[branch:ic]
            if any(row.cond is not ConditionOp.NOP for row in body):
                return out.walk(
                    Verdict.UNKNOWN,
                    reason=(f"LOOP at {ic} sweeps rows {branch}..{ic - 1} "
                            "that are not a straight NOP run"),
                    location=ic, states_visited=len(visited),
                )
            if any(row.addr_inc for row in body):
                return out.walk(
                    Verdict.UNKNOWN,
                    reason=(f"element body before LOOP at {ic} steps the "
                            "address mid-sweep (ADDR_INC on a non-final "
                            "row)"),
                    location=ic, states_visited=len(visited),
                )
            if not instr.is_memory_op:
                return out.walk(
                    Verdict.UNKNOWN,
                    reason=(f"LOOP at {ic} is not a memory operation; the "
                            "sweep never restarts the address generator"),
                    location=ic, states_visited=len(visited),
                )
            if not instr.addr_inc and n_words > 1:
                return out.walk(
                    Verdict.DIVERGES,
                    reason=(f"LOOP at {ic} never increments the address "
                            f"generator, so Last Address never asserts on "
                            f"a {n_words}-word memory"),
                    location=ic, states_visited=len(visited),
                )
            # A non-last iteration: the LOOP steps the address and
            # branches to the body, whose rows only fall through back
            # to it — the sweep's start state with the next address.
            returns = instr.addr_inc and _only(strobes(instr, False), "ic_load_branch")
            returns = returns and all(_only(strobes(row, False), "ic_inc") for row in body)
            ops = [
                _op(row, ref_data, ref_compare)
                for row in instructions[branch:ic + 1] if row.is_memory_op
            ]
            if not returns:
                out.unknown(f"LOOP at {ic} does not repeat its body unchanged")
            elif sweep != ops:
                out.unknown(
                    f"the first address of the element looping at {ic} "
                    f"differs from rows {branch}..{ic}"
                )
            else:
                out.add(port, bg, ("sweep", sweep_down, tuple(ops)))
            sweep = None
            # Body rows were counted once (first address); the remaining
            # (N-1) iterations plus the LOOP row's N executions add
            # span*(N-1) + 1.
            cycles += span * (n_words - 1) + 1
            step = strobes(instr, True)
        else:
            step = strobes(instr, False)
            if step != strobes(instr, True):
                out.unknown(f"row {ic} depends on Last Address outside a sweep")
            cycles += 1
            if cond is ConditionOp.HOLD:
                out.add(port, bg, ("pause", instr.hold_duration))

        # Register updates and sequencing, in the controller's order.
        if step["branch_save"]:
            branch = ic + 1
        if step["ref_load"]:
            ref_order, ref_data, ref_compare = (
                instr.addr_down, instr.data_inv, instr.compare,
            )
            repeat = True
        if step["ref_clear"]:
            ref_order = ref_data = ref_compare = False
            repeat = False
        if step["data_step"]:
            bg += 1
        if step["data_reset"]:
            bg = 0
        if step["port_step"]:
            port += 1
        if step["addr_restart"]:
            restart = True
            if sweep is not None:
                out.unknown(f"row {ic} restarts the address mid-element")
                sweep = None
        if step["test_end"]:
            return out.walk(
                Verdict.TERMINATES, cycles=cycles,
                reason=(
                    "Last Port terminate" if cond is ConditionOp.INC_PORT
                    else "Terminate"
                ),
                states_visited=len(visited),
            )
        if step["ic_load_branch"]:
            ic = branch
        elif step["ic_reset0"]:
            ic = 0
            branch = 0
        elif step["ic_reset1"]:
            ic = 1
            branch = 1
        elif step["ic_inc"]:
            ic += 1
    return out.walk(
        Verdict.UNKNOWN,
        reason=f"no verdict within {MAX_STEPS} abstract steps",
        states_visited=len(visited),
    )


# -- programmable FSM ------------------------------------------------------


@lru_cache(maxsize=None)
def lower_fsm_sweep(mode: int) -> Optional[Tuple[Tuple[SummaryOp, ...], int, int]]:
    """The lower FSM's walk through one element of SM ``mode``.

    Returns ``(ops, iteration, last)``: the (is_write, relative
    polarity) ops of one address, and the cycles of a non-last and of
    the last address iteration — or ``None`` when the walk is not an
    address sweep (the IDLE, RESET and DONE steps must not depend on
    *last address*, RESET must load the sweep start, a non-last
    iteration must step the address once and return to the state after
    RESET, the last one must reach DONE issuing the same ops).
    """

    def step(state: LowerFsmState, last_address: bool):
        return lower_fsm_step(state, mode, last_address, start=True, hold=False)

    def fixed(state: LowerFsmState):
        outputs = step(state, False)
        return outputs if outputs == step(state, True) else None

    def idle(outputs) -> bool:
        return not (outputs.read or outputs.write or outputs.addr_inc)

    entry = fixed(LowerFsmState.IDLE)
    if entry is None or not idle(entry) or entry.addr_start or entry.done:
        return None
    reset = fixed(entry.next_state)
    if reset is None or not idle(reset) or not reset.addr_start or reset.done:
        return None
    start = reset.next_state

    def iteration(last_address: bool):
        state, ops = start, []
        for steps in range(1, len(LowerFsmState) + 1):
            outputs = step(state, last_address)
            if outputs.addr_start or outputs.done:
                return None
            if outputs.read or outputs.write:
                ops.append((not outputs.read, outputs.rel_polarity))
            state = outputs.next_state
            if outputs.addr_inc:
                # Only a non-last iteration may step, back to the start.
                return None if last_address or state is not start else (ops, steps)
            if last_address and state is LowerFsmState.DONE:
                return ops, steps
        return None

    body, last = iteration(False), iteration(True)
    done = fixed(LowerFsmState.DONE)
    if body is None or last is None or body[0] != last[0] or not body[0]:
        return None
    if done is None or not idle(done) or not done.done:
        return None
    return tuple(body[0]), body[1], last[1]


def fsm_element_cycles(instr: FsmInstruction, n_words: int) -> Optional[int]:
    """Trace cycles of one element-row execution, from the lower FSM's walk.

    One optional hold (pause) cycle, the IDLE and RESET steps, N-1
    non-last address iterations, the last one, and the DONE step —
    ``hold + 3 + N x L`` for an L-operation SM pattern.  ``None`` when
    the lower FSM does not sweep the pattern.
    """
    sweep = lower_fsm_sweep(instr.mode)
    if sweep is None:
        return None
    _, iteration, last = sweep
    return int(instr.hold) + 2 + iteration * (n_words - 1) + last + 1


def walk_fsm(
    instructions: Sequence[FsmInstruction],
    capabilities: ControllerCapabilities,
    pause_duration: int = 0,
    max_steps: int = MAX_STEPS,
) -> Walk:
    """Collapsed walk of an upper-buffer program (see the module docstring).

    What remains once each element row is collapsed through
    :func:`lower_fsm_sweep` is a finite deterministic transition system
    over ``(row pointer, background, port)`` with at most ``rows x B x
    P`` states, so stepping it *decides* termination.  Two asymmetries
    follow the controller: a *Last Data* ``LOOP_BG`` that advances past
    the program end returns **without** emitting a trace entry (0
    cycles), while a *Last Port* ``LOOP_PORT`` emits its entry first (1
    cycle).

    Args:
        instructions: the buffer rows.
        capabilities: geometry (address-space size, background count,
            port count).
        pause_duration: the hold time of hold-flagged elements.
        max_steps: abstract-step safety valve.
    """
    instructions = tuple(instructions)
    rows = len(instructions)
    out = _Summariser()
    if rows == 0:
        return out.walk(Verdict.TERMINATES, "empty program", cycles=0)
    n_words = capabilities.n_words
    n_backgrounds = background_count(capabilities.width)
    n_ports = capabilities.ports

    pointer = 0
    background = 0
    port = 0
    cycles = 0
    visited: Set[Tuple[int, int, int]] = set()

    for _ in range(max_steps):
        state = (pointer, background, port)
        if state in visited:
            return out.walk(
                Verdict.DIVERGES,
                reason=(f"upper-controller state (row={pointer}, "
                        f"background={background}, port={port}) recurs — "
                        "the program loops forever"),
                location=pointer,
                states_visited=len(visited),
            )
        visited.add(state)
        instr = instructions[pointer]

        if instr.is_element:
            sweep = lower_fsm_sweep(instr.mode)
            if sweep is None:
                return out.walk(
                    Verdict.UNKNOWN,
                    reason=f"the lower FSM does not sweep SM{instr.mode}",
                    location=pointer, states_visited=len(visited),
                )
            if instr.hold:
                out.add(port, background, ("pause", pause_duration))
            ops = tuple(
                (write, rel ^ (instr.base_data if write else int(instr.compare)))
                for write, rel in sweep[0]
            )
            out.add(port, background, ("sweep", instr.addr_down, ops))
            cycles += fsm_element_cycles(instr, n_words)
            pointer += 1
            if pointer >= rows:
                return out.walk(
                    Verdict.TERMINATES, cycles=cycles,
                    reason="buffer rows exhausted",
                    states_visited=len(visited),
                )
        elif instr.data_ctrl is DataControl.LOOP_BG:
            if background >= n_backgrounds - 1:
                # Last Data: reset the generator and advance.  Wrapping
                # past the program end returns before the trace entry is
                # emitted, so that final execution costs zero cycles.
                background = 0
                pointer += 1
                if pointer >= rows:
                    return out.walk(
                        Verdict.TERMINATES, cycles=cycles,
                        reason="Last Data wrap past the program end",
                        states_visited=len(visited),
                    )
                cycles += 1
            else:
                background += 1
                cycles += 1
                pointer = 0
        else:  # LOOP_PORT
            cycles += 1
            if port >= n_ports - 1:
                return out.walk(
                    Verdict.TERMINATES, cycles=cycles,
                    reason="Last Port test end",
                    states_visited=len(visited),
                )
            port += 1
            background = 0
            pointer = 0
    return out.walk(
        Verdict.UNKNOWN,
        reason=f"no verdict within {max_steps} abstract steps",
        states_visited=len(visited),
    )


# -- hardwired -------------------------------------------------------------


def _hardwired_sweep(states, first: int, last_data: bool, last_port: bool):
    """Collapse the address sweep entered at op state ``first``.

    Returns ``(ops, iteration, exit state, restart)`` — the ops of one
    address, the cycles of a non-last iteration, the state the last
    iteration exits to and whether it raised the restart strobe — or
    ``None`` when the states from ``first`` are not an address sweep.
    """

    def signals(code: int, last_address: bool):
        if not 0 <= code < len(states) or states[code].kind != "op":
            return None
        out = step_signals(states[code], last_address, last_data, last_port)
        if any(out[name] for name in _LOOP_STROBES):
            return None
        polarity = int(bool(out["polarity"]))
        return out, (states[code].op_kind is OpKind.WRITE, polarity)

    ops: List[SummaryOp] = []
    code = first
    while True:
        stepped = signals(code, False)
        if stepped is None or stepped[0]["addr_start"] or len(ops) == len(states):
            return None
        ops.append(stepped[1])
        code = int(stepped[0]["next_state"])
        if stepped[0]["addr_inc"]:
            if code != first:
                return None
            break
    code = first
    for position, op in enumerate(ops):
        stepped = signals(code, True)
        if stepped is None or stepped[0]["addr_inc"] or stepped[1] != op:
            return None
        restart = bool(stepped[0]["addr_start"])
        if restart and position < len(ops) - 1:
            return None
        code = int(stepped[0]["next_state"])
    return tuple(ops), len(ops), code, restart


#: Strobes no op state of an address sweep may raise.
_LOOP_STROBES = ("data_step", "data_reset", "port_step", "pause", "test_end")


def walk_hardwired(graph, capabilities: ControllerCapabilities) -> Walk:
    """Collapsed walk of a synthesised hardwired :class:`StateGraph`.

    Steps the state graph through ``step_signals`` as the controller
    does; an op state entered with the restart strobe pending opens an
    address sweep, collapsed by :func:`_hardwired_sweep`.  The abstract
    state between steps is ``(state, background, port, restart)``, so a
    recurring one proves the graph never reaches DONE.
    """
    states = graph.states
    n_words = capabilities.n_words
    n_backgrounds = background_count(capabilities.width)
    n_ports = capabilities.ports
    code = 0
    background = 0
    port = 0
    restart = True
    cycles = 0
    visited: Set[Tuple[int, int, int, bool]] = set()
    sweeps: Dict[Tuple[int, bool, bool], Optional[Tuple]] = {}
    out = _Summariser()

    for _ in range(MAX_STEPS):
        if not 0 <= code < len(states):
            return out.walk(
                Verdict.UNKNOWN, reason=f"next state {code} is outside the graph",
                states_visited=len(visited),
            )
        key = (code, background, port, restart)
        if key in visited:
            return out.walk(
                Verdict.DIVERGES,
                reason=f"state {code} recurs — the graph loops forever",
                location=code, states_visited=len(visited),
            )
        visited.add(key)
        state = states[code]
        last_data = background >= n_backgrounds - 1
        last_port = port >= n_ports - 1
        if state.kind == "op":
            sweep = None
            if restart:
                key = (code, last_data, last_port)
                if key not in sweeps:  # each pass re-enters the same sweeps
                    sweeps[key] = _hardwired_sweep(states, *key)
                sweep = sweeps[key]
            if sweep is None:
                return out.walk(
                    Verdict.UNKNOWN,
                    reason=f"op state {code} does not open an address sweep",
                    location=code, states_visited=len(visited),
                )
            ops, iteration, code, restart = sweep
            out.add(port, background, ("sweep", state.down, ops))
            cycles += iteration * (n_words - 1) + len(ops)
            continue
        signals = step_signals(state, False, last_data, last_port)
        if signals != step_signals(state, True, last_data, last_port) or signals["addr_inc"]:
            return out.walk(
                Verdict.UNKNOWN,
                reason=f"state {code} depends on Last Address outside a sweep",
                location=code, states_visited=len(visited),
            )
        cycles += 1
        if state.kind == "pause":
            out.add(port, background, ("pause", state.pause_duration))
        if signals["addr_start"]:
            restart = True
        if signals["data_step"]:
            background += 1
        if signals["data_reset"]:
            background = 0
        if signals["port_step"]:
            port += 1
        if signals["test_end"] or state.kind == "done":
            return out.walk(
                Verdict.TERMINATES, cycles=cycles, reason="test end",
                states_visited=len(visited),
            )
        code = int(signals["next_state"])
    return out.walk(
        Verdict.UNKNOWN,
        reason=f"no verdict within {MAX_STEPS} abstract steps",
        states_visited=len(visited),
    )
