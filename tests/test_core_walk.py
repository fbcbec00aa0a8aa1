"""Collapsed walks (repro.core.walk): op summaries proved, never trusted.

The vector sweep verifies a controller partner from its program's op
summary instead of simulating it.  These tests pin that shortcut to the
simulation it replaces:

* every library program is proved on every architecture, and the walk's
  cycle count is the controller's trace length;
* a soundness mutation test: single-row / single-state mutations of
  every library program; whenever the summary says "equal to golden",
  the simulated stream must be the golden stream op for op;
* a 1,024-word library sweep that builds no controller stream at all,
  and whose verdicts equal the static prover's.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.conformance import check as stimulus_check
from repro.conformance.check import GOLDEN_CACHE, STREAM_BUILDERS, proved_conformant
from repro.core.controller import ControllerCapabilities
from repro.core.datapath import AddressGenerator, DataGenerator
from repro.core.hardwired import controller as hardwired_controller
from repro.core.hardwired.controller import HardwiredBistController
from repro.core.hardwired.synthesis import StateGraph, synthesize
from repro.core.microcode import controller as microcode_controller
from repro.core.microcode.assembler import MicrocodeProgram, assemble
from repro.core.microcode.controller import MicrocodeBistController
from repro.core.microcode.instruction import MicroInstruction
from repro.core.microcode.isa import ConditionOp
from repro.core.progfsm import controller as fsm_controller
from repro.core.progfsm.compiler import CompileError, FsmProgram, compile_to_sm
from repro.core.progfsm.controller import ProgrammableFsmBistController
from repro.core.progfsm.instruction import DataControl
from repro.core.progfsm.upper_buffer import DEFAULT_ROWS
from repro.core.walk import (
    datapath_enumerates_expand,
    march_summary,
    walk_fsm,
    walk_hardwired,
    walk_microcode,
)
from repro.march import library
from repro.march.element import OpKind

LIBRARY = [library.get(name) for name in library.ALGORITHMS]

#: The mutation test's geometries: bit-, word- and port-loops all run.
MUTATION_GEOMETRIES = [
    ControllerCapabilities(4, 1, 1),
    ControllerCapabilities(5, 4, 2),
    ControllerCapabilities(3, 2, 3),
]

_KINDS = ("idle", "op", "pause", "bg_loop", "port_loop", "done")


def _fetched_microcode(rows):
    return [MicroInstruction.decode(row.encode()) for row in rows]


class TestSummaries:
    @pytest.mark.parametrize("caps", [
        ControllerCapabilities(1, 1, 1),
        ControllerCapabilities(64, 2, 1),
        ControllerCapabilities(5, 4, 2),
        ControllerCapabilities(3, 2, 3),
    ], ids=str)
    def test_every_library_partner_is_proved(self, caps):
        for test in LIBRARY:
            for compress in (True, False):
                for architecture in STREAM_BUILDERS:
                    try:
                        proved = proved_conformant(
                            architecture, test, caps, compress
                        )
                    except CompileError:
                        assert architecture == "progfsm"
                        continue
                    assert proved is True, (test.name, architecture)

    @pytest.mark.parametrize("caps", MUTATION_GEOMETRIES, ids=str)
    def test_walk_cycles_are_the_trace_lengths(self, caps):
        for test in LIBRARY:
            program = assemble(test, caps, verify=False)
            walked = walk_microcode(program.instructions, caps)
            controller = MicrocodeBistController(program, caps, verify=False)
            assert walked.cycles == sum(1 for _ in controller.trace())
            graph_controller = HardwiredBistController(test, caps)
            walked = walk_hardwired(graph_controller.graph, caps)
            assert walked.cycles == sum(1 for _ in graph_controller.trace())
            try:
                fsm_program = compile_to_sm(test, caps, verify=False)
            except CompileError:
                continue
            walked = walk_fsm(
                fsm_program.instructions, caps, fsm_program.pause_duration
            )
            fsm = ProgrammableFsmBistController(
                fsm_program, caps, buffer_rows=max(DEFAULT_ROWS, len(fsm_program)),
                verify=False,
            )
            assert walked.cycles == sum(1 for _ in fsm.trace())

    def test_march_summary_is_n_free(self):
        small = march_summary(library.MARCH_C, ControllerCapabilities(2, 2, 2))
        large = march_summary(library.MARCH_C, ControllerCapabilities(1024, 2, 2))
        assert small == large
        # 2 ports x 2 backgrounds x 6 elements
        assert len(small) == 24
        assert small[0] == (0, 0, ("sweep", False, ((True, 0),)))

    def test_replaced_builder_is_never_proved(self, monkeypatch):
        caps = ControllerCapabilities(4, 1, 1)
        monkeypatch.setitem(
            STREAM_BUILDERS, "hardwired",
            lambda test, caps, compress: [],
        )
        assert proved_conformant("hardwired", library.MARCH_C, caps) is None
        assert proved_conformant("microcode", library.MARCH_C, caps) is True

    def test_datapath_check_catches_a_broken_generator(self, monkeypatch):
        check = datapath_enumerates_expand.__wrapped__
        caps = ControllerCapabilities(6, 4, 3)
        assert check(caps)
        with monkeypatch.context() as patch:
            # Skips the last address of an upward sweep.
            original = AddressGenerator.increment

            def skipping(self):
                original(self)
                if self.address == self.n_words - 1 and self.n_words > 2:
                    original(self)

            patch.setattr(AddressGenerator, "increment", skipping)
            assert not check(caps)
        with monkeypatch.context() as patch:
            patch.setattr(DataGenerator, "word", lambda self, polarity: 0)
            assert not check(caps)

    def test_a_terminating_program_can_still_be_unknown(self):
        """``w0`` at the first address only, then a ``r0`` sweep: the
        SAVE moves the branch register past the write, so the first
        address iteration is not the swept body."""
        caps = ControllerCapabilities(4, 1, 1)
        rows = [
            MicroInstruction(write_en=True),
            MicroInstruction(cond=ConditionOp.SAVE),
            MicroInstruction(read_en=True, addr_inc=True, cond=ConditionOp.LOOP),
            MicroInstruction(cond=ConditionOp.TERMINATE),
        ]
        walked = walk_microcode(rows, caps)
        assert walked.cycles == sum(
            1 for _ in MicrocodeBistController(
                MicrocodeProgram("w0-then-r0", rows, library.MATS), caps,
                verify=False,
            ).trace()
        )
        assert walked.summary is None
        assert "SAVE" in walked.summary_reason


def _microcode_mutants(rows):
    """Every single-row mutation: flip data_inv, compare, addr_down,
    write_en (a read becomes a write and back) or addr_inc, or change
    cond.  Mutations that do not encode a valid word are skipped."""
    for index, row in enumerate(rows):
        changes = [
            {name: not getattr(row, name)}
            for name in ("data_inv", "compare", "addr_down", "addr_inc")
        ]
        changes.append({
            "write_en": not row.write_en,
            "read_en": row.is_memory_op and row.write_en,
        })
        changes.extend(
            {
                "cond": cond,
                "hold_exponent": row.hold_exponent if cond is ConditionOp.HOLD else 0,
            }
            for cond in ConditionOp if cond is not row.cond
        )
        for change in changes:
            try:
                mutant = replace(row, **change)
            except ValueError:
                continue
            yield rows[:index] + [mutant] + rows[index + 1:]


def _fsm_mutants(rows):
    """Every single-row mutation: flip hold, addr_down or compare, or
    change data_ctrl or mode."""
    for index, row in enumerate(rows):
        changes = [
            {name: not getattr(row, name)}
            for name in ("hold", "addr_down", "compare")
        ]
        changes.extend(
            {"data_ctrl": control}
            for control in DataControl if control is not row.data_ctrl
        )
        changes.extend({"mode": mode} for mode in range(8) if mode != row.mode)
        for change in changes:
            yield rows[:index] + [replace(row, **change)] + rows[index + 1:]


def _hardwired_mutants(states):
    """Every single-state mutation of a field the state's step reads:
    change any state's kind or re-point its next_index at any state;
    on an op state flip the op kind, polarity, direction or element-last
    bit, and (element-last states, the only ones that loop back)
    re-point element_first at any state; double a pause's duration."""
    codes = range(len(states))
    for index, state in enumerate(states):
        changes = [{"kind": kind} for kind in _KINDS if kind != state.kind]
        changes += [
            {"next_index": code} for code in codes if code != state.next_index
        ]
        if state.kind == "op":
            flipped = (
                OpKind.READ if state.op_kind is OpKind.WRITE else OpKind.WRITE
            )
            changes += [
                {"op_kind": flipped},
                {"polarity": 1 - state.polarity},
                {"down": not state.down},
                {"is_element_last": not state.is_element_last},
            ]
        if state.kind == "op" and state.is_element_last:
            changes += [
                {"element_first": code}
                for code in codes if code != state.element_first
            ]
        if state.kind == "pause":
            changes.append({"pause_duration": 2 * state.pause_duration})
        for change in changes:
            yield states[:index] + [replace(state, **change)] + states[index + 1:]


class TestSoundness:
    """No mutant's summary may claim "equal" while its stream differs."""

    @pytest.mark.parametrize("caps", MUTATION_GEOMETRIES, ids=str)
    def test_no_false_equal_summary(self, caps):
        assert datapath_enumerates_expand(caps)
        false_equal = []
        tally = {True: 0, False: 0, None: 0}
        simulated = {}

        def judge(label, key, walked, bound, build):
            """Simulate the mutant (once per distinct program) when its
            summary claims the golden stream."""
            verdict = walked.matches(golden_summary, bound)
            tally[verdict] += 1
            if not verdict:
                return
            if key not in simulated:
                try:
                    simulated[key] = list(build().operations()) == golden
                except RuntimeError:  # the controller hit its cycle bound
                    simulated[key] = False
            if not simulated[key]:
                false_equal.append(label)

        for test in LIBRARY:
            golden = [entry.op for entry in GOLDEN_CACHE.get(test, caps)]
            golden_summary = march_summary(test, caps)
            for compress in (True, False):
                program = assemble(test, caps, compress=compress, verify=False)
                bound = microcode_controller.runtime_cycle_bound(len(program), caps)
                rows = list(program.instructions)
                for mutant in [rows, *_microcode_mutants(rows)]:
                    fetched = _fetched_microcode(mutant)
                    judge(
                        (test.name, "microcode", compress, mutant),
                        ("microcode", test.name, tuple(fetched)),
                        walk_microcode(fetched, caps), bound,
                        lambda mutant=mutant: MicrocodeBistController(
                            MicrocodeProgram(test.name, mutant, test),
                            caps, verify=False,
                        ),
                    )
            graph = synthesize(test, caps)
            bound = hardwired_controller.runtime_cycle_bound(len(graph.states), caps)
            for mutant in [graph.states, *_hardwired_mutants(graph.states)]:
                mutated = StateGraph(graph.name, mutant, caps, test)

                def build(mutated=mutated):
                    controller = HardwiredBistController(test, caps)
                    controller.graph = mutated
                    return controller

                judge(
                    (test.name, "hardwired", mutant),
                    ("hardwired", test.name, tuple(mutant)),
                    walk_hardwired(mutated, caps), bound, build,
                )
            try:
                fsm_program = compile_to_sm(test, caps, verify=False)
            except CompileError:
                continue
            rows = list(fsm_program.instructions)
            bound = fsm_controller.runtime_cycle_bound(len(rows), caps)
            for mutant in [rows, *_fsm_mutants(rows)]:
                program = FsmProgram(
                    test.name, mutant, test, fsm_program.pause_duration
                )
                judge(
                    (test.name, "progfsm", mutant),
                    ("progfsm", test.name, tuple(mutant)),
                    walk_fsm(mutant, caps, fsm_program.pause_duration), bound,
                    lambda program=program: ProgrammableFsmBistController(
                        program, caps,
                        buffer_rows=max(DEFAULT_ROWS, len(program)),
                        verify=False,
                    ),
                )
        assert not false_equal, false_equal[:3]
        # The mutations bite: most change the summary or make it UNKNOWN.
        assert tally[True] and tally[False] and tally[None]
        assert tally[False] + tally[None] > tally[True]


class TestThousandWords:
    """A 1K-word library sweep proves every partner and builds no
    stream, golden included."""

    def test_library_sweep_builds_no_controller_stream(self, monkeypatch):
        from repro.analysis.coverage import certify
        from repro.conformance import run_fault_sweep, sweep_faults
        from repro.conformance.faulty.check import resolve_stimulus
        from repro.vector.sweep import _population

        from tests.test_vector_engine import sweep_verdicts

        calls = []
        golden_fetches = []
        fetch = stimulus_check.GOLDEN_CACHE.get

        def counted_fetch(*args, **kwargs):
            golden_fetches.append(args)
            return fetch(*args, **kwargs)

        # Wrapped the way perfbench counts it; capture_response is left
        # alone (a replaced capture path disables the projected sweep).
        monkeypatch.setattr(stimulus_check.GOLDEN_CACHE, "get", counted_fetch)

        def forbidden(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")

            return call

        # The stock builders stay in STREAM_BUILDERS (a replaced entry is
        # never proved); what they would call is what must not run.
        for name in ("microcode_trace", "fsm_trace", "hardwired_trace"):
            monkeypatch.setattr(stimulus_check, name, forbidden(name))
        for cls in (
            MicrocodeBistController, ProgrammableFsmBistController,
            HardwiredBistController,
        ):
            monkeypatch.setattr(cls, "trace", forbidden(f"{cls.__name__}.trace"))

        caps = ControllerCapabilities(1024, 1, 1)
        faults = sweep_faults(caps, per_kind=1)
        report = run_fault_sweep(LIBRARY, caps, faults, engine="vector")
        assert calls == [] and golden_fetches == []
        assert report.ok and report.fallback_runs == 0
        assert report.partners_simulated == 0
        realisable = sum(
            1 for test in LIBRARY for architecture in STREAM_BUILDERS
            if architecture != "progfsm" or _compiles(test, caps)
        )
        assert report.partners_proved == realisable

        population = _population(faults, caps.n_words)
        detected = 0
        for test in LIBRARY:
            stimulus = resolve_stimulus(test, caps)
            verdicts, plan = sweep_verdicts(
                stimulus, test, caps, faults, population
            )
            certificate = certify(test, caps.n_words, faults=faults)
            assert verdicts == [
                verdict.verdict == "covered" for verdict in certificate.verdicts
            ], test.name
            detected += sum(verdicts)
        assert calls == [] and golden_fetches == []
        assert detected == report.detected


def _compiles(test, caps) -> bool:
    try:
        compile_to_sm(test, caps, verify=False)
    except CompileError:
        return False
    return True
