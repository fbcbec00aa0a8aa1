"""In-field transparent conformance sessions: determinism, transparency,
mid-life fault detection and the infield fault-response mode.
"""

import pytest

from repro.conformance.faulty.events import ResponseBudgetExceeded
from repro.conformance.infield import (
    DEFAULT_INFIELD_TESTS,
    build_infield_plan,
    cached_infield_plan,
    fault_free_session,
    run_infield_session,
)
from repro.conformance import check_fault_conformance
from repro.core.controller import ControllerCapabilities
from repro.faults.spec import parse_fault
from repro.march import library
from repro.march.notation import parse_test
from repro.memory.sram import Sram

GEOMETRIES = [(4, 2, 2), (3, 1, 1), (5, 4, 2), (2, 2, 3)]


def _caps(geometry):
    words, width, ports = geometry
    return ControllerCapabilities(n_words=words, width=width, ports=ports)


def _memory(geometry):
    words, width, ports = geometry
    return Sram(words, width=width, ports=ports)


# ---------------------------------------------------------------------------
# Plan construction and determinism.
# ---------------------------------------------------------------------------


class TestPlan:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_same_inputs_same_plan(self, geometry):
        caps = _caps(geometry)
        first = build_infield_plan(caps, seed=11)
        second = build_infield_plan(caps, seed=11)
        assert first.stream == second.stream
        assert first.checkpoints == second.checkpoints

    def test_different_seeds_differ(self):
        caps = _caps((4, 2, 2))
        assert (
            build_infield_plan(caps, seed=0).stream
            != build_infield_plan(caps, seed=1).stream
        )

    def test_one_checkpoint_per_slot(self):
        plan = build_infield_plan(_caps((4, 2, 2)), seed=3)
        assert len(plan.checkpoints) == len(DEFAULT_INFIELD_TESTS)
        assert [c.slot for c in plan.checkpoints] == [0, 1, 2]
        # Checkpoints fire at strictly increasing stream positions, each
        # after its slot's transparent ops begin.
        indexes = [c.op_index for c in plan.checkpoints]
        assert indexes == sorted(indexes)
        for checkpoint in plan.checkpoints:
            assert checkpoint.start_index < checkpoint.op_index
        assert plan.checkpoints[-1].op_index == len(plan.stream)

    def test_every_op_is_attributed(self):
        plan = build_infield_plan(_caps((3, 2, 2)), seed=0)
        owners = {
            plan.stream.owner(index).split()[0]
            for index in range(len(plan.stream))
        }
        assert owners == {"seed", "traffic", "slot"}

    def test_cache_returns_identical_plan(self):
        caps = _caps((4, 2, 2))
        assert cached_infield_plan(caps, seed=5) is cached_infield_plan(
            caps, seed=5
        )

    def test_rejects_write_only_slot_test(self):
        with pytest.raises(ValueError):
            build_infield_plan(
                _caps((2, 1, 1)), tests=(parse_test("^(w0)"),)
            )


# ---------------------------------------------------------------------------
# Transparency: fault-free sessions are invisible to the user.
# ---------------------------------------------------------------------------


class TestFaultFree:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_session_preserves_user_data(self, geometry, seed):
        result = fault_free_session(_caps(geometry), seed=seed)
        assert result.events == []
        assert result.user_data_preserved
        assert result.ops_applied > 0
        assert len(result.checkpoints) == len(DEFAULT_INFIELD_TESTS)

    def test_memory_ends_at_final_shadow(self):
        caps = _caps((4, 2, 2))
        plan = build_infield_plan(caps, seed=3)
        memory = _memory((4, 2, 2))
        run_infield_session(plan, memory)
        assert tuple(memory.snapshot()) == plan.checkpoints[-1].expected


# ---------------------------------------------------------------------------
# Mid-life defects: injection at slot boundaries is always detected.
# ---------------------------------------------------------------------------


class TestMidStreamInjection:
    @pytest.mark.parametrize("geometry", [(4, 2, 2), (3, 1, 1)])
    def test_saf_at_every_slot_boundary_is_caught_by_that_slot(
        self, geometry
    ):
        caps = _caps(geometry)
        plan = build_infield_plan(caps, seed=3)
        for checkpoint in plan.checkpoints:
            fault = parse_fault("saf:0:0:1")
            memory = _memory(geometry)
            result = run_infield_session(
                plan, memory, inject=(fault, checkpoint.start_index)
            )
            assert result.detected
            first = result.events[0]
            assert plan.stream.owner(first.op_index).startswith(
                f"slot {checkpoint.slot} "
            )

    def test_power_on_defect_is_caught(self):
        geometry = (4, 2, 2)
        plan = build_infield_plan(_caps(geometry), seed=0)
        memory = _memory(geometry)
        memory.attach(parse_fault("saf:1:0:1"))
        result = run_infield_session(plan, memory)
        assert result.detected


# ---------------------------------------------------------------------------
# Guard rails.
# ---------------------------------------------------------------------------


class TestGuards:
    def test_geometry_mismatch_rejected(self):
        plan = build_infield_plan(_caps((4, 2, 2)))
        with pytest.raises(ValueError, match="geometry"):
            run_infield_session(plan, _memory((4, 2, 1)))

    def test_op_budget_enforced(self):
        plan = build_infield_plan(_caps((3, 1, 1)))
        with pytest.raises(ResponseBudgetExceeded):
            run_infield_session(plan, _memory((3, 1, 1)), max_ops=5)


# ---------------------------------------------------------------------------
# The infield fault-response mode.
# ---------------------------------------------------------------------------


class TestInfieldMode:
    def test_stuck_at_detected_and_replay_conformant(self):
        caps = _caps((3, 2, 1))
        result = check_fault_conformance(
            library.MATS_PLUS, caps, parse_fault("saf:0:0:1"),
            mode="infield",
        )
        assert result.ok
        assert result.detected
        assert result.mode == "infield"

    def test_seed_changes_the_session(self):
        caps = _caps((3, 2, 1))
        base = check_fault_conformance(
            library.MATS_PLUS, caps, parse_fault("saf:0:0:1"),
            mode="infield",
        )
        other = check_fault_conformance(
            library.MATS_PLUS, caps, parse_fault("saf:0:0:1"),
            mode="infield", infield_seed=9,
        )
        assert base.ok and other.ok
        assert base.detected and other.detected

    def test_write_only_test_is_skipped_not_crashed(self):
        caps = _caps((2, 1, 1))
        result = check_fault_conformance(
            parse_test("^(w0)", name="writes"), caps,
            parse_fault("saf:0:0:1"), mode="infield",
        )
        assert result.ok
        assert all(
            response.status == "skipped" for response in result.responses
        )
