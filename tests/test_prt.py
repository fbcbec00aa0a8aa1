"""Pseudo-ring testing: session, controller, and plumbing tests.

Mirrors ``test_classic_streams.py`` for the new family: an exact
expected stream for a tiny ring (any generator change is visible
op-for-op), seeded-defect detection pinned to exact fail-event keys,
plus the integration seams — conformance dispatch, fault sweeps on two
geometries, the coverage study, the area row, fuzz identity (j) and the
CLI subcommands.
"""

import pytest

from repro.cli import main
from repro.core.controller import ControllerCapabilities
from repro.faults import (
    DataRetentionFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
)
from repro.faults.coupling import InversionCouplingFault
from repro.march.simulator import run_on_memory
from repro.memory import Sram
from repro.prt import (
    PRT_RING_DOWN,
    PRT_RING_UP,
    PrtConfig,
    PrtController,
    PrtSession,
    ring_taps,
)


def _caps(n_words, width=1, ports=1):
    return ControllerCapabilities(n_words=n_words, width=width, ports=ports)


def _stream(ops):
    return [
        ("w", op.port, op.address, op.value) if op.is_write
        else ("r", op.port, op.address, op.expected)
        for op in ops
    ]


class TestPrtConfig:
    def test_rejects_zero_passes(self):
        with pytest.raises(ValueError, match="pass"):
            PrtConfig(passes=0)

    @pytest.mark.parametrize("seed", (0, 1 << 16, -5))
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            PrtConfig(seed=seed)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            PrtConfig(order="sideways")

    def test_names_are_config_derived(self):
        session = PrtSession(PrtConfig(passes=3, seed=7, order="down"))
        assert session.name == "prt-down-p3-s7"
        assert session.notation == "PRT(passes=3,seed=7,order=down)"


class TestRingTaps:
    def test_table_lengths_use_verified_masks(self):
        from repro.classic.pseudorandom import _TAPS

        for n_words in (3, 4, 8, 24):
            mask = _TAPS[n_words]
            assert ring_taps(n_words) == tuple(
                b for b in range(n_words) if (mask >> b) & 1
            )

    def test_beyond_table_falls_back_to_two_tap_ring(self):
        assert ring_taps(30) == (0, 29)
        assert ring_taps(100) == (0, 99)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ring_taps(0)


class TestPrtSessionStream:
    def test_exact_stream_three_words_one_pass(self):
        session = PrtSession(PrtConfig(passes=1, seed=0x2D5C))
        assert _stream(session.operations(_caps(3))) == [
            ("w", 0, 0, 0), ("w", 0, 1, 1), ("w", 0, 2, 1),  # seed
            ("r", 0, 1, 1), ("r", 0, 2, 1),                  # taps {1,2}
            ("r", 0, 0, 0), ("w", 0, 0, 0),                  # shift pos 0
            ("r", 0, 1, 1), ("w", 0, 1, 0),                  # shift pos 1
            ("r", 0, 2, 1), ("w", 0, 2, 1),                  # shift pos 2
            ("r", 0, 0, 0), ("r", 0, 1, 0), ("r", 0, 2, 1),  # readout
        ]

    def test_deterministic_per_config(self):
        caps = _caps(5, width=2, ports=2)
        assert _stream(PRT_RING_UP.operations(caps)) == _stream(
            PRT_RING_UP.operations(caps)
        )

    def test_op_count_formula(self):
        for caps in (_caps(2), _caps(5), _caps(4, 2, 1), _caps(3, 2, 2)):
            ops = list(PRT_RING_UP.operations(caps))
            assert len(ops) == PRT_RING_UP.op_count(caps)
            taps = len(ring_taps(caps.n_words))
            assert PRT_RING_UP.op_count(caps) == caps.ports * (
                2 * caps.n_words
                + PRT_RING_UP.config.passes * (taps + 2 * caps.n_words)
            )

    def test_default_session_is_10n_plus_4t(self):
        caps = _caps(8)
        assert PRT_RING_UP.op_count(caps) == 10 * 8 + 4 * len(ring_taps(8))

    def test_reads_always_expect_shadow_value(self):
        shadow = {}
        checked = 0
        for op in PRT_RING_UP.operations(_caps(6, width=2)):
            if op.is_write:
                shadow[op.address] = op.value
            else:
                assert op.expected == shadow[op.address]
                checked += 1
        assert checked > 0

    def test_down_order_mirrors_addresses(self):
        n = 5
        up = PrtSession(PrtConfig(passes=2, seed=0x2D5C, order="up"))
        down = PrtSession(PrtConfig(passes=2, seed=0x2D5C, order="down"))
        for a, b in zip(up.operations(_caps(n)), down.operations(_caps(n))):
            assert b.address == n - 1 - a.address
            assert (a.is_write, a.value, a.expected) == (
                b.is_write, b.value, b.expected
            )

    def test_fault_free_run_passes_and_signatures_match(self):
        caps = _caps(7, width=2)
        memory = Sram(7, width=2)
        assert run_on_memory(PRT_RING_UP.operations(caps), memory).passed
        predicted, observed = PRT_RING_UP.signatures(
            Sram(7, width=2), caps
        )
        assert predicted == observed
        assert predicted == PRT_RING_UP.predicted_signature(caps)


class TestPrtDetection:
    """Named faults on a 4-word ring, pinned to exact fail-event keys."""

    def _run(self, fault):
        memory = Sram(4)
        memory.attach(fault)
        return run_on_memory(PRT_RING_UP.operations(_caps(4)), memory)

    def test_stuck_at_zero_fails_first_tap_read(self):
        result = self._run(StuckAtFault(2, 0, 0))
        assert not result.passed
        first = result.failures[0]
        assert (first.op_index, first.address) == (4, 2)
        assert (first.expected, first.observed) == (1, 0)

    def test_stuck_at_one_fails_in_circulation(self):
        result = self._run(StuckAtFault(2, 0, 1))
        assert not result.passed
        first = result.failures[0]
        assert (first.op_index, first.address) == (24, 2)
        assert (first.expected, first.observed) == (0, 1)

    def test_transition_fault_caught_at_shift_read(self):
        result = self._run(TransitionFault(1, 0, True))  # can't rise
        assert not result.passed
        first = result.failures[0]
        assert (first.op_index, first.address) == (8, 1)

    def test_inversion_coupling_caught_on_victim(self):
        result = self._run(InversionCouplingFault(0, 0, 3, 0, True))
        assert not result.passed
        first = result.failures[0]
        assert (first.op_index, first.address) == (32, 3)

    def test_stuck_open_and_retention_escape(self):
        # Known blind spots the coverage study reports: SOF needs a
        # specific read-after-read relation, DRF a pause - PRT has
        # neither.  Pinning the misses keeps the study's "loses" rows
        # honest.
        assert self._run(StuckOpenFault(1, 0, 1)).passed
        assert self._run(
            DataRetentionFault(2, 0, from_value=1, decay_time=400)
        ).passed

    def test_signature_flags_stuck_at_one(self):
        memory = Sram(4)
        memory.attach(StuckAtFault(2, 0, 1))
        predicted, observed = PRT_RING_UP.signatures(memory, _caps(4))
        assert predicted != observed

    def test_signature_can_alias_where_events_detect(self):
        # saf:2:0:0 fails mid-circulation but the readout state happens
        # to match the prediction - the aliasing escape probability the
        # event-layer capture avoids.
        memory = Sram(4)
        memory.attach(StuckAtFault(2, 0, 0))
        predicted, observed = PRT_RING_UP.signatures(memory, _caps(4))
        assert predicted == observed
        assert not self._run(StuckAtFault(2, 0, 0)).passed


class TestPrtController:
    @pytest.mark.parametrize(
        "caps",
        (_caps(2), _caps(5), _caps(4, 2, 1), _caps(3, 2, 2)),
        ids=lambda c: f"{c.n_words}x{c.width}x{c.ports}",
    )
    def test_engine_matches_golden_expansion(self, caps):
        for session in (PRT_RING_UP, PRT_RING_DOWN):
            controller = PrtController(session.config, caps)
            engine = [e.op for e in controller.attributed_stream()]
            golden = list(session.operations(caps))
            assert engine == golden
            assert controller.signature == session.predicted_signature(
                caps
            )

    def test_hardware_has_no_program_storage(self):
        spec = PrtController(PrtConfig(), _caps(1024)).hardware()
        names = [c.name for c in spec.components]
        assert any("seed lfsr" in n for n in names)
        assert any("misr" in n for n in names)
        assert not any("storage" in n or "microcode" in n for n in names)

    def test_flexibility_and_architecture_grades(self):
        from repro.core.controller import Flexibility

        assert PrtController.architecture == "Pseudo-Ring"
        assert PrtController.flexibility is Flexibility.LOW


class TestPrtConformance:
    def test_fault_conformance_dispatches_on_session(self):
        from repro.conformance import check_fault_conformance

        result = check_fault_conformance(
            PRT_RING_UP, _caps(4), StuckAtFault(2, 0, 1)
        )
        assert result.ok
        assert result.detected

    def test_non_sequential_mode_is_rejected(self):
        from repro.conformance import check_fault_conformance

        with pytest.raises(ValueError, match="sequential"):
            check_fault_conformance(
                PRT_RING_UP, _caps(4, ports=2), StuckAtFault(2, 0, 1),
                mode="concurrent",
            )

    @pytest.mark.parametrize("geometry", ((4, 1, 1), (3, 2, 2)))
    def test_fault_sweep_accepts_prt_sessions(self, geometry):
        from repro.conformance import run_fault_sweep, sweep_faults
        from repro.march import library

        caps = _caps(*geometry)
        faults = sweep_faults(caps, per_kind=1, seed=0)
        report = run_fault_sweep(
            [PRT_RING_UP, PRT_RING_DOWN, library.MARCH_C], caps, faults
        )
        assert report.ok
        assert report.checked == 3 * len(faults)

    def test_vector_engine_falls_back_and_agrees(self):
        from repro.conformance import run_fault_sweep

        caps = _caps(4)
        faults = [StuckAtFault(2, 0, 1), TransitionFault(1, 0, True)]
        scalar = run_fault_sweep([PRT_RING_UP], caps, faults)
        vector = run_fault_sweep(
            [PRT_RING_UP], caps, faults, engine="vector"
        )
        assert scalar.to_json(include_timing=False) == vector.to_json(
            include_timing=False
        )
        assert vector.fallback_runs == 0


class TestPrtStudy:
    def test_report_states_per_kind_coverage_vs_march_c(self):
        from repro.eval.prt_study import prt_vs_march

        report = prt_vs_march(8)
        assert report.baseline_name == "March C"
        assert report.geometry == (8, 1, 1)
        kinds = {row.kind for row in report.rows}
        assert {"SAF", "TF", "CFid", "DRF", "PNPSF"} <= kinds
        for row in report.rows:
            assert row.verdict in ("wins", "loses", "ties", "n/a")
        # The tuned default's headline: wins the dynamic/NPSF corners,
        # loses the coupling exhaustiveness, ties the basics.
        assert "PNPSF" in report.wins and "DRDF" in report.wins
        assert "CFid" in report.losses
        by_kind = {row.kind: row for row in report.rows}
        assert by_kind["SAF"].verdict == "ties"
        assert by_kind["SAF"].prt_percent == 100.0

    def test_json_payload_carries_both_sides(self):
        from repro.eval.prt_study import prt_vs_march

        payload = prt_vs_march(4).to_json()
        assert payload["baseline"] == "March C"
        assert payload["prt_ops"] > 0 and payload["march_ops"] > 0
        assert set(payload["wins"]).isdisjoint(payload["losses"])
        assert len(payload["by_kind"]) == len(
            {row["kind"] for row in payload["by_kind"]}
        )

    def test_format_is_human_readable(self):
        from repro.eval.prt_study import prt_vs_march

        text = prt_vs_march(4).format()
        assert "pseudo-ring vs March C" in text
        assert "verdict" in text


class TestPrtAreaRow:
    def test_tables_gain_opt_in_ninth_row(self):
        from repro.eval.experiments import table1, table2

        default_rows = table1()
        assert len(default_rows) == 8  # the paper's pinned tables
        rows = table1(include_prt=True)
        assert len(rows) == 9
        assert rows[-1].method == "Pseudo-Ring PRT"
        assert rows[-1].flexibility == "LOW"
        assert rows[-1].gate_equivalents > 0
        rows2 = table2(include_prt=True)
        assert rows2[-1].method == "Pseudo-Ring PRT"

    def test_prt_row_undercuts_programmable_controllers(self):
        from repro.eval.experiments import table1

        rows = {r.method: r for r in table1(include_prt=True)}
        prt = rows["Pseudo-Ring PRT"].gate_equivalents
        assert prt < rows["Microcode-Based"].gate_equivalents
        assert prt < rows["Prog. FSM-Based"].gate_equivalents

    def test_lfsr_register_component_formula(self):
        from repro.area.components import LfsrRegister
        from repro.area.technology import IBM_CMOS5S as tech

        plain = LfsrRegister("x", 16, taps=4)
        misr = LfsrRegister("x", 16, taps=4, misr=True)
        assert plain.gate_equivalents(tech) == (
            16 * tech.cell_ge("dff") + 4 * tech.xor2_ge
        )
        assert misr.gate_equivalents(tech) == (
            plain.gate_equivalents(tech) + 16 * tech.xor2_ge
        )
        with pytest.raises(ValueError):
            LfsrRegister("x", 0, taps=1)


class TestFuzzIdentityJ:
    def test_prt_identity_runs_and_holds(self):
        from repro.analysis.fuzz import check_sample

        for index in range(3):
            result = check_sample(
                11, index,
                conformance=False, fault_conformance=False,
                coverage_conformance=False, vector_conformance=False,
                infield_conformance=False, service_conformance=False,
            )
            assert result.prt_checked
            assert result.ok, result.mismatches
            assert result.to_dict()["prt_checked"] is True

    def test_identity_is_skippable(self):
        from repro.analysis.fuzz import check_sample

        result = check_sample(
            11, 0,
            conformance=False, fault_conformance=False,
            coverage_conformance=False, vector_conformance=False,
            infield_conformance=False, service_conformance=False,
            prt_conformance=False,
        )
        assert not result.prt_checked


class TestPrtCli:
    def test_coverage_subcommand(self, capsys):
        assert main([
            "prt", "coverage", "--geometry", "4x1x1", "--min-overall", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "pseudo-ring vs March C" in out

    def test_coverage_gate_fails_below_threshold(self, capsys):
        assert main([
            "prt", "coverage", "--geometry", "4x1x1", "--min-overall", "101",
        ]) == 1

    def test_conformance_subcommand(self, capsys):
        assert main([
            "prt", "conformance", "--geometry", "4x1x1", "--per-kind", "1",
        ]) == 0
        assert "fault-response sweep" in capsys.readouterr().out
