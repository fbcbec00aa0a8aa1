"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import FaultSpecError, main, parse_fault
from repro.faults import (
    AddressMapsNowhere,
    DataRetentionFault,
    InversionCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
)
from repro.faults.port import PortStuckOpenAccess


class TestParseFault:
    def test_saf(self):
        fault = parse_fault("saf:3:0:1")
        assert isinstance(fault, StuckAtFault)
        assert (fault.word, fault.bit, fault.value) == (3, 0, 1)

    def test_tf_up_and_down(self):
        assert parse_fault("tf:4:0:up").rising
        assert not parse_fault("tf:4:0:down").rising

    def test_drf(self):
        fault = parse_fault("drf:5:0:1")
        assert isinstance(fault, DataRetentionFault)
        assert fault.from_value == 1

    def test_sof(self):
        assert isinstance(parse_fault("sof:6:0:1"), StuckOpenFault)

    def test_cfin(self):
        fault = parse_fault("cfin:0:0:1:0:up")
        assert isinstance(fault, InversionCouplingFault)
        assert fault.victim_word == 1

    def test_af_classes(self):
        assert isinstance(parse_fault("af1:3"), AddressMapsNowhere)
        assert parse_fault("af3:2:6").other_address == 6

    def test_paf(self):
        fault = parse_fault("paf:1:3:0")
        assert isinstance(fault, PortStuckOpenAccess)
        assert fault.port == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault("xyz:1:2:3")

    def test_wrong_arity_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault("saf:3")

    def test_bad_direction_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault("tf:1:0:sideways")


class TestRunCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["run", "--words", "16"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_run_exits_one(self, capsys):
        code = main(["run", "--words", "16", "--fault", "saf:3:0:1"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("arch", ["microcode", "progfsm", "hardwired"])
    def test_all_architectures(self, arch, capsys):
        assert main(["run", "--words", "8", "--architecture", arch]) == 0
        capsys.readouterr()

    def test_diagnose_prints_classification(self, capsys):
        code = main([
            "run", "--words", "16", "--algorithm", "March C++",
            "--fault", "drf:5:0:1", "--diagnose",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "fail bitmap" in out
        assert "DRF" in out

    def test_area_flag(self, capsys):
        assert main(["run", "--words", "16", "--area"]) == 0
        assert "GE" in capsys.readouterr().out

    def test_unknown_algorithm_errors(self, capsys):
        assert main(["run", "--algorithm", "March Z"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_fault_spec_errors(self, capsys):
        assert main(["run", "--fault", "nope"]) == 2
        capsys.readouterr()

    def test_word_oriented_multiport_run(self, capsys):
        code = main([
            "run", "--words", "8", "--width", "4", "--ports", "2",
            "--fault", "paf:1:3:2",
        ])
        assert code == 1
        capsys.readouterr()


class TestAssembleCommand:
    def test_microcode_listing(self, capsys):
        assert main(["assemble", "--algorithm", "March C"]) == 0
        out = capsys.readouterr().out
        assert "REPEAT" in out

    def test_fsm_listing(self, capsys):
        assert main(["assemble", "--algorithm", "March C",
                     "--format", "fsm"]) == 0
        assert "SM1" in capsys.readouterr().out

    def test_interchange_output_loads_back(self, capsys):
        assert main(["assemble", "--algorithm", "March A",
                     "--format", "interchange"]) == 0
        out = capsys.readouterr().out
        from repro.core.programming import load_program

        loaded = load_program(out)
        assert loaded.name == "March A"

    def test_fsm_format_rejects_unrealizable(self, capsys):
        assert main(["assemble", "--algorithm", "March B",
                     "--format", "fsm"]) == 2
        capsys.readouterr()


class TestAlgorithmsCommand:
    def test_lists_all(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("March C", "March A++", "PMOVI", "March LR"):
            assert name in out
        assert "10N" in out


class TestAlgorithmGivenOnce:
    """A second ``--algorithm`` is an error, not a silent override of
    the first; naming several algorithms is ``--all``."""

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--per-kind", "1"],
        ["certify"],
        ["serve", "submit"],
    ])
    def test_repeat_exits_two(self, command, capsys, tmp_path):
        if command[0] == "serve":
            command = command + ["--root", str(tmp_path)]
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--algorithm", "March C",
                            "--algorithm", "MATS+"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --algorithm: given more than once" in err
        assert list(tmp_path.iterdir()) == []

    def test_single_explicit_default_accepted(self, capsys):
        assert main(["certify", "--algorithm", "March C",
                     "--words", "4"]) == 0


class TestRecommendCommand:
    def test_recommend_retention(self, capsys):
        assert main(["recommend", "--classes", "saf,tf,drf"]) == 0
        out = capsys.readouterr().out
        assert "March C+" in out
        assert "Del(1024)" in out

    def test_recommend_case_insensitive(self, capsys):
        assert main(["recommend", "--classes", "cfin,cfid,cfst"]) == 0
        capsys.readouterr()

    def test_recommend_unknown_class_errors(self, capsys):
        assert main(["recommend", "--classes", "saf,xyz"]) == 2
        assert "unknown fault classes" in capsys.readouterr().err


class TestLintCommand:
    def test_default_algorithm_lints_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "March C" in out
        assert "0 error(s)" in out

    def test_all_library_algorithms_exit_zero(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        for name in ("March C", "March A++", "PMOVI"):
            assert name in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        assert main(["lint", "--all", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert {report["name"] for report in reports} >= {"March C", "PMOVI"}
        assert all(report["errors"] == 0 for report in reports)

    def test_progfsm_target_flags_unrealizable_algorithm(self, capsys):
        assert main(["lint", "--algorithm", "March B",
                     "--target", "progfsm"]) == 1
        out = capsys.readouterr().out
        assert "MA004" in out
        assert "SM0-SM7" in out

    def test_uncompressed_lint_advises_compression(self, capsys):
        assert main(["lint", "--algorithm", "March C", "--no-compress"]) == 0
        assert "MC012" in capsys.readouterr().out

    def test_rules_prints_the_catalogue(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("MC001", "MC010", "MA004"):
            assert rule_id in out

    def test_program_file_lints(self, capsys, tmp_path):
        assert main(["assemble", "--algorithm", "March C",
                     "--format", "interchange"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "marchc.prog"
        path.write_text(text)
        assert main(["lint", "--program", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_march_target_is_architecture_neutral(self, capsys):
        assert main(["lint", "--algorithm", "March B",
                     "--target", "march"]) == 0
        capsys.readouterr()

    def test_progfsm_target_lints_the_whole_library_clean(self, capsys):
        """Acceptance: the whole-library progfsm lint exits 0 —
        realizable algorithms verify error-free, the rest are skipped
        as the architecture's designed flexibility boundary."""
        assert main(["lint", "--all", "--target", "progfsm"]) == 0
        out = capsys.readouterr().out
        assert "March C" in out
        assert "skipped" in out  # March B et al.

    def test_progfsm_target_runs_the_pf_rules(self, capsys):
        assert main(["lint", "--all", "--target", "progfsm",
                     "--json"]) == 0
        import json as json_module

        reports = json_module.loads(capsys.readouterr().out)
        assert all(report["errors"] == 0 for report in reports)

    def test_rules_catalogue_includes_pf_series(self, capsys):
        assert main(["lint", "--rules"]) == 0
        assert "PF002" in capsys.readouterr().out

    def test_rules_catalogue_includes_cv_series(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "CV001" in out
        assert "CV013" in out

    def test_coverage_target_reports_proved_escapes(self, capsys):
        assert main(["lint", "--algorithm", "March C",
                     "--target", "coverage"]) == 0
        out = capsys.readouterr().out
        assert "CV005" in out  # March C has no pause: DRF escapes
        assert "proved escape" in out

    def test_all_prints_family_summary_line(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "summary: 17 algorithm(s) linted" in out
        assert "MA:" in out

    def test_single_algorithm_has_no_summary_line(self, capsys):
        assert main(["lint"]) == 0
        assert "summary:" not in capsys.readouterr().out


class TestCertifyCommand:
    def test_certificate_prints_per_kind_counts(self, capsys):
        assert main(["certify", "--algorithm", "March C", "--words", "4"]) == 0
        out = capsys.readouterr().out
        assert "certificate: March C" in out
        assert "SAF" in out

    def test_cross_check_agrees_and_exits_zero(self, capsys):
        assert main(["certify", "--algorithm", "MATS+", "--words", "4",
                     "--width", "2", "--cross-check"]) == 0
        out = capsys.readouterr().out
        assert "0 disagreement(s)" in out

    def test_geometry_flags_and_report(self, capsys, tmp_path):
        import json as json_module

        path = tmp_path / "certify.json"
        assert main(["certify", "--algorithm", "MATS", "--geometry", "2x1x1",
                     "--geometry", "2x2x1", "--cross-check",
                     "--report", str(path), "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert [entry["geometry"] for entry in payload] == \
            [[2, 1, 1], [2, 2, 1]]
        assert json_module.loads(path.read_text())["results"] == payload

    def test_all_builds_one_universe_per_geometry(self, capsys, monkeypatch):
        import json as json_module

        from repro.analysis.coverage import certify, prover
        from repro.faults import universe as universe_module
        from repro.march import library

        geometries = [(4, 2, 1), (3, 2, 3)]
        expected = [
            certify(library.get(name), n_words, width=width, ports=ports)
            .to_json()
            for n_words, width, ports in geometries
            for name in library.ALGORITHMS
        ]
        built = []
        real = universe_module.standard_universe

        def spy(n_words, width=1, **kwargs):
            built.append((n_words, width, kwargs.get("ports", 1)))
            return real(n_words, width, **kwargs)

        monkeypatch.setattr(universe_module, "standard_universe", spy)
        monkeypatch.setattr(prover, "standard_universe", spy)
        assert main(["certify", "--all", "--geometry", "4x2x1",
                     "--geometry", "3x2x3", "--json"]) == 0
        assert built == geometries
        assert capsys.readouterr().out == (
            json_module.dumps(expected, indent=2) + "\n"
        )

    def test_bad_geometry_errors(self, capsys):
        assert main(["certify", "--geometry", "nope"]) == 2
        assert "bad geometry" in capsys.readouterr().err


class TestLintFixCommand:
    def _write_broken_program(self, capsys, tmp_path):
        from repro.core.microcode.assembler import MicrocodeProgram
        from repro.core.microcode.isa import ConditionOp
        from repro.core.programming import dump_program, load_program

        assert main(["assemble", "--algorithm", "March C", "--words", "8",
                     "--format", "interchange"]) == 0
        program = load_program(capsys.readouterr().out)
        rows = [row for row in program.instructions
                if row.cond is not ConditionOp.TERMINATE]
        path = tmp_path / "broken.prog"
        path.write_text(dump_program(MicrocodeProgram(
            name=program.name, instructions=rows, source=program.source,
        )))
        return path

    def test_fix_rewrites_the_file_and_exits_zero(self, capsys, tmp_path):
        path = self._write_broken_program(capsys, tmp_path)
        assert main(["lint", "--fix", "--program", str(path),
                     "--words", "8"]) == 0
        out = capsys.readouterr().out
        assert "fixed:" in out
        assert f"rewrote {path}" in out
        # The rewritten file now lints clean.
        assert main(["lint", "--program", str(path), "--words", "8"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_fix_on_a_clean_file_is_a_noop(self, capsys, tmp_path):
        assert main(["assemble", "--algorithm", "March C", "--words", "8",
                     "--format", "interchange"]) == 0
        path = tmp_path / "clean.prog"
        path.write_text(capsys.readouterr().out)
        before = path.read_text()
        assert main(["lint", "--fix", "--program", str(path),
                     "--words", "8"]) == 0
        assert "nothing to fix" in capsys.readouterr().out
        assert path.read_text() == before

    def test_fix_requires_a_program_file(self, capsys):
        assert main(["lint", "--fix"]) == 2
        assert "--fix requires --program" in capsys.readouterr().err


def _crashed_capture(stream, memory, max_ops=None):
    raise IndexError("comparator bank out of range")


class TestSweepCommand:
    def test_single_fault_exits_zero(self, capsys):
        assert main(["sweep", "--algorithm", "March C",
                     "--words", "4", "--width", "2",
                     "--fault", "saf:2:1:1"]) == 0
        out = capsys.readouterr().out
        assert "(4, 2, 1): 1 (algorithm, fault) runs, 1 detected" in out

    def test_stratified_sweep_reports_and_exits_zero(self, capsys, tmp_path):
        import json as json_module

        report_file = tmp_path / "sweep.json"
        assert main(["sweep", "--algorithm", "MATS+",
                     "--words", "3", "--per-kind", "1",
                     "--report", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "fault-response sweep" in out
        payload = json_module.loads(report_file.read_text())
        assert payload["ok"]
        [section] = payload["geometries"]
        assert section["ok"]
        assert section["checked"] > 0

    def test_json_result_shape(self, capsys, monkeypatch):
        """A failing run's record names the spec and every architecture,
        in the fixed architecture order."""
        import json as json_module

        from repro.conformance.faulty import check as faulty_check

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "hardwired", _crashed_capture
        )
        assert main(["sweep", "--algorithm", "MATS",
                     "--words", "4", "--fault", "tf:1:0:up",
                     "--json"]) == 1
        payload = json_module.loads(capsys.readouterr().out)
        [failure] = payload["geometries"][0]["failures"]
        assert failure["fault_spec"] == "tf:1:0:up"
        assert [r["architecture"] for r in failure["architectures"]] == [
            "microcode", "progfsm", "hardwired"
        ]

    def test_bad_fault_spec_exits_two(self, capsys):
        assert main(["sweep", "--fault", "zzz:1"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_single_run_writes_the_report_too(self, capsys, tmp_path):
        """With exactly one algorithm and one --fault, --report is
        still written."""
        import json as json_module

        report_file = tmp_path / "single.json"
        assert main(["sweep", "--algorithm", "March C",
                     "--words", "4", "--width", "2",
                     "--fault", "saf:2:1:1",
                     "--report", str(report_file)]) == 0
        assert "fault-response sweep" in capsys.readouterr().out
        payload = json_module.loads(report_file.read_text())
        assert payload["ok"] and payload["checked"] == 1
        [section] = payload["geometries"]
        assert section["geometry"] == [4, 2, 1]
        assert section["detected"] == 1

    @pytest.mark.parametrize("mode", ["infield", "concurrent"])
    def test_single_run_report_carries_the_mode(
        self, capsys, tmp_path, mode
    ):
        """A single-pair --report carries the --mode the run used."""
        import json as json_module

        report_file = tmp_path / "single.json"
        assert main(["sweep", "--algorithm", "MATS+",
                     "--words", "3", "--width", "2", "--ports", "2",
                     "--fault", "saf:1:0:1", "--mode", mode,
                     "--report", str(report_file)]) == 0
        assert f"[{mode} mode]" in capsys.readouterr().out
        payload = json_module.loads(report_file.read_text())
        [section] = payload["geometries"]
        assert section["mode"] == mode
        assert payload["ok"] and payload["checked"] == 1

    def test_jobs_flag_keeps_the_report_identical(self, capsys, tmp_path):
        import json as json_module

        serial_file = tmp_path / "serial.json"
        parallel_file = tmp_path / "parallel.json"
        base = ["sweep", "--algorithm", "MATS+",
                "--words", "3", "--per-kind", "1"]
        assert main(base + ["--jobs", "1",
                            "--report", str(serial_file)]) == 0
        assert main(base + ["--jobs", "2",
                            "--report", str(parallel_file)]) == 0
        capsys.readouterr()
        serial = json_module.loads(serial_file.read_text())
        parallel = json_module.loads(parallel_file.read_text())
        assert serial.pop("timing")["jobs"] == 1
        assert parallel.pop("timing")["jobs"] == 2
        [serial_section] = serial["geometries"]
        [parallel_section] = parallel["geometries"]
        assert serial_section.pop("timing")["jobs"] == 1
        assert parallel_section.pop("timing")["jobs"] == 2
        assert serial == parallel

    def test_multi_geometry_sweep_sections(self, capsys, tmp_path):
        import json as json_module

        report_file = tmp_path / "multi.json"
        assert main(["sweep", "--algorithm", "MATS+",
                     "--geometry", "3x1x1", "--geometry", "2x2",
                     "--per-kind", "1",
                     "--report", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "multi-geometry fault-response sweep" in out
        assert "(3, 1, 1)" in out and "(2, 2, 1)" in out
        payload = json_module.loads(report_file.read_text())
        assert payload["ok"]
        assert [g["geometry"] for g in payload["geometries"]] == [
            [3, 1, 1], [2, 2, 1]
        ]

    def test_bad_geometry_exits_two(self, capsys):
        assert main(["sweep", "--geometry", "4xZ"]) == 2
        assert "bad geometry" in capsys.readouterr().err
        assert main(["sweep", "--geometry", "4"]) == 2

    def test_resume_requires_a_store(self, capsys):
        assert main(["sweep", "--algorithm", "MATS", "--words", "3",
                     "--per-kind", "1", "--resume"]) == 2
        captured = capsys.readouterr()
        assert "error: --resume requires --store" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    @pytest.mark.parametrize("spec, fits, misfit, field", [
        ("saf:7:0:1", "8x1x1", "4x1x1", "word 7 is outside 0..3"),
        ("cfin:0:0:1:3:up", "2x4x1", "2x2x1", "victim_bit 3 is outside 0..1"),
        ("paf:1:0:0", "4x1x2", "4x1x1", "port 1 is outside 0..0"),
    ], ids=["word", "bit", "port"])
    def test_explicit_fault_outside_a_geometry_exits_two(
        self, capsys, engine, spec, fits, misfit, field
    ):
        """Every --fault is checked against every geometry before the
        first section runs, so the geometry it fits sweeps nothing."""
        assert main(["sweep", "--algorithm", "MATS", "--fault", spec,
                     "--geometry", fits, "--geometry", misfit,
                     "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --fault {spec} does not fit geometry {misfit}: "
            f"{field}\n"
        )

    def test_store_resume_rerun_is_all_cache_hits(self, capsys, tmp_path):
        import json as json_module

        argv = ["sweep", "--algorithm", "MATS+", "--words", "3",
                "--per-kind", "1", "--store", str(tmp_path / "store"),
                "--resume", "--json"]
        assert main(argv) == 0
        first = json_module.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json_module.loads(capsys.readouterr().out)
        shards = len(first["geometries"][0]["timing"]["shards"])
        assert shards > 1
        assert first["store"]["hits"] == 0
        assert second["store"]["hits"] == shards
        assert second["store"]["misses"] == 0
        for payload in (first, second):
            del payload["store"], payload["timing"]
            for section in payload["geometries"]:
                del section["timing"]
        assert first == second

    CROSS = ["sweep", "--algorithm", "MATS+", "--words", "3",
             "--per-kind", "1", "--cross-engine", "--json"]

    def test_cross_engine_exits_zero_when_engines_agree(self, capsys):
        import json as json_module

        assert main(self.CROSS) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["divergence"] is None
        assert payload["scalar"]["geometries"][0]["timing"]["engine"] == (
            "scalar"
        )
        assert payload["vector"]["geometries"][0]["timing"]["engine"] == (
            "vector"
        )

    def test_cross_engine_exits_one_on_a_vector_divergence(
        self, capsys, monkeypatch
    ):
        import json as json_module

        from repro.vector import sweep as vector_sweep

        decide = vector_sweep._decide

        def flip_first(plan, faults, population):
            decided, raised = decide(plan, faults, population)
            members, start, stop, detected = decided[0]
            decided[0] = (members, start, stop, not detected)
            return decided, raised

        monkeypatch.setattr(vector_sweep, "_decide", flip_first)
        assert main(self.CROSS) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["divergence"].startswith(
            "geometries[0].detected: scalar "
        )

    def test_cross_engine_exits_one_when_the_scalar_report_fails(
        self, capsys, monkeypatch
    ):
        """Agreeing engines are not enough: the oracle must be clean.
        A patched capture sends the vector engine down the scalar
        road, so both reports carry the same failures."""
        import json as json_module

        from repro.conformance.faulty import check as faulty_check

        monkeypatch.setitem(
            faulty_check.RESPONSE_CAPTURES, "hardwired", _crashed_capture
        )
        assert main(self.CROSS) == 1
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["divergence"] is None
        assert payload["ok"] is False
        assert payload["scalar"]["failure_count"] > 0


class TestConformanceShrinkFaultCommand:
    def test_conforming_sample_has_nothing_to_shrink(self, capsys):
        code = main(["conformance", "shrink", "--notation", "^(r0)",
                     "--words", "2", "--fault", "saf:0:0:1"])
        assert code == 1
        assert "nothing to shrink" in capsys.readouterr().out


class TestConformanceRecordStreamsCommand:
    def test_record_streams_writes_the_registry(self, capsys, tmp_path):
        assert main(["conformance", "record", "--streams",
                     "--corpus-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        from repro.conformance.corpus import (
            STREAM_GENERATORS,
            STREAM_GEOMETRIES,
        )

        expected = len(STREAM_GENERATORS) * len(STREAM_GEOMETRIES)
        assert len(list(tmp_path.glob("streams/*.json"))) == expected
        assert out.count("wrote ") == expected


class TestFuzzCommand:
    def test_small_corpus_exits_zero(self, capsys):
        assert main(["fuzz", "--samples", "12", "--seed", "0",
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "12/12 samples checked" in out
        assert "0 mismatch(es)" in out

    def test_json_report(self, capsys):
        import json as json_module

        assert main(["fuzz", "--samples", "8", "--seed", "1",
                     "--jobs", "1", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["checked"] == 8
        assert payload["mismatch_count"] == 0

    def test_bad_arguments_exit_two(self, capsys):
        assert main(["fuzz", "--samples", "0", "--jobs", "1"]) == 2
        assert "at least one sample" in capsys.readouterr().err

    def test_no_faults_skips_identity_e(self, capsys):
        import json as json_module

        assert main(["fuzz", "--samples", "6", "--seed", "0",
                     "--jobs", "1", "--skip", "e", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["checked"] == 6
        assert payload["fault_detected"] == 0
        assert payload["vector_checked"] == 0  # (g) needs (e)
