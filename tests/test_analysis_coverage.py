"""Tests for the static fault-coverage prover, its certificates, the
certificate-vs-sweep differential cross-check and the ``CV`` lint rules."""

import json
import pathlib

import pytest

from repro.analysis.coverage import (
    COVERED,
    NOT_COVERED,
    UNKNOWN,
    CoverageCertificate,
    FaultVerdict,
    ShadowMemory,
    certify,
    support_of,
)
from repro.analysis.coverage_rules import LINT_GEOMETRY, run_coverage_rules
from repro.conformance import (
    check_coverage_conformance,
    coverage_disagreement_predicate,
    sweep_faults,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.base import CellFault
from repro.faults.conditions import condition_for, condition_table
from repro.faults.coupling import InversionCouplingFault
from repro.faults.injector import FaultInjector
from repro.faults.spec import format_fault, parse_fault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.universe import standard_universe
from repro.march import library
from repro.march.element import AddressOrder, MarchElement
from repro.march.notation import parse_test
from repro.march.projection import MarchProjection
from repro.march.simulator import expand
from repro.march.test import MarchTest
from repro.memory.sram import Sram

REGRESSIONS = pathlib.Path(__file__).parent / "corpus" / "regressions"

#: Kinds whose behaviour involves only the faulty cell itself, so a
#: covered verdict must survive growing the memory around the cell.
CELL_LOCAL_KINDS = ("SAF", "TF", "SOF", "DRF", "IRF", "RDF", "DRDF")


def _simulated_detection(test, caps, fault):
    """The sweep's ground truth: does any read fail under the fault?"""
    injector = FaultInjector(
        Sram(caps.n_words, width=caps.width, ports=caps.ports)
    )
    with injector.injected(fault) as memory:
        for op in expand(
            test, caps.n_words, width=caps.width, ports=caps.ports
        ):
            if op.is_delay:
                memory.elapse(op.delay)
            elif op.is_write:
                memory.write(op.port, op.address, op.value)
            elif memory.read(op.port, op.address) != op.expected:
                return True
    return False


class TestCertificate:
    def test_full_universe_verdicts(self):
        universe = standard_universe(4, 2, ports=1)
        certificate = certify(library.get("March C"), 4, width=2)
        assert len(certificate.verdicts) == len(universe.faults)
        assert certificate.unknown_count == 0
        assert certificate.fault_free_consistent
        assert certificate.covered_count + certificate.not_covered_count == \
            len(certificate.verdicts)

    def test_covered_verdicts_carry_witnesses(self):
        certificate = certify(library.get("MATS+"), 4, width=1)
        for verdict in certificate.verdicts:
            if verdict.verdict == COVERED:
                assert verdict.witness is not None
            else:
                assert verdict.witness is None

    def test_strata_account_for_every_fault(self):
        certificate = certify(library.get("March Y"), 4, width=2)
        assert sum(s["members"] for s in certificate.strata.values()) == \
            len(certificate.verdicts)

    def test_to_json_is_serialisable(self):
        certificate = certify(library.get("MATS"), 4, width=1)
        payload = json.loads(json.dumps(certificate.to_json()))
        assert payload["test"] == "MATS"
        assert payload["geometry"] == [4, 1, 1]
        assert payload["fault_free_consistent"] is True
        assert len(payload["verdicts"]) == len(certificate.verdicts)

    def test_format_mentions_counts(self):
        certificate = certify(library.get("March C"), 4, width=1)
        text = certificate.format()
        assert "March C" in text
        assert f"{certificate.covered_count}/" in text

    def test_kind_fully_covered_tristate(self):
        certificate = certify(library.get("March C"), 4, width=1)
        assert certificate.kind_fully_covered("SAF") is True
        assert certificate.kind_fully_covered("DRF") is False
        assert certificate.kind_fully_covered("NOPE") is None

    def test_empty_certificate_rates(self):
        certificate = CoverageCertificate(
            test_name="t", universe_name="u", n_words=4, width=1, ports=1
        )
        assert certificate.unknown_rate == 0.0
        assert certificate.escapes() == []


class TestDeterminism:
    def test_certify_twice_identical(self):
        args = (library.get("March B"), 4)
        first = certify(*args, width=2, ports=2)
        second = certify(*args, width=2, ports=2)
        assert first.to_json() == second.to_json()

    def test_universe_order_preserved(self):
        universe = standard_universe(4, 1)
        certificate = certify(library.get("MATS++"), 4, universe=universe)
        assert [v.index for v in certificate.verdicts] == \
            list(range(len(universe.faults)))


class TestSoundness:
    def test_witnesses_replay_as_failing_reads(self):
        caps = ControllerCapabilities(n_words=4, width=2, ports=1)
        faults = sweep_faults(caps, per_kind=2, seed=7)
        for name in ("MATS+", "March C", "March LR"):
            test = library.get(name)
            certificate = certify(test, 4, width=2, faults=faults)
            for verdict, fault in zip(certificate.verdicts, faults):
                if verdict.verdict != COVERED:
                    continue
                injector = FaultInjector(Sram(4, width=2))
                with injector.injected(fault) as memory:
                    failed = None
                    for index, op in enumerate(expand(test, 4, width=2)):
                        if op.is_delay:
                            memory.elapse(op.delay)
                        elif op.is_write:
                            memory.write(op.port, op.address, op.value)
                        elif index == verdict.witness:
                            failed = (
                                memory.read(op.port, op.address)
                                != op.expected
                            )
                            break
                        else:
                            memory.read(op.port, op.address)
                assert failed is True, (name, verdict)

    def test_unregistered_fault_type_is_unknown(self):
        class MysteryFault(CellFault):
            kind = "???"

            def describe(self):
                return "mystery"

        fault = MysteryFault()
        assert support_of(fault) is None
        certificate = certify(library.get("MATS"), 4, faults=[fault])
        assert certificate.verdicts[0].verdict == UNKNOWN
        assert certificate.unknown_rate == 1.0

    def test_partly_out_of_range_support_is_its_own_stratum(self):
        # Both couplings relativise to (aggressor w0, victim w1); the
        # second one's victim lies outside the memory, so its projection
        # never reads the victim and must not inherit the first verdict.
        inside = InversionCouplingFault(0, 0, 1, 0, True)
        outside = InversionCouplingFault(3, 0, 5, 0, True)
        assert support_of(inside).signature == support_of(outside).signature
        certificate = certify(
            library.get("March C"), 4, faults=[inside, outside]
        )
        verdicts = [v.verdict for v in certificate.verdicts]
        assert verdicts == [COVERED, NOT_COVERED]

    def test_inconsistent_test_flagged_and_still_agrees(self):
        # ⇕(r1) expects 1 from a power-on-zero array: the fault-free run
        # fails, so every fault is detected by the sweep's criterion.
        test = parse_test("⇕(r1)", name="expects-one")
        certificate = certify(test, 4, width=1)
        assert not certificate.fault_free_consistent
        assert certificate.not_covered_count == 0
        result = check_coverage_conformance(tests=[test], geometry=(4, 1, 1))
        assert result.ok, result.format()


def _reference_witness(projection, port, bg_idx, item_idx, address, op_idx):
    """The golden-stream index of one read, written out directly."""
    item = projection.test.items[item_idx]
    if item.order.resolve() is AddressOrder.UP:
        position = address
    else:
        position = projection.n_words - 1 - address
    return (
        (port * len(projection.patterns) + bg_idx) * projection.per_pass
        + projection.item_offsets[item_idx]
        + position * len(item.ops)
        + op_idx
    )


def _reference_certify(test, n_words, width, ports, faults):
    """``certify`` as one independent loop per fault — the reference the
    per-stratum stamping must reproduce exactly."""
    projection = MarchProjection(test, n_words, width, ports)
    inconsistent = bool(projection.free_failures)
    all_addresses = frozenset(range(n_words))
    certificate = CoverageCertificate(
        test_name=test.name, universe_name="faults", n_words=n_words,
        width=width, ports=ports, fault_free_consistent=not inconsistent,
    )
    cache = {}
    for index, fault in enumerate(faults):
        support = support_of(fault)
        if support is None:
            verdict, witness, label = UNKNOWN, None, "?"
        else:
            visited, covers_all, key = support.project(n_words)
            label = support.label
            if inconsistent and not covers_all:
                verdict = COVERED
                untouched = min(all_addresses - set(visited))
                port, bg_idx, item_idx, op_idx = projection.free_failures[0]
                witness = _reference_witness(
                    projection, port, bg_idx, item_idx, untouched, op_idx
                )
            else:
                if key not in cache:
                    try:
                        failure = projection.run(fault, visited)
                    except Exception:
                        cache[key] = (UNKNOWN, None)
                    else:
                        cache[key] = (
                            (COVERED, failure)
                            if failure is not None
                            else (NOT_COVERED, None)
                        )
                verdict, symbolic = cache[key]
                witness = None
                if verdict == COVERED:
                    port, bg_idx, item_idx, slot, op_idx = symbolic
                    witness = _reference_witness(
                        projection, port, bg_idx, item_idx, visited[slot],
                        op_idx,
                    )
        entry = certificate.strata.setdefault(
            label, {"verdict": verdict, "members": 0}
        )
        entry["members"] += 1
        if entry["verdict"] != verdict:
            entry["verdict"] = "mixed"
        certificate.verdicts.append(
            FaultVerdict(
                index=index,
                kind=fault.kind,
                spec=format_fault(fault),
                description=fault.describe(),
                verdict=verdict,
                witness=witness,
                stratum=label,
            )
        )
    return certificate


def _reference_json(certificate):
    """``CoverageCertificate.to_json`` as one walk per aggregate."""
    by_kind = {}
    for v in certificate.verdicts:
        counts = by_kind.setdefault(
            v.kind, {COVERED: 0, NOT_COVERED: 0, UNKNOWN: 0}
        )
        counts[v.verdict] += 1
    total = len(certificate.verdicts)
    unknown = certificate.count(UNKNOWN)
    return {
        "test": certificate.test_name,
        "universe": certificate.universe_name,
        "geometry": list(certificate.geometry),
        "covered": certificate.count(COVERED),
        "not_covered": certificate.count(NOT_COVERED),
        "unknown": unknown,
        "unknown_rate": round(unknown / total, 4) if total else 0.0,
        "fault_free_consistent": certificate.fault_free_consistent,
        "by_kind": by_kind,
        "strata": certificate.strata,
        "verdicts": [v.to_json() for v in certificate.verdicts],
    }


def _assert_stamped_equals_reference(test, geometry, faults):
    n_words, width, ports = geometry
    stamped = certify(test, n_words, width=width, ports=ports, faults=faults)
    reference = _reference_certify(test, n_words, width, ports, faults)
    # Serialised text, so key order counts too.
    assert json.dumps(stamped.to_json()) == json.dumps(
        _reference_json(reference)
    ), (test.name, geometry)
    return stamped


class _SubclassedSaf(StuckAtFault):
    """A subclass may override hooks, so the prover must not project it."""


class TestStampedVerdicts:
    @pytest.mark.parametrize(
        "geometry", [(4, 2, 1), (8, 1, 1), (3, 2, 3), (5, 4, 2), (16, 1, 1)]
    )
    def test_library_matches_per_fault_reference(self, geometry):
        n_words, width, ports = geometry
        faults = standard_universe(n_words, width, ports=ports).faults
        for name in sorted(library.ALGORITHMS):
            _assert_stamped_equals_reference(
                library.get(name), geometry, faults
            )

    def test_smaller_geometry_than_universe_gives_mixed_strata(self):
        faults = standard_universe(8, 2).faults
        mixed = 0
        for name in sorted(library.ALGORITHMS):
            certificate = _assert_stamped_equals_reference(
                library.get(name), (5, 2, 1), faults
            )
            mixed += sum(
                s["verdict"] == "mixed" for s in certificate.strata.values()
            )
        assert mixed

    @pytest.mark.parametrize("geometry", [(8, 1, 1), (5, 4, 2)])
    @pytest.mark.parametrize("notation", ["⇑(r1)", "⇑(w0);⇓(r1,w1)"])
    def test_inconsistent_test_witnesses_match(self, notation, geometry):
        test = parse_test(notation, name="inconsistent")
        n_words, width, ports = geometry
        faults = standard_universe(n_words, width, ports=ports).faults
        certificate = _assert_stamped_equals_reference(test, geometry, faults)
        assert not certificate.fault_free_consistent

    def test_subclassed_and_raising_faults_are_unknown(self):
        def refuse(memory):
            raise RuntimeError("cannot install")

        raising = StuckAtFault(2, 0, 1)
        raising.install = refuse
        # The raising fault settles its stratum, so its stratum-mate
        # (1,0,1) is stamped unknown with it.
        faults = [
            raising, _SubclassedSaf(1, 0, 1), StuckAtFault(1, 0, 1),
            StuckAtFault(3, 0, 0), _SubclassedSaf(2, 0, 0),
        ]
        certificate = _assert_stamped_equals_reference(
            library.get("March C"), (4, 1, 1), faults
        )
        verdicts = [(v.verdict, v.stratum) for v in certificate.verdicts]
        assert verdicts[1] == verdicts[4] == (UNKNOWN, "?")
        assert verdicts[0] == verdicts[2] != (UNKNOWN, "?")
        assert verdicts[0][0] == UNKNOWN
        assert verdicts[3][0] == COVERED

    @pytest.mark.parametrize("name", sorted(library.ALGORITHMS))
    def test_witness_line_places_every_read(self, name):
        test = library.get(name)
        n_words, width, ports = 3, 2, 3
        projection = MarchProjection(test, n_words, width, ports)
        golden = list(expand(test, n_words, width=width, ports=ports))
        for port in range(ports):
            for bg_idx in range(len(projection.patterns)):
                for item_idx, item in enumerate(test.items):
                    if not isinstance(item, MarchElement):
                        continue
                    for op_idx in range(len(item.ops)):
                        base, stride = projection.witness_line(
                            port, bg_idx, item_idx, op_idx
                        )
                        for address in range(n_words):
                            index = base + stride * address
                            place = (port, bg_idx, item_idx, address, op_idx)
                            assert index == _reference_witness(
                                projection, *place
                            )
                            assert index == projection.witness_index(*place)
                            assert projection.locate(index) == place
                            op = golden[index]
                            assert (op.port, op.address) == (port, address)


class TestFaultVerdictRecord:
    """``FaultVerdict`` is an immutable, hashable record whose JSON form
    is part of every certificate payload."""

    @staticmethod
    def _verdict(**changes):
        fields = dict(
            index=3, kind="SAF", spec="saf:1:0:1", description="SAF",
            verdict=COVERED, witness=7, stratum="(SAF,w0,0,1)",
        )
        fields.update(changes)
        return FaultVerdict(**fields)

    def test_fields_cannot_be_assigned(self):
        verdict = self._verdict()
        with pytest.raises(AttributeError):
            verdict.verdict = NOT_COVERED
        with pytest.raises(AttributeError):
            verdict.extra = 1

    def test_equal_fields_are_equal_and_hash_equal(self):
        assert self._verdict() == self._verdict()
        assert hash(self._verdict()) == hash(self._verdict())
        assert self._verdict() != self._verdict(witness=8)
        assert len({self._verdict(), self._verdict()}) == 1

    def test_defaults(self):
        verdict = FaultVerdict(0, "SAF", None, "SAF", UNKNOWN)
        assert (verdict.witness, verdict.stratum) == (None, "")

    def test_to_json_keys_and_order(self):
        assert json.dumps(self._verdict().to_json()) == (
            '{"index": 3, "kind": "SAF", "spec": "saf:1:0:1", '
            '"description": "SAF", "verdict": "covered", "witness": 7, '
            '"stratum": "(SAF,w0,0,1)"}'
        )

    def test_dual_port_certificates_match_reference_json(self):
        faults = standard_universe(4, 2, ports=2).faults
        for name in sorted(library.ALGORITHMS):
            _assert_stamped_equals_reference(
                library.get(name), (4, 2, 2), faults
            )


class TestGeometryMonotonicity:
    @pytest.mark.parametrize("name", sorted(library.ALGORITHMS))
    def test_cell_local_coverage_survives_growth(self, name):
        small = certify(library.get(name), 2, width=1, ports=1)
        large = certify(library.get(name), 8, width=2, ports=1)
        for kind in CELL_LOCAL_KINDS:
            if small.kind_fully_covered(kind) is True:
                assert large.kind_fully_covered(kind) is True, (name, kind)


class TestCoverageConformance:
    def test_whole_library_agrees_on_word_oriented(self):
        result = check_coverage_conformance(geometry=(4, 2, 1))
        assert result.ok, result.format()
        assert result.checked == 17 * len(standard_universe(4, 2).faults)
        assert result.unknown_rate < 0.10

    def test_sample_agrees_on_bit_and_multiport(self):
        tests = [library.get(n) for n in ("MATS++", "March C+", "PMOVI")]
        for geometry in ((8, 1, 1), (4, 2, 2)):
            result = check_coverage_conformance(tests=tests, geometry=geometry)
            assert result.ok, result.format()
            assert result.unknown == 0

    def test_to_json_shape(self):
        result = check_coverage_conformance(
            tests=[library.get("MATS")], geometry=(2, 1, 1)
        )
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["ok"] is True
        assert payload["geometry"] == [2, 1, 1]
        assert "timing" in payload
        assert "timing" not in result.to_json(include_timing=False)

    def test_predicate_false_on_agreement(self):
        predicate = coverage_disagreement_predicate()
        caps = ControllerCapabilities(n_words=4, width=1, ports=1)
        assert predicate(library.get("March C"), caps, "saf:0:0:1") is False
        assert predicate(library.get("March C"), caps, "not-a-spec") is False

    def test_regression_corpus_fault_verdicts_match_sweep(self):
        # Satellite: every recorded regression that carries a fault must
        # get, from the certificate, the exact verdict the sweep records.
        checked = 0
        for path in sorted(REGRESSIONS.glob("*.json")):
            record = json.loads(path.read_text())
            if "fault" not in record:
                continue
            test = parse_test(record["notation"], name=record["name"])
            n_words, width, ports = record["geometry"]
            caps = ControllerCapabilities(
                n_words=n_words, width=width, ports=ports
            )
            fault = parse_fault(record["fault"])
            detected = _simulated_detection(test, caps, fault)
            certificate = certify(
                test, n_words, width=width, ports=ports, faults=[fault]
            )
            verdict = certificate.verdicts[0].verdict
            assert verdict == (COVERED if detected else NOT_COVERED), path
            checked += 1
        assert checked >= 1  # the corpus ships at least one faulty record


class TestShadowMemory:
    def test_matches_sram_under_fault(self):
        fault = parse_fault("cfid:0:0:2:0:up:1")
        for memory in (Sram(4, width=2), ShadowMemory(4, width=2)):
            fault.reset()
            memory.attach(fault)
            memory.write(0, 0, 1)  # aggressor up-transition on bit 0
            values = [memory.read(0, word) for word in range(4)]
            memory.detach_all()
            assert values == [1, 0, 1, 0], type(memory).__name__

    def test_open_read_and_wired_and(self):
        shadow = ShadowMemory(4, width=1)
        shadow.attach(parse_fault("af1:2"))  # address 2 selects no cell
        shadow.write(0, 2, 1)
        assert shadow.read(0, 2) == 0  # open read returns the pulled value

    def test_elapse_reaches_retention_faults(self):
        shadow = ShadowMemory(4, width=1)
        shadow.attach(parse_fault("drf:1:0:1"))
        shadow.write(0, 1, 1)
        shadow.elapse(10_000_000)
        assert shadow.read(0, 1) == 0


class TestCoverageRules:
    def test_write_only_fires_cv001(self):
        test = parse_test("⇕(w0);⇕(w1)", name="write-only")
        rules = {d.rule for d in run_coverage_rules(test)}
        assert "CV001" in rules
        assert "CV002" in rules  # and the SAF gap is proved, not implied

    def test_library_march_c_reports_only_known_gaps(self):
        diagnostics = run_coverage_rules(library.get("March C"))
        rules = {d.rule for d in diagnostics}
        # March C has no pause and no double read: SOF/DRF/DRDF escape.
        assert rules == {"CV004", "CV005", "CV006"}
        assert all(d.severity.value == "info" for d in diagnostics)

    def test_vacuous_test_fires_cv013(self):
        fake = MarchTest("March C", parse_test("⇕(r0)", name="x").items)
        rules = {d.rule for d in run_coverage_rules(fake)}
        assert "CV013" in rules

    def test_renamed_weaker_body_fires_cv011(self):
        impostor = MarchTest("March C", library.get("MATS").items)
        diagnostics = run_coverage_rules(impostor)
        cv011 = [d for d in diagnostics if d.rule == "CV011"]
        assert cv011 and cv011[0].severity.value == "error"
        assert "March C" in cv011[0].message

    def test_genuine_library_names_never_fire_cv011(self):
        for name in ("March C", "MATS", "March G"):
            rules = {d.rule for d in run_coverage_rules(library.get(name))}
            assert "CV011" not in rules, name

    def test_hints_cite_detection_conditions(self):
        test = parse_test("⇕(w0);⇕(w1)", name="write-only")
        hints = [d.hint for d in run_coverage_rules(test) if d.hint]
        assert any("detection condition" in hint for hint in hints)


class TestDetectionConditions:
    def test_table_covers_every_universe_kind(self):
        universe = standard_universe(4, 2, ports=2)
        for fault in universe.faults:
            assert condition_for(fault.kind) is not None, fault.kind

    def test_conditions_carry_citations(self):
        for condition in condition_table():
            assert condition.citation
            assert condition.primitives

    def test_lint_geometry_exercises_all_kinds(self):
        n_words, width, ports = LINT_GEOMETRY
        kinds = {f.kind for f in standard_universe(
            n_words, width, ports=ports).faults}
        assert {"SAF", "TF", "CFid", "AF1", "PNPSF", "PAF"} <= kinds
