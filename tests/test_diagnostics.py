"""Unit tests for the diagnostics package (fail log, bitmap, classifier)."""

import pytest

from repro.core.bist_unit import MemoryBistUnit
from repro.core.controller import ControllerCapabilities
from repro.core.microcode import MicrocodeBistController
from repro.diagnostics import FailBitmap, FailLog, classify, diagnose
from repro.diagnostics.classifier import ReadContext, _read_contexts
from repro.faults import (
    AddressMapsNowhere,
    DataRetentionFault,
    InversionCouplingFault,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
)
from repro.march import library
from repro.march.backgrounds import data_backgrounds
from repro.march.element import Pause
from repro.march.projection import MarchProjection
from repro.march.simulator import Failure, expand
from repro.memory import Sram

N = 16
CAPS = ControllerCapabilities(n_words=N)


def run_diagnostic(*faults, test=library.MARCH_C_PLUS_PLUS):
    memory = Sram(N)
    for fault in faults:
        memory.attach(fault)
    unit = MemoryBistUnit(MicrocodeBistController(test, CAPS), memory)
    result = unit.run()
    return FailLog.from_result(result)


class TestFailLog:
    def test_clean_log(self):
        log = run_diagnostic()
        assert log.is_clean
        assert len(log) == 0

    def test_failing_addresses_deduplicated(self):
        log = run_diagnostic(StuckAtFault(5, 0, 0))
        assert log.failing_addresses() == [5]

    def test_failing_cells(self):
        log = run_diagnostic(StuckAtFault(5, 0, 0), StuckAtFault(9, 0, 1))
        assert set(log.failing_cells()) == {(5, 0), (9, 0)}

    def test_by_address_groups(self):
        log = run_diagnostic(StuckAtFault(5, 0, 0))
        groups = log.by_address()
        assert set(groups) == {5}
        assert len(groups[5]) == len(log)

    def test_str_truncates(self):
        log = run_diagnostic(StuckAtFault(5, 0, 0))
        assert "fail log" in str(log)


class TestFailBitmap:
    def test_from_log(self):
        log = run_diagnostic(StuckAtFault(5, 0, 0))
        bitmap = FailBitmap.from_log(log, N)
        assert bitmap.fail_count == 1
        assert bitmap.is_failing(5, 0)

    def test_mark_out_of_range_rejected(self):
        bitmap = FailBitmap(N)
        with pytest.raises(IndexError):
            bitmap.mark(N, 0)

    def test_clusters_single_cells(self):
        bitmap = FailBitmap(16)
        bitmap.mark(0, 0)
        bitmap.mark(15, 0)
        assert len(bitmap.clusters()) == 2

    def test_clusters_adjacent_merge(self):
        bitmap = FailBitmap(16)
        # 16 cells fold into a 4x4 grid; 0 and 1 are row neighbours.
        bitmap.mark(0, 0)
        bitmap.mark(1, 0)
        assert len(bitmap.clusters()) == 1

    def test_render(self):
        bitmap = FailBitmap(16)
        bitmap.mark(0, 0)
        art = bitmap.render()
        assert art.splitlines()[0][0] == "X"
        assert "." in art


class TestClassifier:
    def test_clean_memory_no_diagnoses(self):
        assert diagnose(Sram(N)) == []

    def test_stuck_at_zero(self):
        memory = Sram(N)
        memory.attach(StuckAtFault(3, 0, 0))
        (diag,) = diagnose(memory)
        assert diag.label == "SA0/TF-up"
        assert diag.address == 3

    def test_stuck_at_one(self):
        memory = Sram(N)
        memory.attach(StuckAtFault(3, 0, 1))
        (diag,) = diagnose(memory)
        assert diag.label == "SA1/TF-down"

    def test_transition_fault_in_stuck_class(self):
        """TF and SAF are behaviourally indistinguishable under march
        tests — the classifier reports the equivalence class."""
        memory = Sram(N)
        memory.attach(TransitionFault(4, 0, rising=True))
        (diag,) = diagnose(memory)
        assert diag.label == "SA0/TF-up"

    def test_retention_fault(self):
        memory = Sram(N)
        memory.attach(DataRetentionFault(5, 0, from_value=1))
        (diag,) = diagnose(memory)
        assert diag.label == "DRF"

    def test_stuck_open(self):
        memory = Sram(N)
        memory.attach(StuckOpenFault(6, 0, weak_value=1))
        (diag,) = diagnose(memory)
        assert diag.label == "SOF"

    def test_coupling_fault(self):
        memory = Sram(N)
        memory.attach(InversionCouplingFault(0, 0, 1, 0, rising=True))
        diags = diagnose(memory)
        assert any(d.label == "CF" and d.address == 1 for d in diags)

    def test_gross_address_failure(self):
        memory = Sram(4)
        for address in range(4):
            memory.attach(AddressMapsNowhere(address))
        diags = diagnose(memory)
        assert diags and all(d.label == "AF/gross" for d in diags)

    def test_multiple_faults_classified_independently(self):
        memory = Sram(N)
        memory.attach(StuckAtFault(3, 0, 0))
        memory.attach(DataRetentionFault(8, 0, from_value=1))
        labels = {d.address: d.label for d in diagnose(memory)}
        assert labels[3] == "SA0/TF-up"
        assert labels[8] == "DRF"

    def test_classify_empty_log(self):
        log = FailLog(test_name="x")
        assert classify(log, library.MARCH_C, N) == []

    def test_word_oriented_diagnosis(self):
        memory = Sram(8, width=8)
        memory.attach(StuckAtFault(2, 5, 0))
        diags = diagnose(memory)
        assert any(
            d.address == 2 and d.bit == 5 and d.label == "SA0/TF-up"
            for d in diags
        )


def _reference_contexts(test, n_words, width, ports):
    """Read context per golden op index, by walking ``expand``'s loop
    nest op by op — the classifier's former annotation, kept here as
    the oracle for :meth:`MarchProjection.locate`."""
    per_item = []
    follows_pause = False
    element_index = 0
    for item in test.items:
        if isinstance(item, Pause):
            follows_pause = True
            per_item.append(None)
            continue
        burst = 0
        meta = []
        for op in item.ops:
            if op.is_read:
                meta.append((op.polarity, burst))
                burst += 1
            else:
                meta.append((-1, -1))
                burst = 0
        per_item.append((element_index, meta, follows_pause))
        follows_pause = False
        element_index += 1

    contexts = []
    for _port in range(ports):
        for background in data_backgrounds(width):
            for item, meta in zip(test.items, per_item):
                if isinstance(item, Pause):
                    contexts.append(None)  # the delay op
                    continue
                element_index, op_meta, follows_pause = meta
                for _address in range(n_words):
                    for (polarity, burst), op in zip(op_meta, item.ops):
                        contexts.append(
                            ReadContext(
                                element_index=element_index,
                                expected_polarity=polarity,
                                background=background,
                                burst_position=burst,
                                follows_pause=follows_pause,
                            )
                            if op.is_read
                            else None
                        )
    return contexts


GEOMETRIES = [(1, 1, 1), (4, 2, 2), (5, 4, 2), (3, 2, 3), (16, 1, 1)]


class TestReadContexts:
    """The classifier places a failing op by arithmetic on the notation;
    that must agree with a walk of the golden stream everywhere."""

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_every_op_index_matches_the_stream_walk(self, geometry):
        for name in library.ALGORITHMS:
            test = library.get(name)
            projection = MarchProjection(test, *geometry)
            context = _read_contexts(projection)
            expected = _reference_contexts(test, *geometry)
            assert projection.length == len(expected), name
            assert [context(i) for i in range(len(expected))] == expected, (
                name
            )

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_locate_inverts_the_golden_layout(self, geometry):
        for name in library.ALGORITHMS:
            test = library.get(name)
            projection = MarchProjection(test, *geometry)
            for index, op in enumerate(expand(test, *geometry)):
                located = projection.locate(index)
                port, bg_idx, item_idx, address, op_idx = located
                assert op.port == port and op.address == address, name
                if isinstance(test.items[item_idx], Pause):
                    assert op.is_delay and op_idx == 0, name
                    continue
                assert projection.witness_index(*located) == index, name
                assert located == projection.locate(index - projection.length)

    def test_index_past_the_end_raises_like_a_list(self):
        test = library.MARCH_C_PLUS_PLUS
        projection = MarchProjection(test, 4, 2, 2)
        for index in (projection.length, projection.length + 7,
                      -projection.length - 1):
            with pytest.raises(IndexError) as error:
                projection.locate(index)
            assert str(error.value) == "list index out of range"
        with pytest.raises(IndexError) as error:
            _read_contexts(projection)(projection.length)
        assert str(error.value) == "list index out of range"

    def test_classify_raises_for_a_failure_past_the_stream(self):
        # The differential harness folds this crash into the verdict
        # "<classifier failed: list index out of range>".
        test = library.MARCH_C_PLUS_PLUS
        length = MarchProjection(test, 4, 2, 2).length
        log = FailLog(test.name, [Failure(length, 0, 1, 0, 1)])
        with pytest.raises(IndexError) as error:
            classify(log, test, 4, width=2, ports=2)
        assert str(error.value) == "list index out of range"
