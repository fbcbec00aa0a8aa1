"""The fault-kind table (``repro.faults.kinds``) and its three views.

``spec``, ``support`` and ``conditions`` read every kind from the
table, so the table is checked once here: one row per concrete class,
unique tags and prefixes, the universes on the CI geometries formatting
and extracting exactly as the hand-written per-kind copies did (pinned
digests measured before the table existed), and every spec-expressible
member surviving the wire format.
"""

import hashlib
import inspect
import pathlib

import pytest

import repro.faults
from repro.conformance.faulty.coverage import CoverageReport
from repro.faults.base import CellFault
from repro.faults.concurrent import (
    ConcurrentPortAccessFault,
    concurrent_fault_universe,
)
from repro.faults.conditions import CONDITIONS, condition_for
from repro.faults.kinds import KINDS
from repro.faults.linked import CompositeFault
from repro.faults.port import PortRestrictedFault, PortStuckOpenAccess
from repro.faults.retention import DataRetentionFault
from repro.faults.spec import format_fault, parse_fault, spec_fields
from repro.faults.stuck_at import StuckAtFault
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.support import support_of
from repro.faults.universe import standard_universe

TESTING_DOC = pathlib.Path(__file__).parent.parent / "docs" / "TESTING.md"

#: geometry -> (population size, format digest, support digest), measured
#: on the per-kind ``_FORMATTERS``/``_EXTRACTORS`` tables the kind table
#: replaced.
GOLDEN = {
    (4, 2, 1): (352, "f21b473a18a27426", "6215315cf27c1121"),
    (8, 1, 1): (368, "e86f3a68323ce4d4", "fe44d2144176cf60"),
    (4, 2, 2): (416, "c7aba6308f8f10e3", "9db15c3f4c2408fc"),
    (3, 2, 3): (294, "48d88105287967e8", "6f0cb16c36aa9155"),
    (5, 4, 2): (1260, "3407a67120c3b147", "4b82560f5f61cc7c"),
    (64, 2, 1): (7072, "293c991d2e95e06b", "4a3650f8007972fc"),
    (32, 4, 1): (6944, "8263bcaec6e54fff", "87dd8bec6c2b0aa5"),
}


def _population(n_words, width, ports):
    """The standard universe plus the concurrent one, in order."""
    return list(standard_universe(n_words, width, ports=ports)) + (
        concurrent_fault_universe(n_words, width, ports)
    )


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _support_line(fault):
    support = support_of(fault)
    if support is None:
        return type(fault).__name__, None, None
    return type(fault).__name__, support.addresses, support.signature


class TestTable:
    def test_tags_and_prefixes_are_unique(self):
        tags = [row.cls.kind for row in KINDS]
        prefixes = [row.prefix for row in KINDS if row.prefix]
        assert len(set(tags)) == len(tags) == 21
        assert len(set(prefixes)) == len(prefixes) == 17
        assert all(prefix == prefix.lower() for prefix in prefixes)

    def test_one_row_per_concrete_class(self):
        public = [getattr(repro.faults, name) for name in repro.faults.__all__]
        exported = {
            obj for obj in public
            if inspect.isclass(obj) and issubclass(obj, CellFault)
            and not inspect.isabstract(obj)
        }
        expected = exported | {
            PortStuckOpenAccess, PortRestrictedFault, CompositeFault
        }
        rows = [row.cls for row in KINDS]
        assert sorted(rows, key=repr) == sorted(expected, key=repr)

    def test_spec_fields_are_the_required_constructor_arguments(self):
        assert spec_fields(StuckOpenFault) == (
            ("word", "bit", "weak_value"), {"disturb_threshold": 2}
        )
        hidden = {
            name
            for row in KINDS if row.prefix
            for name in spec_fields(row.cls)[1]
        }
        assert hidden == {"disturb_threshold", "decay_time", "open_value"}

    def test_every_kind_but_the_port_wrapper_has_a_condition(self):
        """PORT wraps another kind and is explained by the inner
        kind's condition; every other row names its own."""
        missing = [row.cls.kind for row in KINDS if row.condition is None]
        assert missing == [PortRestrictedFault.kind]
        for tag in ("PAFc", "CFxp"):
            assert condition_for(tag) is CONDITIONS[tag]

    def test_condition_keys_are_conditions(self):
        for row in KINDS:
            if row.condition is None:
                assert condition_for(row.cls.kind) is None, row
            else:
                assert condition_for(row.cls.kind) is CONDITIONS[
                    row.condition
                ]
        for tag in ("AF1", "AF2", "AF3", "AF4"):
            assert condition_for(tag) is CONDITIONS["AF"]
        assert condition_for("CFid&CFid") is CONDITIONS["linked"]
        assert condition_for("CFid-linked") is CONDITIONS["linked"]
        assert condition_for("nonesuch") is None


@pytest.mark.parametrize("geometry", sorted(GOLDEN))
class TestUniverseViews:
    def test_pinned_digests(self, geometry):
        faults = _population(*geometry)
        size, specs, supports = GOLDEN[geometry]
        assert len(faults) == size
        assert _digest(format_fault(f) for f in faults) == specs
        assert _digest(_support_line(f) for f in faults) == supports

    def test_every_spec_member_round_trips(self, geometry):
        expressible = 0
        for fault in _population(*geometry):
            spec = format_fault(fault)
            if spec is None:
                continue
            expressible += 1
            rebuilt = parse_fault(spec)
            assert type(rebuilt) is type(fault), spec
            assert vars(rebuilt) == vars(fault), spec
        assert expressible


class TestHiddenParameters:
    """A fault whose defaulted constructor parameter is not the default
    has no spec form: the spec would rebuild the default."""

    CASES = [
        StuckOpenFault(1, 0, 1, disturb_threshold=5),
        DataRetentionFault(1, 0, 1, decay_time=7),
        PortStuckOpenAccess(0, 1, 0, open_value=1),
        ConcurrentPortAccessFault(0, 1, 0, open_value=1),
    ]

    @pytest.mark.parametrize("fault", CASES, ids=lambda f: f.kind)
    def test_non_default_hidden_value_has_no_spec(self, fault):
        assert format_fault(fault) is None

    def test_defaults_still_format(self):
        assert format_fault(StuckOpenFault(1, 0, 1)) == "sof:1:0:1"
        assert format_fault(DataRetentionFault(1, 0, 1)) == "drf:1:0:1"
        assert format_fault(PortStuckOpenAccess(0, 1, 0)) == "paf:0:1:0"

    def test_escape_specs_fall_back_to_unspec(self):
        report = CoverageReport(
            "t", "u", escapes=self.CASES + [StuckAtFault(0, 0, 1)]
        )
        specs = report.escape_specs()
        assert [spec.split(":")[:2] for spec in specs[:4]] == [
            ["unspec", "SOF"], ["unspec", "DRF"], ["unspec", "PAF"],
            ["unspec", "PAFc"],
        ]
        assert specs[4] == "saf:0:0:1"


def test_testing_doc_lists_every_kind():
    """docs/TESTING.md's grammar list names every prefix, with the
    constructor's field names."""
    text = TESTING_DOC.read_text()
    for row in KINDS:
        if row.prefix is None:
            continue
        fields, _ = spec_fields(row.cls)
        grammar = ":".join([row.prefix] + [
            "up|down" if name == "rising" else name for name in fields
        ])
        assert f"`{grammar}`" in text, grammar
