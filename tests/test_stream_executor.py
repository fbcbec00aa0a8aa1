"""One stream executor: go/no-go, in-field sessions and divergences.

Every full-stream run goes through :func:`repro.march.simulator.
run_on_memory` (or its cycle twin).  These tests pin, by digests
measured before the early-exit loops and the private session loops were
folded into it, that the rewired callers report exactly what they did:

* the go/no-go BIST run is the full run's first failure;
* an in-field session reports the same events, owners and checkpoint
  outcomes, with and without a fault injected mid-stream;
* a response divergence renders the same report, owners included.
"""

import hashlib
import json

import pytest

from repro.conformance import check as stimulus_check
from repro.conformance.faulty import check_fault_conformance, sweep_faults
from repro.conformance.faulty.events import ResponseBudgetExceeded
from repro.conformance.infield import build_infield_plan, run_infield_session
from repro.core.bist_unit import MemoryBistUnit
from repro.core.controller import ControllerCapabilities
from repro.core.microcode import MicrocodeBistController
from repro.faults.injector import FaultInjector
from repro.faults.spec import parse_fault
from repro.march import library
from repro.memory.sram import Sram

GEOMETRIES = [(4, 2, 1), (3, 2, 2)]


def _caps(geometry):
    words, width, ports = geometry
    return ControllerCapabilities(n_words=words, width=width, ports=ports)


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _failure(failure):
    return [failure.op_index, failure.port, failure.address,
            failure.expected, failure.observed]


def go_no_go_records(geometry):
    """(test, fault, passed, operations, failures) of every go/no-go run
    of the library against a one-per-kind fault sample."""
    caps = _caps(geometry)
    memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
    injector = FaultInjector(memory)
    records = []
    for name, test in library.ALGORITHMS.items():
        controller = MicrocodeBistController(test, caps)
        for fault in sweep_faults(caps, per_kind=1):
            with injector.injected(fault) as faulty:
                result = MemoryBistUnit(controller, faulty).run(True)
            records.append([
                name, fault.describe(), result.passed, result.operations,
                [_failure(f) for f in result.failures],
            ])
    return records


def infield_records(geometry):
    """Events (with owners looked up in the plan), checkpoint outcomes
    and ops applied of in-field sessions, with each sampled fault
    present from power-on and injected at every slot's start."""
    caps = _caps(geometry)
    plan = build_infield_plan(caps, seed=0)
    records = []
    for fault in sweep_faults(caps, per_kind=1):
        for at in [None] + [c.start_index for c in plan.checkpoints]:
            memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
            if at is None:
                fault.reset()
                memory.attach(fault)
                result = run_infield_session(plan, memory)
            else:
                result = run_infield_session(plan, memory, inject=(fault, at))
            records.append([
                fault.describe(), at, result.ops_applied,
                [_failure(e) + [plan.stream.owner(e.op_index)]
                 for e in result.events],
                [[c.checkpoint.slot, [list(m) for m in c.mismatches]]
                 for c in result.checkpoints],
            ])
    return records


#: Digests measured with the early-stopping go/no-go loop.
GO_NO_GO_DIGESTS = {
    (4, 2, 1): "d0be828017a45ba7",
    (3, 2, 2): "e1ffeb22d09e19a5",
}

#: Digests measured with the private in-field session loop.
INFIELD_DIGESTS = {
    (4, 2, 1): "f698b73dadc4340c",
    (3, 2, 2): "cfc38ecb0b7c0a28",
}


class TestGoNoGo:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_matches_the_early_stopping_run(self, geometry):
        assert _digest(go_no_go_records(geometry)) == (
            GO_NO_GO_DIGESTS[geometry]
        )

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_is_the_prefix_of_the_full_run(self, geometry):
        caps = _caps(geometry)
        memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
        injector = FaultInjector(memory)
        for test in library.ALGORITHMS.values():
            unit = MemoryBistUnit(MicrocodeBistController(test, caps), memory)
            for fault in sweep_faults(caps, per_kind=1):
                with injector.injected(fault):
                    screen = unit.run(stop_at_first_failure=True)
                with injector.injected(fault):
                    full = unit.run()
                assert screen.passed == full.passed
                assert screen.failures == full.failures[:1]
                assert screen.operations == (
                    full.failures[0].op_index + 1 if full.failures
                    else full.operations
                )


class TestInFieldSession:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_session_digest(self, geometry):
        assert _digest(infield_records(geometry)) == (
            INFIELD_DIGESTS[geometry]
        )

    def test_budget_applies_the_first_max_ops_then_raises(self):
        caps = _caps((4, 2, 1))
        plan = build_infield_plan(caps, seed=0)
        memory = Sram(caps.n_words, width=caps.width, ports=caps.ports)
        max_ops = plan.checkpoints[0].op_index + 3
        with pytest.raises(ResponseBudgetExceeded) as raised:
            run_infield_session(plan, memory, max_ops=max_ops)
        assert str(raised.value) == (
            f"op budget of {max_ops} exceeded after {max_ops} operation(s)"
        )
        assert memory.clock.now == max_ops


def _other_test_builder(stock, other):
    """A builder emitting ``other``'s well-formed stream for any test."""

    def build(test, caps, compress):
        return stock(other, caps, compress)

    return build


class TestResponseDivergenceReport:
    def test_owners_come_from_both_streams(self, monkeypatch):
        stock = stimulus_check.STREAM_BUILDERS["hardwired"]
        monkeypatch.setitem(
            stimulus_check.STREAM_BUILDERS, "hardwired",
            _other_test_builder(stock, library.get("March X")),
        )
        result = check_fault_conformance(
            library.get("March C"), _caps((4, 2, 1)),
            parse_fault("saf:2:1:1"),
        )
        (failing,) = result.failures
        divergence = failing.divergence
        assert divergence.to_dict() == {
            "architecture": "hardwired",
            "index": 2,
            "kind": "mismatch",
            "expected": {
                "op_index": 38, "port": 0, "address": 2,
                "expected": 0, "observed": 2, "owner": "item 5 ~(r0) op 0",
            },
            "got": {
                "op_index": 38, "port": 0, "address": 2,
                "expected": 1, "observed": 3,
                "owner": "hardwired state 4 (op r1)",
            },
        }
        assert divergence.describe() == (
            "hardwired fail log diverges from the golden response at "
            "event 2 (mismatch):\n"
            "  expected op 38: p0 r@2 expected 0 observed 2"
            "  <- item 5 ~(r0) op 0\n"
            "  got      op 38: p0 r@2 expected 1 observed 3"
            "  <- hardwired state 4 (op r1)"
        )

