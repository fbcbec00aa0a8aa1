"""Experiment X8 — linked faults: why the library carries March LR.

The linked-fault result of van de Goor & Gaydadjiev (1996), measured:
two idempotent coupling faults sharing a victim can mask each other when
both aggressors sit on the *same side* of the victim — every March C
element toggles both aggressors before reading the victim, so the
second force undoes the first.  March LR's re-ordered element structure
breaks the masking.  For a programmable BIST controller this is one
more algorithm load; for a hardwired March C controller it is a
re-design — the paper's flexibility argument at the fault-model level.
"""

from repro.faults.linked import linked_cfid_universe
from repro.faults.universe import FaultUniverse
from repro.march import library
from repro.conformance.faulty.coverage import evaluate_coverage

N = 8


def test_linked_fault_coverage(benchmark):
    universe = FaultUniverse("linked CFid pairs")
    universe.extend(linked_cfid_universe(N))

    def sweep():
        return {
            test.name: evaluate_coverage(test, universe, N)
            for test in (
                library.MARCH_C,
                library.PMOVI,
                library.MARCH_A,
                library.MARCH_B,
                library.MARCH_LR,
            )
        }

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nX8 — linked CFid coverage ({len(universe)} linked pairs):")
    for name, report in reports.items():
        print(f"  {name:10s} {100 * report.overall:6.1f}%")

    # The published ordering, reproduced.
    assert reports["March C"].overall < 1.0
    assert reports["March LR"].overall == 1.0
    assert reports["March A"].overall == 1.0

    # Every March C escape is a same-side pair (the masking mechanism).
    for fault in reports["March C"].escapes:
        member1, member2 = fault.faults
        victim = member1.victim_word
        assert (member1.aggressor_word < victim) == (
            member2.aggressor_word < victim
        )

    # And the programmable-controller punchline: March LR is one
    # microcode reload away, not a hardware re-design.
    from repro.core.controller import ControllerCapabilities
    from repro.core.microcode import MicrocodeBistController

    controller = MicrocodeBistController(
        library.MARCH_C, ControllerCapabilities(n_words=N)
    )
    controller.load(library.MARCH_LR)
    assert controller.loaded_test() is library.MARCH_LR
