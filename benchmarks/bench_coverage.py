"""Experiment X1 — fault-coverage equivalence and the coverage ladder.

Section 3 of the paper compares architectures purely on area because all
of them realise the same algorithms; this benchmark makes the implicit
claim explicit: all three controller architectures achieve *identical*
fault coverage (their operation streams are identical), and the coverage
ladder March C < March C+ < March C++ justifies the enhanced (and
larger) baselines of Tables 1–2.
"""

from __future__ import annotations

from repro.conformance.faulty.coverage import (
    evaluate_coverage,
    evaluate_trace_coverage,
)
from repro.conformance.trace import fsm_trace, hardwired_trace, microcode_trace
from repro.core.controller import ControllerCapabilities
from repro.core.hardwired import HardwiredBistController
from repro.core.microcode import MicrocodeBistController
from repro.core.progfsm import ProgrammableFsmBistController
from repro.faults import standard_universe
from repro.march import library
from repro.memory import Sram

N_WORDS = 6


def test_coverage_equivalence_across_architectures(benchmark):
    caps = ControllerCapabilities(n_words=N_WORDS)
    universe = standard_universe(N_WORDS, include_npsf=False)

    def sweep():
        results = {}
        for controller_cls, trace in (
            (MicrocodeBistController, microcode_trace),
            (ProgrammableFsmBistController, fsm_trace),
            (HardwiredBistController, hardwired_trace),
        ):
            controller = controller_cls(library.MARCH_C_PLUS, caps)
            memory = Sram(N_WORDS)
            report = evaluate_trace_coverage(
                trace(controller), memory, universe,
                test_name=controller.architecture,
            )
            results[controller.architecture] = report
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nX1 — per-architecture coverage of March C+ "
          f"({len(universe)} faults):")
    references = None
    for architecture, report in results.items():
        print(f"  {architecture:18s} {100.0 * report.overall:5.1f}%")
        if references is None:
            references = report.detected
        assert report.detected == references, architecture


def test_coverage_ladder(benchmark):
    universe = standard_universe(N_WORDS, include_npsf=False)

    def ladder():
        return {
            test.name: evaluate_coverage(test, universe, N_WORDS).overall
            for test in (
                library.MATS,
                library.MARCH_C,
                library.MARCH_C_PLUS,
                library.MARCH_C_PLUS_PLUS,
            )
        }

    coverages = benchmark.pedantic(ladder, rounds=1, iterations=1)
    print("\nX1 — coverage ladder:")
    for name, overall in coverages.items():
        print(f"  {name:12s} {100.0 * overall:5.1f}%")
    assert (
        coverages["MATS"]
        < coverages["March C"]
        < coverages["March C+"]
        < coverages["March C++"]
    )
    assert coverages["March C++"] > 0.95

