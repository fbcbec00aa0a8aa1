"""Experiment X1 — fault-coverage equivalence and the coverage ladder.

Section 3 of the paper compares architectures purely on area because all
of them realise the same algorithms; this benchmark makes the implicit
claim explicit: all three controller architectures achieve *identical*
fault coverage (their operation streams are identical), and the coverage
ladder March C < March C+ < March C++ justifies the enhanced (and
larger) baselines of Tables 1–2.

Run directly, the module benchmarks the *static coverage prover*
against single-fault simulation over the whole library and writes a
``BENCH_coverage_static.json`` record (the nightly CI artifact)::

    PYTHONPATH=src python benchmarks/bench_coverage.py
    PYTHONPATH=src python benchmarks/bench_coverage.py \
        --geometry 4x2x1 --geometry 8x1x1 --out BENCH_coverage_static.json
"""

from __future__ import annotations

import argparse
import sys

from _harness import Sections, parse_geometry, write_record

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


def static_vs_simulate_record(geometry: tuple) -> dict:
    """Cross-check the whole library on one geometry, timing both sides.

    ``check_coverage_conformance`` already runs the prover and the
    simulated sweep over the same (algorithm, fault) product and times
    each independently, so its result *is* the benchmark measurement —
    with the agreement verdict riding along for free.
    """
    from repro.conformance import check_coverage_conformance

    result = check_coverage_conformance(geometry=geometry)
    return {
        "geometry": list(geometry),
        "pairs": result.checked,
        "ok": result.ok,
        "disagreements": len(result.disagreements),
        "unknown_rate": round(result.unknown_rate, 4),
        "static_time_s": round(result.static_time_s, 3),
        "simulate_time_s": round(result.simulate_time_s, 3),
        "static_speedup": (
            round(result.simulate_time_s / result.static_time_s, 2)
            if result.static_time_s > 0
            else None
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="static coverage prover vs simulated sweep throughput"
    )
    parser.add_argument(
        "--geometry", action="append", metavar="WxBxP",
        help="geometry to measure (repeatable; default: 4x2x1, 8x1x1, "
        "4x2x2 — the acceptance matrix)",
    )
    parser.add_argument(
        "--out", default="BENCH_coverage_static.json",
        help="output record path (default: BENCH_coverage_static.json)",
    )
    args = parser.parse_args(argv)

    geometries = [
        parse_geometry(token)
        for token in (args.geometry or ["4x2x1", "8x1x1", "4x2x2"])
    ]
    sections = Sections()
    measurements = []
    for geometry in geometries:
        with sections.section("x".join(str(part) for part in geometry)):
            measurements.append(static_vs_simulate_record(geometry))
    record = write_record(
        args.out,
        "coverage_static",
        {
            "algorithms": len(library.ALGORITHMS),
            "universe": "full standard (NPSF included)",
            "measurements": measurements,
            "ok": all(m["ok"] for m in measurements),
        },
        sections=sections,
    )

    print(f"static prover vs simulated sweep ({record['algorithms']} "
          "algorithms x full universe):")
    for m in measurements:
        print(
            f"  {tuple(m['geometry'])}: {m['pairs']} pairs, "
            f"static {m['static_time_s']:.2f}s vs simulate "
            f"{m['simulate_time_s']:.2f}s "
            f"(speedup {m['static_speedup']}x), "
            f"{m['disagreements']} disagreement(s)"
        )
    print(f"  wrote {args.out}")
    if not record["ok"]:
        print("error: certificate-vs-sweep disagreement", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
