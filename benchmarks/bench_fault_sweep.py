"""Fault-sweep throughput: scalar oracle vs the projected engine.

Measures ``run_fault_sweep`` on one workload with both engines (and,
in full mode, with a worker pool), asserts every report is identical
payload-for-payload (timing aside — the determinism contract of the
sweep), and writes a ``BENCH_fault_sweep.json`` record.

Two profiles:

* **quick** (default) — the per-PR ``bench-gate`` workload: the short
  half of the algorithm library against a stratified fault sample on a
  64-word memory, scalar ``jobs=1`` vs vector ``jobs=1``.  Small
  enough to run on every pull request, big enough that the projected
  engine's >=10x advantage is measurable above timer noise.
* **full** (``--profile full``) — the nightly workload: the whole
  library against the full spec-expressible universe, all four
  (engine, jobs) combinations.

The committed ``benchmarks/BENCH_fault_sweep.json`` baseline is a
quick-profile record; ``bench_gate.py`` compares a fresh quick run
against it.  Run directly::

    PYTHONPATH=src python benchmarks/bench_fault_sweep.py
    PYTHONPATH=src python benchmarks/bench_fault_sweep.py \
        --profile full --geometry 4x2x1 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from _harness import Sections, parse_geometry, write_record

from repro.conformance import run_fault_sweep, sweep_faults
from repro.core.controller import ControllerCapabilities
from repro.march import library

#: The quick-profile algorithm subset: the shortest library members, so
#: the scalar side of the gate workload stays in CI-friendly territory
#: while still spanning both address orders and read/write mixes.
SHORT_ALGORITHMS = ("MATS", "MATS+", "MATS++", "March X", "March Y")

#: The quick-profile geometry: >=64 words, where the projected engine's
#: advantage is architectural rather than incidental (acceptance floor:
#: >=10x on >=64-word geometries).
QUICK_GEOMETRY = (64, 1, 1)


def measure(tests, caps, faults, engine: str, jobs: int) -> dict:
    """One (engine, jobs) sweep of the workload → payload + metrics.

    Sub-second measurements (the vector engine on gate-sized
    workloads) are repeated up to five times and the best wall time
    kept, so the committed baseline — and the gate's fresh number —
    are not one scheduler hiccup wide.  The payload is taken from the
    first run; repeats only refine timing.
    """
    payload = None
    best = None
    repeats = 0
    elapsed = 0.0
    while repeats < 5 and (repeats == 0 or elapsed < 1.0):
        report = run_fault_sweep(
            tests, caps, faults, jobs=jobs, engine=engine
        )
        if payload is None:
            payload = report.to_json()
        if best is None or report.wall_time_s < best.wall_time_s:
            best = report
        repeats += 1
        elapsed += report.wall_time_s
    timing = best.to_json()["timing"]
    return {
        "payload": payload,
        "record": {
            "engine": engine,
            "jobs": best.jobs,
            "wall_time_s": timing["wall_time_s"],
            "runs_per_s": timing["runs_per_s"],
            "fallback_runs": timing["fallback_runs"],
            "repeats": repeats,
        },
    }


def _sans_timing(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload.items() if k != "timing"}, sort_keys=True
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--profile", choices=("quick", "full"), default="quick",
        help="quick: short algorithms, stratified faults, jobs=1 "
        "engines only (the bench-gate workload); full: whole library, "
        "full universe, all (engine, jobs) combinations (nightly)",
    )
    parser.add_argument(
        "--geometry", metavar="WxBxP", default=None,
        help="memory geometry (default: 64x1x1 quick, 4x2x1 full)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="parallel worker count for the jobs>1 measurements "
        "(0 = one per CPU, capped at 4; quick profile ignores this)",
    )
    parser.add_argument(
        "--per-kind", type=int, default=2,
        help="stratified-sample size per fault kind (quick profile)",
    )
    parser.add_argument(
        "--out", default="BENCH_fault_sweep.json",
        help="output record path (default: BENCH_fault_sweep.json)",
    )
    args = parser.parse_args(argv)

    full = args.profile == "full"
    jobs = args.jobs if args.jobs > 0 else min(4, os.cpu_count() or 1)
    geometry = parse_geometry(
        args.geometry or ("4x2x1" if full else "64x1x1")
    )
    caps = ControllerCapabilities(
        n_words=geometry[0], width=geometry[1], ports=geometry[2]
    )
    names = list(library.ALGORITHMS) if full else list(SHORT_ALGORITHMS)
    tests = [library.get(name) for name in names]
    faults = sweep_faults(caps, per_kind=args.per_kind, full=full)
    combos = [("scalar", 1), ("vector", 1)]
    if full:
        combos += [("scalar", jobs), ("vector", jobs)]

    sections = Sections()
    measurements = []
    for engine, n in combos:
        with sections.section(f"{engine}@{n}"):
            measurements.append(measure(tests, caps, faults, engine, n))

    reference = _sans_timing(measurements[0]["payload"])
    identical = all(
        _sans_timing(m["payload"]) == reference for m in measurements[1:]
    )
    engines = {
        f"{m['record']['engine']}@{m['record']['jobs']}": m["record"]
        for m in measurements
    }
    scalar_rps = engines["scalar@1"]["runs_per_s"]
    vector_rps = engines["vector@1"]["runs_per_s"]
    speedup = (
        round(vector_rps / scalar_rps, 2)
        if scalar_rps and vector_rps
        else None
    )
    record = write_record(
        args.out,
        "fault_sweep",
        {
            "profile": args.profile,
            "geometry": list(geometry),
            "algorithms": names,
            "universe": (
                "full" if full else f"stratified(per_kind={args.per_kind})"
            ),
            "runs": measurements[0]["payload"]["checked"],
            "ok": measurements[0]["payload"]["ok"],
            "reports_identical_sans_timing": identical,
            "engines": engines,
            "vector_speedup": speedup,
        },
        sections=sections,
    )

    print(
        f"fault-sweep throughput {tuple(record['geometry'])} "
        f"({record['universe']} universe, {len(names)} algorithms, "
        f"{record['runs']} runs):"
    )
    for key, entry in engines.items():
        print(
            f"  {key}: {entry['wall_time_s']:.2f} s "
            f"({entry['runs_per_s']} runs/s, "
            f"{entry['fallback_runs']} fallback(s))"
        )
    print(f"  vector speedup (jobs=1): {speedup}x")
    print(f"  reports identical (timing aside): {identical}")
    print(f"  wrote {args.out}")
    if not identical:
        print(
            "error: engine/jobs determinism contract violated",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
