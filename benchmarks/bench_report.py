"""Consolidated nightly benchmark report.

Gathers the JSON records the nightly job produces —
``BENCH_fault_sweep.json``, ``BENCH_coverage_static.json``,
``BENCH_service.json`` and ``BENCH_prt.json`` — into one
``BENCH_report.json`` and prints a summary table, so the uploaded
``bench-report`` artifact is a single self-describing bundle instead of
loose files.

Records are optional: a missing file is reported as absent rather than
failing the job (the coverage record, e.g., only exists after the
coverage bench ran).  A record with a stale schema *is* an error — it
means a benchmark was not regenerated after a harness change.

Run directly::

    PYTHONPATH=src python benchmarks/bench_report.py --dir .
"""

from __future__ import annotations

import argparse
import os
import sys

from _harness import load_record, write_record

#: The nightly record set: (file name, benchmark id).
RECORDS = (
    ("BENCH_fault_sweep.json", "fault_sweep"),
    ("BENCH_coverage_static.json", "coverage_static"),
    ("BENCH_service.json", "service"),
    ("BENCH_prt.json", "prt"),
)


def _summarise(benchmark: str, record: dict) -> list:
    """Human-readable summary lines for one record."""
    if benchmark == "fault_sweep":
        engines = record.get("engines", {})
        lines = [
            f"fault sweep {tuple(record['geometry'])} "
            f"{record['universe']}: {record['runs']} runs, "
            f"vector speedup {record.get('vector_speedup')}x, "
            f"identical={record['reports_identical_sans_timing']}"
        ]
        for key, entry in engines.items():
            lines.append(
                f"    {key}: {entry['runs_per_s']} runs/s "
                f"({entry['fallback_runs']} fallback(s))"
            )
        return lines
    if benchmark == "coverage_static":
        lines = [
            f"coverage prover vs sweep ({record['algorithms']} "
            f"algorithms): ok={record['ok']}"
        ]
        for m in record.get("measurements", []):
            lines.append(
                f"    {tuple(m['geometry'])}: {m['pairs']} pairs, "
                f"static {m['static_time_s']}s vs simulate "
                f"{m['simulate_time_s']}s "
                f"(speedup {m['static_speedup']}x)"
            )
        return lines
    if benchmark == "service":
        m = record.get("measurements", {})
        return [
            f"service layer ({record['runs']} runs, "
            f"identical={record['reports_identical_sans_timing']}):",
            f"    engine dispatch {m.get('engine_overhead_x')}x direct; "
            f"warm store hit rate {m.get('warm_hit_rate')} "
            f"({m.get('warm_speedup_x')}x)",
            f"    session submit->collect {m.get('session_s')}s "
            f"for {m.get('session_runs')} runs",
        ]
    if benchmark == "prt":
        coverage = record.get("coverage", {})
        lines = [f"pseudo-ring stimulus ({record['session']}):"]
        for m in record.get("measurements", []):
            lines.append(
                f"    {tuple(m['geometry'])}: session "
                f"{m['session_ops_per_s']} ops/s, engine "
                f"{m['engine_ops_per_s']} ops/s"
            )
        if coverage:
            lines.append(
                f"    coverage {tuple(coverage['geometry'])}: PRT "
                f"{coverage['prt_overall_percent']}% vs "
                f"{coverage['baseline']} "
                f"{coverage['march_overall_percent']}%"
            )
        return lines
    return [f"{benchmark}: (no summariser)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir", default=".",
        help="directory holding the BENCH_*.json records (default: .)",
    )
    parser.add_argument(
        "--out", default="BENCH_report.json",
        help="consolidated output path (default: BENCH_report.json)",
    )
    args = parser.parse_args(argv)

    bundle = {}
    lines = []
    errors = 0
    for name, benchmark in RECORDS:
        path = os.path.join(args.dir, name)
        if not os.path.exists(path):
            bundle[benchmark] = None
            lines.append(f"  -- {benchmark}: absent ({name})")
            continue
        try:
            record = load_record(path, expect_benchmark=benchmark)
        except ValueError as error:
            print(f"bench-report error: {error}", file=sys.stderr)
            errors += 1
            continue
        bundle[benchmark] = record
        for line in _summarise(benchmark, record):
            lines.append("  " + line)

    write_record(
        os.path.join(args.dir, args.out), "report", {"records": bundle}
    )
    print("benchmark report:")
    for line in lines:
        print(line)
    print(f"  wrote {os.path.join(args.dir, args.out)}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
