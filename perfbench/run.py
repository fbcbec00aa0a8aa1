"""Benchmark of the fault-sweep and coverage-certification front doors.

Run from the repository root::

    python3 perfbench/run.py --workload vector-library --seed 0 \
        --seconds 28 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes

``--trace 0`` measures the end-to-end metrics with no tracing:
``setup_s`` (imports plus building the stimuli, fault population and
store; median of several set-ups), then cold-cache iterations until
``--seconds`` is used up (at least three), reporting the median pairs
per second and CPU seconds over the iterations (each iteration's
figures are printed too) and the peak RSS of the process.
``--trace 1`` runs the workload once untraced and once with every
layer's entry points wrapped (see ``layers.py``), and reports
per-layer self times and counts, the tracing overhead and the wall
time no layer span covers.

Every iteration is checked (``workloads.problems``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md in this directory lists the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from hostspeed import HostProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, clear_caches, problems, run_engine  # noqa: E402

#: Extra set-ups timed in fresh interpreters, after the timed window.
SETUP_PROBES = 4

#: Fewest timed iterations per run, whatever ``--seconds`` says.
MIN_ITERATIONS = 3

#: Metric name -> unit, in BENCHMARK.json's order.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Span name -> call-count metric.
CALL_COUNTS = {
    "core.stream_build": "core.stream_build_calls",
    "conformance.check": "conformance.check_calls",
    "conformance.capture": "conformance.capture_calls",
    "prt.session_stream": "prt.stream_calls",
    "prt.controller_stream": "prt.stream_calls",
    "diagnostics.classify": "diagnostics.classify_calls",
    "coverage.support": "coverage.support_calls",
}


def cpu_seconds():
    """``(own, children)`` CPU seconds; children are those waited for."""
    return tuple(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Iteration:
    """One cold-cache run of a workload, timed and checked.

    Unless ``keep`` is set, the payload and report objects are dropped
    once checked, so the peak RSS does not grow with the number of
    iterations that fit in the window.  ``bracket`` probes the host
    before and after ``run`` instead of during it (for runs that start
    worker processes; see hostspeed.py).
    """

    def __init__(
        self, name, seed, inputs, run, workdir, keep=False, bracket=False
    ) -> None:
        from repro.conformance.check import GOLDEN_CACHE

        clear_caches()
        gc.collect()
        with HostProbe(bracket=bracket) as probe:
            own, children = cpu_seconds()
            self.outcome = run(inputs, workdir)
            own_after, children_after = cpu_seconds()
        self.slowdown = probe.slowdown
        self.own_cpu_s = own_after - own
        self.cpu_s = self.own_cpu_s + children_after - children
        self.golden_misses = GOLDEN_CACHE.misses
        self.wall_s = self.outcome.wall_s + self.outcome.extra.get(
            "resume_s", 0.0
        )
        self.problems = problems(name, seed, inputs, self.outcome)
        self.failed = (
            self.outcome.pairs if self.problems else self.outcome.failed
        )
        self.digest = self.outcome.digest
        if not keep:
            self.outcome.payload = None
            self.outcome.reports = []


def setup(name: str, seed: int):
    """The workload's inputs, and the set-up seconds over host slowdown."""
    with HostProbe() as probe:
        started = time.perf_counter()
        inputs = WORKLOADS[name].setup(seed)
        seconds = time.perf_counter() - started
    return inputs, seconds / probe.slowdown


def probe_setups(name: str, seed: int) -> list:
    """Set-up seconds measured in fresh interpreters (imports included)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def end_to_end(name, seed, seconds, inputs, first_setup_s, workdir):
    run = WORKLOADS[name].run
    iterations = []
    started = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or (
        time.perf_counter() - started
        + statistics.mean(i.wall_s for i in iterations) <= seconds
    ):
        iterations.append(Iteration(name, seed, inputs, run, workdir))
    # Read before the set-up probes, which are child processes, run.
    rss = peak_rss_mb()
    setups = [first_setup_s] + probe_setups(name, seed)
    issues = [p for i in iterations for p in i.problems]
    digests = {i.digest for i in iterations}
    if len(digests) > 1:
        issues.append(f"{len(digests)} different payloads across iterations")
    # Host contention comes in phases longer than a run (hostspeed.py),
    # so each iteration's timings are divided by the host slowdown
    # measured while it ran.  Raw figures are printed beside them.
    rates = [
        i.outcome.pairs * i.slowdown / i.outcome.wall_s for i in iterations
    ]
    cpus = [i.cpu_s / i.slowdown for i in iterations]
    metrics = {
        "setup_s": statistics.median(setups),
        "pairs_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss,
    }
    notes = [
        f"{len(iterations)} iterations, raw wall s: "
        + ", ".join(f"{i.wall_s:.3f}" for i in iterations),
        "host slowdown: "
        + ", ".join(f"{i.slowdown:.3f}" for i in iterations),
        "raw pairs_per_s: "
        + ", ".join(f"{i.outcome.pairs / i.outcome.wall_s:.1f}" for i in iterations),
        "raw cpu_s: " + ", ".join(f"{i.cpu_s:.3f}" for i in iterations),
        "set-up samples s: " + ", ".join(f"{s:.3f}" for s in setups),
    ]
    return metrics, iterations, issues, notes


def _traced_pair(name, seed, inputs, run, installs, bracket, workdir):
    """Untraced then traced iteration of ``run``; checks they agree."""
    plain = Iteration(name, seed, inputs, run, workdir, bracket=bracket)
    tracer = Tracer()
    try:
        for install in installs:
            install(tracer)
        traced = Iteration(
            name, seed, inputs, run, workdir, keep=True, bracket=bracket
        )
    finally:
        tracer.restore()
    issues = plain.problems + traced.problems
    if traced.digest != plain.digest:
        issues.append("traced payload differs from the untraced one")
    if traced.outcome.fallback_runs != plain.outcome.fallback_runs:
        issues.append(
            f"traced fallback_runs {traced.outcome.fallback_runs} != "
            f"untraced {plain.outcome.fallback_runs}"
        )
    return plain, traced, tracer, issues


def _trace_plan(name):
    """``[(run, layer installers, bracket)]`` of one workload's traced
    runs; ``bracket`` is set for runs that start worker processes."""
    run = WORKLOADS[name].run
    if name == "scalar-service":
        # The timed in-process path carries the worker-side layers; its
        # engine twin, whose forked workers keep their spans to
        # themselves, the engine and store layers.
        return [
            (run, (layers.sweep_layers, layers.report_layer), False),
            (run_engine, (layers.service_layers, layers.report_layer), True),
        ]
    if name == "certify-library":
        return [(run, (layers.coverage_layers,), False)]
    return [(run, (layers.sweep_layers, layers.report_layer), False)]


def per_layer(name, seed, inputs, workdir):
    runs = []
    issues = []
    for run, installs, bracket in _trace_plan(name):
        plain, traced, tracer, found = _traced_pair(
            name, seed, inputs, run, installs, bracket, workdir
        )
        runs.append((plain, traced, tracer))
        issues.extend(found)

    # Seconds are host seconds over the slowdown measured while they
    # were spent, as for the end-to-end metrics.
    metrics = dict.fromkeys(PER_LAYER, 0)
    self_s = {}
    distinct_builds = 0
    for plain, traced, tracer in runs:
        spent, calls, top = tracer.summary()
        for layer, seconds in spent.items():
            seconds /= traced.slowdown
            self_s[layer] = self_s.get(layer, 0.0) + seconds
            metrics[f"{layer}_s"] += seconds
        for layer, count in calls.items():
            if layer in CALL_COUNTS:
                metrics[CALL_COUNTS[layer]] += count
        for counter, value in tracer.counters.items():
            metrics[counter] += value
        distinct_builds += len(tracer.keys.get("core.stream_build", ()))
        if "conformance.golden" in calls:
            metrics["conformance.golden_misses"] += traced.golden_misses
        metrics["trace.untraced_wall_s"] += plain.wall_s / plain.slowdown
        metrics["trace.traced_wall_s"] += traced.wall_s / traced.slowdown
        metrics["trace.unattributed_s"] += (
            (traced.wall_s - top) / traced.slowdown
        )
    metrics["trace.host_slowdown"] = statistics.mean(
        traced.slowdown for _, traced, _ in runs
    )
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    )
    metrics["trace.unattributed_frac"] = (
        metrics["trace.unattributed_s"] / metrics["trace.traced_wall_s"]
    )
    if self_s.get("vector.kernel"):
        metrics["vector.lane_ops_per_s"] = (
            metrics["vector.lane_ops"] / self_s["vector.kernel"]
        )
    if metrics["core.stream_build_calls"]:
        metrics["core.stream_build_useful_ratio"] = (
            distinct_builds / metrics["core.stream_build_calls"]
        )

    # The last traced run has the workload's reports (for scalar-service
    # the engine twin's, whose payload is the same).
    plain, traced, _ = runs[-1]
    outcome = traced.outcome
    if name == "certify-library":
        strata = sum(len(c.strata) for c in outcome.reports)
        unknown = sum(c.unknown_count for c in outcome.reports)
        metrics["coverage.strata"] = strata
        metrics["coverage.verdicts_per_stratum"] = outcome.pairs / strata
        metrics["coverage.unknown_frac"] = unknown / outcome.pairs
    else:
        report = outcome.reports[0]
        metrics["vector.fallback_frac"] = report.fallback_runs / report.checked
    if name == "scalar-service":
        cold = outcome.reports[0]
        stats = cold.service_stats or {}
        busy = sum(s["wall_time_s"] for s in cold.shards) / traced.slowdown
        engine_s = self_s.get("service.engine_run", 0.0)
        metrics["service.shard_busy_s"] = busy
        if engine_s:
            metrics["service.parallel_efficiency"] = busy / (
                stats.get("workers", 1) * engine_s
            )
        metrics["service.retries"] = stats.get("retries", 0) + stats.get(
            "serial_retries", 0
        )
        metrics["service.resume_s"] = (
            outcome.extra["resume_s"] / traced.slowdown
        )
        metrics["service.resume_hit_ratio"] = outcome.extra["resume_hit_ratio"]
        serial = runs[0][0]
        metrics["service.serial_wall_s"] = serial.wall_s / serial.slowdown
        metrics["service.serial_cpu_s"] = serial.cpu_s / serial.slowdown
        metrics["service.parallel_wall_s"] = (
            plain.outcome.wall_s / plain.slowdown
        )
        metrics["service.parallel_cpu_s"] = plain.cpu_s / plain.slowdown
        metrics["service.orchestrator_cpu_s"] = (
            plain.own_cpu_s / plain.slowdown
        )

    iterations = [it for plain, traced, _ in runs for it in (plain, traced)]
    if len({i.digest for i in iterations}) > 1:
        issues.append("traced runs of one workload differ in payload")
    attempted = sum(i.outcome.pairs for i in iterations)
    metrics["failed_frac"] = sum(i.failed for i in iterations) / attempted
    notes = [
        "raw wall s (untraced, traced): " + ", ".join(
            f"({plain.wall_s:.3f}, {traced.wall_s:.3f})"
            for plain, traced, _ in runs
        ),
        "host slowdown (untraced, traced): " + ", ".join(
            f"({plain.slowdown:.3f}, {traced.slowdown:.3f})"
            for plain, traced, _ in runs
        ),
        "layer self s: " + ", ".join(
            f"{layer}={seconds:.3f}"
            for layer, seconds in sorted(
                self_s.items(), key=lambda item: -item[1]
            )
        ),
    ]
    return metrics, iterations, issues, notes


def host_stamp() -> str:
    import numpy

    return (
        f"host: {os.cpu_count()} CPU(s), Python {platform.python_version()}, "
        f"numpy {numpy.__version__}"
    )


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    inputs, first_setup_s = setup(name, seed)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT))
    try:
        if trace:
            metrics, iterations, issues, notes = per_layer(
                name, seed, inputs, workdir
            )
            units = PER_LAYER
        else:
            metrics, iterations, issues, notes = end_to_end(
                name, seed, seconds, inputs, first_setup_s, workdir
            )
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {name}, seed {seed}, trace {int(trace)}")
    print(host_stamp())
    for note in notes:
        print(note)
    for issue in issues:
        print(f"CHECK FAILED: {issue}")
    for metric, unit in units.items():
        print(f"  {metric:<34} {metrics[metric]:>16.6f} {unit}")
    print(json.dumps({
        "correct": not issues,
        "attempted": sum(i.outcome.pairs for i in iterations),
        "failed": sum(i.failed for i in iterations),
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 1 if issues else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    correct = True
    attempted = failed = 0
    combined = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                combined[f"{name}/{metric}"] = entry
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": combined,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=28,
        help="measuring window of one --trace 0 run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="time one set-up in this interpreter and print it",
    )
    args = parser.parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # String hashing lays out sets and dicts, which moves the time of
        # certify-library by several percent.  Deriving the hash seed
        # from --seed makes a run repeatable, and lets the spread over
        # seeds sample layouts along with input orders.  Set-up probes
        # and forked workers inherit it.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
