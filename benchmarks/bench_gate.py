"""A/B benchmark gate: perfbench on a base checkout against this one.

Run from anywhere, with a checkout of the base commit beside this one::

    git worktree add ../base origin/main
    python benchmarks/bench_gate.py --base ../base

For each workload in this checkout's ``BENCHMARK.json`` the gate runs
``PAIRS`` alternating pairs of untraced perfbench runs.  Pair *i* uses
seed *i*; the base runs first on even pairs and this checkout (the
head) first on odd ones, so a drift in host speed lands on both sides
alike.  Each run is a side's own ``perfbench/run.py``, started from
that side's root, with a ``SECONDS`` window.

Every ``end_to_end`` metric is then compared as the median of each
side's runs, in the metric's ``better`` direction, against the
metric's own ``bound``: the head regresses when its median is worse
than the base's by more than that fraction.  The gate prints every
metric's medians and their ratio (head / base), and beside it the
min–max of the per-pair ratios: a wide spread around a ratio past the
bound reads as host noise, a tight one as a real change.  It also
prints how many pairs the head won, in the metric's ``better``
direction (a tie counts for neither side): a claimed gain should win
at least nine pairs in ten.  It exits

* 0 when no metric regressed;
* 1 when any metric regressed;
* 2 when a run cannot be compared: it exited non-zero, its last line
  is not a result, it reports ``correct: false`` or lacks a metric, or
  the head fails a larger share of its pairs than the base.

The bounds come from ``BENCHMARK.json`` only; there is no tolerance
option.  Intentional slowdowns are let through by CI's
``skip-bench-gate`` label, not by the gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

HEAD = Path(__file__).resolve().parent.parent

#: Alternating (base, head) pairs per workload.
PAIRS = 5

#: Measuring window of one perfbench run, seconds.
SECONDS = 3


class GateError(Exception):
    """A run that cannot be compared (exit 2)."""


class Verdict(NamedTuple):
    """One end-to-end metric of one workload: medians and bound, the
    min–max of the per-pair head / base ratios (``spread``) and the
    number of pairs the head won (``wins``)."""

    metric: str
    better: str
    bound: float
    base: float
    head: float
    spread: Tuple[float, float]
    wins: int

    @property
    def ratio(self) -> float:
        return self.head / self.base

    @property
    def regressed(self) -> bool:
        if self.better == "higher":
            return self.head < self.base * (1 - self.bound)
        return self.head > self.base * (1 + self.bound)


def parse_result(line: str) -> dict:
    """The result object of a run's last line, checked to be correct."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise GateError(f"last line is not a result: {line[:200]!r}")
    if result.get("correct") is not True:
        raise GateError("run reports correct: false")
    return result


def failed_share(results: Sequence[dict]) -> float:
    return sum(r["failed"] for r in results) / sum(
        r["attempted"] for r in results
    )


def compare(
    base_runs: Sequence[str],
    head_runs: Sequence[str],
    end_to_end: Sequence[dict],
) -> List[Verdict]:
    """Verdicts of one workload from each side's result lines, which
    arrive in pair order: ``base_runs[i]`` and ``head_runs[i]`` are
    pair *i*.

    ``end_to_end`` is ``BENCHMARK.json``'s list of ``{name, better,
    bound}`` metrics.  Raises :class:`GateError` when a line is not a
    correct result, lacks one of the metrics, or the head fails a
    larger share of its pairs than the base.
    """
    sides = {}
    for side, lines in (("base", base_runs), ("head", head_runs)):
        results = [parse_result(line) for line in lines]
        for metric in end_to_end:
            if any(metric["name"] not in r["metrics"] for r in results):
                raise GateError(f"{side} run lacks metric {metric['name']}")
        sides[side] = results
    base_failed, head_failed = (
        failed_share(sides[side]) for side in ("base", "head")
    )
    if head_failed > base_failed:
        raise GateError(
            f"head fails {head_failed:.4%} of its pairs, base {base_failed:.4%}"
        )
    verdicts = []
    for metric in end_to_end:
        base, head = (
            [r["metrics"][metric["name"]]["value"] for r in sides[side]]
            for side in ("base", "head")
        )
        ratios = [h / b for b, h in zip(base, head)]
        sign = 1 if metric["better"] == "higher" else -1
        verdicts.append(Verdict(
            metric["name"], metric["better"], metric["bound"],
            statistics.median(base), statistics.median(head),
            (min(ratios), max(ratios)),
            sum(sign * (h - b) > 0 for b, h in zip(base, head)),
        ))
    return verdicts


def run(command: Sequence[str], root: Path, workload: str, seed: int) -> str:
    """One untraced perfbench run from ``root``; its last output line."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise GateError(
            f"{workload} seed {seed} in {root} exited {done.returncode}:\n"
            + "\n".join((done.stdout + done.stderr).splitlines()[-20:])
        )
    lines = done.stdout.splitlines()
    return lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--base", required=True, type=Path,
        help="checkout of the base commit",
    )
    roots = {"base": parser.parse_args(argv).base.resolve(), "head": HEAD}
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    regressed = False
    try:
        for workload in spec["workloads"]:
            name = workload["name"]
            print(f"{name} ({PAIRS} pairs, medians):", flush=True)
            lines: Dict[str, List[str]] = {"base": [], "head": []}
            for seed in range(PAIRS):
                order = ("base", "head") if seed % 2 == 0 else ("head", "base")
                for side in order:
                    lines[side].append(
                        run(spec["command"], roots[side], name, seed)
                    )
            for v in compare(lines["base"], lines["head"], spec["end_to_end"]):
                regressed = regressed or v.regressed
                print(
                    f"  {v.metric:<12} base {v.base:>14.4f}  head "
                    f"{v.head:>14.4f}  ratio {v.ratio:6.3f}  "
                    f"(pairs {v.spread[0]:.3f}..{v.spread[1]:.3f}; "
                    f"head won {v.wins}/{PAIRS}; "
                    f"{v.better} is better, bound {v.bound:.2f})"
                    + ("  REGRESSED" if v.regressed else ""),
                    flush=True,
                )
    except GateError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
