"""The A/B benchmark gate (`benchmarks/bench_gate.py`) on synthetic runs.

The gate's comparison is a pure function of perfbench result lines, so
these tests prove that it trips, and in which direction, without
running a benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "benchmarks" / "bench_gate.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASELINE = {
    "setup_s": 0.5, "pairs_per_s": 1000.0, "cpu_s": 2.0, "peak_rss_mb": 100.0,
}


def line(correct=True, attempted=1000, failed=0, drop=(), **scale):
    """A perfbench result line: the baseline with metrics scaled."""
    metrics = {
        name: {"value": value * scale.get(name, 1.0), "unit": "x"}
        for name, value in BASELINE.items()
        if name not in drop
    }
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    })


def regressed(head_lines, base_lines=None):
    base_lines = base_lines or [line()] * gate.PAIRS
    verdicts = gate.compare(base_lines, head_lines, END_TO_END)
    assert [v.metric for v in verdicts] == [m["name"] for m in END_TO_END]
    return {v.metric for v in verdicts if v.regressed}


class TestCompare:
    def test_equal_runs_pass(self):
        assert regressed([line()] * gate.PAIRS) == set()

    def test_thirty_percent_throughput_drop_fails(self):
        assert regressed([line(pairs_per_s=0.7)] * gate.PAIRS) == {
            "pairs_per_s"
        }

    def test_ten_percent_throughput_drop_passes(self):
        assert regressed([line(pairs_per_s=0.9)] * gate.PAIRS) == set()

    def test_peak_rss_bound_is_its_own(self):
        # peak_rss_mb's bound is 0.2: +25% fails where a 0.25 bound
        # would pass, and +15% passes.
        assert regressed([line(peak_rss_mb=1.25)] * gate.PAIRS) == {
            "peak_rss_mb"
        }
        assert regressed([line(peak_rss_mb=1.15)] * gate.PAIRS) == set()

    def test_lower_is_better_metrics_read_the_right_way(self):
        slower = [line(setup_s=1.3, cpu_s=1.3)] * gate.PAIRS
        assert regressed(slower) == {"setup_s", "cpu_s"}
        faster = [line(setup_s=0.5, cpu_s=0.5, pairs_per_s=2.0)] * gate.PAIRS
        assert regressed(faster) == set()

    def test_medians_are_compared(self):
        # Two slow outliers out of five do not move the median.
        head = [line(pairs_per_s=0.5)] * 2 + [line()] * 3
        assert regressed(head) == set()
        [verdict] = [
            v for v in gate.compare([line()] * 5, head, END_TO_END)
            if v.metric == "pairs_per_s"
        ]
        assert verdict.ratio == 1.0

    def test_spread_is_the_min_max_of_per_pair_ratios(self):
        base = [line(pairs_per_s=f) for f in (1.0, 1.0, 2.0, 1.0, 0.5)]
        head = [line(pairs_per_s=f) for f in (0.5, 1.0, 1.0, 1.5, 1.0)]
        verdicts = {
            v.metric: v for v in gate.compare(base, head, END_TO_END)
        }
        assert verdicts["pairs_per_s"].spread == (0.5, 2.0)
        assert verdicts["pairs_per_s"].ratio == 1.0
        assert verdicts["cpu_s"].spread == (1.0, 1.0)

    def test_wins_count_pairs_the_head_won_in_the_better_direction(self):
        base = [line() for _ in range(5)]
        head = [
            line(pairs_per_s=f, cpu_s=f)
            for f in (1.2, 1.1, 1.0, 0.9, 1.3)
        ]
        verdicts = {
            v.metric: v for v in gate.compare(base, head, END_TO_END)
        }
        # Higher throughput wins 3 pairs; lower CPU time wins the
        # one slower pair; the tie counts for neither side.
        assert verdicts["pairs_per_s"].wins == 3
        assert verdicts["cpu_s"].wins == 1
        assert verdicts["setup_s"].wins == 0

    def test_correct_false_is_an_error(self):
        with pytest.raises(gate.GateError, match="correct"):
            regressed([line()] * 4 + [line(correct=False)])

    def test_missing_metric_is_an_error(self):
        with pytest.raises(gate.GateError, match="cpu_s"):
            regressed([line(drop=("cpu_s",))] * gate.PAIRS)

    def test_non_result_last_line_is_an_error(self):
        with pytest.raises(gate.GateError, match="not a result"):
            regressed(["CHECK FAILED: digest"] * gate.PAIRS)

    def test_more_failed_pairs_on_the_head_is_an_error(self):
        with pytest.raises(gate.GateError, match="fails"):
            regressed([line(failed=1)] + [line()] * 4)
        # As many failures as the base is not.
        base = [line(failed=1)] + [line()] * 4
        assert regressed(base, base_lines=base) == set()


class TestMain:
    def run_gate(self, monkeypatch, tmp_path, head_line):
        calls = []

        def fake_run(command, root, workload, seed):
            side = "base" if root == tmp_path.resolve() else "head"
            calls.append((workload, seed, side))
            return line() if side == "base" else head_line

        monkeypatch.setattr(gate, "run", fake_run)
        return gate.main(["--base", str(tmp_path)]), calls

    def test_pairs_alternate_and_use_their_index_as_seed(
        self, monkeypatch, tmp_path
    ):
        code, calls = self.run_gate(monkeypatch, tmp_path, line())
        assert code == 0
        workloads = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "workloads"
        ]
        expected = [
            (w["name"], seed, side)
            for w in workloads
            for seed in range(gate.PAIRS)
            for side in (
                ("base", "head") if seed % 2 == 0 else ("head", "base")
            )
        ]
        assert calls == expected

    def test_regression_exits_1(self, monkeypatch, tmp_path):
        code, _ = self.run_gate(monkeypatch, tmp_path, line(pairs_per_s=0.7))
        assert code == 1

    def test_prints_the_per_pair_spread_beside_the_ratio(
        self, monkeypatch, tmp_path, capsys
    ):
        self.run_gate(monkeypatch, tmp_path, line(pairs_per_s=0.7))
        rows = [
            row for row in capsys.readouterr().out.splitlines()
            if row.strip().startswith("pairs_per_s")
        ]
        assert rows
        for row in rows:
            assert "ratio  0.700  (pairs 0.700..0.700;" in row
            assert f"head won 0/{gate.PAIRS};" in row
            assert row.endswith("REGRESSED")

    def test_uncomparable_run_exits_2(self, monkeypatch, tmp_path):
        code, _ = self.run_gate(monkeypatch, tmp_path, line(correct=False))
        assert code == 2
