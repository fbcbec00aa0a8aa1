"""Experiment X7 — why march BIST won: the three test classes compared.

The paper's introduction: "Memories are more likely to fail than random
logic and therefore three classes of memory tests have been proposed to
detect the memory faults."  This benchmark measures the classes against
each other — O(N²) classical tests (Walking, GALPAT), O(N) march tests,
and pseudorandom BIST (ref [1]) — on both axes that decided the contest:
operation count versus fault coverage.
"""

from repro.classic import (
    galpat,
    galpat_op_count,
    pseudorandom_test,
    walking_op_count,
)
from repro.conformance.faulty.coverage import (
    evaluate_coverage,
    evaluate_trace_coverage,
)
from repro.conformance.trace import op_trace
from repro.faults.universe import standard_universe
from repro.march import library
from repro.march.simulator import operation_count
from repro.memory import Sram

N_COVERAGE = 6  # coverage sweeps are O(faults x ops): keep the array small


def test_test_time_scaling(benchmark):
    """Operation counts across memory sizes: O(N) vs O(N²)."""

    def table():
        rows = []
        for n_words in (64, 256, 1024, 4096, 16384):
            rows.append(
                (
                    n_words,
                    operation_count(library.MARCH_C, n_words),
                    operation_count(library.MARCH_C_PLUS_PLUS, n_words),
                    walking_op_count(n_words),
                    galpat_op_count(n_words),
                )
            )
        return rows

    rows = benchmark(table)
    print("\nX7 — operations vs memory size:")
    print(f"  {'words':>6} {'March C':>10} {'March C++':>10} "
          f"{'Walking':>12} {'GALPAT':>14}")
    for n_words, march_c, march_cpp, walking, galpat_ops in rows:
        print(f"  {n_words:>6} {march_c:>10} {march_cpp:>10} "
              f"{walking:>12} {galpat_ops:>14}")

    # March scales linearly; the classical tests quadratically.
    for (n1, c1, _, w1, g1), (n2, c2, _, w2, g2) in zip(rows, rows[1:]):
        ratio = n2 / n1
        assert c2 / c1 == ratio            # exactly linear
        assert w2 / w1 > 0.8 * ratio ** 2 / ratio * ratio  # ~quadratic
        assert g2 / g1 > 3.0               # >> linear for 4x size
    # At 16K words GALPAT costs ~3000x March C.
    final = rows[-1]
    assert final[4] > 2000 * final[1]


def test_coverage_per_class(benchmark):
    """Equal-rigour coverage: GALPAT ≥ March C ≥ pseudorandom@10N."""
    universe = standard_universe(N_COVERAGE, include_npsf=False)

    def sweep():
        march = evaluate_coverage(
            library.MARCH_C, universe, N_COVERAGE
        ).overall
        classical = evaluate_trace_coverage(
            op_trace(galpat(N_COVERAGE)), Sram(N_COVERAGE), universe,
            test_name="GALPAT",
        ).overall
        random_10n = evaluate_trace_coverage(
            op_trace(pseudorandom_test(N_COVERAGE)), Sram(N_COVERAGE),
            universe, test_name="pseudorandom@10N",
        ).overall
        random_100n = evaluate_trace_coverage(
            op_trace(pseudorandom_test(N_COVERAGE, length=100 * N_COVERAGE)),
            Sram(N_COVERAGE), universe, test_name="pseudorandom@100N",
        ).overall
        return march, classical, random_10n, random_100n

    march, classical, random_10n, random_100n = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    print("\nX7 — coverage over the standard universe (no NPSF):")
    print(f"  GALPAT (O(N^2))          {100 * classical:5.1f}%")
    print(f"  March C (10N)            {100 * march:5.1f}%")
    print(f"  pseudorandom @ 10N ops   {100 * random_10n:5.1f}%")
    print(f"  pseudorandom @ 100N ops  {100 * random_100n:5.1f}%")

    # The historical verdict: March C matches the classical coverage of
    # the basic fault classes at a fraction of the operations, and beats
    # pseudorandom stimulus at every equal budget.
    assert classical >= march
    assert march > random_10n
    assert random_100n > random_10n
    # The operation premium explodes with size (asymptotics, not the
    # toy coverage array): ~400x at 1K words.
    assert galpat_op_count(1024) > 400 * operation_count(
        library.MARCH_C, 1024
    )
