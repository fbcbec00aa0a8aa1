"""Experiment X4 — the on-line (transparent) testing extension.

The conclusion argues the area-optimised microcode controller "expands
its application from diagnostics to on-line testing" (Nicolaidis'
transparent BIST).  This benchmark exercises that extension: the
transparent transform of March C preserves live memory contents on a
good part, detects injected faults on a bad one, and its overhead
relative to the plain test is the signature-prediction pass.
"""

from repro.core.transparent import (
    TransparentBistRun,
    transparent_stream,
    transparent_version,
)
from repro.faults import StuckAtFault, TransitionFault
from repro.march import library
from repro.march.simulator import expand
from repro.memory import Sram

N_WORDS = 64
WIDTH = 8


def _loaded_memory():
    memory = Sram(N_WORDS, width=WIDTH)
    for word in range(N_WORDS):
        memory.poke(word, (word * 73 + 11) & 0xFF)
    return memory


def test_transparent_good_part(benchmark):
    transparent = transparent_version(library.MARCH_C)

    def run():
        memory = _loaded_memory()
        before = memory.snapshot()
        result = TransparentBistRun(transparent, memory).run()
        return result, before == memory.snapshot()

    result, preserved = benchmark(run)
    print(f"\nX4 — transparent March C on a good part: "
          f"{'PASS' if result.passed else 'FAIL'}, contents "
          f"{'preserved' if preserved else 'MODIFIED'}")
    assert result.passed
    assert preserved
    assert result.contents_preserved


def test_transparent_detects_field_faults(benchmark):
    transparent = transparent_version(library.MARCH_C)
    faults = [
        StuckAtFault(13, 2, 0),
        StuckAtFault(40, 7, 1),
        TransitionFault(25, 4, rising=True),
    ]

    def sweep():
        detected = 0
        for fault in faults:
            memory = _loaded_memory()
            memory.attach(fault)
            result = TransparentBistRun(transparent, memory).run()
            detected += 0 if result.passed else 1
        return detected

    detected = benchmark(sweep)
    print(f"\nX4 — transparent test detected {detected}/{len(faults)} "
          "injected field faults")
    assert detected == len(faults)


def test_transparent_overhead(benchmark):
    """Operation-count overhead vs the plain (initialising) test."""
    transparent = transparent_version(library.MARCH_C)

    def count():
        memory = _loaded_memory()
        return sum(1 for _ in transparent_stream(
            transparent, memory.snapshot(), memory.width, memory.ports
        ))

    transparent_ops = benchmark(count)
    plain_ops = len(list(expand(library.MARCH_C, N_WORDS, width=WIDTH,
                                backgrounds=[0])))
    ratio = transparent_ops / plain_ops
    print(f"\nX4 — operations: plain {plain_ops}, transparent "
          f"{transparent_ops} ({ratio:.2f}x)")
    # The transform drops the w0 init element and adds a restore element:
    # op count stays within ~20 % of the plain single-background run.
    assert 0.8 <= ratio <= 1.2
