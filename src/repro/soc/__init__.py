"""SoC-level BIST planning: sharing one programmable controller.

The paper's introduction argues that programmable MBIST "could be used
to test memories in different stages of their fabrication and therefore
result in lower overall memory test logic overhead", and that comparing
architectures on a single test "might not truly reveal the overhead of
one architecture over another".  This package makes that argument
quantitative:

* :class:`~repro.soc.plan.MemoryRequirement` — one embedded memory plus
  the set of algorithms its fabrication stages need;
* :mod:`~repro.soc.strategies` — the candidate test-logic strategies
  (hardwired controller per test, hardwired superset controller,
  per-memory programmable controllers, one shared programmable
  controller);
* :class:`~repro.soc.plan.SocBistStudy` — costs every strategy in area
  and test time over a memory portfolio.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.soc.plan": ["MemoryRequirement", "SocBistStudy", "StrategyResult"],
    "repro.soc.strategies": [
        "HardwiredPerTest", "HardwiredSuperset", "PerMemoryProgrammable",
        "SharedProgrammable", "Strategy",
    ],
})

__all__ = [
    "HardwiredPerTest",
    "HardwiredSuperset",
    "MemoryRequirement",
    "PerMemoryProgrammable",
    "SharedProgrammable",
    "SocBistStudy",
    "Strategy",
    "StrategyResult",
]
