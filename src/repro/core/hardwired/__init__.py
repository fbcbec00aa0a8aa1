"""Non-programmable (hardwired) FSM memory BIST controllers.

The paper's baselines: each fixed march algorithm is synthesised
directly into a dedicated finite state machine
(:mod:`~repro.core.hardwired.synthesis` builds the state graph,
:mod:`~repro.core.hardwired.controller` executes it and derives its
silicon area by genuinely minimising the next-state/output logic).

These controllers have optimum logic overhead for their one algorithm
and LOW flexibility: any change to the algorithm means a re-design —
which is exactly the trade-off the paper's Tables 1–2 quantify as the
algorithms grow from March C to March A++.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.core.hardwired.synthesis": ["StateGraph", "synthesize"],
    "repro.core.hardwired.controller": ["HardwiredBistController"],
})

__all__ = ["HardwiredBistController", "StateGraph", "synthesize"]
