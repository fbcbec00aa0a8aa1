"""Evaluation harness: the paper's experiments as callable drivers.

* :mod:`~repro.eval.experiments` — Table 1 (bit-oriented single-port),
  Table 2 (word-oriented and multiport) and Table 3 (scan-only storage
  redesign) drivers;
* :mod:`~repro.eval.flexibility` — which library algorithms each
  architecture can realise (the Table 1 "Flex." column, measured);
* :mod:`~repro.eval.tables` — text rendering in the paper's row order.

Run from the command line::

    python -m repro.eval table1
    python -m repro.eval table2
    python -m repro.eval table3
    python -m repro.eval flexibility
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "repro.eval.experiments": [
        "DEFAULT_GEOMETRY", "Table1Row", "table1", "table2", "table3",
    ],
    "repro.eval.flexibility": ["flexibility_matrix"],
    "repro.eval.tables": ["render_table1", "render_table2", "render_table3"],
})

__all__ = [
    "DEFAULT_GEOMETRY",
    "Table1Row",
    "flexibility_matrix",
    "render_table1",
    "render_table2",
    "render_table3",
    "table1",
    "table2",
    "table3",
]
