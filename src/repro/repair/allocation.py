"""Spare-line allocation: covering a fail bitmap with rows and columns.

The spare-allocation problem — cover every failing cell with at most R
spare rows and C spare columns — is the NP-complete heart of memory
repair (Kuo & Fuchs, 1987).  Real fail maps are tiny after clustering,
so the classical exact recipe is practical and is what we implement:

1. **must-repair** preprocessing: a row with more than C failing columns
   can only be fixed by a spare row (and symmetrically), repeat to
   fixpoint;
2. **exact branch-and-bound** on the remaining fails: pick an
   uncovered fail, branch on fixing its row or its column.

Returns the first feasible plan found (depth-first with the smaller
branch tried first), or ``None`` when the budget cannot cover the map —
the "unrepairable die" outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Set, Tuple

from repro.diagnostics.bitmap import FailBitmap


@dataclass(frozen=True)
class RepairPlan:
    """A feasible spare assignment.

    Attributes:
        rows: physical grid rows replaced by spare rows.
        columns: physical grid columns replaced by spare columns.
        spare_rows / spare_columns: the budget the plan was found under.
    """

    rows: Tuple[int, ...]
    columns: Tuple[int, ...]
    spare_rows: int
    spare_columns: int

    @property
    def lines_used(self) -> int:
        return len(self.rows) + len(self.columns)

    def covers(self, row: int, column: int) -> bool:
        return row in self.rows or column in self.columns

    def __str__(self) -> str:
        return (
            f"repair plan: rows {list(self.rows)} "
            f"(of {self.spare_rows} spares), columns {list(self.columns)} "
            f"(of {self.spare_columns} spares)"
        )


def _positions(bitmap: FailBitmap) -> Set[Tuple[int, int]]:
    positions = set()
    for word in range(bitmap.n_words):
        for bit in range(bitmap.width):
            if bitmap.is_failing(word, bit):
                positions.add(bitmap.grid.position((word, bit)))
    return positions


def _must_repair(
    fails: Set[Tuple[int, int]], spare_rows: int, spare_columns: int
) -> Optional[Tuple[Set[int], Set[int], Set[Tuple[int, int]]]]:
    """Forced assignments; ``None`` if they already exceed the budget."""
    rows: Set[int] = set()
    columns: Set[int] = set()
    remaining = set(fails)
    changed = True
    while changed:
        changed = False
        row_counts: dict = {}
        col_counts: dict = {}
        for row, col in remaining:
            row_counts[row] = row_counts.get(row, 0) + 1
            col_counts[col] = col_counts.get(col, 0) + 1
        col_budget = spare_columns - len(columns)
        row_budget = spare_rows - len(rows)
        for row, count in row_counts.items():
            if count > col_budget:
                rows.add(row)
                changed = True
        for col, count in col_counts.items():
            if count > row_budget:
                columns.add(col)
                changed = True
        if len(rows) > spare_rows or len(columns) > spare_columns:
            return None
        remaining = {
            (row, col)
            for row, col in remaining
            if row not in rows and col not in columns
        }
    return rows, columns, remaining


def _branch(
    fails: FrozenSet[Tuple[int, int]],
    rows_left: int,
    cols_left: int,
) -> Optional[Tuple[Set[int], Set[int]]]:
    if not fails:
        return set(), set()
    if rows_left == 0 and cols_left == 0:
        return None
    # Lower bound: a single line fixes at most max(row hits, col hits);
    # |distinct rows ∩ ...| bound — use the simple fail-count bound.
    row, col = next(iter(fails))
    if rows_left > 0:
        rest = frozenset(f for f in fails if f[0] != row)
        solution = _branch(rest, rows_left - 1, cols_left)
        if solution is not None:
            solution[0].add(row)
            return solution
    if cols_left > 0:
        rest = frozenset(f for f in fails if f[1] != col)
        solution = _branch(rest, rows_left, cols_left - 1)
        if solution is not None:
            solution[1].add(col)
            return solution
    return None


def allocate_repair(
    bitmap: FailBitmap,
    spare_rows: int,
    spare_columns: int,
) -> Optional[RepairPlan]:
    """Allocate spare lines covering every failing cell of ``bitmap``.

    Args:
        bitmap: the diagnostic fail bitmap (physical positions).
        spare_rows / spare_columns: the redundancy the array ships with.

    Returns:
        A :class:`RepairPlan`, or ``None`` when the die is unrepairable
        within the budget.
    """
    if spare_rows < 0 or spare_columns < 0:
        raise ValueError("spare budgets must be non-negative")
    fails = _positions(bitmap)
    if not fails:
        return RepairPlan((), (), spare_rows, spare_columns)
    forced = _must_repair(fails, spare_rows, spare_columns)
    if forced is None:
        return None
    rows, columns, remaining = forced
    solution = _branch(
        frozenset(remaining),
        spare_rows - len(rows),
        spare_columns - len(columns),
    )
    if solution is None:
        return None
    extra_rows, extra_columns = solution
    return RepairPlan(
        rows=tuple(sorted(rows | extra_rows)),
        columns=tuple(sorted(columns | extra_columns)),
        spare_rows=spare_rows,
        spare_columns=spare_columns,
    )
