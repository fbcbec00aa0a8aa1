"""Neighbourhood pattern sensitive faults (NPSF).

NPSFs involve a *base* cell whose behaviour depends on the pattern held
by its physical neighbourhood (the four orthogonally adjacent cells in
the cell array, the "type-1" neighbourhood).  They require dedicated
tests; march algorithms detect only a fraction — the coverage benchmark
includes NPSFs precisely to show that boundary, mirroring the paper's
remark that enhanced fault models demand enhanced (and larger) hardwired
controllers.

Physical layout: the library arranges the ``n_words × width`` cell array
on a near-square grid in row-major bit order (the
:class:`CellGrid` helper), matching the usual folded-array floorplan
assumption of the NPSF literature.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.faults.base import CellFault, bit_of

Cell = Tuple[int, int]  # (word, bit)


class CellGrid:
    """Near-square physical arrangement of all cells of a memory.

    Cells are numbered linearly as ``word * width + bit`` and folded into
    ``rows × cols`` with ``cols = 2**ceil(log2(sqrt(total)))``.
    """

    def __init__(self, n_words: int, width: int) -> None:
        self.n_words = n_words
        self.width = width
        total = n_words * width
        self.cols = max(1, 2 ** math.ceil(math.log2(math.sqrt(total))) if total > 1 else 1)
        self.rows = math.ceil(total / self.cols)

    def linear(self, cell: Cell) -> int:
        word, bit = cell
        return word * self.width + bit

    def cell_at(self, index: int) -> Cell:
        return divmod(index, self.width)

    def position(self, cell: Cell) -> Tuple[int, int]:
        return divmod(self.linear(cell), self.cols)

    def neighbours(self, cell: Cell) -> List[Cell]:
        """North, east, south, west neighbours that exist on the grid."""
        row, col = self.position(cell)
        total = self.n_words * self.width
        result = []
        for drow, dcol in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            nrow, ncol = row + drow, col + dcol
            if nrow < 0 or ncol < 0 or ncol >= self.cols:
                continue
            index = nrow * self.cols + ncol
            if index < total:
                result.append(self.cell_at(index))
        return result


def _neighbour_values(memory, cells: List[Cell]) -> Tuple[int, ...]:
    return tuple(bit_of(memory.peek(word), bit) for word, bit in cells)


class PassiveNpsf(CellFault):
    """PNPSF: the base cell cannot change while the neighbourhood holds
    ``pattern``.

    Args:
        base: the victim cell ``(word, bit)``.
        neighbours: the deleted-neighbourhood cells, in a fixed order.
        pattern: per-neighbour values that freeze the base cell.
    """

    kind = "PNPSF"

    def __init__(
        self, base: Cell, neighbours: List[Cell], pattern: Tuple[int, ...]
    ) -> None:
        if len(neighbours) != len(pattern):
            raise ValueError("pattern length must match neighbour count")
        if not neighbours:
            raise ValueError("NPSF needs at least one neighbour cell")
        self.base = base
        self.neighbour_cells = list(neighbours)
        self.pattern = tuple(pattern)

    def on_write(self, memory, port: int, word: int, old: int, new: int) -> int:
        base_word, base_bit = self.base
        if word != base_word:
            return new
        if _neighbour_values(memory, self.neighbour_cells) == self.pattern:
            # Base cell frozen: keep its old bit value.
            frozen = bit_of(old, base_bit)
            return (new & ~(1 << base_bit)) | (frozen << base_bit)
        return new

    def describe(self) -> str:
        return (
            f"PNPSF: cell {self.base} frozen while neighbours "
            f"{self.neighbour_cells} hold {self.pattern}"
        )


class ActiveNpsf(CellFault):
    """ANPSF: a transition of one neighbour, with the remaining
    neighbours holding ``pattern``, flips the base cell.

    Args:
        base: the victim cell.
        trigger: the neighbour whose transition activates the fault.
        rising: trigger transition direction.
        others: the remaining neighbourhood cells.
        pattern: values the remaining cells must hold for the flip.
    """

    kind = "ANPSF"

    def __init__(
        self,
        base: Cell,
        trigger: Cell,
        rising: bool,
        others: Optional[List[Cell]] = None,
        pattern: Tuple[int, ...] = (),
    ) -> None:
        others = others or []
        if len(others) != len(pattern):
            raise ValueError("pattern length must match other-neighbour count")
        self.base = base
        self.trigger = trigger
        self.rising = bool(rising)
        self.others = list(others)
        self.pattern = tuple(pattern)

    def on_any_write(self, memory, port: int, word: int, old: int, new: int) -> None:
        trig_word, trig_bit = self.trigger
        if word != trig_word:
            return
        before, after = bit_of(old, trig_bit), bit_of(new, trig_bit)
        fired = (before, after) == ((0, 1) if self.rising else (1, 0))
        if not fired:
            return
        if self.others and _neighbour_values(memory, self.others) != self.pattern:
            return
        base_word, base_bit = self.base
        current = bit_of(memory.peek(base_word), base_bit)
        memory.force_bit(base_word, base_bit, current ^ 1)

    def describe(self) -> str:
        arrow = "0->1" if self.rising else "1->0"
        return f"ANPSF: {self.trigger} {arrow} flips base cell {self.base}"
