"""Address decoder faults (AF1–AF4).

Decoder faults break the bijection between logical addresses and physical
cells.  They are installed by rewriting the memory's
:class:`repro.memory.decoder.AddressDecoder` mapping rather than through
the per-access hooks, because the defect lives in the decode logic, not
in a cell.  van de Goor shows any march test containing ``^(r?,...,w?̄)``
and ``v(r?,...,w?̄)`` elements (March C qualifies) detects all four
classes.
"""

from __future__ import annotations

from repro.faults.base import CellFault


class AddressMapsNowhere(CellFault):
    """AF1: logical ``address`` selects no cell.

    Writes to the address are lost; reads observe the memory's
    ``open_read_value`` (floating bit lines).
    """

    kind = "AF1"

    def __init__(self, address: int) -> None:
        self.address = address

    def install(self, memory) -> None:
        memory.decoder.remap(self.address, ())

    def remove(self, memory) -> None:
        memory.decoder.restore(self.address)

    def describe(self) -> str:
        return f"AF1: address {self.address} selects no cell"


class AddressMapsToWrongCell(CellFault):
    """AF2: logical ``address`` selects ``wrong_word`` instead of its own
    cell, leaving the cell of ``address`` unreachable."""

    kind = "AF2"

    def __init__(self, address: int, wrong_word: int) -> None:
        if address == wrong_word:
            raise ValueError("AF2 needs a genuinely wrong target cell")
        self.address = address
        self.wrong_word = wrong_word

    def install(self, memory) -> None:
        memory.decoder.remap(self.address, (self.wrong_word,))

    def remove(self, memory) -> None:
        memory.decoder.restore(self.address)

    def describe(self) -> str:
        return f"AF2: address {self.address} selects cell {self.wrong_word} instead"


class TwoAddressesOneCell(CellFault):
    """AF3: ``other_address`` additionally selects the cell of
    ``address`` (two addresses, one cell)."""

    kind = "AF3"

    def __init__(self, address: int, other_address: int) -> None:
        if address == other_address:
            raise ValueError("AF3 needs two distinct addresses")
        self.address = address
        self.other_address = other_address

    def install(self, memory) -> None:
        memory.decoder.remap(self.other_address, (self.address,))

    def remove(self, memory) -> None:
        memory.decoder.restore(self.other_address)

    def describe(self) -> str:
        return (
            f"AF3: addresses {self.address} and {self.other_address} both select "
            f"cell {self.address}"
        )


class AddressMapsToMultiple(CellFault):
    """AF4: logical ``address`` selects its own cell *and* ``extra_word``.

    Reads observe the wired-AND of both cells; writes land in both.
    """

    kind = "AF4"

    def __init__(self, address: int, extra_word: int) -> None:
        if address == extra_word:
            raise ValueError("AF4 needs a distinct extra cell")
        self.address = address
        self.extra_word = extra_word

    def install(self, memory) -> None:
        memory.decoder.remap(self.address, (self.address, self.extra_word))

    def remove(self, memory) -> None:
        memory.decoder.restore(self.address)

    def describe(self) -> str:
        return f"AF4: address {self.address} also selects cell {self.extra_word}"
