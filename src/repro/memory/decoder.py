"""Address decoder model.

A fault-free decoder maps every logical address to exactly one physical
word, bijectively.  The four classical address-decoder fault (AF) classes
of van de Goor break that bijection:

* AF1 — an address maps to *no* cell (reads float, writes are lost);
* AF2 — a cell is never accessed by any address;
* AF3 — multiple addresses map to one cell;
* AF4 — one address maps to multiple cells.

The decoder therefore exposes the mapping as an explicit
``address -> set of physical words`` table that the AF fault models in
:mod:`repro.faults.address_decoder` rewrite.  Reads of an address mapped
to several cells see the wired-AND of their contents (the usual model for
shorted word lines pulling a differential bit line low).
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class AddressDecoder:
    """Mutable logical-to-physical address mapping of an SRAM.

    Attributes:
        n_words: size of both the logical address space and the physical
            cell array (fault-free mapping is the identity).
        remaps: ``address -> physical words`` of every address not mapped
            to itself (empty when fault-free); read-only outside this
            class, the memory's access paths look addresses up in it.
    """

    def __init__(self, n_words: int) -> None:
        if n_words <= 0:
            raise ValueError(f"decoder needs at least one word, got {n_words}")
        self.n_words = n_words
        self.remaps: Dict[int, Tuple[int, ...]] = {}

    def check(self, address: int) -> None:
        """Raise IndexError unless ``address`` is a logical address."""
        if not 0 <= address < self.n_words:
            raise IndexError(f"address {address} out of range 0..{self.n_words - 1}")

    def targets(self, address: int) -> Tuple[int, ...]:
        """Physical words accessed (read or written) for ``address``."""
        if not 0 <= address < self.n_words:
            self.check(address)
        return self.remaps.get(address, (address,))

    def remap(self, address: int, targets: Tuple[int, ...]) -> None:
        """Overwrite the mapping of one address (used by AF faults).

        An empty target tuple models AF1 (address selects no cell).
        """
        self.check(address)
        for target in targets:
            if not 0 <= target < self.n_words:
                raise IndexError(f"physical word {target} out of range")
        self.remaps[address] = tuple(targets)

    def restore(self, address: int) -> None:
        """Restore the fault-free identity mapping of one address."""
        self.check(address)
        self.remaps.pop(address, None)

    def reset(self) -> None:
        """Restore the fault-free identity mapping everywhere."""
        self.remaps.clear()

    @property
    def is_faulty(self) -> bool:
        return bool(self.remaps)

    def unreachable_cells(self) -> List[int]:
        """Physical words no logical address can access (AF2 victims)."""
        reached = set()
        for address in range(self.n_words):
            reached.update(self.targets(address))
        return [word for word in range(self.n_words) if word not in reached]
