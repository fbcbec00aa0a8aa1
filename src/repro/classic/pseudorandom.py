"""Pseudorandom memory BIST (the paper's ref [1], Bardell et al.).

Before deterministic march BIST, the established BIST style generated
*pseudorandom* stimulus from an LFSR and compacted responses in a MISR,
comparing one final signature.  For random logic this works well; for
memories it leaves an escape probability (a fault is detected only if
the random access sequence happens to excite and then observe it), which
is exactly the weakness deterministic march generators fixed.  This
module provides the behavioural LFSR/MISR pair and a pseudorandom memory
test whose measured escape rate the X7 benchmark compares against March
C's determinism.

The pseudorandom test interleaves writes and reads driven by LFSR bits:
each step picks an address from the address LFSR and, per a control bit,
either writes an LFSR data word or reads and feeds the observation into
the MISR.  Expected values are obtained by shadowing the writes (the
signature-prediction pass a real implementation computes in software).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.classic.geometry import check_geometry
from repro.march.simulator import MemoryOperation

#: Maximal-length Galois LFSR tap masks, one per register width 1–24.
#: Every mask is verified maximal-period by test (direct full-period walk
#: for the small widths, linear-map order check for the large ones); the
#: degenerate width-1 register has period 1 by construction.
_TAPS: Dict[int, int] = {
    1: 0b1,
    2: 0b11,
    3: 0b110,
    4: 0b1100,
    5: 0b10100,
    6: 0b110000,
    7: 0b1100000,
    8: 0b10111000,
    9: 0b100010000,
    10: 0b1001000000,
    11: 0b10100000000,
    12: 0b111000001000,
    13: 0b1000000001101,
    14: 0b10000000010101,
    15: 0b110000000000000,
    16: 0b1011010000000000,
    17: 0b10010000000000000,
    18: 0b100000010000000000,
    19: 0b1000000000000100011,
    20: 0b10010000000000000000,
    21: 0b101000000000000000000,
    22: 0b1100000000000000000000,
    23: 0b10000100000000000000000,
    24: 0b111000010000000000000000,
}

#: Largest register width the tap table covers.
MAX_LFSR_WIDTH = max(_TAPS)


def lfsr_taps(width: int) -> int:
    """The verified maximal-length Galois tap mask for ``width``.

    Raises:
        ValueError: outside the 1–:data:`MAX_LFSR_WIDTH` table, with a
            pointer at how to extend it.
    """
    if width < 1:
        raise ValueError(f"LFSR width must be >= 1, got {width}")
    if width > MAX_LFSR_WIDTH:
        raise ValueError(
            f"no maximal-length taps for width {width}: the tap table "
            f"covers widths 1-{MAX_LFSR_WIDTH}; extend _TAPS in "
            "repro.classic.pseudorandom (with a verified maximal-period "
            "mask) to go wider"
        )
    return _TAPS[width]


class Lfsr:
    """Galois linear-feedback shift register.

    Args:
        width: register width in bits (a supported maximal-length size).
        seed: initial state; must be non-zero.
    """

    def __init__(self, width: int, seed: int = 1) -> None:
        taps = lfsr_taps(width)
        if not 0 < seed < (1 << width):
            raise ValueError(f"seed must be a non-zero {width}-bit value")
        self.width = width
        self.taps = taps
        self.state = seed

    def step(self) -> int:
        """Advance one bit; returns the new state."""
        lsb = self.state & 1
        self.state >>= 1
        if lsb:
            self.state ^= self.taps
        return self.state

    def value(self, bits: int) -> int:
        """Advance and return ``bits`` fresh pseudorandom bits."""
        out = 0
        for position in range(bits):
            out |= (self.step() & 1) << position
        return out

    @property
    def period(self) -> int:
        """Sequence period of a maximal-length register: ``2^w − 1``."""
        return (1 << self.width) - 1


class Misr:
    """Multiple-input signature register (behavioural).

    A Galois LFSR whose state is additionally XORed with each response
    word — the classical response compactor.  Aliasing probability is
    the textbook ``2^-w`` per the signature width.
    """

    def __init__(self, width: int = 16, seed: int = 1) -> None:
        self._lfsr = Lfsr(width, seed)
        self.width = width

    def absorb(self, value: int) -> None:
        self._lfsr.state ^= value & ((1 << self.width) - 1)
        self._lfsr.step()

    @property
    def signature(self) -> int:
        return self._lfsr.state


def pseudorandom_test(
    n_words: int,
    width: int = 1,
    length: int = 0,
    address_seed: int = 1,
    data_seed: int = 1,
) -> Iterator[MemoryOperation]:
    """A pseudorandom memory test of ``length`` operations (port 0).

    Writes and reads are interleaved under LFSR control; read
    expectations come from shadowing the write sequence, so the stream
    is directly comparable with deterministic tests in the coverage
    machinery.  Cells never written yet are skipped for reading (their
    contents are unknown), modelling the signature-prediction software's
    knowledge.

    Args:
        length: operation budget; defaults to ``10 × n_words`` (March
            C's budget, for a like-for-like comparison).
    """
    check_geometry(n_words, width)
    address_bits = max(1, (n_words - 1).bit_length())
    if address_bits + 2 > MAX_LFSR_WIDTH:
        raise ValueError(
            f"{n_words} words need a {address_bits + 2}-bit address "
            f"register, beyond the {MAX_LFSR_WIDTH}-bit tap table"
        )
    return _pseudorandom_ops(
        n_words, width, length or 10 * n_words, address_bits,
        address_seed, data_seed,
    )


def _pseudorandom_ops(
    n_words: int,
    width: int,
    length: int,
    address_bits: int,
    address_seed: int,
    data_seed: int,
) -> Iterator[MemoryOperation]:
    # The address register is wider than the address: an n-bit window of
    # a degree-n m-sequence never takes the all-zero value, so a
    # same-width register would never visit address 0 (a classic
    # pseudorandom-BIST pitfall); two extra stages make every window
    # value occur.  Non-power-of-two word counts fold the window into
    # range by modulo reduction, so every address stays below n_words.
    register_bits = min(w for w in _TAPS if w >= address_bits + 2)
    addr_lfsr = Lfsr(register_bits, address_seed)
    # Control and data bits come from a long-period register regardless
    # of word width: a short register's period would correlate the
    # write/read decision with the data value (a classic pseudorandom-
    # BIST implementation pitfall).
    data_lfsr = Lfsr(16, data_seed)
    shadow: Dict[int, int] = {}
    mask = (1 << width) - 1
    emitted = 0
    while emitted < length:
        address = addr_lfsr.value(address_bits) % n_words
        control = data_lfsr.value(1)
        if control or address not in shadow:
            value = data_lfsr.value(width) & mask
            shadow[address] = value
            yield MemoryOperation(0, address, True, value=value)
        else:
            yield MemoryOperation(0, address, False, expected=shadow[address])
        emitted += 1


def pseudorandom_signature(
    memory,
    n_words: int,
    width: int = 1,
    length: int = 0,
    misr_width: int = 16,
) -> Tuple[int, int]:
    """Run the pseudorandom test with MISR compaction.

    Returns:
        (predicted, observed) signatures; a mismatch is the BIST fail
        flag.  The prediction absorbs the expected read values, the
        observation the memory's actual responses.
    """
    predicted = Misr(misr_width)
    observed = Misr(misr_width)
    for op in pseudorandom_test(n_words, width, length):
        if op.is_write:
            memory.write(op.port, op.address, op.value)
        else:
            predicted.absorb(op.expected)
            observed.absorb(memory.read(op.port, op.address))
    return predicted.signature, observed.signature
