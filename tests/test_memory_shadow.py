"""ShadowMemory is an Sram with sparse storage: same access paths, same
answers, no N-word allocation."""

import random

import pytest

from repro.faults.linked import linked_cfid_universe
from repro.faults.port import PortRestrictedFault
from repro.faults.universe import standard_universe
from repro.memory import ShadowMemory, Sram

N_WORDS, WIDTH, PORTS = 4, 2, 2
UNIVERSE = standard_universe(N_WORDS, WIDTH, ports=PORTS).faults
LINKED = linked_cfid_universe(N_WORDS)
PORT_RESTRICTED = [
    PortRestrictedFault(index % PORTS, fault)
    for index, fault in enumerate(UNIVERSE[::7])
]
POPULATION = UNIVERSE + LINKED + PORT_RESTRICTED


def _sequence(seed, length=60):
    """A seeded random read / write / pause sequence over the memory."""
    rng = random.Random(seed)
    ops = []
    for _ in range(length):
        kind = rng.choice("rrwwp")
        if kind == "p":
            ops.append(("p", rng.choice((1, 600, 1024))))
        else:
            ops.append((
                kind, rng.randrange(PORTS), rng.randrange(N_WORDS),
                rng.randrange(1 << WIDTH),
            ))
    return ops


def _run(memory, fault, ops):
    """Reads observed by ``ops`` on ``memory`` with ``fault`` attached."""
    fault.reset()
    memory.attach(fault)
    reads = []
    try:
        for op in ops:
            if op[0] == "p":
                memory.elapse(op[1])
            elif op[0] == "w":
                memory.write(op[1], op[2], op[3])
            else:
                reads.append(memory.read(op[1], op[2]))
        # Decoder faults are removed on detach, so compare the cells now.
        cells = [memory.peek(word) for word in range(N_WORDS)]
    finally:
        memory.detach_all()
        fault.reset()
    return reads, cells


class TestSameAnswersAsSram:
    def test_population_is_mixed(self):
        kinds = {fault.kind for fault in POPULATION}
        assert any(kind.endswith("@p1") for kind in kinds)
        assert "CFid-linked" in kinds
        assert len(kinds) > 10

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_sequences_under_every_fault(self, chunk):
        for index in range(chunk, len(POPULATION), 4):
            fault = POPULATION[index]
            ops = _sequence(index)
            sram = Sram(N_WORDS, width=WIDTH, ports=PORTS)
            shadow = ShadowMemory(N_WORDS, width=WIDTH, ports=PORTS)
            sram_reads, sram_cells = _run(sram, fault, ops)
            shadow_reads, shadow_cells = _run(shadow, fault, ops)
            assert shadow_reads == sram_reads, fault.describe()
            assert shadow_cells == sram_cells, fault.describe()
            # The shadow stores only words that exist.
            assert set(shadow._cells) <= set(range(N_WORDS))

    def test_raw_cell_helpers_agree(self):
        rng = random.Random(0)
        sram = Sram(8, width=4)
        shadow = ShadowMemory(8, width=4)
        for _ in range(200):
            word, bit = rng.randrange(8), rng.randrange(4)
            if rng.random() < 0.5:
                value = rng.randrange(64)  # poke masks to the width
                sram.poke(word, value)
                shadow.poke(word, value)
            else:
                value = rng.randrange(2)
                sram.force_bit(word, bit, value)
                shadow.force_bit(word, bit, value)
            assert [shadow.peek(w) for w in range(8)] == [
                sram.peek(w) for w in range(8)
            ]

    def test_same_index_errors(self):
        for memory in (Sram(4, ports=2), ShadowMemory(4, ports=2)):
            with pytest.raises(
                IndexError, match=r"port 2 out of range 0\.\.1"
            ):
                memory.read(2, 0)
            with pytest.raises(IndexError, match=r"port -1 out of range"):
                memory.write(-1, 0, 1)
            with pytest.raises(
                IndexError, match=r"address 4 out of range 0\.\.3"
            ):
                memory.read(0, 4)


class TestSramHelpersOnSparseStorage:
    def _pair(self):
        sram = Sram(4, width=2)
        shadow = ShadowMemory(4, width=2)
        for memory in (sram, shadow):
            memory.write(0, 1, 2)
            memory.write(0, 3, 1)
        return sram, shadow

    def test_snapshot_and_bit_image(self):
        sram, shadow = self._pair()
        assert shadow.snapshot() == sram.snapshot() == (0, 2, 0, 1)
        assert shadow.bit_image() == sram.bit_image()

    def test_reset_state_fill(self):
        sram, shadow = self._pair()
        for memory in (sram, shadow):
            memory.reset_state(fill=7)  # masked to the width
        assert shadow.snapshot() == sram.snapshot() == (3, 3, 3, 3)
        assert len(shadow._cells) == 0

    def test_huge_shadow_allocates_nothing(self):
        shadow = ShadowMemory(1 << 40, width=8)
        shadow.write(0, (1 << 40) - 1, 0xA5)
        assert shadow.read(0, (1 << 40) - 1) == 0xA5
        assert shadow.peek(12345) == 0
        shadow.reset_state()
        assert len(shadow._cells) == 0

    def test_repr_names_the_class(self):
        assert repr(ShadowMemory(8)).startswith("ShadowMemory(8 words")
        assert repr(Sram(8)).startswith("Sram(8 words")
