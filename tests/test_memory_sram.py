"""Unit tests for the behavioural SRAM model."""

import pytest

from repro.faults.stuck_at import StuckAtFault
from repro.memory.shadow import ShadowMemory
from repro.memory.sram import Sram


class TestConstruction:
    def test_defaults(self):
        memory = Sram(16)
        assert memory.n_words == 16
        assert memory.width == 1
        assert memory.ports == 1

    def test_word_oriented(self):
        memory = Sram(8, width=8)
        assert memory.word_mask == 0xFF
        assert memory.size_bits == 64

    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            Sram(0)

    def test_non_power_of_two_width_rejected(self):
        with pytest.raises(ValueError):
            Sram(8, width=3)

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            Sram(8, ports=0)

    def test_initial_contents_zero(self):
        memory = Sram(4, width=4)
        assert all(memory.peek(w) == 0 for w in range(4))

    def test_repr_mentions_geometry(self):
        assert "bit-oriented" in repr(Sram(8))
        assert "8-bit word" in repr(Sram(8, width=8))


class TestReadWrite:
    def test_write_then_read(self):
        memory = Sram(8)
        memory.write(0, 3, 1)
        assert memory.read(0, 3) == 1

    def test_write_masks_to_width(self):
        memory = Sram(8, width=4)
        memory.write(0, 1, 0x1F)
        assert memory.read(0, 1) == 0xF

    def test_reads_are_independent_per_address(self):
        memory = Sram(4)
        memory.write(0, 2, 1)
        assert memory.read(0, 1) == 0
        assert memory.read(0, 2) == 1

    def test_invalid_port_rejected(self):
        memory = Sram(4, ports=2)
        with pytest.raises(IndexError):
            memory.read(2, 0)
        with pytest.raises(IndexError):
            memory.write(-1, 0, 1)

    def test_invalid_address_rejected(self):
        # Both memories, both access paths, both ends of the range: the
        # sparse ShadowMemory storage would accept any word on its own.
        for memory_type in (Sram, ShadowMemory):
            for address in (4, -1):
                for access, args in (("read", ()), ("write", (1,))):
                    memory = memory_type(4)
                    case = (memory_type.__name__, access, address)
                    message = f"address {address} out of range"
                    with pytest.raises(IndexError, match=message):
                        getattr(memory, access)(0, address, *args)
                    # The access still took its cycle and stored nothing.
                    assert memory.clock.now == 1, case
                    assert memory.snapshot() == (0, 0, 0, 0), case

    def test_ports_share_cell_array(self):
        memory = Sram(4, ports=2)
        memory.write(0, 1, 1)
        assert memory.read(1, 1) == 1

    def test_accesses_advance_clock(self):
        memory = Sram(4)
        memory.write(0, 0, 1)
        memory.read(0, 0)
        assert memory.clock.now == 2

    def test_elapse_advances_clock(self):
        memory = Sram(4)
        memory.elapse(500)
        assert memory.clock.now == 500


class TestRawAccess:
    def test_poke_bypasses_width_checking_by_masking(self):
        memory = Sram(4, width=2)
        memory.poke(0, 0b111)
        assert memory.peek(0) == 0b11

    def test_force_bit_set_and_clear(self):
        memory = Sram(4, width=4)
        memory.force_bit(2, 3, 1)
        assert memory.peek(2) == 0b1000
        memory.force_bit(2, 3, 0)
        assert memory.peek(2) == 0

    def test_snapshot_immutable_copy(self):
        memory = Sram(4)
        snap = memory.snapshot()
        memory.write(0, 0, 1)
        assert snap[0] == 0
        assert memory.snapshot()[0] == 1


class TestDecoderIntegration:
    def test_open_address_reads_open_value(self):
        memory = Sram(4, open_read_value=0)
        memory.decoder.remap(2, ())
        memory.write(0, 2, 1)  # lost
        assert memory.read(0, 2) == 0

    def test_multi_target_write_lands_in_both(self):
        memory = Sram(4)
        memory.decoder.remap(1, (1, 3))
        memory.write(0, 1, 1)
        assert memory.peek(1) == 1 and memory.peek(3) == 1

    def test_multi_target_read_is_wired_and(self):
        memory = Sram(4)
        memory.decoder.remap(1, (1, 3))
        memory.poke(1, 1)
        memory.poke(3, 0)
        assert memory.read(0, 1) == 0

    def test_nonzero_open_read_value_masked(self):
        memory = Sram(4, width=2, open_read_value=0xFF)
        memory.decoder.remap(0, ())
        assert memory.read(0, 0) == 0b11


class TestFaultManagement:
    def test_attach_installs(self):
        memory = Sram(4)
        memory.attach(StuckAtFault(1, 0, 1))
        assert memory.peek(1) == 1  # install forces the stuck level

    def test_detach_all_removes_behaviour(self):
        memory = Sram(4)
        memory.attach(StuckAtFault(1, 0, 1))
        memory.detach_all()
        memory.write(0, 1, 0)
        assert memory.read(0, 1) == 0
        assert not memory.faults

    def test_reset_state_keeps_faults(self):
        memory = Sram(4)
        memory.attach(StuckAtFault(1, 0, 1))
        memory.reset_state()
        assert len(memory.faults) == 1
        memory.write(0, 1, 0)
        assert memory.read(0, 1) == 1

    def test_reset_state_fill(self):
        memory = Sram(4, width=4)
        memory.reset_state(fill=0xA)
        assert memory.peek(3) == 0xA
