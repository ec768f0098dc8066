import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.afxdp.rings import DescRing, RingFullError
from repro.afxdp.umem import Umem
from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet

PKT = make_udp_packet(MacAddress.local(1), MacAddress.local(2),
                      "10.0.0.1", "10.0.0.2")


class TestDescRing:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            DescRing(100)
        with pytest.raises(ValueError):
            DescRing(0)

    def test_fifo_order(self):
        r = DescRing(8)
        for i in range(5):
            r.produce((i, 0))
        assert [r.consume()[0] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_empty_consume_none(self):
        assert DescRing(4).consume() is None

    def test_full_raises(self):
        r = DescRing(2)
        r.produce((1, 0))
        r.produce((2, 0))
        with pytest.raises(RingFullError):
            r.produce((3, 0))

    def test_batch_produce_partial(self):
        r = DescRing(4)
        n = r.produce_batch([(i, 0) for i in range(10)])
        assert n == 4
        assert len(r) == 4

    def test_batch_consume(self):
        r = DescRing(8)
        r.produce_batch([(i, 0) for i in range(6)])
        got = r.consume_batch(4)
        assert [d[0] for d in got] == [0, 1, 2, 3]
        assert len(r) == 2

    def test_wraparound(self):
        r = DescRing(4)
        for round_no in range(10):
            r.produce_batch([(round_no * 4 + i, 0) for i in range(4)])
            got = r.consume_batch(4)
            assert len(got) == 4
        assert len(r) == 0

    @given(st.lists(st.integers(0, 1000), max_size=64))
    def test_fifo_property(self, addrs):
        r = DescRing(64)
        n = r.produce_batch([(a, 0) for a in addrs])
        out = [d[0] for d in r.consume_batch(64)]
        assert out == addrs[:n]


class LoopRing:
    """The slot-by-slot ring ``DescRing``'s batch operations replaced
    (they now move whole slices), kept as their definition."""

    def __init__(self, size):
        self.size = size
        self._slots = [None] * size
        self._prod = 0
        self._cons = 0
        self.full_events = 0
        self.empty_events = 0

    def __len__(self):
        return self._prod - self._cons

    def produce_batch(self, descs):
        n = min(len(descs), self.size - len(self))
        if n < len(descs):
            self.full_events += 1
        for desc in descs[:n]:
            self._slots[self._prod & (self.size - 1)] = desc
            self._prod += 1
        return n

    def consume_batch(self, max_n):
        n = min(max_n, len(self))
        if n == 0:
            self.empty_events += 1
            return []
        out = []
        for _ in range(n):
            out.append(self._slots[self._cons & (self.size - 1)])
            self._cons += 1
        return out


class TestDescRingAgainstTheLoop:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 11)),
                    max_size=60))
    def test_any_interleaving_wrapping_or_not(self, steps):
        """Batches that straddle the end of the slot array, overfill the
        ring or find it empty: same descriptors out, same stall counts."""
        ring, loop = DescRing(8), LoopRing(8)
        serial = 0
        for produce, n in steps:
            if produce:
                descs = [(serial + i, i) for i in range(n)]
                serial += n
                assert ring.produce_batch(descs) == loop.produce_batch(descs)
            else:
                assert ring.consume_batch(n) == loop.consume_batch(n)
            assert len(ring) == len(loop)
            assert (ring.full_events, ring.empty_events) \
                == (loop.full_events, loop.empty_events)
        assert ring.consume_batch(8) == loop.consume_batch(8)

    def test_singles_and_batches_share_the_indexes(self):
        ring = DescRing(4)
        ring.produce_batch([(0, 0), (1, 0), (2, 0)])
        assert ring.consume() == (0, 0)
        ring.produce((3, 0))
        ring.produce_batch([(4, 0)])  # lands in slot 0: wrapped
        assert ring.consume_batch(9) == [(1, 0), (2, 0), (3, 0), (4, 0)]
        assert ring.consume() is None and ring.empty_events == 1

    def test_caller_keeps_its_list(self):
        ring = DescRing(4)
        descs = [(7, 0)]
        ring.produce_batch(descs)
        descs.append((8, 0))
        got = ring.consume_batch(4)
        got.append("scribble")
        assert len(ring) == 0 and ring._slots.count((7, 0)) == 1
        assert len(ring._slots) == 4


class TestUmem:
    def test_frame_addresses_aligned(self):
        u = Umem(n_frames=4, frame_size=2048)
        assert u.all_addresses() == [0, 2048, 4096, 6144]

    def test_write_read_clear(self):
        u = Umem(n_frames=2)
        u.write_frame(2048, PKT)
        assert u.read_frames([2048])[0] is PKT
        u.clear_frames([2048])
        with pytest.raises(ValueError, match="empty"):
            u.read_frames([2048])

    def test_unaligned_address_rejected(self):
        u = Umem(n_frames=2)
        with pytest.raises(ValueError, match="frame boundary"):
            u.write_frame(100, PKT)

    def test_oversized_packet_rejected(self):
        u = Umem(n_frames=1, frame_size=32)
        with pytest.raises(ValueError, match="larger than a frame"):
            u.write_frame(0, PKT)

    def test_needs_frames(self):
        with pytest.raises(ValueError):
            Umem(n_frames=0)

    def test_batch_accessors_check_every_address(self):
        """``read_frames``/``clear_frames`` check every address of the
        burst and raise at the first bad one."""
        u = Umem(n_frames=4)
        u.write_frame(0, PKT)
        u.write_frame(4096, PKT)
        assert u.read_frames([0, 4096]) == [PKT, PKT]
        with pytest.raises(ValueError, match="0x64 is not a frame boundary"):
            u.read_frames([0, 100])
        with pytest.raises(ValueError, match="0x800 is empty"):
            u.read_frames([0, 2048, 4096])
        with pytest.raises(ValueError, match="0x64 is not a frame boundary"):
            u.clear_frames([100, 4096])
        u.clear_frames([0, 2048])
        with pytest.raises(ValueError, match="empty"):
            u.read_frames([0])
        assert u.read_frames([4096]) == [PKT]
        assert u.read_frames([]) == []
        small = Umem(n_frames=1, frame_size=32)
        with pytest.raises(ValueError, match="larger than a frame"):
            small.write_frame(0, PKT)
        with pytest.raises(ValueError, match="empty"):
            small.read_frames([0])
