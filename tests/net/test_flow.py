from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import MacAddress
from repro.net.builder import make_arp_request, make_tcp_packet, make_udp_packet
from repro.net.ethernet import VlanTag, push_vlan
from repro.net.flow import (
    EXACT_MASK,
    WILDCARD_MASK,
    FiveTuple,
    FlowKey,
    apply_mask,
    extract_flow,
    l4_offset_of,
    mask_from_fields,
    rss_hash,
)
from repro.net.ipv4 import IPProto
from repro.net.tcp import TcpFlags

SRC = MacAddress("02:00:00:00:00:01")
DST = MacAddress("02:00:00:00:00:02")


def test_udp_extraction():
    pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2", 1111, 2222)
    key = extract_flow(pkt.data, in_port=3)
    assert key.in_port == 3
    assert key.eth_src == SRC.value
    assert key.eth_dst == DST.value
    assert key.eth_type == 0x0800
    assert key.nw_src == 0x0A000001
    assert key.nw_dst == 0x0A000002
    assert key.nw_proto == IPProto.UDP
    assert key.tp_src == 1111
    assert key.tp_dst == 2222
    assert key.vlan_tci == 0


def test_tcp_extraction_includes_flags():
    pkt = make_tcp_packet(
        SRC, DST, "10.0.0.1", "10.0.0.2",
        flags=int(TcpFlags.SYN),
    )
    key = extract_flow(pkt.data)
    assert key.nw_proto == IPProto.TCP
    assert key.tcp_flags == int(TcpFlags.SYN)


def test_vlan_extraction():
    pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2")
    tagged = push_vlan(pkt.data, VlanTag(vid=42, pcp=5))
    key = extract_flow(tagged)
    assert key.vlan_tci == (5 << 13) | 42 | 0x1000
    assert key.nw_src == 0x0A000001  # L3 still parsed past the tag


def test_arp_extraction():
    pkt = make_arp_request(SRC, "10.0.0.1", "10.0.0.2")
    key = extract_flow(pkt.data)
    assert key.eth_type == 0x0806
    assert key.nw_src == 0x0A000001
    assert key.nw_dst == 0x0A000002
    assert key.nw_proto == 1  # ARP op


def test_short_unknown_frame_gives_zeroed_l3():
    key = extract_flow(b"\x00" * 14)
    assert key.nw_src == 0
    assert key.tp_src == 0


def test_recirc_and_ct_fields_distinguish_keys():
    pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2")
    k0 = extract_flow(pkt.data, recirc_id=0)
    k1 = extract_flow(pkt.data, recirc_id=1)
    assert k0 != k1
    assert k0._replace(recirc_id=1) == k1


def test_five_tuple_and_reverse():
    pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2", 10, 20)
    ft = extract_flow(pkt.data).five_tuple()
    assert ft == FiveTuple(IPProto.UDP, 0x0A000001, 0x0A000002, 10, 20)
    assert ft.reversed() == FiveTuple(IPProto.UDP, 0x0A000002, 0x0A000001, 20, 10)


class TestMasks:
    def test_exact_mask_preserves_key(self):
        pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2")
        key = extract_flow(pkt.data)
        assert apply_mask(key, EXACT_MASK) == tuple(key)

    def test_wildcard_mask_zeroes_everything(self):
        pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2")
        key = extract_flow(pkt.data)
        assert apply_mask(key, WILDCARD_MASK) == tuple([0] * len(key))

    def test_mask_from_fields_prefix(self):
        mask = mask_from_fields(nw_dst=0xFFFFFF00, eth_type=-1)
        pkt_a = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.1.7")
        pkt_b = make_udp_packet(SRC, DST, "10.9.9.9", "10.0.1.200")
        a = apply_mask(extract_flow(pkt_a.data), mask)
        b = apply_mask(extract_flow(pkt_b.data), mask)
        assert a == b  # same /24, same ethertype; all else wildcarded

    def test_mask_from_fields_rejects_unknown(self):
        import pytest

        with pytest.raises(KeyError):
            mask_from_fields(not_a_field=-1)


class TestRssHash:
    def test_deterministic(self):
        ft = FiveTuple(6, 1, 2, 3, 4)
        assert rss_hash(ft) == rss_hash(ft)

    def test_32bit(self):
        assert 0 <= rss_hash(FiveTuple(17, 2**32 - 1, 0, 65535, 0)) < 2**32

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 65535),
        st.integers(0, 65535),
    )
    def test_spreads_flows(self, sip, dip, sp, dp):
        h = rss_hash(FiveTuple(17, sip, dip, sp, dp))
        assert 0 <= h < 2**32

    def test_distribution_over_queues(self):
        # 1000 random flows (the paper's worst case) should spread across
        # queues reasonably evenly — this is what RSS gives the kernel DP.
        from repro.sim.rng import make_rng

        rng = make_rng("rss-test")
        counts = [0] * 8
        for _ in range(1000):
            ft = FiveTuple(
                17,
                rng.getrandbits(32),
                rng.getrandbits(32),
                rng.getrandbits(16),
                rng.getrandbits(16),
            )
            counts[rss_hash(ft) % 8] += 1
        assert min(counts) > 60  # no starved queue


def test_l4_offset_plain_and_vlan():
    pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2")
    assert l4_offset_of(pkt.data) == 34
    tagged = push_vlan(pkt.data, VlanTag(vid=7))
    assert l4_offset_of(tagged) == 38


def test_l4_offset_non_ip():
    pkt = make_arp_request(SRC, "10.0.0.1", "10.0.0.2")
    assert l4_offset_of(pkt.data) is None


def test_l4_offset_truncated_vlan_tag():
    """A frame cut inside its 802.1Q tag has no L4 header; it used to die
    with ``struct.error`` reading the inner ethertype at offset 16, which
    a ``SetField(tp_src)`` on such a frame surfaced as the wrong error."""
    import pytest

    from repro.ovs.packet_ops import set_field

    pkt = make_udp_packet(SRC, DST, "10.0.0.1", "10.0.0.2")
    tagged = push_vlan(pkt.data, VlanTag(vid=7))
    for size in (14, 15, 16, 17):
        assert l4_offset_of(tagged[:size]) is None
        assert extract_flow(tagged[:size]).eth_type == 0x8100
        with pytest.raises(ValueError, match="no L4 header"):
            set_field(tagged[:size], "tp_src", 99)
    assert l4_offset_of(tagged[:18]) is None  # tag whole, no IP header
    assert l4_offset_of(tagged[:38]) == 38


@given(st.binary(min_size=14, max_size=100))
def test_extract_never_crashes(data):
    key = extract_flow(data)
    assert isinstance(key, FlowKey)
    l4 = l4_offset_of(data)
    assert l4 is None or l4 >= 14
