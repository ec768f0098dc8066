"""``extract_flow`` against the field-by-field parser it replaced.

``repro.net.flow.extract_flow`` reads each header with one precompiled
``struct.Struct`` and builds the key positionally.
:func:`reference_extract_flow` below is the parser it replaced, kept
verbatim: one ``unpack_from`` per field, ``IntEnum`` compares, a
21-keyword ``FlowKey(...)`` call.  Both are driven over structured
frames (every frame shape the layouts cover, cut at every header
boundary) and over arbitrary bytes; equal keys are the proof that "one
unpack" did not move a field.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ethernet import ETH_HLEN, VLAN_HLEN, EtherType
from repro.net.flow import FlowKey, extract_flow
from repro.net.ipv4 import IPV4_HLEN, IPProto


def reference_extract_flow(
    data: bytes,
    in_port: int = 0,
    recirc_id: int = 0,
    ct_state: int = 0,
    ct_zone: int = 0,
    ct_mark: int = 0,
    tun_id: int = 0,
    tun_src: int = 0,
    tun_dst: int = 0,
) -> FlowKey:
    eth_dst = int.from_bytes(data[0:6], "big")
    eth_src = int.from_bytes(data[6:12], "big")
    (eth_type,) = struct.unpack_from("!H", data, 12)
    offset = ETH_HLEN
    vlan_tci = 0
    if eth_type == EtherType.VLAN and len(data) >= offset + VLAN_HLEN:
        tci, eth_type = struct.unpack_from("!HH", data, offset)
        vlan_tci = tci | 0x1000
        offset += VLAN_HLEN

    nw_src = nw_dst = nw_proto = nw_tos = nw_ttl = nw_frag = 0
    tp_src = tp_dst = tcp_flags = 0

    if eth_type == EtherType.IPV4 and len(data) >= offset + IPV4_HLEN:
        ver_ihl, tos = struct.unpack_from("!BB", data, offset)
        ihl = (ver_ihl & 0xF) * 4
        (flags_frag,) = struct.unpack_from("!H", data, offset + 6)
        ttl, proto = struct.unpack_from("!BB", data, offset + 8)
        nw_src, nw_dst = struct.unpack_from("!II", data, offset + 12)
        nw_proto = proto
        nw_tos = tos
        nw_ttl = ttl
        frag_off = flags_frag & 0x1FFF
        more_frags = (flags_frag >> 13) & 0x1
        if frag_off or more_frags:
            nw_frag = 1 if frag_off == 0 else 3  # first vs later fragment
        l4 = offset + ihl
        if nw_frag in (0, 1) and len(data) >= l4 + 4:
            if proto in (IPProto.TCP, IPProto.UDP):
                tp_src, tp_dst = struct.unpack_from("!HH", data, l4)
                if proto == IPProto.TCP and len(data) >= l4 + 14:
                    (tcp_flags,) = struct.unpack_from("!B", data, l4 + 13)
            elif proto == IPProto.ICMP:
                icmp_type, icmp_code = struct.unpack_from("!BB", data, l4)
                tp_src, tp_dst = icmp_type, icmp_code
    elif eth_type == EtherType.ARP and len(data) >= offset + 28:
        (op,) = struct.unpack_from("!H", data, offset + 6)
        (spa,) = struct.unpack_from("!I", data, offset + 14)
        (tpa,) = struct.unpack_from("!I", data, offset + 24)
        nw_src, nw_dst, nw_proto = spa, tpa, op

    return FlowKey(
        in_port=in_port,
        eth_src=eth_src,
        eth_dst=eth_dst,
        eth_type=eth_type,
        vlan_tci=vlan_tci,
        nw_src=nw_src,
        nw_dst=nw_dst,
        nw_proto=nw_proto,
        nw_tos=nw_tos,
        nw_ttl=nw_ttl,
        nw_frag=nw_frag,
        tp_src=tp_src,
        tp_dst=tp_dst,
        tcp_flags=tcp_flags,
        recirc_id=recirc_id,
        ct_state=ct_state,
        ct_zone=ct_zone,
        ct_mark=ct_mark,
        tun_id=tun_id,
        tun_src=tun_src,
        tun_dst=tun_dst,
    )


# ----------------------------------------------------------------------
# Structured frames.
# ----------------------------------------------------------------------
L3_KINDS = ("udp", "tcp", "icmp", "other-ip", "arp", "unknown", "qinq")
IP_PROTO = {"udp": 17, "tcp": 6, "icmp": 1}
#: The flags + fragment-offset word: each of its 16 bits alone (reserved,
#: DF, MF, every offset bit), then none, DF|MF, a middle fragment and
#: the offset's extremes.
FRAG_BITS = tuple(1 << bit for bit in range(16)) + (
    0x0000, 0x6000, 0x2001, 0x1FFF, 0x3FFF)


def build_frame(kind: str, vlan_tci, ihl: int, flags_frag: int,
                fill: bytes) -> "tuple[bytes, list[int]]":
    """A frame of the given shape and the offsets of its header
    boundaries.  ``fill`` supplies every byte the shape does not fix."""
    feed = iter(fill * (1 + 200 // len(fill)))

    def take(n: int) -> bytes:
        return bytes(next(feed) for _ in range(n))

    frame = take(12)
    bounds = [ETH_HLEN]
    if vlan_tci is not None:
        frame += struct.pack("!HH", 0x8100, vlan_tci)
        bounds.append(ETH_HLEN + VLAN_HLEN)
    if kind == "arp":
        frame += struct.pack("!H", 0x0806) + take(28)
    elif kind == "unknown":
        frame += struct.pack("!H", 0x88CC) + take(40)
    elif kind == "qinq":
        frame += struct.pack("!HH", 0x8100, 7) + struct.pack("!H", 0x0800)
        frame += take(40)
    else:
        proto = IP_PROTO.get(kind, 47)
        l3 = len(frame) + 2
        frame += struct.pack("!H", 0x0800)
        frame += struct.pack("!BB", 0x40 | ihl, next(feed)) + take(4)
        frame += struct.pack("!H", flags_frag)
        frame += struct.pack("!BB", next(feed), proto) + take(10)
        frame += take(max(0, ihl * 4 - IPV4_HLEN))  # IP options
        l4 = l3 + ihl * 4
        bounds += [l3 + IPV4_HLEN, l4, l4 + 4, l4 + 13, l4 + 14]
        frame += take(24)
    bounds.append(len(frame))
    return frame, bounds


@st.composite
def structured_frames(draw):
    kind = draw(st.sampled_from(L3_KINDS))
    vlan_tci = draw(st.none() | st.integers(0, 0xFFFF))
    ihl = draw(st.integers(5, 15) | st.integers(0, 4))
    flags_frag = draw(st.sampled_from(FRAG_BITS) | st.integers(0, 0xFFFF))
    fill = draw(st.binary(min_size=1, max_size=64))
    frame, bounds = build_frame(kind, vlan_tci, ihl, flags_frag, fill)
    cuts = sorted({c for b in bounds for c in (b - 1, b, b + 1)
                   if ETH_HLEN <= c <= len(frame)})
    return frame[:draw(st.sampled_from(cuts))]


#: ``extract_flow``'s metadata parameters in signature order, with the
#: width of each.
METADATA_BITS = {"in_port": 32, "recirc_id": 32, "ct_state": 8,
                 "ct_zone": 16, "ct_mark": 32, "tun_id": 64, "tun_src": 32,
                 "tun_dst": 32}
METADATA = st.fixed_dictionaries(
    {name: st.integers(0, 2**bits - 1)
     for name, bits in METADATA_BITS.items()})


def assert_same_key(data: bytes, meta: dict) -> None:
    want = reference_extract_flow(data, **meta)
    got = extract_flow(data, **meta)
    assert got == want, (data.hex(), got, want)
    assert type(got) is FlowKey
    assert got[FlowKey._fields.index("metadata"):] == (0,) * 10
    # The kernel datapath passes the metadata positionally.
    assert extract_flow(data, *(meta[n] for n in METADATA_BITS)) == want


@settings(max_examples=400, deadline=None)
@given(structured_frames(), METADATA)
def test_structured_frames_parse_like_the_reference(data, meta):
    assert_same_key(data, meta)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=14, max_size=120), METADATA)
def test_arbitrary_bytes_parse_like_the_reference(data, meta):
    assert_same_key(data, meta)


def test_every_shape_cut_at_every_byte():
    """The exhaustive sweep the strategies sample from: each frame kind
    x untagged/tagged x IHL 5-15 x fragment bits, truncated at every
    length from a bare Ethernet header up."""
    meta = {"in_port": 3, "recirc_id": 9, "ct_state": 0x21, "ct_zone": 7,
            "ct_mark": 5, "tun_id": 88, "tun_src": 1, "tun_dst": 2}
    fill = bytes(range(1, 62))
    frames = 0
    for kind in L3_KINDS:
        for vlan_tci in (None, 0x0000, 0xA02A):
            for ihl in range(5, 16) if kind in IP_PROTO else (5,):
                for flags_frag in FRAG_BITS:
                    frame, _ = build_frame(kind, vlan_tci, ihl, flags_frag,
                                           fill)
                    for cut in range(ETH_HLEN, len(frame) + 1):
                        assert_same_key(frame[:cut], meta)
                    frames += 1
    assert frames == 3 * len(FRAG_BITS) * (3 * 11 + 4)
