"""Flow keys: the miniflow-extract analog.

Every datapath in the paper — the kernel module, the eBPF program, DPDK and
AF_XDP userspace — begins by reducing a packet to a fixed flow key that the
caches and classifiers operate on.  :func:`extract_flow` is that step; its
cost is charged as ``flow_extract_ns`` by callers.

A :class:`FlowKey` is a flat tuple of integers so that masking (for megaflow
and OpenFlow wildcards) is a uniform per-field bitwise AND, exactly like the
real miniflow representation.
"""

from __future__ import annotations

import struct
from operator import and_, itemgetter
from typing import NamedTuple, Optional, Tuple

from repro.net.ethernet import ETH_HLEN, VLAN_HLEN, EtherType
from repro.net.ipv4 import IPV4_HLEN, IPProto


class FiveTuple(NamedTuple):
    """Connection identity used by conntrack and RSS hashing."""

    proto: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int

    def reversed(self) -> "FiveTuple":
        return FiveTuple(
            self.proto, self.dst_ip, self.src_ip, self.dst_port, self.src_port
        )


class FlowKey(NamedTuple):
    """The fields OVS's datapath flow key carries for an IPv4/Ethernet world.

    ``vlan_tci`` uses the OVS convention: 0 means "no VLAN", otherwise the
    TCI with the CFI bit (0x1000) forced on so a tagged vid-0 frame is
    distinguishable from untagged.

    ``recirc_id``/``ct_*`` make pipeline passes distinct cache entries, which
    is what makes the NSX three-pass pipeline of §5.1 cost three lookups.

    ``metadata`` and ``reg0``–``reg8`` are the NXM pipeline registers NSX
    uses to carry logical-port/zone context between tables.  They exist
    only during translation (a real datapath key never carries them; they
    are always 0 when extracted from a packet) — the translator sets them
    with set-field actions on its working copy of the key and freezes them
    into the recirculation state.  With them the key has 31 fields, the
    number of distinct matching fields Table 3 reports for the production
    NSX rule set.
    """

    in_port: int = 0
    eth_src: int = 0
    eth_dst: int = 0
    eth_type: int = 0
    vlan_tci: int = 0
    nw_src: int = 0
    nw_dst: int = 0
    nw_proto: int = 0
    nw_tos: int = 0
    nw_ttl: int = 0
    nw_frag: int = 0
    tp_src: int = 0
    tp_dst: int = 0
    tcp_flags: int = 0
    recirc_id: int = 0
    ct_state: int = 0
    ct_zone: int = 0
    ct_mark: int = 0
    tun_id: int = 0
    tun_src: int = 0
    tun_dst: int = 0
    metadata: int = 0
    reg0: int = 0
    reg1: int = 0
    reg2: int = 0
    reg3: int = 0
    reg4: int = 0
    reg5: int = 0
    reg6: int = 0
    reg7: int = 0
    reg8: int = 0

    def five_tuple(self) -> FiveTuple:
        return FiveTuple(
            self.nw_proto, self.nw_src, self.nw_dst, self.tp_src, self.tp_dst
        )


N_FLOW_FIELDS = len(FlowKey._fields)

#: A mask is a same-arity tuple of per-field bitmasks (0 = wildcard,
#: all-ones = exact).  Field widths differ, so "all ones" is just a value
#: with every meaningful bit set; -1 works for Python ints.
FlowMask = Tuple[int, ...]

EXACT_MASK: FlowMask = tuple([-1] * N_FLOW_FIELDS)
WILDCARD_MASK: FlowMask = tuple([0] * N_FLOW_FIELDS)


class MaskSpec:
    """A precompiled mask: the hashable masked key.

    Two keys match under a mask iff they agree on ``key[i] & mask[i]``
    for every field.  Most megaflow masks are exact on only a handful of
    fields and every wildcarded field contributes a constant ``0``, so a
    :class:`MaskSpec` precompiles the non-zero ``(index, bits)`` pairs
    once per mask and :meth:`project` yields the short tuple of those
    fields only: two keys collide under ``project`` iff they match under
    the mask.  Subtable dictionaries are keyed by projections.

    The projection runs in C: an ``itemgetter`` picks the fields and
    ``map(and_, ...)`` masks them.  ``itemgetter`` returns a bare value
    for one index and has no zero-index form, so its indices are padded
    to at least two; ``map`` stops at the end of the shorter ``_bits``.
    """

    __slots__ = ("mask", "fields", "_pick", "_bits")

    def __init__(self, mask: FlowMask) -> None:
        self.mask = tuple(mask)
        self.fields: Tuple[Tuple[int, int], ...] = tuple(
            (i, bits) for i, bits in enumerate(self.mask) if bits
        )
        index = [i for i, _bits in self.fields]
        self._pick = itemgetter(*index, *[0] * (2 - len(index)))
        self._bits = tuple(bits for _i, bits in self.fields)

    def project(self, key: FlowKey) -> Tuple[int, ...]:
        """The masked key with wildcarded (constant-zero) fields elided."""
        return tuple(map(and_, self._pick(key), self._bits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(FlowKey._fields[i] for i, _ in self.fields)
        return f"MaskSpec({names or 'match-all'})"


def mask_from_fields(**fields: int) -> FlowMask:
    """Build a mask that is exact on the named fields, wildcard elsewhere.

    ``mask_from_fields(nw_dst=0xffffff00)`` gives a /24 match on nw_dst.
    Pass ``-1`` for a full-field exact match.
    """
    mask = [0] * N_FLOW_FIELDS
    for name, bits in fields.items():
        try:
            idx = FlowKey._fields.index(name)
        except ValueError:
            raise KeyError(f"unknown flow field: {name}") from None
        mask[idx] = bits
    return tuple(mask)


#: The compiled frame layouts :func:`extract_flow` walks, one unpack per
#: header.  Each MAC is read as a 16-bit and a 32-bit half (there is no
#: 48-bit struct code); ``x`` pads skip the bytes the key does not carry.
_ETH = struct.Struct("!HIHIH")  # dst hi/lo, src hi/lo, ethertype
_VLAN = struct.Struct("!HH")  # TCI, inner ethertype
#: version/IHL, TOS, flags + fragment offset, TTL, protocol, src, dst.
_IPV4 = struct.Struct("!BB4xHBB2xII")
_L4_PORTS = struct.Struct("!HH")  # TCP/UDP source and destination port
_ARP = struct.Struct("!6xH6xI6xI")  # op, sender IP, target IP

# Plain ints: an ``IntEnum`` member compares through ``Enum.__eq__``.
_ETH_P_IP = int(EtherType.IPV4)
_ETH_P_ARP = int(EtherType.ARP)
_ETH_P_8021Q = int(EtherType.VLAN)
_ICMP = int(IPProto.ICMP)
_TCP = int(IPProto.TCP)
_UDP = int(IPProto.UDP)

_new_key = tuple.__new__
#: metadata, reg0-reg8: never carried by a packet.  Appended as one
#: constant: ten more literals in the key tuple measure slower.
_ZERO_REGS = (0,) * 10


def extract_flow(
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
    """Parse a frame into a :class:`FlowKey` (miniflow extract).

    Unknown/short packets still yield a key — with L3/L4 fields zero — the
    same forgiving behaviour the real extractor has.
    """
    size = len(data)
    dst_hi, dst_lo, src_hi, src_lo, eth_type = _ETH.unpack_from(data)
    offset = ETH_HLEN
    vlan_tci = 0
    if eth_type == _ETH_P_8021Q and size >= ETH_HLEN + VLAN_HLEN:
        tci, eth_type = _VLAN.unpack_from(data, ETH_HLEN)
        vlan_tci = tci | 0x1000
        offset = ETH_HLEN + VLAN_HLEN

    nw_src = nw_dst = nw_proto = nw_tos = nw_ttl = nw_frag = 0
    tp_src = tp_dst = tcp_flags = 0

    if eth_type == _ETH_P_IP and size >= offset + IPV4_HLEN:
        (ver_ihl, nw_tos, flags_frag, nw_ttl, nw_proto,
         nw_src, nw_dst) = _IPV4.unpack_from(data, offset)
        if flags_frag & 0x3FFF:  # more-fragments bit or a fragment offset
            nw_frag = 3 if flags_frag & 0x1FFF else 1  # later vs first
        l4 = offset + (ver_ihl & 0xF) * 4
        if nw_frag != 3 and size >= l4 + 4:
            if nw_proto == _UDP or nw_proto == _TCP:
                tp_src, tp_dst = _L4_PORTS.unpack_from(data, l4)
                if nw_proto == _TCP and size >= l4 + 14:
                    tcp_flags = data[l4 + 13]
            elif nw_proto == _ICMP:
                tp_src, tp_dst = data[l4], data[l4 + 1]  # type, code
    elif eth_type == _ETH_P_ARP and size >= offset + _ARP.size:
        nw_proto, nw_src, nw_dst = _ARP.unpack_from(data, offset)

    return _new_key(FlowKey, (
        in_port, src_hi << 32 | src_lo, dst_hi << 32 | dst_lo, eth_type,
        vlan_tci, nw_src, nw_dst, nw_proto, nw_tos, nw_ttl, nw_frag,
        tp_src, tp_dst, tcp_flags, recirc_id, ct_state, ct_zone, ct_mark,
        tun_id, tun_src, tun_dst) + _ZERO_REGS)


def rss_hash(five_tuple: FiveTuple) -> int:
    """A deterministic symmetric-ish 32-bit hash of the 5-tuple.

    Stands in for Toeplitz RSS: the property experiments rely on is *stable
    spreading* of distinct flows across queues, which any good hash gives.
    """
    h = (
        five_tuple.src_ip * 0x9E3779B1
        ^ five_tuple.dst_ip * 0x85EBCA77
        ^ (five_tuple.src_port << 16 | five_tuple.dst_port) * 0xC2B2AE3D
        ^ five_tuple.proto * 0x27D4EB2F
    ) & 0xFFFFFFFF
    h ^= h >> 15
    h = (h * 0x2C1B3C6D) & 0xFFFFFFFF
    h ^= h >> 12
    return h


#: Memo for :func:`rxhash_of`.  Safe because ``rss_hash`` over an
#: ``extract_flow`` of the same bytes is a pure function; bounded so a
#: randomized workload cannot grow it without limit.
_RXHASH_MEMO: dict = {}
_RXHASH_MEMO_MAX = 16384

#: The 5-tuple of an untagged IPv4 frame with a 20-byte header, read in
#: one unpack: ethertype, version/IHL, flags + fragment offset, then
#: protocol, src, dst and the two ports — the last five in
#: :class:`FiveTuple` order.
_RSS_FRAME = struct.Struct("!12xHB5xHxB2xIIHH")


def rxhash_of(data: bytes) -> int:
    """Software RSS hash of a frame, memoized by frame bytes.

    Equivalent to ``rss_hash(extract_flow(data).five_tuple())``; the
    hot paths that recompute the rxhash per received packet (NIC
    software hashing, AF_XDP metadata init) use this so repeated frames
    of the same flow pay the parse once in wall-clock time.  A TCP or
    UDP frame that is untagged, has no IP options and is not a later
    fragment is hashed straight from :data:`_RSS_FRAME`; every other
    frame goes through the full parse.  Virtual time is unaffected —
    callers charge the same costs either way.
    """
    h = _RXHASH_MEMO.get(data)
    if h is None:
        if len(_RXHASH_MEMO) >= _RXHASH_MEMO_MAX:
            _RXHASH_MEMO.clear()
        if len(data) >= _RSS_FRAME.size:
            fields = _RSS_FRAME.unpack_from(data)
            proto = fields[3]
            if (fields[0] == _ETH_P_IP and fields[1] & 0xF == 5
                    and not fields[2] & 0x1FFF
                    and (proto == _UDP or proto == _TCP)):
                h = rss_hash(_new_key(FiveTuple, fields[3:]))
        if h is None:
            h = rss_hash(extract_flow(data).five_tuple())
        _RXHASH_MEMO[data] = h
    return h


def l4_offset_of(data: bytes) -> Optional[int]:
    """Byte offset of the L4 header of an IPv4 frame, if present."""
    size = len(data)
    eth_type = _ETH.unpack_from(data)[4]
    offset = ETH_HLEN
    if eth_type == _ETH_P_8021Q:
        if size < ETH_HLEN + VLAN_HLEN:
            return None  # truncated inside the tag
        eth_type = _VLAN.unpack_from(data, ETH_HLEN)[1]
        offset = ETH_HLEN + VLAN_HLEN
    if eth_type != _ETH_P_IP or size < offset + IPV4_HLEN:
        return None
    return offset + (data[offset] & 0xF) * 4
