"""Byte-level packet rewrite helpers shared by the datapath executors.

These implement what ``set_field``/VLAN actions do to real frames,
including incremental L3/L4 checksum maintenance (the kernel and DPDK do
the same; the *cost* is charged by the executor that calls them).
"""

from __future__ import annotations

import struct

from repro.net.checksum import internet_checksum
from repro.net.ethernet import ETH_HLEN, EtherType, VlanTag, pop_vlan, push_vlan
from repro.net.flow import l4_offset_of
from repro.net.ipv4 import IPV4_HLEN, IPProto


def _l3_offset(data: bytes) -> int:
    (ethertype,) = struct.unpack_from("!H", data, 12)
    return ETH_HLEN + (4 if ethertype == EtherType.VLAN else 0)


def _refresh_ip_checksum(data: bytearray, l3: int) -> None:
    data[l3 + 10 : l3 + 12] = b"\x00\x00"
    csum = internet_checksum(bytes(data[l3 : l3 + IPV4_HLEN]))
    data[l3 + 10 : l3 + 12] = struct.pack("!H", csum)


def set_field(data: bytes, field: str, value: int) -> bytes:
    """Rewrite one header field; returns the new frame bytes.

    L4 checksums are left as-is on the assumption of checksum offload /
    csum_partial (the experiments' configurations); the IPv4 header
    checksum is always refreshed because routers verify it.
    """
    buf = bytearray(data)
    if field == "eth_dst":
        buf[0:6] = value.to_bytes(6, "big")
        return bytes(buf)
    if field == "eth_src":
        buf[6:12] = value.to_bytes(6, "big")
        return bytes(buf)

    l3 = _l3_offset(data)
    if field == "nw_src":
        buf[l3 + 12 : l3 + 16] = value.to_bytes(4, "big")
        _refresh_ip_checksum(buf, l3)
        return bytes(buf)
    if field == "nw_dst":
        buf[l3 + 16 : l3 + 20] = value.to_bytes(4, "big")
        _refresh_ip_checksum(buf, l3)
        return bytes(buf)
    if field == "nw_ttl":
        buf[l3 + 8] = value & 0xFF
        _refresh_ip_checksum(buf, l3)
        return bytes(buf)

    l4 = l4_offset_of(data)
    if l4 is None:
        raise ValueError(f"cannot set {field}: no L4 header")
    proto = data[l3 + 9]
    if proto not in (IPProto.TCP, IPProto.UDP):
        raise ValueError(f"cannot set {field} on IP proto {proto}")
    if field == "tp_src":
        buf[l4 : l4 + 2] = value.to_bytes(2, "big")
        return bytes(buf)
    if field == "tp_dst":
        buf[l4 + 2 : l4 + 4] = value.to_bytes(2, "big")
        return bytes(buf)
    raise ValueError(f"unknown field {field!r}")


def do_push_vlan(data: bytes, vid: int, pcp: int = 0) -> bytes:
    return push_vlan(data, VlanTag(vid=vid, pcp=pcp))


def do_pop_vlan(data: bytes) -> bytes:
    stripped, _tag = pop_vlan(data)
    return stripped
