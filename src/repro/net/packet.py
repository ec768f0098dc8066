"""The packet object and its metadata.

A :class:`Packet` is real bytes plus a :class:`PacketMeta`, the analog of
OVS's ``dp_packet`` structure described in §3.2 O4 of the paper: input port,
L3/L4 offsets, the NIC-supplied RSS hash, offload flags, tunnel metadata,
and the recirculation/conntrack state the NSX pipeline carries between
passes through the datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class TunnelMeta:
    """Decapsulated-tunnel context (set by a tunnel port on receive)."""

    tunnel_type: str = ""  # "geneve", "vxlan", "gre", "erspan"
    vni: int = 0
    remote_ip: int = 0
    local_ip: int = 0
    options: bytes = b""

    def clear(self) -> None:
        self.tunnel_type = ""
        self.vni = 0
        self.remote_ip = 0
        self.local_ip = 0
        self.options = b""


@dataclass
class PacketMeta:
    """Per-packet metadata (the ``dp_packet`` fields)."""

    in_port: int = 0
    #: Offsets of the L3 and L4 headers within the frame, filled by parsing.
    l3_offset: int = -1
    l4_offset: int = -1
    #: RSS hash of the 5-tuple; supplied by NIC hardware when available,
    #: otherwise computed in software (the rxhash cost of §5.5).
    rxhash: Optional[int] = None
    #: Hardware already validated the L4 checksum on receive.
    csum_verified: bool = False
    #: The L4 checksum still needs to be filled before hitting the wire;
    #: a NIC with checksum offload accepts the packet in this state.
    csum_partial: bool = False
    #: TSO: this "packet" is a super-segment that hardware (or software GSO)
    #: must split into ``gso_size``-byte segments on transmit.
    gso_size: int = 0
    #: Some CPU already touched this packet's data (it is cache-warm);
    #: the first toucher pays ``dma_first_touch_ns``.
    llc_warm: bool = False
    #: Recirculation id within the OVS datapath pipeline (0 = first pass).
    recirc_id: int = 0
    #: Conntrack state bits as seen by the current pipeline pass.
    ct_state: int = 0
    ct_zone: int = 0
    ct_mark: int = 0
    tunnel: TunnelMeta = field(default_factory=TunnelMeta)


_new = object.__new__


class Packet:
    """A network frame: immutable-ish bytes plus mutable metadata."""

    __slots__ = ("data", "meta")

    def __init__(self, data: bytes, meta: Optional[PacketMeta] = None) -> None:
        if len(data) < 14:
            raise ValueError(f"frame shorter than an Ethernet header: {len(data)}")
        self.data = bytes(data)
        self.meta = meta if meta is not None else PacketMeta()

    def __len__(self) -> int:
        return len(self.data)

    def clone(self) -> "Packet":
        """Deep copy — used by mirror/flood actions.

        Copies the two field dicts flat rather than re-running the
        dataclass constructors; clone sits on the per-packet hot path
        (every NIC receive clones).
        """
        old = self.meta
        tunnel = _new(TunnelMeta)
        tunnel.__dict__ = old.tunnel.__dict__.copy()
        meta = _new(PacketMeta)
        meta.__dict__ = old.__dict__.copy()
        meta.tunnel = tunnel
        pkt = _new(Packet)
        pkt.data = self.data
        pkt.meta = meta
        return pkt

    def with_data(self, data: bytes) -> "Packet":
        """New packet with different bytes but the same metadata object.

        Used by header-rewrite actions; offsets are the caller's problem
        (exactly as with the real dp_packet API).
        """
        pkt = _new(Packet)
        pkt.data = bytes(data)
        pkt.meta = self.meta
        return pkt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet(len={len(self.data)}, in_port={self.meta.in_port})"
