"""TRex-style stateless traffic streams.

§5.2: "we assigned each packet random source and destination IPs out of
1,000 possibilities, which is a worst case scenario for the OVS datapath
because it causes a high miss rate in the OVS caching layer."

A :class:`TrexStream` produces that exact workload deterministically.
Frames are pre-built and cycled, so generation cost never pollutes the
device-under-test's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.net.addresses import MacAddress, ip_to_int
from repro.net.builder import make_udp_packet
from repro.net.packet import Packet
from repro.sim.rng import make_rng


@dataclass(frozen=True)
class FlowSpec:
    """The flow-diversity knob: 1 flow, or N random-IP flows.

    ``vary_dst=False`` pins the destination (PVP/PCP loopbacks target one
    VM/container IP) while still varying sources for flow diversity.
    """

    n_flows: int = 1
    src_base: str = "16.0.0.1"
    dst_base: str = "48.0.0.1"
    src_port: int = 1026
    dst_port: int = 12
    vary_dst: bool = True

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("need at least one flow")


class TrexStream:
    def __init__(
        self,
        flows: FlowSpec,
        frame_len: int = 64,
        src_mac: Optional[MacAddress] = None,
        dst_mac: Optional[MacAddress] = None,
        seed: int = 42,
    ) -> None:
        self.flows = flows
        self.frame_len = frame_len
        src_mac = src_mac or MacAddress.local(0xE0001)
        dst_mac = dst_mac or MacAddress.local(0xE0002)
        rng = make_rng("trex", flows.n_flows, frame_len, seed)
        src_base = ip_to_int(flows.src_base)
        dst_base = ip_to_int(flows.dst_base)
        # "random source and destination IPs out of 1,000 possibilities"
        vary = flows.n_flows > 1
        vary_dst = vary and flows.vary_dst
        addresses = [
            (src_base + (rng.randrange(100_000) if vary else 0),
             dst_base + (rng.randrange(100_000) if vary_dst else 0))
            for _ in range(flows.n_flows)
        ]
        # Flows differ only in src/dst IP (and the IPv4 header checksum
        # those feed), so the first flow's packet serves as a template
        # and the other frames are built by patching 10 bytes —
        # byte-identical to a full make_udp_packet() build at a fraction
        # of the cost, which keeps large-n_flows stream setup from
        # dwarfing the datapath under test in wall-clock benchmarks.
        # A flow is only its frame: every packet is minted from the
        # template, whose metadata (the L3/L4 offsets) all flows share.
        src, dst = addresses[0]
        self._template = make_udp_packet(
            src_mac, dst_mac, src, dst, flows.src_port, flows.dst_port,
            frame_len=frame_len,
            fill_checksum=False,  # generator-side offload
        )
        template = self._template.data
        # Ones'-complement sum of the IPv4 header words with the src,
        # dst, and checksum fields zeroed; each flow's header checksum
        # is this plus its own address words.
        hdr = template[14:34]
        base_sum = sum(
            int.from_bytes(hdr[o:o + 2], "big") for o in range(0, 10, 2)
        )
        self._frames: List[bytes] = [template]
        for src, dst in addresses[1:]:
            total = (base_sum + (src >> 16) + (src & 0xFFFF)
                     + (dst >> 16) + (dst & 0xFFFF))
            while total >> 16:
                total = (total & 0xFFFF) + (total >> 16)
            self._frames.append(b"".join((
                template[:24],
                ((~total) & 0xFFFF).to_bytes(2, "big"),
                src.to_bytes(4, "big"),
                dst.to_bytes(4, "big"),
                template[34:],
            )))
        self._cursor = 0

    @property
    def src_ips(self) -> List[int]:
        """Distinct source IPs across the prebuilt frames (sorted).

        Lets a bench install one OpenFlow rule per source so every flow
        costs its own upcall + megaflow instead of collapsing into one
        wildcard entry.
        """
        return sorted({
            int.from_bytes(frame[26:30], "big") for frame in self._frames
        })

    @property
    def distinct_flows(self) -> int:
        return len({(frame[26:30], frame[30:34]) for frame in self._frames})

    def next_packet(self) -> Packet:
        pkt = self._template.clone()
        pkt.data = self._frames[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._frames)
        return pkt

    def burst(self, n: int) -> List[Packet]:
        """The next ``n`` packets, as :meth:`next_packet` would return
        them (one frame for the burst, not one per packet)."""
        frames = self._frames
        size = len(frames)
        cursor = self._cursor
        self._cursor = (cursor + n) % size
        clone = self._template.clone
        out = []
        for i in range(cursor, cursor + n):
            pkt = clone()
            pkt.data = frames[i % size]
            out.append(pkt)
        return out

    def __iter__(self) -> Iterator[Packet]:
        while True:
            yield self.next_packet()
