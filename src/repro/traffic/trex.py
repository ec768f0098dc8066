"""TRex-style stateless traffic streams.

§5.2: "we assigned each packet random source and destination IPs out of
1,000 possibilities, which is a worst case scenario for the OVS datapath
because it causes a high miss rate in the OVS caching layer."

A :class:`TrexStream` produces that exact workload deterministically.
Pre-built packets are cycled, so generation cost never pollutes the
device-under-test's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.net.addresses import MacAddress, ip_to_int
from repro.net.builder import make_udp_packet
from repro.net.packet import Packet
from repro.sim.rng import make_rng
from repro.sim.stats import line_rate_mpps
from repro.traffic.lossless import (
    LosslessSearch,
    SearchResult,
    aggregate_capacity_mpps,
    capacity_loss_model,
)


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
        self._packets: List[Packet] = []
        # Flows differ only in src/dst IP (and the IPv4 header checksum
        # those feed), so the first frame serves as a template and the
        # rest are built by patching 10 bytes — byte-identical to a full
        # make_udp_packet() build at a fraction of the cost, which keeps
        # large-n_flows stream setup from dwarfing the datapath under
        # test in wall-clock benchmarks.
        template: Optional[bytes] = None
        base_sum = 0
        for i in range(flows.n_flows):
            # "random source and destination IPs out of 1,000 possibilities"
            vary = flows.n_flows > 1
            src = src_base + (rng.randrange(100_000) if vary else 0)
            dst = dst_base + (
                rng.randrange(100_000) if vary and flows.vary_dst else 0
            )
            if template is None:
                pkt = make_udp_packet(
                    src_mac, dst_mac, src, dst,
                    flows.src_port, flows.dst_port,
                    frame_len=frame_len,
                    fill_checksum=False,  # generator-side offload
                )
                template = pkt.data
                # Ones'-complement sum of the IPv4 header words with the
                # src, dst, and checksum fields zeroed; each flow's
                # header checksum is this plus its own address words.
                hdr = template[14:34]
                base_sum = sum(
                    int.from_bytes(hdr[o:o + 2], "big")
                    for o in range(0, 10, 2)
                )
            else:
                total = (base_sum + (src >> 16) + (src & 0xFFFF)
                         + (dst >> 16) + (dst & 0xFFFF))
                while total >> 16:
                    total = (total & 0xFFFF) + (total >> 16)
                frame = b"".join((
                    template[:24],
                    ((~total) & 0xFFFF).to_bytes(2, "big"),
                    src.to_bytes(4, "big"),
                    dst.to_bytes(4, "big"),
                    template[34:],
                ))
                pkt = Packet(frame)
                pkt.meta.l3_offset = 14
                pkt.meta.l4_offset = 34
            self._packets.append(pkt)
        self._cursor = 0

    @property
    def src_ips(self) -> List[int]:
        """Distinct source IPs across the prebuilt packets (sorted).

        Lets a bench install one OpenFlow rule per source so every flow
        costs its own upcall + megaflow instead of collapsing into one
        wildcard entry.
        """
        return sorted({
            int.from_bytes(p.data[26:30], "big") for p in self._packets
        })

    @property
    def distinct_flows(self) -> int:
        return len({
            (p.data[26:30], p.data[30:34]) for p in self._packets
        })

    def next_packet(self) -> Packet:
        pkt = self._packets[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._packets)
        return pkt.clone()

    def burst(self, n: int) -> List[Packet]:
        """The next ``n`` packets, as :meth:`next_packet` would return
        them (one frame for the burst, not one per packet)."""
        packets = self._packets
        size = len(packets)
        cursor = self._cursor
        self._cursor = (cursor + n) % size
        return [packets[(cursor + i) % size].clone() for i in range(n)]

    def __iter__(self) -> Iterator[Packet]:
        while True:
            yield self.next_packet()


def max_lossless_mpps(
    per_lane_busy_ns: Sequence[float],
    packets_per_lane: Sequence[int],
    link_gbps: float,
    frame_len: int,
) -> float:
    """The maximum lossless forwarding rate of a multi-lane pipeline.

    Each lane (a PMD thread, a softirq core) can sustain
    ``packets / busy_ns`` before its queue grows without bound; the
    aggregate is their sum, capped by the wire.  This is the closed form
    of the quantity the TRex binary search converges to on the real
    testbed; :class:`repro.traffic.lossless.LosslessSearch` finds the
    same rate probe by probe and keeps the search trace.
    """
    total = aggregate_capacity_mpps(per_lane_busy_ns, packets_per_lane)
    return min(total, line_rate_mpps(link_gbps, frame_len))


def lossless_search_from_lanes(
    per_lane_busy_ns: Sequence[float],
    packets_per_lane: Sequence[int],
    link_gbps: float,
    frame_len: int,
    resolution_mpps: float = 0.01,
    loss_tolerance: float = 0.0,
) -> "SearchResult":
    """Run the TRex-style binary search against a measured pipeline.

    The lanes define the capacity (as in :func:`max_lossless_mpps`); the
    wire defines the search ceiling.  Returns the full
    :class:`~repro.traffic.lossless.SearchResult`, whose ``rate_mpps``
    agrees with the closed form to within ``resolution_mpps``.
    """
    capacity = aggregate_capacity_mpps(per_lane_busy_ns, packets_per_lane)
    search = LosslessSearch(
        max_rate_mpps=line_rate_mpps(link_gbps, frame_len),
        resolution_mpps=resolution_mpps,
        loss_tolerance=loss_tolerance,
    )
    return search.run(capacity_loss_model(capacity))
