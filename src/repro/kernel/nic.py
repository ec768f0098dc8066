"""Physical NICs: multi-queue, RSS, ntuple steering, offloads, XDP.

The receive path mirrors real hardware: an arriving frame is steered to a
queue (ntuple rules first, then RSS), DMA'd into that queue's hardware
ring, and later *serviced* by a driver loop (:meth:`PhysicalNic.service_queue`)
running in softirq context — either interrupt-driven NAPI or busy polling.
If an XDP program is attached to the queue it runs before any sk_buff
exists, exactly as in Figure 4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.ebpf.xdp import XdpAction, XdpContext, verdict_drop_reason
from repro.net.addresses import MacAddress
from repro.net.flow import extract_flow, rxhash_of
from repro.net.packet import Packet
from repro import telemetry
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext
from repro.kernel.netdev import NetDevice
from repro.telemetry.drops import DropReason


@dataclass
class NicFeatures:
    """Hardware offload capabilities (ethtool -k)."""

    rx_checksum: bool = True
    tx_checksum: bool = True
    tso: bool = True
    rx_hash: bool = True
    #: Driver supports native zero-copy AF_XDP (XDP_DRV + zerocopy);
    #: without it OVS falls back to copy mode (§3.5 Limitations).
    afxdp_zerocopy: bool = True
    #: Mellanox-style per-queue XDP attach vs Intel-style whole-device
    #: (Figure 6).
    per_queue_xdp: bool = False


@dataclass(frozen=True)
class NtupleRule:
    """An ethtool --config-ntuple hardware steering rule."""

    queue: int
    proto: Optional[int] = None
    dst_ip: Optional[int] = None
    dst_port: Optional[int] = None

    def matches(self, key) -> bool:
        if self.proto is not None and key.nw_proto != self.proto:
            return False
        if self.dst_ip is not None and key.nw_dst != self.dst_ip:
            return False
        if self.dst_port is not None and key.tp_dst != self.dst_port:
            return False
        return True


class PhysicalNic(NetDevice):
    """A multi-queue NIC with XDP support."""

    device_type = "nic"

    def __init__(
        self,
        name: str,
        mac: MacAddress,
        n_queues: int = 1,
        features: Optional[NicFeatures] = None,
        ring_size: int = 4096,
        mtu: int = 1500,
    ) -> None:
        super().__init__(name, mac, mtu=mtu)
        if n_queues < 1:
            raise ValueError("a NIC needs at least one queue")
        self.n_queues = n_queues
        self.features = features or NicFeatures()
        self.ring_size = ring_size
        self.rx_rings: List[Deque[Packet]] = [deque() for _ in range(n_queues)]
        self.rx_missed = 0  # ring-full drops (what TRex loss detection sees)
        # XDP dispatch outcomes, for packet-conservation audits: every
        # frame the driver serviced is forwarded, dropped, or diverted
        # to the kernel stack — never silently lost.
        self.xdp_drops = 0       # XDP_DROP / XDP_ABORTED verdicts
        self.xdp_passes = 0      # XDP_PASS: diverted into the stack
        self.xdp_redirect_failed = 0  # REDIRECT with no viable target
        self.ntuple_rules: List[NtupleRule] = []
        #: XDP program per queue (Figure 6); key None = all queues (Intel).
        self._xdp: Dict[Optional[int], XdpContext] = {}
        #: AF_XDP sockets bound per queue, resolved on XSK redirect.
        self.xsk_sockets: Dict[int, object] = {}
        #: devices reachable by ifindex for XDP_REDIRECT (set by namespace).
        self.redirect_resolver: Optional[Callable[[int], Optional[NetDevice]]] = None
        self.wire_peer: Optional[NetDevice] = None

    # ------------------------------------------------------------------
    # Configuration.
    # ------------------------------------------------------------------
    def add_ntuple_rule(self, rule: NtupleRule) -> None:
        if rule.queue >= self.n_queues:
            raise ValueError(f"queue {rule.queue} out of range")
        self.ntuple_rules.append(rule)

    def attach_xdp(self, program_ctx: XdpContext, queue: Optional[int] = None) -> None:
        """Attach an XDP program to the whole device or to one queue.

        Per-queue attach requires hardware that supports it (Figure 6b).
        """
        if queue is not None:
            if not self.features.per_queue_xdp:
                raise ValueError(
                    f"{self.name}: driver only supports whole-device XDP attach"
                )
            if queue >= self.n_queues:
                raise ValueError(f"queue {queue} out of range")
        self._xdp[queue] = program_ctx

    def detach_xdp(self, queue: Optional[int] = None) -> None:
        self._xdp.pop(queue, None)

    def xdp_program_for(self, queue: int) -> Optional[XdpContext]:
        return self._xdp.get(queue, self._xdp.get(None))

    def bind_xsk(self, queue: int, socket: object) -> None:
        if queue >= self.n_queues:
            raise ValueError(f"queue {queue} out of range")
        self.xsk_sockets[queue] = socket

    def unbind_xsk(self, queue: int) -> None:
        self.xsk_sockets.pop(queue, None)

    # ------------------------------------------------------------------
    # Hardware receive: steer + DMA into the queue ring.
    # ------------------------------------------------------------------
    def select_queue(self, pkt: Packet,
                     rxhash: Optional[int] = None) -> int:
        """The first matching n-tuple rule's queue, else RSS over the
        frame's hash (``rxhash``, when the caller has already read it)."""
        if self.ntuple_rules:
            key = extract_flow(pkt.data)
            for rule in self.ntuple_rules:
                if rule.matches(key):
                    return rule.queue
        if self.n_queues == 1:
            return 0
        if rxhash is None:
            rxhash = rxhash_of(pkt.data)
        return rxhash % self.n_queues

    def host_receive(self, pkt: Packet) -> bool:
        """A frame arrives from the wire; DMA it into a queue ring.

        No CPU cost: this is the NIC hardware working.  Returns False if
        the ring was full (a "missed" drop — the counter a TRex-style
        lossless-rate search keys off on real hardware).
        """
        if not self.up:
            self.stats.rx_dropped += 1
            return False
        features = self.features
        # One hash per frame: RSS steering and the rx-hash offload read
        # the same value.
        rxhash = rxhash_of(pkt.data) if features.rx_hash else None
        queue = self.select_queue(pkt, rxhash)
        ring = self.rx_rings[queue]
        if len(ring) >= self.ring_size:
            self.rx_missed += 1
            telemetry.drop_event(DropReason.NIC_RX_MISSED,
                                 octets=len(pkt.data))
            return False
        pkt = pkt.clone()
        meta = pkt.meta
        meta.in_port = self.ifindex
        if rxhash is not None:
            meta.rxhash = rxhash
        if features.rx_checksum:
            meta.csum_verified = True
        ring.append(pkt)
        return True

    # ------------------------------------------------------------------
    # Driver service loop (softirq context).
    # ------------------------------------------------------------------
    def service_queue(
        self, queue: int, ctx: ExecContext, budget: int = 64
    ) -> int:
        """Process up to ``budget`` frames from a queue ring.

        Runs the XDP program (if attached) and dispatches its verdict;
        PASS continues into whatever consumes this device
        (``rx_handler``).  Returns the number of frames processed.
        """
        ring = self.rx_rings[queue]
        processed = 0
        costs = DEFAULT_COSTS
        tele = telemetry.ACTIVE
        # Resolved once per NAPI poll: nothing a frame's processing
        # reaches attaches or detaches a program.
        xdp = self.xdp_program_for(queue)
        ifindex = self.ifindex
        while ring and processed < budget:
            pkt = ring.popleft()
            processed += 1
            ctx.charge(costs.nic_rx_ns, label="nic_rx")
            if xdp is None:
                # The conventional path: populate an sk_buff before anyone
                # sees the packet ("the expensive step", §2.2.3), touching
                # cold DMA'd data on the way.
                ctx.charge(
                    costs.skb_alloc_ns + costs.dma_first_touch_ns,
                    label="skb_path",
                )
                pkt.meta.llc_warm = True
                self.deliver(pkt, ctx)
                ctx.charge(costs.skb_free_ns, label="skb_path")
                continue
            if tele is not None:
                # The "xdp" observation point: before the program runs,
                # where real sFlow-on-XDP taps would sample.  It cannot
                # live inside XdpContext.run — runs are memoized and
                # replayed with a fixed charge sequence.
                tele.observe("xdp", pkt, ctx)
            # The VM charges the first data touch itself (a program that
            # never reads the packet, like DROP-only, skips it — §5.4 A).
            verdict = xdp.run(
                pkt.data,
                exec_ctx=ctx,
                ingress_ifindex=ifindex,
                rx_queue_index=queue,
            )
            if verdict.touched_data:
                pkt.meta.llc_warm = True
            if verdict.action == XdpAction.REDIRECT:
                self._dispatch_redirect(pkt, verdict, queue, ctx)
            else:
                self._dispatch_xdp(pkt, verdict, queue, ctx)
        return processed

    def sinks(self) -> Dict[DropReason, int]:
        """Frames this NIC took off the forwarding path: ring-full
        misses and the XDP verdicts that dropped or diverted them."""
        return {DropReason.NIC_RX_MISSED: self.rx_missed,
                DropReason.NIC_XDP_DROP: self.xdp_drops,
                DropReason.NIC_XDP_PASS_TO_STACK: self.xdp_passes,
                DropReason.NIC_XDP_REDIRECT_FAILED: self.xdp_redirect_failed}

    def pending(self, queue: Optional[int] = None) -> int:
        if queue is not None:
            return len(self.rx_rings[queue])
        return sum(map(len, self.rx_rings))

    def _dispatch_xdp(self, pkt: Packet, verdict, queue: int, ctx: ExecContext) -> None:
        """Every verdict but REDIRECT, which ``service_queue`` hands to
        :meth:`_dispatch_redirect` itself."""
        costs = DEFAULT_COSTS
        if verdict.action == XdpAction.DROP or verdict.action == XdpAction.ABORTED:
            self.xdp_drops += 1
            telemetry.drop_event(verdict_drop_reason(verdict.action),
                                 octets=len(pkt.data))
            return  # buffer recycled in place
        if verdict.action == XdpAction.PASS:
            self.xdp_passes += 1
            # A conservation sink for the AF_XDP datapath: the frame
            # leaves it for the kernel stack.
            telemetry.drop_event(DropReason.NIC_XDP_PASS_TO_STACK,
                                 octets=len(verdict.data))
            self.deliver(pkt.with_data(verdict.data), ctx)
            return
        if verdict.action == XdpAction.TX:
            # Recycle the rx descriptor straight onto the tx ring.
            ctx.charge(costs.xdp_tx_ns, label="xdp_tx")
            self.transmit(pkt.with_data(verdict.data), ctx)
            return
        raise AssertionError(f"unhandled XDP action {verdict.action}")

    def _dispatch_redirect(self, pkt: Packet, verdict, queue: int, ctx: ExecContext) -> None:
        costs = DEFAULT_COSTS
        ctx.charge(costs.xdp_redirect_ns, label="xdp_redirect")
        target = verdict.redirect
        # ``pkt`` is this NIC's private DMA'd copy: when the program left
        # the bytes alone (the verdict hands back the very bytes object
        # it ran over) it is forwarded as is.
        data = verdict.data
        out = pkt if data is pkt.data else pkt.with_data(data)
        if target is None:
            self._redirect_failed(out)
            return
        if target[0] == "map":
            _, bpf_map, slot = target
            if bpf_map.map_type == "xskmap":
                socket = self.xsk_sockets.get(slot)
                if socket is None:
                    self._redirect_failed(out)
                    return  # no socket bound: drop
                socket.kernel_rx(out, ctx)  # type: ignore[attr-defined]
                return
            ifindex = bpf_map.get_dev(slot)
            self._redirect_to_ifindex(out, ifindex, ctx)
            return
        if target[0] == "ifindex":
            self._redirect_to_ifindex(out, target[1], ctx)
            return
        raise AssertionError(f"unknown redirect target {target}")

    def _redirect_to_ifindex(
        self, pkt: Packet, ifindex: Optional[int], ctx: ExecContext
    ) -> None:
        if ifindex is None or self.redirect_resolver is None:
            self._redirect_failed(pkt)
            return
        device = self.redirect_resolver(ifindex)
        if device is None:
            self._redirect_failed(pkt)
            return
        device.transmit(pkt, ctx)

    def _redirect_failed(self, pkt: Packet) -> None:
        self.xdp_redirect_failed += 1
        telemetry.drop_event(DropReason.NIC_XDP_REDIRECT_FAILED,
                             octets=len(pkt.data))

    # ------------------------------------------------------------------
    # Transmit to the wire.
    # ------------------------------------------------------------------
    def _transmit(self, pkt: Packet, ctx: ExecContext) -> bool:
        costs = DEFAULT_COSTS
        meta = pkt.meta
        if (meta.gso_size and len(pkt.data) > self.mtu + 14
                and not self.features.tso):
            # Software GSO: segment on the CPU before hitting the wire
            # (which sees MTU-sized segments; the super-frame stays one
            # object).  Hardware TSO: the NIC segments; CPU cost is one
            # descriptor.
            self._software_gso(pkt, ctx)
        else:
            if meta.csum_partial and not self.features.tx_checksum:
                ctx.charge(costs.checksum_cost(len(pkt.data)),
                           label="sw_csum")
                meta.csum_partial = False
            ctx.charge(costs.nic_tx_ns, label="nic_tx")
        peer = self.wire_peer
        if peer is None:
            return True
        receive = getattr(peer, "host_receive", None)
        if receive is not None:
            return receive(pkt)
        # Peer without rings (e.g. a plain device in tests).
        peer.deliver(pkt, _NO_CPU_CTX)
        return True

    def _software_gso(self, pkt: Packet, ctx: ExecContext) -> None:
        costs = DEFAULT_COSTS
        payload = len(pkt) - 54  # eth + ip + tcp headers
        n_segments = max(1, -(-payload // pkt.meta.gso_size))
        ctx.charge(
            n_segments * costs.software_gso_per_segment_ns
            + costs.copy_cost(len(pkt)),
            label="sw_gso",
        )
        if pkt.meta.csum_partial and not self.features.tx_checksum:
            ctx.charge(costs.checksum_cost(len(pkt)), label="sw_csum")
        ctx.charge(n_segments * costs.nic_tx_ns, label="nic_tx")


class _NullCtx:
    """Context used when hardware delivers without CPU involvement."""

    def charge(self, ns: float, label: str = "", category=None) -> None:
        pass

    def wait(self, ns: float, label: str = "") -> None:
        pass


_NO_CPU_CTX = _NullCtx()
