"""XSK: the AF_XDP socket.

One socket binds to one (device, queue) pair.  The kernel side
(:meth:`XskSocket.kernel_rx`, called by the driver's XDP redirect path in
softirq context) moves packets into umem frames posted on the fill ring
and publishes descriptors on the rx ring; the userspace side
(:meth:`XskSocket.user_rx_batch` / :meth:`XskSocket.user_tx_batch`) is
what OVS PMD threads call.

``BindMode.ZEROCOPY`` is XDP_DRV with zero-copy (supported drivers only);
``BindMode.COPY`` is the universal fallback, "at the cost of an extra
packet copy" (§3.5 Limitations).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.afxdp.rings import DescRing
from repro.afxdp.umem import Umem
from repro.afxdp.umempool import UmemPool
from repro.net.packet import Packet
from repro import telemetry
from repro.sim import faults, trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, ExecContext
from repro.telemetry.drops import DropReason

#: Bounded retry budget after tx-kick EAGAIN, as netdev-afxdp retries
#: ``sendto`` a fixed number of times before giving up on the batch.
TX_KICK_MAX_RETRIES = 4


class BindMode(enum.Enum):
    ZEROCOPY = "zerocopy"  # XDP_DRV + XDP_ZEROCOPY
    COPY = "copy"          # XDP_SKB / XDP_COPY fallback


class XskSocket:
    def __init__(
        self,
        umem: Umem,
        pool: UmemPool,
        bind_mode: BindMode = BindMode.ZEROCOPY,
        ring_size: int = 2048,
    ) -> None:
        self.umem = umem
        self.pool = pool
        self.bind_mode = bind_mode
        self.rx_ring = DescRing(ring_size)
        self.tx_ring = DescRing(ring_size)
        self.bound_device = None  # set by AfxdpDriver
        self.bound_queue: Optional[int] = None
        self.rx_delivered = 0
        self.rx_dropped_no_fill = 0
        self.tx_sent = 0
        # Fault/overload accounting: every non-delivery is counted
        # somewhere (the packet-conservation property audits these).
        self.rx_dropped_overrun = 0
        self.tx_dropped_no_umem = 0
        self.tx_dropped_ring_full = 0
        self.tx_dropped_kick = 0
        self.frames_leaked = 0
        self.zc_fallbacks = 0

    # ------------------------------------------------------------------
    # Kernel side (softirq context).
    # ------------------------------------------------------------------
    def kernel_rx(self, pkt: Packet, ctx: ExecContext) -> bool:
        """The XDP program redirected this frame to us (paths 2-4 of
        Figure 4): take a fill-ring frame, place the packet, publish on
        the rx ring."""
        costs = DEFAULT_COSTS
        rec = trace.ACTIVE
        plan = faults.ACTIVE
        nbytes = len(pkt.data)
        if plan is not None:
            if plan.should_fire("afxdp.fill_ring_overrun"):
                # The producer raced the consumer under overload: the
                # descriptor is torn, the frame dropped with a counter
                # (the silent-success alternative is exactly the bug
                # class this layer exists to expose).
                self.rx_dropped_overrun += 1
                if rec is not None:
                    rec.count("afxdp.rx_dropped_overrun")
                telemetry.drop_event(DropReason.XSK_RX_OVERRUN,
                                     octets=nbytes)
                return False
            if (self.bind_mode is BindMode.ZEROCOPY
                    and plan.should_fire("afxdp.zc_fallback")):
                # The driver lost zero-copy (paper's support matrix):
                # rebind in copy mode; every packet from here on pays
                # the skb bounce + copy the cost model prices below.
                self.bind_mode = BindMode.COPY
                self.zc_fallbacks += 1
                if rec is not None:
                    rec.count("afxdp.zc_fallbacks")
        desc = self.umem.fill_ring.consume()
        ctx.charge(costs.ring_op_ns, label="fill_pop")
        if desc is None:
            self.rx_dropped_no_fill += 1
            if rec is not None:
                rec.count("afxdp.rx_dropped_no_fill")
            telemetry.drop_event(DropReason.XSK_RX_NO_FILL,
                                 octets=nbytes)
            return False
        addr = desc[0]
        if self.bind_mode is BindMode.COPY:
            # Generic/copy mode bounces through an skb and copies.
            ctx.charge(
                costs.afxdp_copy_mode_ns + costs.copy_cost(nbytes),
                label="afxdp_copy",
            )
            if rec is not None:
                rec.count("afxdp.copies")
                rec.count("afxdp.copy_bytes", nbytes)
        self.umem.write_frame(addr, pkt)
        self.rx_ring.produce((addr, nbytes))
        ctx.charge(costs.ring_op_ns, label="rx_push")
        self.rx_delivered += 1
        return True

    # ------------------------------------------------------------------
    # Userspace side (PMD thread context).
    # ------------------------------------------------------------------
    def user_rx_batch(self, ctx: ExecContext, batch: int = 32) -> List[Packet]:
        """Fetch up to ``batch`` received packets (paths 5-6), then refill
        the fill ring from the pool so the kernel can keep receiving."""
        costs = DEFAULT_COSTS
        ctx.charge(costs.ring_batch_ns, label="rx_batch")
        descs = self.rx_ring.consume_batch(batch)
        if not descs:
            rec = trace.ACTIVE
            if rec is not None:
                rec.count("afxdp.rx_ring_empty")
            return []
        n = len(descs)
        ctx.charge(n * costs.ring_op_ns, label="rx_pop")
        addrs = [addr for addr, _length in descs]
        pkts = self.umem.read_frames(addrs)
        # Frames are recycled through the pool, then re-posted to fill.
        self.pool.free(addrs, ctx)
        self.refill_fill_ring(ctx, n)
        return pkts

    def refill_fill_ring(self, ctx: ExecContext, n: int) -> int:
        costs = DEFAULT_COSTS
        addrs = self.pool.alloc(n, ctx)
        if not addrs:
            return 0
        produced = self.umem.fill_ring.produce_batch([(a, 0) for a in addrs])
        ctx.charge(costs.ring_batch_ns + produced * costs.ring_op_ns,
                   label="fill_push")
        if produced < len(addrs):
            trace.count("afxdp.fill_ring_full")
            self.pool.free(addrs[produced:], ctx)
        return produced

    def user_tx_batch(self, pkts: List[Packet], ctx: ExecContext) -> int:
        """Queue packets on the tx ring and kick the kernel.

        The kick is the syscall §5.5 names as a major AF_XDP overhead:
        the kernel then drives the frames out of the bound device in the
        caller's (system) context.
        """
        if not pkts:
            return 0
        costs = DEFAULT_COSTS
        rec = trace.ACTIVE
        plan = faults.ACTIVE
        if plan is not None and plan.should_fire("afxdp.umem_exhausted"):
            # The pool ran dry (frames in flight, completions pending):
            # the whole burst is dropped, counted per ring.
            self.tx_dropped_no_umem += len(pkts)
            if rec is not None:
                rec.count("afxdp.tx_dropped_no_umem", len(pkts))
            telemetry.drop_event(DropReason.XSK_TX_NO_UMEM, n=len(pkts),
                                 octets=sum(len(p) for p in pkts))
            return 0
        addrs = self.pool.alloc(len(pkts), ctx, batched=True)
        n = len(addrs)
        if n < len(pkts):
            # A genuine shortfall (e.g. frames leaked by completion-ring
            # overruns): the excess packets are dropped, not silently
            # forgotten.
            self.tx_dropped_no_umem += len(pkts) - n
            if rec is not None:
                rec.count("afxdp.tx_dropped_no_umem", len(pkts) - n)
            telemetry.drop_event(DropReason.XSK_TX_NO_UMEM,
                                 n=len(pkts) - n,
                                 octets=sum(len(p) for p in pkts[n:]))
        copy_mode = self.bind_mode is BindMode.COPY
        write_frame = self.umem.write_frame
        descs = []
        for addr, pkt in zip(addrs, pkts):  # the first n packets
            nbytes = len(pkt.data)
            if copy_mode:
                ctx.charge(costs.copy_cost(nbytes), label="tx_copy")
                if rec is not None:
                    rec.count("afxdp.copies")
                    rec.count("afxdp.copy_bytes", nbytes)
            write_frame(addr, pkt)
            descs.append((addr, nbytes))
        produced = self.tx_ring.produce_batch(descs)
        if produced < n:
            # Ring full: drop the overflow *and* return its frames to
            # the pool (they used to leak here).
            self.tx_dropped_ring_full += n - produced
            if rec is not None:
                rec.count("afxdp.tx_ring_full")
                rec.count("afxdp.tx_dropped_ring_full", n - produced)
            telemetry.drop_event(
                DropReason.XSK_TX_RING_FULL, n=n - produced,
                octets=sum(len(p) for p in pkts[produced:n]))
            self.pool.free(addrs[produced:], ctx, batched=True)
        ctx.charge(costs.ring_batch_ns + produced * costs.ring_op_ns,
                   label="tx_push")
        self._kick_tx(ctx)
        return produced

    def _kick_tx(self, ctx: ExecContext) -> None:
        """sendto(MSG_DONTWAIT): the kernel transmits queued descriptors
        and reports them on the completion ring."""
        costs = DEFAULT_COSTS
        device = self.bound_device
        plan = faults.ACTIVE
        rec = trace.ACTIVE
        if rec is not None:
            rec.count("afxdp.tx_kick_syscalls")
        with ctx.as_category(CpuCategory.SYSTEM):
            if plan is not None:
                attempt = 0
                while plan.should_fire("afxdp.tx_kick_eagain"):
                    # EAGAIN: the syscall entry/exit was still paid.
                    # Retry with bounded exponential backoff, charged
                    # in virtual time (waited, not burned — netdev-afxdp
                    # services other queues meanwhile).
                    ctx.charge(costs.syscall_base_ns, label="tx_kick")
                    trace.count("afxdp.tx_kick_eagain")
                    if attempt >= TX_KICK_MAX_RETRIES:
                        # Retry budget exhausted: drop the queued
                        # descriptors and recycle their frames through
                        # the completion ring so the pool stays whole.
                        descs = self.tx_ring.consume_batch(
                            self.tx_ring.size)
                        if descs:
                            self.tx_dropped_kick += len(descs)
                            trace.count("afxdp.tx_dropped_kick",
                                        len(descs))
                            telemetry.drop_event(
                                DropReason.XSK_TX_KICK, n=len(descs),
                                octets=sum(ln for _, ln in descs))
                            self._complete([addr for addr, _ in descs])
                        ctx.charge(
                            costs.ring_batch_ns
                            + len(descs) * costs.ring_op_ns,
                            label="comp_push",
                        )
                        return
                    ctx.wait(costs.tx_kick_backoff_ns * (1 << attempt),
                             label="tx_kick_backoff")
                    attempt += 1
            ctx.charge(costs.syscall_base_ns, label="tx_kick")
            descs = self.tx_ring.consume_batch(self.tx_ring.size)
            addrs = [addr for addr, _length in descs]
            pkts = self.umem.read_frames(addrs)
            if device is not None:
                for pkt in pkts:
                    device.transmit(pkt, ctx)
            self.tx_sent += len(pkts)
            if (plan is not None and addrs
                    and plan.should_fire("afxdp.comp_ring_overrun")):
                # The completion ring had no room: the kernel cannot
                # report these frames back, so they stay "in flight"
                # forever — the pool shrinks, and umem exhaustion
                # emerges downstream (with its own counters).
                self.frames_leaked += len(addrs)
                trace.count("afxdp.comp_ring_overrun")
                trace.count("afxdp.frames_leaked", len(addrs))
                return
            self._complete(addrs)
            ctx.charge(
                costs.ring_batch_ns + len(addrs) * costs.ring_op_ns,
                label="comp_push",
            )

    def _complete(self, addrs: List[int]) -> None:
        """Report transmitted frames on the completion ring.  A frame
        that does not fit is leaked like an overrun's, and counted."""
        produced = self.umem.completion_ring.produce_batch(
            [(addr, 0) for addr in addrs])
        lost = len(addrs) - produced
        if lost:
            self.frames_leaked += lost
            trace.count("afxdp.comp_ring_full")
            trace.count("afxdp.frames_leaked", lost)

    def reap_completions(self, ctx: ExecContext) -> int:
        """Collect transmitted frames back into the pool."""
        costs = DEFAULT_COSTS
        ring = self.umem.completion_ring
        descs = ring.consume_batch(ring.size)
        if not descs:
            return 0
        ctx.charge(costs.ring_batch_ns + len(descs) * costs.ring_op_ns,
                   label="comp_pop")
        self.pool.free([addr for addr, _ in descs], ctx, batched=True)
        return len(descs)
