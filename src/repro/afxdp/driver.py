"""netdev-afxdp: the OVS AF_XDP driver (§3).

One :class:`AfxdpDriver` manages a NIC: per-queue umem + umempool + XSK,
the XDP redirect program, and the receive/transmit bursts the PMD threads
call.  Its options are the paper's optimization knobs:

* O2 ``lock_strategy`` and O3 ``batched_locking`` — forwarded to the pool;
* O4 ``preallocated_metadata`` — dp_packet structures in one contiguous
  array vs mmap-backed allocation;
* O5 ``sw_checksum_on_tx`` — AF_XDP has no checksum offload, so by
  default OVS computes L4 checksums in software on transmit; switching it
  off reproduces the paper's offload *estimate*;
* ``interrupt_mode`` — poll()-driven service instead of busy polling
  (the O1-less configuration of Figure 8a's second bar).

O1 itself (dedicated PMD threads) is a dpif-netdev scheduling decision;
see :mod:`repro.ovs.pmd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.afxdp.socket import BindMode, XskSocket
from repro.afxdp.umem import Umem
from repro.afxdp.umempool import LockStrategy, UmemPool
from repro.ebpf.programs import steering_program, xsk_redirect_program
from repro.ebpf.xdp import XdpContext
from repro.kernel.nic import PhysicalNic
from repro.net.flow import rxhash_of
from repro.net.packet import Packet
from repro import telemetry
from repro.sim import faults, trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, ExecContext
from repro.telemetry.drops import (
    DropReason,
    XSK_RX_REASONS,
    XSK_TX_REASONS,
)

#: How many dp_packet allocations one mmap covers in the pre-O4 scheme.
MMAP_ALLOC_PERIOD = 512


@dataclass
class AfxdpOptions:
    lock_strategy: LockStrategy = LockStrategy.SPINLOCK
    batched_locking: bool = True
    preallocated_metadata: bool = True
    sw_checksum_on_tx: bool = True
    interrupt_mode: bool = False
    batch_size: int = 32
    ring_size: int = 2048
    n_frames: int = 4096
    #: Force copy mode even on capable hardware (None = auto-detect).
    force_copy_mode: Optional[bool] = None
    #: Steer management TCP (ssh/OpenFlow/OVSDB) to the kernel stack
    #: instead of the XSK (§4's control-plane steering idea).  Empty =
    #: the plain redirect-everything helper.
    mgmt_steering_ports: "tuple[int, ...]" = ()


class AfxdpDriver:
    def __init__(
        self,
        nic: PhysicalNic,
        options: Optional[AfxdpOptions] = None,
    ) -> None:
        self.nic = nic
        self.options = options or AfxdpOptions()
        self.sockets: Dict[int, XskSocket] = {}
        self.program = None
        self._xsk_map = None
        self._alloc_counter = 0
        self.rx_packets = 0
        self.tx_packets = 0
        #: Set when the (injected) verifier rejected the native program
        #: and the port degraded to generic copy mode instead of failing.
        self.verifier_rejected = False
        #: Counters folded in from sockets of previous daemon
        #: generations (teardown or crash), so the conservation ledger
        #: still balances after a restart replaced the live sockets.
        self.retired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def setup_cost_ns(self, copy_mode: Optional[bool] = None) -> float:
        """Virtual cost of :meth:`setup`: per-queue umem registration +
        page pinning + socket bind (zero-copy restarts the hw queue
        pair), plus one XDP program load/attach.  Used both to charge a
        real ``ctx`` and by the supervisor to schedule the port-rebind
        recovery phase."""
        costs = DEFAULT_COSTS
        opts = self.options
        if copy_mode is None:
            if opts.force_copy_mode is None:
                copy_mode = not self.nic.features.afxdp_zerocopy
            else:
                copy_mode = opts.force_copy_mode
        per_queue = (costs.afxdp_umem_create_ns
                     + opts.n_frames * costs.afxdp_frame_pin_ns
                     + costs.afxdp_socket_bind_ns)
        if not copy_mode:
            per_queue += costs.afxdp_zc_queue_restart_ns
        return self.nic.n_queues * per_queue + costs.xdp_attach_ns

    def teardown_cost_ns(self) -> float:
        """Virtual cost of a *graceful* :meth:`teardown` (a crash pays
        nothing: the kernel reaps the fds for free as the process
        exits)."""
        return len(self.sockets) * DEFAULT_COSTS.afxdp_socket_unbind_ns

    def setup(self, ctx: Optional[ExecContext] = None) -> None:
        """Create per-queue XSKs, load and attach the XDP program.

        With ``ctx`` (the supervisor's control context during recovery)
        the rebind is charged through the cost model; without it the
        work is free setup-time plumbing, exactly as before.
        """
        opts = self.options
        if opts.force_copy_mode is None:
            copy_mode = not self.nic.features.afxdp_zerocopy
        else:
            copy_mode = opts.force_copy_mode
        plan = faults.ACTIVE
        if plan is not None and plan.should_fire("ebpf.verifier_reject"):
            # The verifier rejected the native-mode program at load time
            # (a kernel-version skew OVS really hits): degrade to the
            # generic copy-mode attach instead of failing the port.
            self.verifier_rejected = True
            copy_mode = True
            trace.count("ebpf.verifier_rejected")
        if ctx is not None:
            ctx.charge(self.setup_cost_ns(copy_mode),
                       label="afxdp_rebind")
        bind_mode = BindMode.COPY if copy_mode else BindMode.ZEROCOPY
        if opts.mgmt_steering_ports:
            program, xsk_map = steering_program(
                n_queues=self.nic.n_queues,
                mgmt_ports=opts.mgmt_steering_ports,
            )
        else:
            program, xsk_map = xsk_redirect_program(
                n_queues=self.nic.n_queues)
        self.program = program
        self._xsk_map = xsk_map
        for queue in range(self.nic.n_queues):
            umem = Umem(n_frames=opts.n_frames, ring_size=opts.ring_size)
            pool = UmemPool(
                umem,
                lock_strategy=opts.lock_strategy,
                batched=opts.batched_locking,
            )
            sock = XskSocket(umem, pool, bind_mode=bind_mode,
                             ring_size=opts.ring_size)
            sock.bound_device = self.nic
            sock.bound_queue = queue
            # Prime the fill ring so the kernel can receive immediately.
            addrs = pool.alloc(opts.ring_size // 2, _SETUP_CTX)
            umem.fill_ring.produce_batch([(a, 0) for a in addrs])
            self.sockets[queue] = sock
            self.nic.bind_xsk(queue, sock)
            xsk_map.set_dev(queue, queue + 1)  # non-zero marker
        self.nic.attach_xdp(XdpContext(program))

    def teardown(self, ctx: Optional[ExecContext] = None) -> None:
        """Detach the program and unbind (an OVS restart needs only this —
        no kernel module unload, no reboot).  With ``ctx`` the graceful
        unbind is charged; a crash calls this without one (the kernel
        closes the fds as the process exits, costing the dead process
        nothing)."""
        if ctx is not None:
            ctx.charge(self.teardown_cost_ns(), label="afxdp_unbind")
        self.nic.detach_xdp()
        for queue in list(self.sockets):
            self.nic.unbind_xsk(queue)
        self._retire_socket_counters()
        self.sockets.clear()

    #: Socket counters preserved across restarts, derived from the drop
    #: taxonomy so the ledger and the enum can never drift apart.
    _RETIRED_COUNTERS = ("tx_sent",) + tuple(
        r.counter for r in XSK_RX_REASONS + XSK_TX_REASONS)

    def _retire_socket_counters(self) -> None:
        for name in self._RETIRED_COUNTERS:
            self.retired[name] = self._count(name)

    def _count(self, counter: str) -> int:
        """Socket counter ``counter`` over the live and retired sockets."""
        return self.retired.get(counter, 0) + sum(
            getattr(sock, counter) for sock in self.sockets.values())

    @property
    def tx_sent(self) -> int:
        """Frames this driver's XSKs put on the wire, across restarts."""
        return self._count("tx_sent")

    def sinks(self) -> Dict[DropReason, int]:
        """The XSK rx and tx drops of every socket, live or retired."""
        return {reason: self._count(reason.counter)
                for reason in XSK_RX_REASONS + XSK_TX_REASONS}

    def drop_sockets_on_crash(self) -> "Dict[str, int]":
        """The process died: the kernel closes every XSK fd, which
        unbinds the sockets — but the XDP program stays attached to the
        netdev (its attachment holds a reference), so subsequent
        redirects fail at dispatch and count in
        ``nic.xdp_redirect_failed``.  Frames already delivered into the
        dead process's rx rings (and any produced-but-unkicked tx
        descriptors) are gone with the umem; they are returned as named
        sinks so the packet-conservation ledger balances through the
        crash."""
        rx_sink = DropReason.CRASH_XSK_RX_INFLIGHT
        tx_sink = DropReason.CRASH_XSK_TX_INFLIGHT
        sinks = {rx_sink.value: 0, tx_sink.value: 0}
        for sock in self.sockets.values():
            sinks[rx_sink.value] += len(sock.rx_ring)
            sinks[tx_sink.value] += len(sock.tx_ring)
        for queue in list(self.sockets):
            self.nic.unbind_xsk(queue)
        self._retire_socket_counters()
        self.sockets.clear()
        for reason in (rx_sink, tx_sink):
            telemetry.drop_event(reason, n=sinks[reason.value])
        return {k: v for k, v in sinks.items() if v}

    # ------------------------------------------------------------------
    def rx_burst(self, queue: int, ctx: ExecContext) -> List[Packet]:
        """Receive a burst on a queue (PMD thread context)."""
        rec = trace.ACTIVE
        prof = rec.profiler if rec is not None else None
        if prof is not None:
            prof.enter("afxdp.rx")
        try:
            opts = self.options
            costs = DEFAULT_COSTS
            sock = self.sockets[queue]
            if opts.interrupt_mode:
                # Blocking service: poll() syscall, then a wakeup when the
                # interrupt fires.  This is what "interrupt" in Figure 8a
                # means.  The sleep/wake cycle costs real CPU (scheduler
                # out and in) as well as latency.
                with ctx.as_category(CpuCategory.SYSTEM):
                    ctx.charge(costs.poll_ns, label="poll")
                if len(sock.rx_ring):
                    ctx.charge(costs.context_switch_ns, label="irq_resched")
                    trace.count("kernel.ctx_switches")
                    ctx.wait(costs.irq_entry_ns + costs.thread_wakeup_ns,
                             label="irq_wakeup")
            pkts = sock.user_rx_batch(ctx, batch=opts.batch_size)
            if not pkts:
                return pkts
            # dp_packet initialisation, per packet.
            charge = ctx.charge
            prealloc = opts.preallocated_metadata
            # The O5 estimate: receive "assumes the checksum is correct"
            # (§3.2); otherwise the hardware verdict is lost.
            csum_verified = not opts.sw_checksum_on_tx
            for pkt in pkts:
                meta = pkt.meta
                charge(costs.dp_packet_init_ns, label="dp_packet")
                if not meta.llc_warm:
                    # Zero-copy AF_XDP: userspace is the first to read the
                    # DMA'd frame (the XSK-redirect program never touched
                    # it).
                    charge(costs.dma_first_touch_ns, label="dma_first_touch")
                    meta.llc_warm = True
                if not prealloc:
                    charge(costs.dp_packet_malloc_extra_ns, label="dp_malloc")
                    self._alloc_counter += 1
                    if self._alloc_counter % MMAP_ALLOC_PERIOD == 0:
                        with ctx.as_category(CpuCategory.SYSTEM):
                            charge(costs.mmap_ns, label="mmap")
                # No API exposes the NIC's RSS hash through AF_XDP (§5.5):
                # it is recomputed in software.
                charge(costs.software_rxhash_ns, label="sw_rxhash")
                meta.rxhash = rxhash_of(pkt.data)
                meta.csum_verified = csum_verified
            self.rx_packets += len(pkts)
            return pkts
        finally:
            if prof is not None:
                prof.exit_()

    def tx_burst(self, queue: int, pkts: List[Packet], ctx: ExecContext) -> int:
        rec = trace.ACTIVE
        prof = rec.profiler if rec is not None else None
        if prof is not None:
            prof.enter("afxdp.tx")
        try:
            sock = self.sockets[queue]
            if self.options.sw_checksum_on_tx:
                # AF_XDP exposes no checksum offload (§3.2 O5): the driver
                # checksums every outgoing packet in software.
                # ``CostModel.checksum_cost``, inline: the same float.
                costs = DEFAULT_COSTS
                fixed = costs.checksum_fixed_ns
                per_byte = costs.checksum_per_byte_ns
                for pkt in pkts:
                    ctx.charge(fixed + per_byte * len(pkt.data),
                               label="sw_csum")
                    pkt.meta.csum_partial = False
            else:
                # The O5 estimate: stamp a fixed value, assume correctness.
                for pkt in pkts:
                    pkt.meta.csum_partial = False
            sent = sock.user_tx_batch(pkts, ctx)
            sock.reap_completions(ctx)
            self.tx_packets += sent
            return sent
        finally:
            if prof is not None:
                prof.exit_()


class _SetupCtx:
    """Setup-time work is control plane; don't bill it to a datapath CPU."""

    def charge(self, ns: float, label: str = "", category=None) -> None:
        pass

    def wait(self, ns: float, label: str = "") -> None:
        pass

    def as_category(self, category):
        from contextlib import nullcontext

        return nullcontext()


_SETUP_CTX = _SetupCtx()
