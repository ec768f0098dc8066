"""The calibrated cost model.

Every performance-relevant primitive in the simulated stack (a syscall, a
lock acquisition, a byte copied, an eBPF instruction interpreted, a cache
line missed) has a cost constant here, expressed in virtual nanoseconds.
Substrate code charges these constants to the executing
:class:`~repro.sim.cpu.ExecContext` as it performs the corresponding real
work, and all reported throughput/CPU/latency numbers emerge from the sum.

Calibration
===========

Constants are calibrated against numbers the paper itself reports, plus
well-known micro-architectural figures for the papers' Xeon E5 v2/v3 testbeds:

* ``sendto`` is 2 µs — measured directly in the paper (§3.3).
* a mutex lock/unlock shows up as ~5 % CPU for a single uncontended thread
  (§3.2 O2); a spinlock is "less than 1 % overhead".
* the checksum cost is proportional to payload size (§3.2 O5) and the
  measured O5 delta for 64-byte packets is ~10 ns/packet (6.6→7.1 Mpps).
* eBPF interpretation is 10–20 % slower than equivalent native kernel code
  (§2.2.2, Figure 2).
* interrupt-driven AF_XDP loses ~35 % versus polling for bulk TCP
  (Figure 8a: 1.9 vs ~3 Gbps).

The emergent per-packet totals are validated against the paper's tables and
figures in ``tests/integration`` and reported in EXPERIMENTS.md.  Users can
construct a modified model (``dataclasses.replace``) to explore sensitivity.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Per-operation virtual-time costs, in nanoseconds unless noted."""

    # ------------------------------------------------------------------
    # Syscalls and kernel entry/exit.
    # ------------------------------------------------------------------
    #: Generic syscall entry+exit (mode switch, no real work).
    syscall_base_ns: float = 500.0
    #: ``sendto`` on a tap/AF_XDP fd — measured at ~2 us in the paper (§3.3).
    sendto_ns: float = 2_000.0
    #: ``recvfrom``/``read`` on a packet fd.
    recvfrom_ns: float = 1_800.0
    #: ``poll``/``epoll_wait`` returning ready (no sleep).
    poll_ns: float = 1_200.0
    #: ``mmap`` for buffer allocation (§3.2 O4 observed this as significant).
    mmap_ns: float = 4_000.0
    #: ``ioctl``/``setsockopt`` style control-path call.
    ioctl_ns: float = 1_500.0

    # ------------------------------------------------------------------
    # Scheduling, interrupts, context switches.
    # ------------------------------------------------------------------
    #: Full involuntary context switch (futex sleep, tap read wakeup...).
    context_switch_ns: float = 3_500.0
    #: Hardware interrupt entry + NAPI schedule.
    irq_entry_ns: float = 1_500.0
    #: Waking a sleeping thread (schedule latency until it runs again).
    thread_wakeup_ns: float = 2_500.0
    #: One NAPI poll-loop iteration's fixed overhead (driver housekeeping).
    napi_poll_ns: float = 150.0
    #: VM exit / guest notification (virtio kick through KVM).
    vmexit_ns: float = 2_800.0

    # ------------------------------------------------------------------
    # Locking (§3.2 O2/O3).
    # ------------------------------------------------------------------
    #: Uncontended pthread mutex lock+unlock (includes atomic + fence +
    #: occasional amortised futex fast path).  Chosen so a mutex per
    #: packet costs ~5 % of CPU at ~1.6 Mpkt/core/s, as the paper observed.
    mutex_ns: float = 18.0
    #: Uncontended spinlock lock+unlock ("less than 1% overhead").
    spinlock_ns: float = 6.0

    # ------------------------------------------------------------------
    # Memory.
    # ------------------------------------------------------------------
    #: Copy cost per byte (~14 GB/s effective single-core memcpy with
    #: cache interference).
    copy_per_byte_ns: float = 0.07
    #: Software checksum: fixed setup plus a per-byte load+add chain
    #: (§3.2 O5: "the checksum's cost is proportional to the packet's
    #: payload size").
    checksum_fixed_ns: float = 10.0
    checksum_per_byte_ns: float = 0.35
    #: One LLC miss (DRAM access).
    cache_miss_ns: float = 42.0
    #: First CPU touch of freshly DMA'd packet data.  With DDIO the DMA
    #: lands in the LLC, so this is an L3 hit, not a DRAM miss — the
    #: cache-miss cost §5.4's task B observes.
    dma_first_touch_ns: float = 28.0
    #: Allocate + initialise an sk_buff (slab fast path + memset of cb).
    skb_alloc_ns: float = 120.0
    skb_free_ns: float = 60.0
    #: dp_packet metadata init when preallocated in a contiguous array (O4).
    dp_packet_init_ns: float = 6.0
    #: Extra cost per packet of the pre-O4 scheme (mmap-backed allocation
    #: amortised over a batch, poorer locality).
    dp_packet_malloc_extra_ns: float = 2.0
    #: DPDK mbuf alloc/free from a per-core mempool cache.
    mbuf_alloc_ns: float = 12.0
    mbuf_free_ns: float = 8.0

    # ------------------------------------------------------------------
    # eBPF / XDP (§2.2.2, §5.4).
    # ------------------------------------------------------------------
    #: Interpreting one eBPF instruction in the in-kernel sandbox.
    ebpf_insn_ns: float = 2.1
    #: Native-code equivalent of the same logical operation, for comparing
    #: eBPF datapath vs the C kernel module (Figure 2's 10-20 % gap).
    native_op_ns: float = 0.85
    #: Fixed per-packet XDP context setup (metadata, invariants).
    xdp_ctx_setup_ns: float = 15.0
    #: eBPF hash-map lookup helper (hash + bucket walk).
    ebpf_map_lookup_ns: float = 12.0
    ebpf_map_update_ns: float = 30.0
    #: Other helper call overhead (crossing into the kernel helper).
    ebpf_helper_ns: float = 4.0
    #: XDP_REDIRECT to another device (map lookup + enqueue to its ring).
    xdp_redirect_ns: float = 26.0
    #: XDP_TX: recycle the rx descriptor onto the tx ring + doorbell.
    xdp_tx_ns: float = 55.0

    # ------------------------------------------------------------------
    # Flow lookup machinery (OVS caches, §5.2's 1 vs 1000 flows).
    # ------------------------------------------------------------------
    #: Exact-match cache hit (one hash, one compare).
    emc_hit_ns: float = 12.0
    emc_insert_ns: float = 55.0
    #: Megaflow (wildcarded) lookup cost per subtable probed.
    megaflow_subtable_ns: float = 55.0
    megaflow_insert_ns: float = 300.0
    #: OpenFlow classifier full lookup, per table traversed per subtable.
    classifier_subtable_ns: float = 70.0
    #: Kernel->userspace upcall round trip (miss in kernel datapath).
    upcall_ns: float = 25_000.0
    #: Userspace datapath miss path (classifier consult, no kernel crossing).
    userspace_slowpath_ns: float = 1_200.0
    #: Connection tracking lookup / commit.
    conntrack_lookup_ns: float = 90.0
    conntrack_commit_ns: float = 260.0

    # ------------------------------------------------------------------
    # Rings & drivers (AF_XDP §3.1-3.2, DPDK).
    # ------------------------------------------------------------------
    #: Push/pop one descriptor on an SPSC ring.
    ring_op_ns: float = 5.0
    #: Fixed cost of a batched ring operation (doorbell, barriers).
    ring_batch_ns: float = 20.0
    #: NIC driver per-packet rx descriptor handling (DMA completion).
    nic_rx_ns: float = 18.0
    nic_tx_ns: float = 18.0
    #: AF_XDP copy-mode extra (skb bounce; "fallback mode ... extra copy").
    #: charged per byte via copy_per_byte_ns plus this fixed part.
    afxdp_copy_mode_ns: float = 120.0
    #: Base wait after a tx-kick sendto returns EAGAIN; each retry doubles
    #: it (bounded exponential backoff, see netdev-afxdp's retry loop).
    #: Waited, not burned: the thread could poll other queues meanwhile.
    tx_kick_backoff_ns: float = 1_000.0
    #: Kernel rxhash computation when hardware hash is unavailable (§5.5).
    software_rxhash_ns: float = 14.0
    #: veth crossing (namespace switch, no copy).
    veth_xmit_ns: float = 160.0
    #: tap device kernel-side processing excluding the syscall itself.
    tap_xmit_ns: float = 350.0
    #: vhost-user/virtio: per-descriptor virtqueue handling.
    virtqueue_op_ns: float = 45.0
    #: eventfd kick for a virtqueue batch when the peer is sleeping.
    virtqueue_kick_ns: float = 900.0
    #: The PVP guest's testpmd-style rx -> tx loop, per packet.
    #: Source: assumed (a tight userspace loop; no paper number pins it).
    guest_fwd_ns: float = 60.0
    #: The PCP container's PACKET_MMAP ring forwarder, per packet.
    #: Source: assumed, like ``guest_fwd_ns``.
    container_fwd_ns: float = 120.0

    # ------------------------------------------------------------------
    # Protocol stacks.
    # ------------------------------------------------------------------
    #: Kernel TCP/IP per-segment processing (in or out, excluding copies):
    #: the general path (connection setup, out-of-order, control flags).
    tcp_segment_ns: float = 1_350.0
    #: Header-prediction receive fast path: in-order data on an
    #: established connection (the common bulk-transfer case).
    tcp_rx_fastpath_ns: float = 350.0
    #: Transmit-side per-segment cost (no demux or state lookup: cheaper
    #: than the general receive path).
    tcp_tx_segment_ns: float = 450.0
    #: Emitting a pure ACK (no payload, no state transition).
    tcp_ack_tx_ns: float = 400.0
    #: IP input processing before the L4 demux.
    ip_rcv_ns: float = 150.0
    udp_datagram_ns: float = 450.0
    ip_forward_ns: float = 220.0
    #: Socket read/write per-byte copy user<->kernel.
    socket_copy_per_byte_ns: float = 0.07
    #: GSO/TSO segmentation per produced segment when done in software.
    software_gso_per_segment_ns: float = 250.0

    # ------------------------------------------------------------------
    # Crash recovery / restart (§6's upgrade story, repro.sim.supervisor).
    #
    # Sources: exec+link time is the dominant term of an ovs-vswitchd
    # start (~100 ms to fork/exec, map ~40 shared objects and parse the
    # schema — the same order `systemd-analyze blame` reports for
    # openvswitch-switch).  OVSDB reconnect is one jsonrpc connect plus
    # a monitor snapshot replayed row by row.  AF_XDP rebind costs are
    # dominated by umem page pinning (~0.5–1 µs/page for get_user_pages)
    # and, for zero-copy, the driver's queue-pair restart
    # (ethtool-style channel reset, several ms per queue — the reason
    # netdev-afxdp serializes queue reconfiguration).  DPDK pays EAL
    # init (hugepage mapping + PCI scan, hundreds of ms) plus per-port
    # dev_configure/start.  Kernel `system` ports only need a netlink
    # vport dump/re-attach (tens of µs per port).  The supervisor's
    # health probe is a unixctl round trip.
    # ------------------------------------------------------------------
    #: fork+exec ovs-vswitchd, dynamic linking, config parse — until the
    #: daemon answers its first unixctl ping.
    exec_restart_ns: float = 120_000_000.0
    #: One OVSDB jsonrpc connect + schema/monitor handshake.
    ovsdb_connect_ns: float = 2_000_000.0
    #: Replaying one monitored row from the OVSDB snapshot.
    ovsdb_row_read_ns: float = 15_000.0
    #: Wait between OVSDB reconnect attempts (the client's backoff).
    ovsdb_reconnect_wait_ns: float = 1_000_000.0
    #: Fixed part of registering one umem region (XDP_UMEM_REG + rings).
    afxdp_umem_create_ns: float = 1_000_000.0
    #: Pinning one umem frame's page (get_user_pages, amortised).
    afxdp_frame_pin_ns: float = 600.0
    #: socket(AF_XDP) + bind() for one queue, copy mode.
    afxdp_socket_bind_ns: float = 500_000.0
    #: Extra per-queue cost of a zero-copy bind: the driver restarts the
    #: queue pair (disable IRQ, free/refill hw rings, re-enable).
    afxdp_zc_queue_restart_ns: float = 5_000_000.0
    #: close() of one XSK (unpin pages, free rings) on graceful teardown.
    afxdp_socket_unbind_ns: float = 200_000.0
    #: Loading + verifying + attaching the XDP redirect program.
    xdp_attach_ns: float = 2_000_000.0
    #: rte_eal_init: hugepage mapping, PCI scan, memory zones.
    dpdk_eal_init_ns: float = 500_000_000.0
    #: rte_eth_dev_configure + queue setup + start for one port.
    dpdk_port_config_ns: float = 50_000_000.0
    #: Re-reading/re-attaching one datapath vport over netlink.
    netlink_port_dump_ns: float = 30_000.0
    #: Allocating a fresh userspace conntrack table (hash array, locks).
    conntrack_init_ns: float = 2_000_000.0
    #: Re-installing one OpenFlow rule during NSX desired-state re-sync
    #: (bundled flow_mods, ~100k rules/s — the rate §4's agent sustains).
    nsx_resync_per_rule_ns: float = 10_000.0
    #: One supervisor health probe: a unixctl ping round trip.
    heartbeat_probe_ns: float = 50_000.0

    # ------------------------------------------------------------------
    # Misc pipeline costs.
    # ------------------------------------------------------------------
    #: Parse a packet's headers to a flow key (miniflow extract).
    flow_extract_ns: float = 16.0
    #: Apply one datapath action (output, set-field, push/pop header).
    action_ns: float = 12.0
    #: Encapsulate / decapsulate a tunnel header (Geneve/VXLAN/GRE).
    tunnel_encap_ns: float = 180.0
    tunnel_decap_ns: float = 150.0
    #: Recirculation: re-inject the packet into the datapath pipeline.
    recirculate_ns: float = 120.0

    # ------------------------------------------------------------------
    # Telemetry (sFlow sampling + IPFIX export, repro.telemetry).
    #
    # Sampling is datapath work: real sFlow agents pay a per-packet rate
    # test at every armed observation point, and each taken sample pays
    # a header scrape plus datagram encode on the hot path.  The IPFIX
    # flow cache adds a hash + counter bump per observed packet and an
    # encode per flushed record.  These constants are what the
    # observer-effect experiment sweeps into a degradation curve.
    # ------------------------------------------------------------------
    #: Per-packet sampling rate test (counter increment + PRNG draw).
    sflow_sample_test_ns: float = 2.0
    #: Copying a sampled frame's header into the sample buffer.
    sflow_header_scrape_ns: float = 45.0
    #: Encoding + queueing the sFlow datagram toward the collector.
    sflow_encode_ns: float = 180.0
    #: IPFIX flow-cache update (hash, lookup, counter bump) per packet.
    ipfix_flow_update_ns: float = 30.0
    #: Encoding one IPFIX record at flush time.
    ipfix_encode_ns: float = 220.0

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def copy_cost(self, nbytes: int) -> float:
        """Cost of copying ``nbytes`` of packet data."""
        return self.copy_per_byte_ns * nbytes

    def checksum_cost(self, nbytes: int) -> float:
        """Cost of software-checksumming ``nbytes``."""
        return self.checksum_fixed_ns + self.checksum_per_byte_ns * nbytes


#: The calibrated default model used by all experiments.
DEFAULT_COSTS = CostModel()

#: Bumped whenever ``DEFAULT_COSTS`` is mutated (see :func:`overridden`).
#: Wall-clock memo layers that cache *derived charge values* (e.g. the XDP
#: verdict memo) tag entries with this so a sensitivity override can never
#: replay charges computed under different constants.
VERSION: int = 0


@contextmanager
def overridden(**overrides: float):
    """Temporarily change cost constants for sensitivity studies.

    Every substrate module holds a reference to the ``DEFAULT_COSTS``
    singleton, so overrides propagate everywhere::

        with costs.overridden(upcall_ns=50_000):
            result = run_fig9(scenarios=("P2P",))

    The previous values are restored on exit, even on error.
    """
    from repro.sim import trace

    global VERSION
    saved = {}
    for name, value in overrides.items():
        if not hasattr(DEFAULT_COSTS, name):
            raise AttributeError(f"no cost constant named {name!r}")
        saved[name] = getattr(DEFAULT_COSTS, name)
        object.__setattr__(DEFAULT_COSTS, name, value)
        # Sensitivity overrides must show up in any attached trace ledger:
        # a perf report over doctored constants should say so.
        trace.count(f"costs.overridden.{name}")
    VERSION += 1
    try:
        yield DEFAULT_COSTS
    finally:
        for name, value in saved.items():
            object.__setattr__(DEFAULT_COSTS, name, value)
        VERSION += 1
