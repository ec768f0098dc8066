"""dpif-netdev: the userspace datapath.

This is where the paper's architecture change lands: the whole fast path —
EMC, megaflow classifier, conntrack, tunnels, action execution — runs in
ovs-vswitchd, fed by pluggable packet I/O adapters (AF_XDP, DPDK,
vhostuser, tap/AF_PACKET).  Per-packet processing:

1. miniflow extract (``flow_extract_ns``),
2. EMC probe (per-PMD exact-match cache),
3. on miss, megaflow classifier probe (cost grows with distinct masks),
4. on miss, upcall — here just a function call into ofproto's translator
   (``userspace_slowpath_ns``), *not* the kernel datapath's 25 µs
   user/kernel round trip: misses are an order of magnitude cheaper in
   userspace, which matters for §5.2's 1000-flow runs,
5. execute actions; recirculation (ct pipelines) loops back to step 1
   with a new recirc id, so the NSX pipeline really does cost three
   lookups per packet (§5.1).

Transmit is batched per output port per input burst, as the real PMD
does — this is what amortises the AF_XDP tx-kick syscall.

One walk, one executor
======================

``process_batch`` classifies a received burst the way real
``dp_netdev_input`` does, in one walk, ``_classify_execute_burst``.  A
packet whose bytes and pipeline metadata hit the EMC before is replayed
from a cross-burst flow cache while the two slots its probe read are
unchanged (see :mod:`repro.ovs.emc`); any other packet is parsed once,
probes the EMC once, and on a miss walks the megaflow classifier and
inserts into the EMC at the slots that probe already hashed.  A single
Output action is executed inline; every other chain goes through the
one action executor, ``_execute``.

Recirculation and tunnel decapsulation re-enter the walk with a
one-packet burst at ``depth + 1``, depth-first, as the per-packet walk
this replaced recursed — so every charge keeps its value, lane and
order (float addition is not associative; a replayed hit re-issues its
charges per packet).  Past :data:`MAX_RECIRC_PASSES` the packet is
dropped.  ``tests/ovs/test_batch_equivalence.py`` keeps the per-packet
walk as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.net.flow import FlowKey, extract_flow
from repro.net.packet import Packet
from repro.net.tunnel import decapsulate, encapsulate
from repro.ovs import odp
from repro.ovs.ct_userspace import UserspaceConntrack
from repro.ovs.emc import ExactMatchCache
from repro.ovs.megaflow import MegaflowCache, MegaflowEntry
from repro.ovs.meter import MeterTable
from repro.ovs.ofproto import TranslationError
from repro.ovs.packet_ops import do_pop_vlan, do_push_vlan, set_field
from repro.sim import faults, trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext
from repro import telemetry
from repro.telemetry.drops import DropReason

MAX_RECIRC_PASSES = 8

#: The revalidator never tightens the megaflow budget below this, and
#: relaxes it back by this step per calm pass (the shape of real
#: udpif's flow_limit controller).
FLOW_LIMIT_MIN = 128
FLOW_LIMIT_STEP = 1000

#: Read by nothing under ``src/``: ``bench/spec.py``'s host fingerprint
#: is its only reader, and goes when the bench is re-based (ROADMAP 1).
BATCH_CLASSIFY = True


class PortAdapter(Protocol):
    """Packet I/O the datapath can drive.  AF_XDP, DPDK ethdev, vhostuser
    and AF_PACKET adapters all satisfy this shape."""

    def rx_burst(self, ctx: ExecContext, batch: int = 32) -> List[Packet]: ...

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext) -> int: ...


@dataclass
class DpPort:
    port_no: int
    name: str
    adapter: object
    kind: str = "netdev"  # netdev | internal | tunnel | vhost
    #: Underlying device (for ifindex-based tunnel route resolution).
    device: object = None
    rx_packets: int = 0
    tx_packets: int = 0


@dataclass
class PipelineStats:
    """Pipeline outcome counters.

    One instance aggregates datapath-wide on :class:`DpifNetdev`; each
    PMD thread keeps its own (threaded through ``process_batch``) so
    ``dpif-netdev/pmd-stats-show`` can attribute hits per core, like
    the real command.
    """

    emc_hits: int = 0
    megaflow_hits: int = 0
    upcalls: int = 0
    failed_upcalls: int = 0
    #: Misses shed before reaching the handler (bounded upcall queue /
    #: overload breaker) — the dpctl/show ``lost:`` column.  Lost
    #: packets are also counted in ``dropped`` (their fate); ``lost``
    #: records the cause.
    lost: int = 0
    passes: int = 0
    dropped: int = 0
    packets: int = 0
    #: Number of rx bursts processed and the packets-per-batch histogram
    #: (batch size -> occurrences), the figures behind pmd-perf-show's
    #: batching lines.
    batches: int = 0
    batch_hist: Dict[int, int] = field(default_factory=dict)

    @property
    def avg_batch(self) -> float:
        """Mean packets per rx batch."""
        return self.packets / self.batches if self.batches else 0.0


class DpifNetdev:
    """The userspace datapath instance inside one vswitchd."""

    def __init__(self, name: str = "netdev@ovs-netdev",
                 now_ns_fn: Callable[[], int] = lambda: 0) -> None:
        self.name = name
        self.ports: Dict[int, DpPort] = {}
        self._port_by_name: Dict[str, int] = {}
        self._next_port = 1
        self.megaflows = MegaflowCache()
        self.conntrack = UserspaceConntrack(now_ns_fn=now_ns_fn)
        self.meters = MeterTable()
        self.now_ns_fn = now_ns_fn
        #: The slow path: key -> (actions, mask).  vswitchd wires this to
        #: ofproto.translate.
        self.upcall_fn: Optional[Callable[[FlowKey, Optional[ExecContext]],
                                          Tuple]] = None
        self.stats = PipelineStats()
        #: Megaflow install budget (None = the cache's own max).  Seeded
        #: from an installed FaultPlan and tightened/relaxed by the
        #: revalidator under upcall pressure, like real udpif.
        self.flow_limit: Optional[int] = None
        self._burst_upcalls = 0
        self._reval_lost_seen = 0

    # ------------------------------------------------------------------
    def add_port(self, name: str, adapter: object, kind: str = "netdev",
                 device: object = None) -> DpPort:
        if name in self._port_by_name:
            raise ValueError(f"port {name!r} exists")
        port = DpPort(self._next_port, name, adapter, kind=kind, device=device)
        self.ports[port.port_no] = port
        self._port_by_name[name] = port.port_no
        self._next_port += 1
        return port

    def del_port(self, name: str) -> None:
        port_no = self._port_by_name.pop(name, None)
        if port_no is None:
            raise KeyError(f"no port {name!r}")
        del self.ports[port_no]

    def port_no(self, name: str) -> int:
        return self._port_by_name[name]

    def port_device(self, port_no: int) -> object:
        port = self.ports.get(port_no)
        return port.device if port else None

    def afxdp_drivers(self) -> list:
        """The AF_XDP driver behind each port that has one, in port
        order."""
        return [port.adapter.driver for port in self.ports.values()
                if getattr(port.adapter, "driver", None) is not None]

    def sinks(self) -> Dict[DropReason, int]:
        """Every datapath drop, whatever its fine-grained reason."""
        return {DropReason.DP_DROPPED: self.stats.dropped}

    def flow_flush(self) -> None:
        self.megaflows.flush()

    def cold_start(self, ctx: Optional[ExecContext] = None,
                   emcs=()) -> None:
        """The daemon process restarted: every userspace cache is rebuilt
        from nothing — megaflows, the per-PMD EMCs, and the userspace
        conntrack table, whose state died with the old process (the §6
        trade-off the kernel datapath does not pay).  The first packets
        after recovery all miss and upcall; the flow-limit controller
        governs the resulting storm.

        With ``ctx`` the new process's conntrack table allocation is
        charged; the caches themselves are empty allocations covered by
        the exec cost."""
        self.flow_flush()
        for emc in emcs:
            emc.flush()
        self.conntrack.flush()
        if ctx is not None:
            ctx.charge(DEFAULT_COSTS.conntrack_init_ns, label="ct_restart")
        trace.count("dpif.cold_start")

    def revalidate(self, max_idle_ns: int = 10_000_000_000,
                   emcs=()) -> Dict[str, int]:
        """The revalidator pass: expire idle megaflows and re-translate
        the rest against the current OpenFlow tables, dropping any whose
        decision changed (they reinstall on the next packet).

        ``emcs`` are the per-PMD exact-match caches to flush when any
        megaflow was dropped (EMC entries reference the same decisions).
        Re-translation walks the real tables, so, like the real
        revalidator, it is control-plane work — run it from a utility
        thread, not a PMD.  Returns counters.
        """
        now = self.now_ns_fn()
        removed_idle = 0
        removed_changed = 0
        kept = 0
        for entry in self.megaflows.entries():
            if now - entry.last_used_ns > max_idle_ns:
                self.megaflows.remove(entry.key, entry.mask)
                removed_idle += 1
                continue
            try:
                fresh = (self.upcall_fn(entry.key, None)
                         if self.upcall_fn else None)
            except Exception:
                # A raising translator must not crash the control-plane
                # pass: the stale flow is evicted (it reinstalls on the
                # next packet, when translation may succeed again).
                self.stats.failed_upcalls += 1
                trace.count("dp.revalidate_upcall_errors")
                fresh = None
            if (fresh is None or tuple(fresh[0]) != entry.actions
                    or tuple(fresh[1]) != tuple(entry.mask)):
                self.megaflows.remove(entry.key, entry.mask)
                removed_changed += 1
            else:
                kept += 1
        if removed_idle or removed_changed:
            for emc in emcs:
                emc.flush()
        flow_limit = self._adjust_flow_limit()
        return {
            "removed_idle": removed_idle,
            "removed_changed": removed_changed,
            "kept": kept,
            "flow_limit": -1 if flow_limit is None else flow_limit,
        }

    def _adjust_flow_limit(self) -> Optional[int]:
        """The udpif flow-limit controller: halve the megaflow budget
        while upcalls are being lost, creep it back up when calm.

        Inert (stays ``None`` = uncapped) until pressure first appears,
        so plan-less runs are untouched.
        """
        lost_delta = self.stats.lost - self._reval_lost_seen
        self._reval_lost_seen = self.stats.lost
        if lost_delta > 0:
            base = (self.flow_limit if self.flow_limit is not None
                    else self.megaflows.max_flows)
            self.flow_limit = max(FLOW_LIMIT_MIN,
                                  min(base, len(self.megaflows) or base) // 2)
            trace.count("dp.flow_limit_tightened")
        elif self.flow_limit is not None:
            relaxed = self.flow_limit + FLOW_LIMIT_STEP
            # Fully recovered: lift the cap entirely.
            self.flow_limit = (None if relaxed >= self.megaflows.max_flows
                               else relaxed)
        return self.flow_limit

    # ------------------------------------------------------------------
    # The fast path.
    # ------------------------------------------------------------------
    def process_batch(
        self,
        pkts: List[Packet],
        in_port: int,
        ctx: ExecContext,
        emc: ExactMatchCache,
        tx_queue: int = 0,
        stats: Optional[PipelineStats] = None,
    ) -> Dict[int, List[Packet]]:
        """Run one received burst through the pipeline.

        ``tx_queue`` is the hardware tx queue used when flushing (a PMD
        transmits on its own queue).  ``stats``, when given, is a
        second counter set (the calling PMD's) bumped alongside the
        datapath-wide one.  Returns the per-port transmit batches
        (after flushing), mainly for tests.
        """
        tx_batches: Dict[int, List[Packet]] = {}
        n = len(pkts)
        port = self.ports.get(in_port)
        if port is not None:
            port.rx_packets += n
        statses = ((self.stats,) if stats is None
                   else (self.stats, stats))
        for s in statses:
            s.packets += n
            s.batches += 1
            s.batch_hist[n] = s.batch_hist.get(n, 0) + 1
        rec = trace.ACTIVE
        if rec is not None:
            rec.count("dp.rx_packets", n)
        self._burst_upcalls = 0
        for pkt in pkts:
            meta = pkt.meta
            meta.in_port = in_port
            meta.recirc_id = 0
            meta.ct_state = 0
            meta.ct_zone = 0
        # Profiler-only frame (no ledger span): groups every charge this
        # burst makes under dp.input in the call tree.  One attribute
        # load when profiling is off.
        prof = rec.profiler if rec is not None else None
        if prof is not None:
            prof.enter("dp.input")
        try:
            self._classify_execute_burst(pkts, ctx, emc, tx_batches, 0,
                                         statses)
            self._flush_tx(tx_batches, ctx, tx_queue)
        finally:
            if prof is not None:
                prof.exit_()
        return tx_batches

    def _classify_execute_burst(
        self,
        pkts: List[Packet],
        ctx: ExecContext,
        emc: ExactMatchCache,
        tx_batches: Dict[int, List[Packet]],
        depth: int,
        statses: Tuple[PipelineStats, ...],
    ) -> None:
        """Classify and execute a burst (the ``dp_netdev_input`` shape).

        ``depth`` is the pipeline pass: ``process_batch`` walks its
        burst at 0, and recirculation or tunnel decapsulation re-enters
        with one packet at ``depth + 1`` from inside ``_execute``.
        *Charging* happens packet by packet, depth first, because every
        accumulator (per-(cpu, category) busy time, local time, ledger
        spans) is order-sensitive float addition.  Classification and
        execution stay fused per packet: an executed action (recirc,
        ct, meter, upcall install) may mutate the very caches the next
        packet's classification observes.
        """
        if depth > MAX_RECIRC_PASSES:
            for pkt in pkts:
                for s in statses:
                    s.dropped += 1
                telemetry.drop_event(DropReason.DP_RECIRC_LIMIT,
                                     octets=len(pkt.data))
            return
        costs = DEFAULT_COSTS
        extract_ns = costs.flow_extract_ns
        action_ns = costs.action_ns
        # Read once per pass, as dp_netdev_input reads pmd->ctx.now:
        # the virtual clock does not move inside a burst.
        now = self.now_ns_fn()
        megaflows = self.megaflows
        flow_cache = emc.flow_cache
        replay_hit = emc.replay_hit
        # Packets are observed once, on their first pass.
        tele = telemetry.ACTIVE if depth == 0 else None
        for pkt in pkts:
            for s in statses:
                s.passes += 1
            if tele is not None:
                tele.observe("dpif", pkt, ctx)
            ctx.charge(extract_ns, label="flow_extract")
            data = pkt.data
            meta = pkt.meta
            tun = meta.tunnel
            if flow_cache.bypass:
                flow_cache.bypass -= 1
                token = cell = None
            else:
                # Everything extract_flow reads, so equal tokens imply
                # equal FlowKeys.
                token = (data, meta.in_port, meta.recirc_id, meta.ct_state,
                         meta.ct_zone, meta.ct_mark,
                         tun.vni, tun.remote_ip, tun.local_ip)
                cell = flow_cache.get(token)
            if cell is not None and replay_hit(cell, ctx):
                # Cross-burst fast path: this shape hit the EMC before
                # and its two slots still hold what that probe saw.
                flow_cache.n_replays += 1
                entry = cell[1]
                for s in statses:
                    s.emc_hits += 1
                entry.touch(now, len(data))
            else:
                # A stale cell only invalidates the *EMC outcome*; the
                # token still fully determines the extracted key.
                key = cell[0] if cell is not None else extract_flow(
                    data,
                    in_port=meta.in_port,
                    recirc_id=meta.recirc_id,
                    ct_state=meta.ct_state,
                    ct_zone=meta.ct_zone,
                    ct_mark=meta.ct_mark,
                    tun_id=tun.vni,
                    tun_src=tun.remote_ip,
                    tun_dst=tun.local_ip,
                )
                # A hit's replay cell, or a miss's two slot positions.
                entry, probed = emc.lookup_cell(key, ctx)
                if entry is not None:
                    for s in statses:
                        s.emc_hits += 1
                    entry.touch(now, len(data))
                    # Remember the hit for future bursts: a frame that
                    # never repeats never gets here, and leaves no cell.
                    if token is not None:
                        flow_cache.store(token, probed)
                else:
                    if token is not None:
                        # Fruitless only now: a frame no EMC probe hit
                        # could hold no cell.
                        flow_cache.missed()
                    entry = megaflows.lookup_entry(
                        key, ctx, now_ns=now, nbytes=len(data))
                    if entry is not None:
                        for s in statses:
                            s.megaflow_hits += 1
                    else:
                        entry = self._upcall(key, ctx, statses)
                        if entry is None:
                            for s in statses:
                                s.dropped += 1
                            continue
                    self._emc_insert(emc, key, entry, ctx, probed)
            out_port = entry.single_out
            if out_port is not None:
                # Inlined _execute for the dominant one-Output case; the
                # frame is unchanged, so the packet itself goes out.
                ctx.charge(action_ns, label="odp_action")
                batch = tx_batches.get(out_port)
                if batch is None:
                    batch = tx_batches[out_port] = []
                batch.append(pkt)
            else:
                self._execute(pkt, entry.actions, ctx, emc, tx_batches,
                              depth, statses)

    def _upcall(self, key: FlowKey, ctx: ExecContext,
                statses: Tuple[PipelineStats, ...]):
        costs = DEFAULT_COSTS
        for s in statses:
            s.upcalls += 1
        trace.count("dp.upcall")
        plan = faults.ACTIVE
        if plan is not None:
            self._burst_upcalls += 1
            cap = plan.upcall_queue_cap
            if ((cap is not None and self._burst_upcalls > cap)
                    or plan.should_fire("dp.upcall_overload")):
                # The bounded upcall queue overflowed (or the handler is
                # overloaded): shed the miss instead of amplifying the
                # storm.  Real netlink reports this as ``lost:``.
                for s in statses:
                    s.lost += 1
                trace.count("dp.upcall_lost")
                telemetry.drop_event(DropReason.DP_UPCALL_LOST)
                return None
        if self.upcall_fn is None:
            for s in statses:
                s.failed_upcalls += 1
            telemetry.drop_event(DropReason.DP_UPCALL_FAILED)
            return None
        # Unlike the kernel datapath's netlink round trip, this is a
        # function call within ovs-vswitchd.  The nested span groups the
        # slow-path charges (classifier walks, translation) under one
        # inclusive "upcall" total in the trace ledger.
        with trace.span("upcall"):
            ctx.charge(costs.userspace_slowpath_ns, label="upcall")
            try:
                result = self.upcall_fn(key, ctx)
            except TranslationError:
                # A failed xlate (a table loop, an unknown recirculation
                # id) drops and counts this packet only, as real OVS
                # does; the rest of the burst is forwarded.
                trace.count("dp.upcall_xlate_errors")
                result = None
        if result is None:
            for s in statses:
                s.failed_upcalls += 1
            telemetry.drop_event(DropReason.DP_UPCALL_FAILED)
            return None
        actions, mask = result
        limit = self.flow_limit
        if plan is not None and plan.flow_limit is not None:
            limit = (plan.flow_limit if limit is None
                     else min(limit, plan.flow_limit))
        if limit is not None and len(self.megaflows) >= limit:
            # Over the revalidator's budget: translate-and-execute only,
            # without installing (the packet still flows; the flow
            # reinstalls once the limit relaxes).
            trace.count("dp.flow_limit_hit")
            entry = None
        else:
            entry = self.megaflows.insert(key, mask, tuple(actions), ctx,
                                          now_ns=self.now_ns_fn())
        if entry is None:
            # Cache full: execute this packet unbatched via a transient
            # entry (the real datapath applies actions from the upcall).
            entry = MegaflowEntry(actions=tuple(actions), key=key, mask=mask)
        return entry

    def _emc_insert(self, emc: ExactMatchCache, key: FlowKey, entry,
                    ctx: ExecContext, positions: Tuple[int, int]) -> None:
        """Insert into the EMC unless the storm breaker says skip.

        Mirrors ``emc-insert-inv-prob``: under an upcall storm, inserting
        every miss result thrashes the EMC; a probabilistic insert keeps
        only flows that recur.  ``positions`` are the key's slots from
        the probe that just missed.
        """
        plan = faults.ACTIVE
        if plan is not None and not plan.should_insert_emc():
            trace.count("dp.emc_insert_skipped")
            return
        emc.insert(key, entry, ctx, positions)

    # ------------------------------------------------------------------
    # Action execution.
    # ------------------------------------------------------------------
    def _execute(
        self,
        pkt: Packet,
        actions,
        ctx: ExecContext,
        emc: ExactMatchCache,
        tx_batches: Dict[int, List[Packet]],
        depth: int,
        statses: Tuple[PipelineStats, ...],
    ) -> None:
        costs = DEFAULT_COSTS
        data = pkt.data
        if not actions:
            for s in statses:
                s.dropped += 1
            telemetry.drop_event(DropReason.DP_EMPTY_ACTIONS,
                                 octets=len(data))
            return
        for act in actions:
            ctx.charge(costs.action_ns, label="odp_action")
            if isinstance(act, odp.Output):
                out = pkt if data is pkt.data else pkt.with_data(data)
                tx_batches.setdefault(act.port_no, []).append(out)
            elif isinstance(act, odp.SetField):
                data = set_field(data, act.field, act.value)
            elif isinstance(act, odp.PushVlan):
                data = do_push_vlan(data, act.vid, act.pcp)
            elif isinstance(act, odp.PopVlan):
                data = do_pop_vlan(data)
            elif isinstance(act, odp.Ct):
                self._do_ct(pkt.with_data(data), act, ctx)
            elif isinstance(act, odp.Recirc):
                out = pkt.with_data(data)
                out.meta.recirc_id = act.recirc_id
                ctx.charge(costs.recirculate_ns, label="recirc")
                self._classify_execute_burst([out], ctx, emc, tx_batches,
                                             depth + 1, statses)
                return
            elif isinstance(act, odp.TunnelPush):
                ctx.charge(costs.tunnel_encap_ns, label="tunnel_push")
                outer = encapsulate(act.config, data)
                ctx.charge(costs.copy_cost(len(outer) - len(data)),
                           label="encap_copy")
                tx_batches.setdefault(act.out_port, []).append(Packet(outer))
            elif isinstance(act, odp.TunnelPop):
                ctx.charge(costs.tunnel_decap_ns, label="tunnel_pop")
                try:
                    ttype, vni, src, dst, inner = decapsulate(data)
                except ValueError:
                    for s in statses:
                        s.dropped += 1
                    telemetry.drop_event(
                        DropReason.DP_TUNNEL_DECAP_FAILED,
                        octets=len(data))
                    return
                out = Packet(inner)
                out.meta.in_port = act.vport
                out.meta.tunnel.tunnel_type = ttype
                out.meta.tunnel.vni = vni
                out.meta.tunnel.remote_ip = src
                out.meta.tunnel.local_ip = dst
                self._classify_execute_burst([out], ctx, emc, tx_batches,
                                             depth + 1, statses)
                return
            elif isinstance(act, odp.Meter):
                if not self.meters.admit(act.meter_id, len(data),
                                         self.now_ns_fn()):
                    for s in statses:
                        s.dropped += 1
                    telemetry.drop_event(DropReason.DP_METER_DROP,
                                         octets=len(data))
                    return
            elif isinstance(act, odp.Userspace):
                ctx.charge(costs.userspace_slowpath_ns, label="userspace")
            elif isinstance(act, odp.Trunc):
                data = data[: act.max_len]
            else:
                raise NotImplementedError(f"dpif-netdev cannot {act!r}")

    def _do_ct(self, pkt: Packet, act: odp.Ct, ctx: ExecContext) -> None:
        key = extract_flow(pkt.data)
        result = self.conntrack.process(
            key.five_tuple(),
            zone=act.zone,
            ctx=ctx,
            tcp_flags=key.tcp_flags,
            nbytes=len(pkt),
            commit=act.commit,
        )
        pkt.meta.ct_state = result.state_bits
        pkt.meta.ct_zone = act.zone
        if result.connection is not None:
            pkt.meta.ct_mark = result.connection.mark

    def _flush_tx(self, tx_batches: Dict[int, List[Packet]],
                  ctx: ExecContext, tx_queue: int = 0) -> None:
        for port_no, pkts in tx_batches.items():
            port = self.ports.get(port_no)
            if port is None:
                self.stats.dropped += len(pkts)
                telemetry.drop_event(DropReason.DP_TX_NO_PORT,
                                     n=len(pkts),
                                     octets=sum(len(p) for p in pkts))
                continue
            sent = port.adapter.tx_burst(pkts, ctx, queue=tx_queue)
            if sent is None:
                sent = len(pkts)
            port.tx_packets += sent
            if sent < len(pkts):
                # The adapter dropped the shortfall and counted it in
                # its own per-ring counters; surface the event here too.
                trace.count("dp.tx_shortfall", len(pkts) - sent)
