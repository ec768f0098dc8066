"""ovs-appctl: operational introspection of a running vswitchd.

The paper's "easier troubleshooting" lesson (§6) is partly about being
able to see inside the userspace datapath.  These are the commands an
operator actually runs:

* ``dpctl/show`` — datapath ports and totals,
* ``dpctl/dump-flows`` — the installed megaflows with stats,
* ``dpif-netdev/pmd-stats-show`` — per-PMD cache hit rates,
* ``dpif-netdev/pmd-perf-show`` — per-stage virtual-time breakdown,
* ``coverage/show`` — rare-event counters from the trace ledger, with
  real-OVS-style events-per-second rate columns (per *virtual* second),
* ``dpctl/dump-conntrack`` — the connection table,
* ``metrics/show`` — the attached virtual-time metrics sampler's view,
* ``fastpath/show`` — each eBPF program's compiled-run count,
* ``ofproto/trace`` — inject a synthetic packet and narrate every
  decision the datapath would take, without taking any of them,
* ``supervisor/show`` — the crash-recovery watchdog: uptime, restart
  history with per-phase recovery timings, backoff state,
* ``fdb/stats`` equivalents come from the bridges' OpenFlow dumps.

``pmd-perf-show`` and ``coverage/show`` read the active
:class:`~repro.sim.trace.TraceRecorder` (or one passed explicitly), so
they show real data only when a run executed under
``trace.recording()``.

``ofproto/trace`` is strictly read-only: cache probes use the peek
variants (no charges, no counters, no stats touch), translation runs
uncharged and every observable side effect — rule/table hit counters,
``n_translations``, lazily created tables, allocated recirculation ids —
is rolled back before it returns.  Running it mid-experiment changes no
subsequent ledger byte; an integration test enforces this by string
comparison.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.kernel.conntrack import (
    CT_ESTABLISHED,
    CT_INVALID,
    CT_NEW,
    CT_RELATED,
    CT_REPLY,
    CT_TRACKED,
)
from repro.net.addresses import int_to_ip
from repro.net.flow import FlowKey, extract_flow
from repro.net.tunnel import decapsulate
from repro.ovs import odp
from repro.ovs import ofactions as ofp
from repro.ovs.match import _FULL_MASK, Match
from repro.ovs.ofproto import TranslationError
from repro.ovs.packet_ops import do_pop_vlan, do_push_vlan, set_field
from repro.ovs.pmd import PmdThread
from repro.ovs.vswitchd import VSwitchd
from repro import telemetry
from repro.sim import faults, trace
from repro.sim.trace import TraceRecorder

#: Recirculation passes ofproto/trace will follow before giving up
#: (mirrors the datapath's MAX_RECIRC_PASSES).
MAX_TRACE_PASSES = 8


class OvsAppctl:
    def __init__(self, vswitchd: VSwitchd) -> None:
        self.vs = vswitchd

    # ------------------------------------------------------------------
    def dpctl_show(self) -> str:
        lines: List[str] = []
        if self.vs.dpif_netdev is not None:
            dpif = self.vs.dpif_netdev
            lines.append(f"{dpif.name}:")
            s = dpif.stats
            # ``lost:`` means what it means in real dpctl/show: packets
            # destined for the slow path that never got there (bounded
            # upcall queue overflow) — not every pipeline drop.
            lines.append(
                f"  lookups: hit:{s.emc_hits + s.megaflow_hits} "
                f"missed:{s.upcalls} lost:{s.lost}"
            )
            lines.append(f"  flows: {len(dpif.megaflows)}")
            for port in sorted(dpif.ports.values(), key=lambda p: p.port_no):
                lines.append(
                    f"  port {port.port_no}: {port.name} ({port.kind}) "
                    f"rx:{port.rx_packets} tx:{port.tx_packets}"
                )
        if self.vs.dpif_netlink is not None:
            dp = self.vs.dpif_netlink.dp
            flows = dp.flows
            lookups = flows.n_hit + flows.n_missed
            lines.append(f"system@{dp.name}:")
            lines.append(
                f"  lookups: hit:{flows.n_hit} "
                f"missed:{flows.n_missed} lost:{dp.n_lost}"
            )
            lines.append(f"  flows: {len(flows)}")
            # Subtables probed per lookup: how far the linear mask walk
            # goes before the hitting mask (1.00 = first mask always).
            lines.append(
                f"  masks: hit:{flows.n_mask_hit} total:{flows.n_masks} "
                f"hit/pkt:{flows.n_mask_hit / lookups if lookups else 0.0:.2f}"
            )
            for port in sorted(dp.ports.values(), key=lambda p: p.port_no):
                lines.append(
                    f"  port {port.port_no}: {port.name} ({port.kind}) "
                    f"rx:{port.stats_rx} tx:{port.stats_tx}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def dpctl_dump_flows(self, max_flows: int = 50) -> str:
        if self.vs.dpif_netdev is None:
            return "(kernel datapath: flows live in the kernel module)"
        lines = []
        for entry in self.vs.dpif_netdev.megaflows.entries()[:max_flows]:
            lines.append(
                f"{_render_masked_key(entry.key, entry.mask)}, "
                f"packets:{entry.n_packets}, bytes:{entry.n_bytes}, "
                f"actions:{_render_actions(entry.actions)}"
            )
        return "\n".join(lines) if lines else "(no flows installed)"

    # ------------------------------------------------------------------
    def pmd_stats_show(self, pmds: Sequence[PmdThread]) -> str:
        """Mirror ``ovs-appctl dpif-netdev/pmd-stats-show``.

        Per-core cache outcomes come from each PMD's own
        :class:`~repro.ovs.dpif_netdev.PipelineStats`; cycles are the
        thread's consumed virtual time.
        """
        lines = []
        for pmd in pmds:
            s = pmd.stats
            emc = pmd.emc
            total = emc.hits + emc.misses
            rate = f"{emc.hit_rate * 100:.1f}%" if total else "n/a"
            ok_upcalls = s.upcalls - s.failed_upcalls
            passes_per_pkt = (s.passes / s.packets) if s.packets else 0.0
            cycles = pmd.cycles_ns
            per_pkt = (cycles / s.packets) if s.packets else 0.0
            lines.append(
                f"pmd thread on core {pmd.ctx.cpu}:\n"
                f"  packets processed: {pmd.packets_processed}\n"
                f"  packet recirculations: {max(s.passes - s.packets, 0)}\n"
                f"  avg. datapath passes per packet: {passes_per_pkt:.2f}\n"
                f"  emc hits: {emc.hits} ({rate} hit rate)\n"
                f"  megaflow hits: {s.megaflow_hits}\n"
                f"  miss with success upcall: {ok_upcalls}\n"
                f"  miss with failed upcall: {s.failed_upcalls}\n"
                f"  avg. packets per output batch: {s.avg_batch:.2f}\n"
                f"  iterations: {pmd.iterations} "
                f"(empty: {pmd.empty_polls})\n"
                f"  processing cycles: {cycles:.0f} ns "
                f"({per_pkt:.0f} ns/pkt)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def pmd_perf_show(self, pmds: Sequence[PmdThread],
                      recorder: Optional[TraceRecorder] = None) -> str:
        """Mirror ``ovs-appctl dpif-netdev/pmd-perf-show``: iteration
        stats per PMD plus the per-stage virtual-time breakdown from the
        trace ledger."""
        rec = recorder if recorder is not None else trace.ACTIVE
        lines = []
        for pmd in pmds:
            busy = pmd.iterations - pmd.empty_polls
            s = pmd.stats
            lines.append(f"pmd thread on core {pmd.ctx.cpu}:")
            lines.append(f"  iterations: {pmd.iterations} "
                         f"(busy: {busy}, empty: {pmd.empty_polls})")
            lines.append(f"  packets processed: {pmd.packets_processed}")
            lines.append(f"  rx batches: {s.batches} "
                         f"(avg size: {s.avg_batch:.2f})")
            if s.batch_hist:
                dist = " ".join(f"{size}:{s.batch_hist[size]}"
                                for size in sorted(s.batch_hist))
                lines.append(f"  packets-per-batch histogram: {dist}")
            lines.append(f"  processing cycles: {pmd.cycles_ns:.0f} ns")
        if rec is None:
            lines.append("(no trace recorder attached; "
                         "run under trace.recording() for stage detail)")
            return "\n".join(lines)
        total = rec.total_ns or 1.0
        lines.append("per-stage breakdown (all threads):")
        for stage, (count, ns) in sorted(
            rec.spans.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(
                f"  {stage:24s} {ns:>16.0f} ns "
                f"{100.0 * ns / total:5.1f}%  (x{count})"
            )
        lines.append(f"  {'total':24s} {rec.total_ns:>16.0f} ns")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def coverage_show(self,
                      recorder: Optional[TraceRecorder] = None) -> str:
        """Mirror ``ovs-appctl coverage/show``: event counters collected
        by the trace layer (EMC/dpcls outcomes, upcalls, ring stalls,
        syscalls, copies...), each with its average rate per *virtual*
        second of charged CPU time — the analog of the real command's
        avg/hr columns over a wall-clock window."""
        rec = recorder if recorder is not None else trace.ACTIVE
        if rec is None or not rec.counters:
            return "(no events recorded)"
        busy_s = rec.cpu_charged_ns / 1e9
        lines = [f"{'Event':32s} {'Total':>12} {'Avg/s':>15}"]
        for name, count in sorted(rec.counters.items()):
            if busy_s > 0:
                rate = f"{count / busy_s:>13.1f}/s"
            else:
                rate = f"{'n/a':>15}"
            lines.append(f"{name:32s} {count:>12d} {rate:>15}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def metrics_show(self, sampler=None) -> str:
        """``ovs-appctl metrics/show``: the virtual-time metrics
        sampler's series summary (see
        :class:`~repro.sim.profile.MetricsSampler`)."""
        s = sampler
        if s is None:
            rec = trace.ACTIVE
            s = rec.sampler if rec is not None else None
        if s is None:
            return "(no metrics sampler attached)"
        return s.render()

    # ------------------------------------------------------------------
    def fastpath_show(self) -> str:
        """``ovs-appctl fastpath/show``: how many runs each eBPF program
        made as compiled code."""
        from repro.ebpf import jit

        stats = jit.stats()
        if not stats:
            return "(no eBPF programs run yet)"
        lines = ["program               jit-runs"]
        for name in sorted(stats):
            lines.append(f"{name:20s}  {stats[name].jit_runs:8d}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def faults_show(self) -> str:
        """``ovs-appctl faults/show``: the installed fault plan, its
        per-point event/fire tallies, and the datapath degradation
        state (flow limit, lost upcalls)."""
        plan = faults.ACTIVE
        lines = []
        if plan is None:
            lines.append("(no fault plan installed)")
        else:
            lines.append(plan.render())
        dpif = self.vs.dpif_netdev
        if dpif is not None:
            limit = ("none" if dpif.flow_limit is None
                     else str(dpif.flow_limit))
            lines.append(
                f"datapath {dpif.name}: flow-limit:{limit} "
                f"lost:{dpif.stats.lost} "
                f"failed-upcalls:{dpif.stats.failed_upcalls}"
            )
        if self.vs.dpif_netlink is not None:
            dp = self.vs.dpif_netlink.dp
            lines.append(f"datapath system@{dp.name}: lost:{dp.n_lost}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def sflow_show(self) -> str:
        """``ovs-appctl sflow/show``: the active sampling session —
        rate, header length and per-dispatch-point observed/sampled
        tallies."""
        session = telemetry.ACTIVE
        if session is None:
            return "(no telemetry session installed)"
        sampler = session.sflow
        if sampler is None:
            return "sflow: disabled"
        cfg = sampler.config
        lines = [f"sflow: sampling 1/{cfg.rate} "
                 f"(header {cfg.header_bytes} bytes, seed {cfg.seed})"]
        for point in cfg.points:
            lines.append(
                f"  {point:8s} observed:{sampler.observed[point]} "
                f"sampled:{sampler.sampled[point]}")
        lines.append(f"  total    observed:{sampler.total_observed} "
                     f"sampled:{sampler.total_sampled}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def ipfix_show(self) -> str:
        """``ovs-appctl ipfix/show``: the flow exporter — timeouts,
        cache occupancy, export/loss totals and the per-reason drop
        tallies of the unified taxonomy."""
        session = telemetry.ACTIVE
        if session is None:
            return "(no telemetry session installed)"
        exporter = session.ipfix
        if exporter is None:
            return "ipfix: disabled"
        cfg = exporter.config
        lines = [
            f"ipfix: point {cfg.point} "
            f"active-timeout {cfg.active_timeout_ns} ns "
            f"idle-timeout {cfg.idle_timeout_ns} ns",
            f"  cached flows: {len(exporter.cache)}",
            f"  exported: {exporter.exported_flow_records} flow records "
            f"({exporter.exported_flow_packets} packets, "
            f"{exporter.exported_flow_octets} octets)",
            f"  exported: {exporter.exported_drop_records} drop records "
            f"({exporter.exported_drop_packets} packets, "
            f"{exporter.exported_drop_octets} octets)",
            f"  lost to collector: "
            f"{exporter.lost_flow_records + exporter.lost_drop_records} "
            f"records",
        ]
        if exporter.drop_packets:
            lines.append("  drop reasons:")
            for reason in sorted(exporter.drop_packets,
                                 key=lambda r: r.value):
                lines.append(
                    f"    {reason.value:26s} "
                    f"packets:{exporter.drop_packets[reason]} "
                    f"octets:{exporter.drop_octets.get(reason, 0)}")
        else:
            lines.append("  drop reasons: (none recorded)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def supervisor_show(self, supervisor) -> str:
        """``ovs-appctl supervisor/show``: the crash-recovery watchdog's
        view — uptime, restart history with per-phase timings, last
        crash cause, backoff state and the crash packet sinks (see
        :class:`~repro.sim.supervisor.Supervisor`)."""
        if supervisor is None:
            return "(no supervisor attached)"
        return supervisor.render()

    # ------------------------------------------------------------------
    def dpctl_dump_conntrack(self, max_conns: int = 50) -> str:
        conns = []
        if self.vs.dpif_netdev is not None:
            conns = self.vs.dpif_netdev.conntrack.connections()
        elif self.vs.dpif_netlink is not None:
            conns = self.vs.kernel.init_ns.conntrack.connections()
        lines = []
        for conn in conns[:max_conns]:
            proto = {6: "tcp", 17: "udp", 1: "icmp"}.get(
                conn.orig.proto, str(conn.orig.proto))
            state = f",state={conn.tcp_state.value}" if conn.tcp_state else ""
            lines.append(
                f"{proto},orig=({int_to_ip(conn.orig.src_ip)}:"
                f"{conn.orig.src_port}->{int_to_ip(conn.orig.dst_ip)}:"
                f"{conn.orig.dst_port}),zone={conn.zone}{state},"
                f"packets={conn.packets}"
            )
        return "\n".join(lines) if lines else "(conntrack empty)"

    # ------------------------------------------------------------------
    def ofproto_trace(self, packet, in_port, emc=None) -> str:
        """``ovs-appctl ofproto/trace``: narrate one packet's fate.

        ``packet`` is a :class:`~repro.net.packet.Packet` (or raw bytes)
        injected as if received on ``in_port`` (a datapath port name or
        number).  The narration covers each recirculation pass: the EMC
        probe outcome (when the caller supplies a PMD's cache), the
        megaflow probe with its subtable count and mask, the upcall's
        OpenFlow table walk, the conntrack verdict, and the final
        datapath actions.

        Read-only end to end: nothing is charged, counted, installed,
        committed or metered — see the module docstring for the rollback
        contract.
        """
        dpif = self.vs.dpif_netdev
        if dpif is None:
            return "(ofproto/trace needs the userspace datapath)"
        data = packet.data if hasattr(packet, "data") else bytes(packet)
        if isinstance(in_port, str):
            try:
                port_no = dpif.port_no(in_port)
            except KeyError:
                return f"(no datapath port {in_port!r})"
        else:
            port_no = in_port
        ofproto = self.vs.ofproto
        # Recirculation ids allocated *by this trace* are rolled back
        # only after the whole trace ran: a later pass must still be
        # able to resolve an id an earlier pass narrated.
        saved_next_recirc = ofproto._next_recirc
        lines: List[str] = []
        try:
            self._trace_passes(lines, dpif, data, port_no, emc)
        finally:
            for rid in [r for r in ofproto._recirc_resume
                        if r >= saved_next_recirc]:
                resume_key = ofproto._recirc_resume.pop(rid)
                ofproto._recirc_ids.pop(resume_key, None)
            ofproto._next_recirc = saved_next_recirc
        return "\n".join(lines)

    def _trace_passes(self, lines: List[str], dpif, data: bytes,
                      port_no: int, emc) -> None:
        recirc_id = 0
        ct_state = 0
        ct_zone = 0
        ct_mark = 0
        tun = (0, 0, 0)  # (vni, remote_ip, local_ip)
        for pass_no in range(1, MAX_TRACE_PASSES + 2):
            if pass_no > MAX_TRACE_PASSES:
                lines.append("... recirculation limit reached; giving up")
                return
            key = extract_flow(
                data,
                in_port=port_no,
                recirc_id=recirc_id,
                ct_state=ct_state,
                ct_zone=ct_zone,
                ct_mark=ct_mark,
                tun_id=tun[0],
                tun_src=tun[1],
                tun_dst=tun[2],
            )
            if pass_no > 1:
                lines.append("")
            lines.append(f"Pass {pass_no}")
            lines.append(f"Flow: {_render_flow(key)}")
            actions = self._trace_classify(lines, dpif, key, emc)
            if actions is None:
                return
            if not actions:
                lines.append("Datapath actions: drop")
                return
            lines.append(f"Datapath actions: {_render_actions(actions)}")
            follow = self._trace_actions(lines, dpif, data, key, actions)
            if follow is None:
                return
            data, port_no, recirc_id, ct_state, ct_zone, ct_mark, tun = follow

    def _trace_classify(self, lines: List[str], dpif, key: FlowKey,
                        emc) -> "Optional[Tuple]":
        """One pass's cache/upcall decision; returns the datapath
        actions, or None if the trace ends here (translation error)."""
        if emc is not None:
            hit = emc.peek(key)
            if hit is not None:
                lines.append("EMC: hit")
                return hit.actions
            lines.append("EMC: miss")
        else:
            lines.append("EMC: (no per-PMD cache supplied; skipped)")
        entry, probes = dpif.megaflows.peek(key)
        if entry is not None:
            lines.append(
                f"Megaflow: hit after {probes} subtable probe(s), "
                f"packets:{entry.n_packets}"
            )
            lines.append(f"  {_render_masked_key(entry.key, entry.mask)}")
            return entry.actions
        lines.append(f"Megaflow: miss ({probes} subtable(s) probed)")
        lines.append("Upcall: translating through the OpenFlow tables")
        result, error, walk = self._trace_translate(key)
        bridge_name = None
        for bname, table_id, rule, _obs_key in walk:
            if bname != bridge_name:
                bridge_name = bname
                lines.append(f'bridge("{bname}")')
                lines.append("-" * (len(bname) + 9))
            if rule is None:
                lines.append(
                    f"{table_id:>2}. (no matching rule: table-miss drop)"
                )
                continue
            lines.append(
                f"{table_id:>2}. priority {rule.priority}, "
                f"{_render_match(rule.match)}"
            )
            lines.append(f"    actions: {_render_of_actions(rule.actions)}")
        if error is not None:
            lines.append(f"Translation error: {error}")
            return None
        if not walk:
            lines.append("(input port not attached to any bridge: drop)")
        lines.append(
            f"Megaflow mask: {_render_masked_key(key, result.mask)} "
            f"(trace: not installed)"
        )
        return result.actions

    def _trace_translate(self, key: FlowKey):
        """Run the translator uncharged and roll back every observable
        side effect: rule hit counters, per-table lookup/match counters,
        ``n_translations`` and lazily created (still-empty) tables.
        Recirculation-id rollback is deferred to :meth:`ofproto_trace`.
        """
        ofproto = self.vs.ofproto
        walk: List[Tuple] = []
        matched: List = []
        saved_translations = ofproto.n_translations
        saved_counts = []
        saved_table_ids = {}
        for name, bridge in ofproto.bridges.items():
            saved_table_ids[name] = set(bridge.tables)
            for table in bridge.tables.values():
                saved_counts.append(
                    (table, table.n_lookups, table.n_matches)
                )

        def observer(bridge, table_id, rule, obs_key):
            walk.append((bridge.name, table_id, rule, obs_key))
            if rule is not None:
                matched.append(rule)

        try:
            result = ofproto.translate(key, None, observer=observer)
            error = None
        except TranslationError as exc:
            result, error = None, str(exc)
        finally:
            ofproto.n_translations = saved_translations
            for rule in matched:
                rule.n_packets -= 1
            for table, n_lookups, n_matches in saved_counts:
                table.n_lookups = n_lookups
                table.n_matches = n_matches
            for name, bridge in ofproto.bridges.items():
                for table_id in (set(bridge.tables)
                                 - saved_table_ids.get(name, set())):
                    if not len(bridge.tables[table_id]):
                        del bridge.tables[table_id]
        return result, error, walk

    def _trace_actions(self, lines: List[str], dpif, data: bytes,
                       key: FlowKey, actions):
        """Narrate one pass's datapath actions, following rewrites so a
        recirculation/decap pass re-enters with accurate bytes.  Returns
        the next pass's (data, port, recirc, ct-state) tuple, or None
        when the packet's fate is settled this pass."""
        ct_state, ct_zone, ct_mark = key.ct_state, key.ct_zone, key.ct_mark
        for act in actions:
            if isinstance(act, odp.Output):
                port = dpif.ports.get(act.port_no)
                name = port.name if port is not None else "?"
                lines.append(f" -> output to port {act.port_no} ({name})")
            elif isinstance(act, odp.Ct):
                verdict = dpif.conntrack.peek(key.five_tuple(), act.zone)
                commit = ",commit" if act.commit else ""
                lines.append(
                    f" -> ct(zone={act.zone}{commit}): verdict "
                    f"{_render_ct_state(verdict.state_bits)} "
                    f"(trace: nothing committed)"
                )
                ct_state = verdict.state_bits
                ct_zone = act.zone
                if verdict.connection is not None:
                    ct_mark = verdict.connection.mark
            elif isinstance(act, odp.Recirc):
                lines.append(f" -> recirc({act.recirc_id:#x})")
                return (data, key.in_port, act.recirc_id,
                        ct_state, ct_zone, ct_mark, (0, 0, 0))
            elif isinstance(act, odp.SetField):
                lines.append(f" -> set_field {act.field}={act.value}")
                data = set_field(data, act.field, act.value)
            elif isinstance(act, odp.PushVlan):
                lines.append(f" -> push_vlan vid={act.vid} pcp={act.pcp}")
                data = do_push_vlan(data, act.vid, act.pcp)
            elif isinstance(act, odp.PopVlan):
                lines.append(" -> pop_vlan")
                data = do_pop_vlan(data)
            elif isinstance(act, odp.TunnelPush):
                lines.append(
                    f" -> tnl_push(vni={act.config.vni}) "
                    f"out port {act.out_port}"
                )
            elif isinstance(act, odp.TunnelPop):
                try:
                    ttype, vni, src, dst, inner = decapsulate(data)
                except ValueError:
                    lines.append(" -> tnl_pop: malformed outer header, drop")
                    return None
                lines.append(
                    f" -> tnl_pop({ttype}, vni={vni}) "
                    f"re-enters on vport {act.vport}"
                )
                return (inner, act.vport, 0, 0, 0, 0, (vni, src, dst))
            elif isinstance(act, odp.Meter):
                lines.append(
                    f" -> meter({act.meter_id}) "
                    f"(trace: token bucket not charged)"
                )
            elif isinstance(act, odp.Userspace):
                lines.append(f" -> userspace({act.reason})")
            elif isinstance(act, odp.Trunc):
                lines.append(f" -> trunc(max_len={act.max_len})")
                data = data[: act.max_len]
            else:
                lines.append(f" -> {act!r}")
        return None

    # ------------------------------------------------------------------
    def ofproto_list_bridges(self) -> str:
        lines = []
        for name, bridge in self.vs.ofproto.bridges.items():
            lines.append(
                f"{name}: {len(bridge.ports)} ports, "
                f"{bridge.n_flows():,} flows in "
                f"{sum(1 for t in bridge.tables.values() if len(t))} tables"
            )
        return "\n".join(lines)


def _fmt_field(name: str, value: int) -> str:
    """One flow field, rendered the way an operator reads it."""
    if name in ("nw_src", "nw_dst", "tun_src", "tun_dst"):
        return f"{name}={int_to_ip(value & 0xFFFFFFFF)}"
    if name in ("eth_src", "eth_dst"):
        return f"{name}={value:012x}"
    return f"{name}={value}"


def _render_masked_key(key: FlowKey, mask) -> str:
    parts = []
    for name, value, bits in zip(FlowKey._fields, key, mask):
        if not bits:
            continue
        parts.append(_fmt_field(name, value & bits))
    return ",".join(parts) or "(match-all)"


def _render_flow(key: FlowKey) -> str:
    """The ``Flow:`` line of ofproto/trace: recirc_id and in_port
    always, then every non-zero field."""
    parts = [f"recirc_id={key.recirc_id:#x}", f"in_port={key.in_port}"]
    if key.ct_state:
        parts.append(f"ct_state={_render_ct_state(key.ct_state)}")
    for name, value in zip(FlowKey._fields, key):
        if not value or name in ("in_port", "recirc_id", "ct_state"):
            continue
        parts.append(_fmt_field(name, value))
    return ",".join(parts)


def _render_match(match: Match) -> str:
    if match.is_catchall():
        return "(match any)"
    parts = []
    for name, (value, bits) in sorted(match.fields().items()):
        if bits == _FULL_MASK[name]:
            parts.append(_fmt_field(name, value))
        else:
            parts.append(f"{name}={value:#x}/{bits:#x}")
    return ",".join(parts)


def _render_of_actions(actions) -> str:
    """OpenFlow actions in the flow-dump idiom operators know."""
    if not actions:
        return "drop"
    out = []
    for act in actions:
        if isinstance(act, ofp.OutputAction):
            out.append(f"output:{act.port}")
        elif isinstance(act, ofp.GotoTable):
            out.append(f"goto_table:{act.table_id}")
        elif isinstance(act, ofp.Resubmit):
            out.append(f"resubmit(,{act.table_id})")
        elif isinstance(act, ofp.SetFieldAction):
            out.append(f"set_field:{act.value}->{act.field}")
        elif isinstance(act, ofp.CtAction):
            inner = [f"zone={act.zone}"]
            if act.commit:
                inner.append("commit")
            if act.table is not None:
                inner.append(f"table={act.table}")
            if act.nat_dst is not None:
                ip, port = act.nat_dst
                inner.append(f"nat(dst={int_to_ip(ip)}:{port})")
            out.append(f"ct({','.join(inner)})")
        elif isinstance(act, ofp.PushVlanAction):
            out.append(f"push_vlan:{act.vid}")
        elif isinstance(act, ofp.PopVlanAction):
            out.append("pop_vlan")
        elif isinstance(act, ofp.PopTunnel):
            out.append(f"pop_tunnel:{act.tunnel_port}")
        elif isinstance(act, ofp.MeterAction):
            out.append(f"meter:{act.meter_id}")
        elif isinstance(act, ofp.ControllerAction):
            out.append(f"controller({act.reason})")
        elif isinstance(act, ofp.DropAction):
            out.append("drop")
        else:
            out.append(act.__class__.__name__.lower())
    return ",".join(out)


_CT_STATE_NAMES = (
    (CT_NEW, "new"),
    (CT_ESTABLISHED, "est"),
    (CT_RELATED, "rel"),
    (CT_REPLY, "rpl"),
    (CT_INVALID, "inv"),
    (CT_TRACKED, "trk"),
)


def _render_ct_state(bits: int) -> str:
    names = [name for bit, name in _CT_STATE_NAMES if bits & bit]
    return "|".join(names) if names else "none"


def _render_actions(actions) -> str:
    if not actions:
        return "drop"
    out = []
    for act in actions:
        name = act.__class__.__name__
        if name == "Output":
            out.append(str(act.port_no))
        elif name == "Recirc":
            out.append(f"recirc({act.recirc_id})")
        elif name == "Ct":
            commit = ",commit" if act.commit else ""
            out.append(f"ct(zone={act.zone}{commit})")
        elif name == "TunnelPush":
            out.append(f"tnl_push(vni={act.config.vni})")
        else:
            out.append(name.lower())
    return ",".join(out)
