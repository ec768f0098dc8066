"""Observational equivalence: the datapath walk vs the per-packet oracle.

``DpifNetdev`` classifies every pass — a received burst at depth 0, a
recirculated or decapsulated packet at ``depth + 1`` — in one walk,
``_classify_execute_burst``, with a cross-burst flow cache in front of
the EMC.  :class:`ReferenceDpif` keeps the per-packet walk that walk
replaced, ``_process_one``, verbatim apart from the deleted dp-JIT
dispatch: no flow cache, one ``extract_flow`` and one EMC probe per
pass.  Its walk loops ``_process_one``, so recirculation re-enters the
oracle through the shared action executor.

The two must agree in every observable: transmitted bytes, pipeline
stats, cache counters, megaflow entries and their stats, the *exact*
virtual-time floats (local time and per-(cpu, category) busy time —
float addition is order-sensitive, so equality here proves the charge
sequence itself is identical), and the trace ledger.  Hypothesis drives
random bursts through twin datapaths under random fault plans, with an
EMC either deliberately tiny, so displacement churn keeps invalidating
the flow cache, or large enough that the flow cache replays.  The upcall's outcomes cover single and multi output, drops,
failed translations, conntrack + recirculation, plain recirculation,
tunnel push and pop (and a pop that fails to decapsulate), and the
set-field / VLAN / trunc / meter / userspace chains.
"""

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.kernel.conntrack import CT_ESTABLISHED
from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.net.flow import extract_flow, mask_from_fields
from repro.net.packet import Packet
from repro.net.tunnel import GENEVE_PORT, TunnelConfig, encapsulate
from repro.ovs import odp
from repro.ovs.dpif_netdev import MAX_RECIRC_PASSES, DpifNetdev
from repro.ovs.emc import ExactMatchCache
from repro.ovs.netdevs import SimAdapter
from repro.sim import faults, trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.faults import FaultPlan, FaultRule
from repro.telemetry.drops import DropReason


class ReferenceDpif(DpifNetdev):
    """The per-packet walk, kept as the datapath walk's oracle."""

    def _classify_execute_burst(self, pkts, ctx, emc, tx_batches, depth,
                                statses):
        for pkt in pkts:
            self._process_one(pkt, ctx, emc, tx_batches, depth, statses)

    def _process_one(self, pkt, ctx, emc, tx_batches, depth, statses):
        costs = DEFAULT_COSTS
        if depth > MAX_RECIRC_PASSES:
            for s in statses:
                s.dropped += 1
            telemetry.drop_event(DropReason.DP_RECIRC_LIMIT,
                                 octets=len(pkt.data))
            return
        for s in statses:
            s.passes += 1
        if depth == 0:
            # The reference path's observation hook; recirculated passes
            # (depth > 0) were already observed on their first pass.
            tele = telemetry.ACTIVE
            if tele is not None:
                tele.observe("dpif", pkt, ctx)
        ctx.charge(costs.flow_extract_ns, label="flow_extract")
        key = extract_flow(
            pkt.data,
            in_port=pkt.meta.in_port,
            recirc_id=pkt.meta.recirc_id,
            ct_state=pkt.meta.ct_state,
            ct_zone=pkt.meta.ct_zone,
            ct_mark=pkt.meta.ct_mark,
            tun_id=pkt.meta.tunnel.vni,
            tun_src=pkt.meta.tunnel.remote_ip,
            tun_dst=pkt.meta.tunnel.local_ip,
        )
        # EMC entries reference the backing megaflow (as in real
        # dpif-netdev), so EMC hits keep the flow's stats and used-time
        # fresh for the revalidator.
        entry, probed = emc.lookup_cell(key, ctx)
        if entry is not None:
            for s in statses:
                s.emc_hits += 1
            entry.touch(self.now_ns_fn(), len(pkt))
        else:
            entry = self.megaflows.lookup_entry(key, ctx,
                                                now_ns=self.now_ns_fn(),
                                                nbytes=len(pkt))
            if entry is not None:
                for s in statses:
                    s.megaflow_hits += 1
            else:
                entry = self._upcall(key, ctx, statses)
                if entry is None:
                    for s in statses:
                        s.dropped += 1
                    return
            self._emc_insert(emc, key, entry, ctx, probed)
        self._execute(pkt, entry.actions, ctx, emc, tx_batches, depth,
                      statses)


#: Low byte 1..24 selects the upcall outcome below.
DSTS = [f"10.1.0.{i}" for i in range(1, 25)]
MASK = mask_from_fields(in_port=-1, eth_type=-1, nw_dst=-1, tp_dst=-1,
                        recirc_id=-1, ct_state=-1, tun_id=-1)
#: The tunnel vport a decapsulated packet re-enters on.
VPORT = 99
TUN = TunnelConfig(
    tunnel_type="geneve",
    local_ip=0xC0A80001,
    remote_ip=0xC0A80002,
    vni=7,
    local_mac=MacAddress.local(0x90),
    remote_mac=MacAddress.local(0x91),
)

#: Fault-plan makers (plans are stateful: one fresh instance per run).
PLAN_MAKERS = [
    lambda seed: None,
    lambda seed: FaultPlan(seed=seed, emc_insert_inv_prob=2,
                           upcall_queue_cap=2),
    lambda seed: FaultPlan(seed=seed, flow_limit=3),
    lambda seed: FaultPlan(
        seed=seed,
        rules=(FaultRule(point="dp.upcall_overload", rate=0.3),),
        emc_insert_inv_prob=3,
    ),
]


def _make_world(cls, emc_entries):
    dpif = cls()
    rx = SimAdapter()
    out_a = SimAdapter()
    out_b = SimAdapter()
    p_rx = dpif.add_port("rx", rx)
    a = dpif.add_port("a", out_a).port_no
    b = dpif.add_port("b", out_b).port_no
    # A tiny meter bucket, never refilled (virtual now stays 0), so the
    # admission check sees both verdicts within one run.
    dpif.meters.add(1, rate_kbps=1000, burst_kb=1)

    def upcall(key, ctx):
        if key.in_port == VPORT:
            # Decapsulated: conntrack, then a second pass out of b.
            if key.recirc_id:
                return ((odp.Output(b),), MASK)
            return ((odp.Ct(zone=2, commit=True), odp.Recirc(2)), MASK)
        if key.recirc_id == 1:
            port = a if key.ct_state & CT_ESTABLISHED else b
            return ((odp.Output(port),), MASK)
        if key.recirc_id:
            return ((odp.Output(a),), MASK)
        if key.tp_dst == GENEVE_PORT:
            return ((odp.TunnelPop(VPORT),), MASK)
        last = key.nw_dst & 0xFF
        if last % 13 == 0:
            return None  # translation failure -> drop
        if last % 11 == 0:
            return ((), MASK)  # explicit drop (empty chain)
        if last % 17 == 0:
            return ((odp.TunnelPop(VPORT),), MASK)  # not encapsulated
        if last % 7 == 0:
            return ((odp.TunnelPush(TUN, b),), MASK)
        if last % 10 == 0:
            return ((odp.Recirc(3),), MASK)
        if last % 5 == 0:
            return ((odp.Ct(zone=1, commit=True), odp.Recirc(1)), MASK)
        if last % 9 == 0:
            return ((odp.SetField("nw_ttl", 9), odp.PushVlan(5, 1),
                     odp.Output(a)), MASK)
        if last % 8 == 0:
            return ((odp.PushVlan(3, 1), odp.PopVlan(), odp.Trunc(64),
                     odp.Userspace("sample"), odp.Output(b)), MASK)
        if last % 6 == 0:
            return ((odp.Meter(1), odp.Output(a)), MASK)
        if last % 3 == 0:
            # Two outputs: the generic executor, not the inlined case.
            return ((odp.Output(a), odp.Output(b)), MASK)
        if last % 2 == 0:
            return ((odp.Output(b),), MASK)
        return ((odp.Output(a),), MASK)

    dpif.upcall_fn = upcall
    cpu = CpuModel(2)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    emc = ExactMatchCache(n_entries=emc_entries)
    return dpif, ctx, cpu, emc, p_rx, (out_a, out_b)


def _packets(burst):
    pkts = []
    for d, s, encap in burst:
        pkt = make_udp_packet(
            MacAddress.local(1), MacAddress.local(2),
            "192.168.7.1", DSTS[d], 1000 + s, 2000,
        )
        pkts.append(Packet(encapsulate(TUN, pkt.data)) if encap else pkt)
    return pkts


def _observe(bursts, cls, plan=None, emc_entries=4):
    """A 4-slot EMC constantly displaces with many live flows,
    exercising the flow cache's stale-slot paths."""
    dpif, ctx, cpu, emc, p_rx, outs = _make_world(cls, emc_entries)
    with contextlib.ExitStack() as stack:
        if plan is not None:
            stack.enter_context(faults.injecting(plan))
        rec = stack.enter_context(trace.recording())
        for burst in bursts:
            dpif.process_batch(_packets(burst), p_rx.port_no, ctx, emc)
    s = dpif.stats
    return {
        "tx": tuple(
            tuple(p.data for p in o.take_transmitted()) for o in outs
        ),
        "local_time_ns": ctx.local_time_ns,
        "busy": tuple(
            cpu.busy_ns(cpu=c, category=cat)
            for c in range(cpu.n_cpus) for cat in CpuCategory
        ),
        "stats": (s.packets, s.passes, s.emc_hits, s.megaflow_hits,
                  s.upcalls, s.failed_upcalls, s.lost, s.dropped),
        "emc": (emc.hits, emc.misses, emc.insertions, emc.occupancy),
        "dpcls": (dpif.megaflows.hits, dpif.megaflows.misses,
                  len(dpif.megaflows), dpif.megaflows.n_masks,
                  dpif.megaflows.version),
        "megaflows": tuple((e.key, e.actions, e.n_packets, e.n_bytes)
                           for e in dpif.megaflows.entries()),
        "ledger": rec.ledger(),
        "cpu_charged_ns": rec.cpu_charged_ns,
    }


burst_st = st.lists(
    st.tuples(st.integers(0, len(DSTS) - 1), st.integers(0, 7),
              st.booleans()),
    min_size=1, max_size=16,
)
bursts_st = st.lists(burst_st, min_size=1, max_size=8)
plan_st = st.tuples(st.integers(0, len(PLAN_MAKERS) - 1),
                    st.integers(0, 3))
#: A thrashing EMC, and one that holds every pass shape so the flow
#: cache replays.
emc_st = st.sampled_from([4, 64])


@settings(deadline=None, max_examples=50)
@given(bursts=bursts_st, plan=plan_st, emc_entries=emc_st)
def test_batched_path_is_observationally_equivalent(bursts, plan,
                                                    emc_entries):
    maker, seed = PLAN_MAKERS[plan[0]], plan[1]
    ref = _observe(bursts, ReferenceDpif, maker(seed), emc_entries)
    bat = _observe(bursts, DpifNetdev, maker(seed), emc_entries)
    assert bat == ref


@settings(deadline=None, max_examples=25)
@given(bursts=bursts_st, plan=plan_st)
def test_batched_path_is_deterministic(bursts, plan):
    maker, seed = PLAN_MAKERS[plan[0]], plan[1]
    assert (_observe(bursts, DpifNetdev, maker(seed))
            == _observe(bursts, DpifNetdev, maker(seed)))


def test_repeated_identical_packets_share_one_extraction():
    """Later passes of a repeated shape replay the flow cache — still
    charged per packet and per pass (stats count every pass), through
    plain recirculation, conntrack + recirculation and tunnel pop."""
    # dst index 1 -> Output(b); 9 -> Recirc(3); 4 -> ct + Recirc(1).
    burst = [(1, 0, False), (9, 0, False), (4, 0, False), (1, 0, True)]
    bursts = [burst * 4] * 3
    ref = _observe(bursts, ReferenceDpif, emc_entries=64)
    bat = _observe(bursts, DpifNetdev, emc_entries=64)
    assert bat == ref
    # packets, passes, EMC hits: each of ten pass shapes misses once
    # (a conntrack pass is new once, then established).
    assert bat["stats"][:3] == (48, 96, 86)


def test_single_and_multi_output_actions_agree():
    # dst index 2 -> low byte 3 -> two outputs; index 0 -> one.
    bursts = [[(0, 0, False), (2, 0, False), (0, 1, False), (2, 1, False)],
              [(2, 0, False), (0, 0, False)]]
    assert (_observe(bursts, ReferenceDpif)
            == _observe(bursts, DpifNetdev))


def test_failed_upcalls_drop_identically():
    # dst index 12 -> low byte 13 -> upcall returns None.
    bursts = [[(12, 0, False), (12, 1, False), (0, 0, False)]]
    ref = _observe(bursts, ReferenceDpif)
    bat = _observe(bursts, DpifNetdev)
    assert bat == ref
    assert bat["stats"][7] == 2  # dropped
