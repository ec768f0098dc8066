"""ofproto/trace narration, metrics/show, coverage rates — and the
read-only contract: a mid-run trace changes no subsequent ledger byte."""

import pytest

from repro.hosts.host import Host
from repro.ovs.appctl import OvsAppctl
from repro.ovs.match import Match
from repro.ovs.ofactions import CtAction, OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.pmd import PmdThread
from repro.sim import trace
from repro.sim.profile import MetricsSampler

from .conftest import udp_pkt


@pytest.fixture
def world():
    host = Host("trace", n_cpus=4)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    p1, a1 = vs.add_sim_port("br0", "p1")
    p2, a2 = vs.add_sim_port("br0", "p2")
    of = OpenFlowConnection(vs.bridge("br0"))
    of.add_flow(0, 10, Match(), [OutputAction("p2")])
    return host, vs, (p1, a1), (p2, a2)


def _pmd(host, vs, p1):
    pmd = PmdThread(vs.dpif_netdev, host.cpu, core=1)
    pmd.add_rxq(vs.dpif_netdev.ports[p1.dp_port_no], 0)
    return pmd


# ---------------------------------------------------------------------------
# Narration.
# ---------------------------------------------------------------------------
def test_trace_cold_packet_narrates_upcall(world):
    host, vs, (p1, _a1), _p2 = world
    out = OvsAppctl(vs).ofproto_trace(udp_pkt(), "p1")
    assert out.splitlines()[0] == "Pass 1"
    assert "Flow: recirc_id=0x0,in_port=2" in out
    assert "nw_src=10.0.0.1,nw_dst=10.0.0.2" in out
    assert "EMC: (no per-PMD cache supplied; skipped)" in out
    assert "Megaflow: miss (0 subtable(s) probed)" in out
    assert "Upcall: translating through the OpenFlow tables" in out
    assert 'bridge("br0")' in out
    assert " 0. priority 10, (match any)" in out
    assert "    actions: output:p2" in out
    assert "(trace: not installed)" in out
    assert "Datapath actions: 3" in out
    assert "-> output to port 3 (p2)" in out


def test_trace_warm_packet_reports_cache_hits(world):
    host, vs, (p1, a1), _p2 = world
    pmd = _pmd(host, vs, p1)
    a1.inject([udp_pkt() for _ in range(4)])
    pmd.run_until_idle()
    appctl = OvsAppctl(vs)
    # With the PMD's cache supplied: first-level hit.
    out = appctl.ofproto_trace(udp_pkt(), "p1", emc=pmd.emc)
    assert "EMC: hit" in out
    assert "Upcall" not in out
    # Without it: the trace falls through to the shared megaflow cache.
    out = appctl.ofproto_trace(udp_pkt(), "p1")
    assert "Megaflow: hit after 1 subtable probe(s)" in out
    assert "Upcall" not in out


def test_trace_follows_conntrack_recirculation(world):
    host, vs, (p1, _a1), _p2 = world
    of = OpenFlowConnection(vs.bridge("br0"))
    of.add_flow(0, 20, Match(), [CtAction(zone=1, commit=True, table=1)])
    of.add_flow(1, 10, Match(), [OutputAction("p2")])
    out = OvsAppctl(vs).ofproto_trace(udp_pkt(), "p1")
    assert "Pass 1" in out and "Pass 2" in out
    assert "actions: ct(zone=1,commit,table=1)" in out
    assert "-> ct(zone=1,commit): verdict new|trk " \
           "(trace: nothing committed)" in out
    assert "-> recirc(0x1)" in out
    # Pass 2 sees the conntrack verdict in its flow.
    assert "recirc_id=0x1,in_port=2,ct_state=new|trk" in out
    assert "-> output to port 3 (p2)" in out


def test_trace_unknown_port_and_kernel_datapath():
    host = Host("k", n_cpus=2)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    appctl = OvsAppctl(vs)
    assert "no datapath port" in appctl.ofproto_trace(udp_pkt(), "nope")
    host2 = Host("k2", n_cpus=2)
    vs2 = host2.install_ovs("system")
    assert "needs the userspace datapath" in \
        OvsAppctl(vs2).ofproto_trace(udp_pkt(), "p1")


def test_trace_is_deterministic(world):
    host, vs, (p1, _a1), _p2 = world
    appctl = OvsAppctl(vs)
    assert (appctl.ofproto_trace(udp_pkt(), "p1")
            == appctl.ofproto_trace(udp_pkt(), "p1"))


# ---------------------------------------------------------------------------
# The read-only/rollback contract.
# ---------------------------------------------------------------------------
def _state_snapshot(vs, pmd):
    dpif = vs.dpif_netdev
    br = vs.ofproto.bridges["br0"]
    return {
        "emc": (pmd.emc.hits, pmd.emc.misses, pmd.emc.insertions,
                pmd.emc.occupancy, tuple(pmd.emc._slots)),
        "megaflow": (dpif.megaflows.hits, dpif.megaflows.misses,
                     len(dpif.megaflows), dpif.megaflows.version),
        "megaflow_pkts": sorted(
            (e.n_packets, e.n_bytes) for e in dpif.megaflows.entries()),
        "conntrack": len(dpif.conntrack),
        "translations": vs.ofproto.n_translations,
        "recirc": (vs.ofproto._next_recirc,
                   dict(vs.ofproto._recirc_ids)),
        "tables": {
            tid: (t.n_lookups, t.n_matches, len(t))
            for tid, t in br.tables.items()
        },
        "rule_pkts": [
            (r.table_id, r.priority, r.n_packets)
            for t in br.tables.values() for r in t.rules()
        ],
        "dpif_stats": (dpif.stats.packets, dpif.stats.upcalls,
                       dpif.stats.emc_hits, dpif.stats.megaflow_hits),
    }


def test_trace_mid_run_leaves_every_ledger_byte_unchanged(world):
    """The acceptance gate: run the same workload twice, once with
    ofproto/trace calls interleaved between bursts, and require the
    trace ledger, cache state, OpenFlow counters and recirc-id space to
    come out byte-identical."""

    def run(with_trace_calls: bool):
        host = Host("trace", n_cpus=4)
        vs = host.install_ovs("netdev")
        vs.add_bridge("br0")
        p1, a1 = vs.add_sim_port("br0", "p1")
        vs.add_sim_port("br0", "p2")
        of = OpenFlowConnection(vs.bridge("br0"))
        of.add_flow(0, 20, Match(), [CtAction(zone=1, commit=True,
                                              table=1)])
        of.add_flow(1, 10, Match(), [OutputAction("p2")])
        pmd = _pmd(host, vs, p1)
        appctl = OvsAppctl(vs)
        with trace.recording() as rec:
            for burst in range(3):
                a1.inject([udp_pkt() for _ in range(8)])
                pmd.run_until_idle()
                if with_trace_calls:
                    appctl.ofproto_trace(udp_pkt(), "p1", emc=pmd.emc)
                    appctl.ofproto_trace(udp_pkt(), "p1")
        return rec.ledger(), _state_snapshot(vs, pmd)

    plain_ledger, plain_state = run(False)
    traced_ledger, traced_state = run(True)
    assert traced_ledger == plain_ledger
    assert traced_state == plain_state


def test_trace_rolls_back_openflow_counters(world):
    host, vs, (p1, _a1), _p2 = world
    before = _state_snapshot(vs, _pmd(host, vs, p1))
    OvsAppctl(vs).ofproto_trace(udp_pkt(), "p1")
    after = _state_snapshot(vs, _pmd(host, vs, p1))
    assert after == before


# ---------------------------------------------------------------------------
# fastpath/show.
# ---------------------------------------------------------------------------
def test_fastpath_show_lists_layers_and_jit_counts(world):
    from repro.ebpf import jit
    from repro.ebpf.programs import drop_program
    from repro.ebpf.xdp import XdpContext

    host, vs, _p1, _p2 = world
    appctl = OvsAppctl(vs)
    out = appctl.fastpath_show()
    assert "batch-classify: on" in out
    assert "wall-clock memos: on" in out
    assert "ebpf-jit: on" in out

    jit.reset_stats()
    assert "(no eBPF programs run yet)" in appctl.fastpath_show()
    program = drop_program()
    XdpContext(program).run(bytes(60))
    out = appctl.fastpath_show()
    assert program.name in out
    st = jit.stats_for(program.name)
    assert st.jit_runs == 1 and st.compiled
    with jit.disabled():
        assert "ebpf-jit: off" in appctl.fastpath_show()


def test_fastpath_show_lists_dpjit_counts(world):
    import re

    from repro.ovs import dpjit

    host, vs, _p1, _p2 = world
    appctl = OvsAppctl(vs)
    out = appctl.fastpath_show()
    assert "dp-jit: on" in out
    m = re.search(r"dp-jit megaflows: compiled (\d+)\s+declined (\d+)"
                  r"\s+invalidated (\d+)\s+dispatched (\d+)", out)
    assert m, out
    s = dpjit.STATS
    assert tuple(int(x) for x in m.groups()) == (
        s.compiled, s.declined, s.invalidated, s.dispatched)
    with dpjit.disabled():
        assert "dp-jit: off" in appctl.fastpath_show()


# ---------------------------------------------------------------------------
# metrics/show and coverage/show.
# ---------------------------------------------------------------------------
def test_metrics_show_renders_attached_sampler(world):
    host, vs, (p1, a1), _p2 = world
    pmd = _pmd(host, vs, p1)
    appctl = OvsAppctl(vs)
    assert appctl.metrics_show() == "(no metrics sampler attached)"
    sampler = MetricsSampler(interval_ns=1000.0)
    with trace.recording() as rec:
        rec.sampler = sampler
        a1.inject([udp_pkt() for _ in range(32)])
        pmd.run_until_idle()
        out = appctl.metrics_show()
    assert out.startswith(f"metrics sampler: {len(sampler.samples)} "
                          f"samples, interval 1000 virtual ns")
    assert "latest sample (t=" in out
    assert "dp.rx_packets" in out
    assert "ns per packet (streaming" in out
    # Explicit sampler works without an active recorder.
    assert appctl.metrics_show(sampler=sampler) == out


def test_coverage_show_has_rate_columns(world):
    host, vs, (p1, a1), _p2 = world
    pmd = _pmd(host, vs, p1)
    appctl = OvsAppctl(vs)
    with trace.recording() as rec:
        a1.inject([udp_pkt() for _ in range(4)])
        pmd.run_until_idle()
    out = appctl.coverage_show(recorder=rec)
    header = out.splitlines()[0]
    assert "Event" in header and "Total" in header and "Avg/s" in header
    emc_line = next(l for l in out.splitlines() if l.startswith("emc.hit"))
    count = rec.counters["emc.hit"]
    rate = count / (rec.cpu_charged_ns / 1e9)
    assert f"{count:>12d}" in emc_line
    assert f"{rate:>13.1f}/s" in emc_line


def test_coverage_show_rate_na_without_charges():
    rec = trace.TraceRecorder()
    rec.count("some.event", 3)
    host = Host("h", n_cpus=2)
    vs = host.install_ovs("netdev")
    out = OvsAppctl(vs).coverage_show(recorder=rec)
    assert "n/a" in out
