"""End-to-end tests of the userspace datapath (Figure 7b's structure)."""

import pytest

from repro.experiments.world import build_world
from repro.kernel.conntrack import CT_ESTABLISHED, CT_NEW
from repro.kernel.kernel import Kernel
from repro.net.addresses import ip_to_int
from repro.ovs.match import Match
from repro.ovs.ofactions import (
    CtAction,
    GotoTable,
    OutputAction,
    SetFieldAction,
)
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.emc import ExactMatchCache
from repro.ovs.vswitchd import VSwitchd
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.traffic.trex import FlowSpec, TrexStream

from .conftest import mac, tcp_pkt, udp_pkt


@pytest.fixture
def world():
    cpu = CpuModel(8)
    kernel = Kernel(cpu)
    vs = VSwitchd(kernel, datapath_type="netdev")
    vs.add_bridge("br0")
    p1, a1 = vs.add_sim_port("br0", "p1")
    p2, a2 = vs.add_sim_port("br0", "p2")
    ctx = ExecContext(cpu, 1, CpuCategory.USER)
    emc = ExactMatchCache()
    of = OpenFlowConnection(vs.bridge("br0"))
    return vs, of, (p1, a1), (p2, a2), ctx, emc, cpu


def _process(vs, adapter, port, pkts, ctx, emc):
    vs.dpif_netdev.process_batch(list(pkts), port.dp_port_no, ctx, emc)


def test_simple_forwarding(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
    _process(vs, a1, p1, [udp_pkt()], ctx, emc)
    assert len(a2.transmitted) == 1


def test_table_miss_drops(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    _process(vs, a1, p1, [udp_pkt()], ctx, emc)
    assert a2.transmitted == []
    assert vs.dpif_netdev.stats.dropped == 1


def test_cache_hierarchy(world):
    """First packet upcalls; second hits EMC; a same-megaflow different
    5-tuple hits the megaflow cache."""
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    of.add_flow(0, 10, Match(nw_dst=ip_to_int("10.0.0.2")),
                [OutputAction("p2")])
    _process(vs, a1, p1, [udp_pkt()], ctx, emc)
    stats = vs.dpif_netdev.stats
    assert stats.upcalls == 1
    _process(vs, a1, p1, [udp_pkt()], ctx, emc)
    assert stats.emc_hits == 1
    assert stats.upcalls == 1
    # New source port: EMC miss (exact key differs) but megaflow hit,
    # because the rule only examined nw_dst (+ always-on fields).
    _process(vs, a1, p1, [udp_pkt(sport=4321)], ctx, emc)
    assert stats.megaflow_hits == 1
    assert stats.upcalls == 1
    assert len(a2.transmitted) == 3


def test_megaflow_mask_respects_probed_fields(world):
    """A rule that matched on tp_dst must unwildcard tp_dst in the
    megaflow: a different tp_dst misses and re-upcalls."""
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    of.add_flow(0, 10, Match(nw_proto=17, tp_dst=2000),
                [OutputAction("p2")])
    of.add_flow(0, 5, Match(), [])  # default drop
    _process(vs, a1, p1, [udp_pkt(dport=2000)], ctx, emc)
    assert vs.dpif_netdev.stats.upcalls == 1
    _process(vs, a1, p1, [udp_pkt(dport=2001)], ctx, emc)
    assert vs.dpif_netdev.stats.upcalls == 2
    assert len(a2.transmitted) == 1  # second flow hit the drop rule


def test_goto_table_pipeline(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    of.add_flow(0, 10, Match(), [GotoTable(1)])
    of.add_flow(1, 10, Match(nw_proto=17), [OutputAction("p2")])
    _process(vs, a1, p1, [udp_pkt()], ctx, emc)
    assert len(a2.transmitted) == 1


def test_set_field_applied(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    new_ip = ip_to_int("192.168.9.9")
    of.add_flow(0, 10, Match(), [SetFieldAction("nw_dst", new_ip),
                                 OutputAction("p2")])
    _process(vs, a1, p1, [udp_pkt()], ctx, emc)
    assert a2.transmitted[0].data[30:34] == new_ip.to_bytes(4, "big")


def test_ct_recirculation_firewall(world):
    """The §5.1 three-pass shape on the userspace datapath."""
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    of.add_flow(0, 10, Match(nw_proto=6),
                [CtAction(zone=5, commit=True, table=2)])
    # Second pass: allow NEW and ESTABLISHED in zone 5.
    of.add_flow(2, 10, Match(ct_state=(CT_NEW, CT_NEW), ct_zone=5),
                [OutputAction("p2")])
    of.add_flow(2, 10,
                Match(ct_state=(CT_ESTABLISHED, CT_ESTABLISHED), ct_zone=5),
                [OutputAction("p2")])
    syn = tcp_pkt(flags=0x02)
    _process(vs, a1, p1, [syn], ctx, emc)
    assert len(a2.transmitted) == 1
    assert len(vs.dpif_netdev.conntrack) == 1
    # Each packet took two datapath passes.
    assert vs.dpif_netdev.stats.passes == 2
    # Established traffic flows too.
    ack = tcp_pkt(flags=0x10)
    _process(vs, a1, p1, [ack], ctx, emc)
    assert len(a2.transmitted) == 2


def test_ct_passes_hit_emc_in_steady_state(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    of.add_flow(0, 10, Match(nw_proto=6),
                [CtAction(zone=5, commit=True, table=2)])
    of.add_flow(2, 10,
                Match(ct_state=(CT_ESTABLISHED, CT_ESTABLISHED), ct_zone=5),
                [OutputAction("p2")])
    of.add_flow(2, 5, Match(), [OutputAction("p2")])
    syn = tcp_pkt(flags=0x02)
    _process(vs, a1, p1, [syn], ctx, emc)
    # SYN: both passes upcalled (NEW-state megaflow installed).
    assert vs.dpif_netdev.stats.upcalls == 2
    _process(vs, a1, p1, [tcp_pkt(flags=0x10)], ctx, emc)
    # First ACK: pass 1 hits the megaflow; pass 2 upcalls once more
    # because its conntrack state is ESTABLISHED, not NEW.
    assert vs.dpif_netdev.stats.upcalls == 3
    for _ in range(4):
        _process(vs, a1, p1, [tcp_pkt(flags=0x10)], ctx, emc)
    # Steady state: no more upcalls; both passes served from EMC.
    assert vs.dpif_netdev.stats.upcalls == 3
    assert vs.dpif_netdev.stats.emc_hits >= 8


def test_restart_clears_userspace_state(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    of.add_flow(0, 10, Match(nw_proto=6),
                [CtAction(zone=1, commit=True, table=2)])
    of.add_flow(2, 1, Match(), [OutputAction("p2")])
    _process(vs, a1, p1, [tcp_pkt(flags=0x02)], ctx, emc)
    assert len(vs.dpif_netdev.conntrack) == 1
    assert len(vs.dpif_netdev.megaflows) > 0
    assert emc.occupancy > 0
    vs.restart(emcs=[emc])
    assert len(vs.dpif_netdev.conntrack) == 0
    assert len(vs.dpif_netdev.megaflows) == 0
    assert emc.occupancy == 0
    assert vs.bridge("br0").n_flows() > 0  # OpenFlow rules resync


def test_restart_sends_the_next_packet_to_the_slow_path():
    """The PMDs' EMCs die with the process: after a restart the next
    packet of a known flow misses, upcalls and reinstalls its megaflow
    instead of forwarding on a flushed decision."""
    bench = build_world("afxdp_zc", "P2P")
    stream = TrexStream(FlowSpec(n_flows=10), frame_len=64, seed=1)
    bench.drive(stream, 200)
    dpif = bench.vs.dpif_netdev
    assert (len(dpif.megaflows), dpif.stats.upcalls) == (1, 1)
    emcs = [pmd.emc for pmd in bench.pmds]
    bench.vs.restart(emcs=emcs)
    assert len(dpif.megaflows) == 0
    assert all(emc.occupancy == 0 and not emc.flow_cache for emc in emcs)
    hits = dpif.stats.emc_hits
    bench.nic_in.host_receive(stream.next_packet())
    bench.pump()
    assert (len(dpif.megaflows), dpif.stats.upcalls) == (1, 2)
    assert dpif.stats.emc_hits == hits


def test_internal_port_reaches_host_stack(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc, _cpu = world
    kernel = vs.kernel
    br0_tap = kernel.init_ns.device("br0")
    kernel.init_ns.stack.attach(br0_tap)
    kernel.init_ns.add_address("br0", "172.16.0.1", 24)
    server = kernel.init_ns.stack.udp_socket(ip="172.16.0.1", port=53)
    of.add_flow(0, 10, Match(), [OutputAction("LOCAL")])
    pkt = udp_pkt(src="172.16.0.9", dst="172.16.0.1", dport=53)
    # Rewrite dst MAC to the tap's so the stack accepts it.
    data = br0_tap.mac.to_bytes() + pkt.data[6:]
    _process(vs, a1, p1, [pkt.with_data(data)], ctx, emc)
    assert server.recv() is not None


def test_upcall_much_cheaper_than_kernel_upcall(world, cpu):
    from repro.sim.costs import DEFAULT_COSTS

    vs, of, (p1, a1), (p2, a2), ctx, emc, world_cpu = world
    of.add_flow(0, 10, Match(), [OutputAction("p2")])
    world_cpu.reset()
    _process(vs, a1, p1, [udp_pkt()], ctx, emc)
    # The userspace miss path exists but costs far less than the 25 us
    # netlink round trip the kernel datapath pays.
    assert world_cpu.busy_ns() < DEFAULT_COSTS.upcall_ns


def test_ovsdb_rows_created(world):
    vs, _of, (p1, _a1), (_p2, _a2), _ctx, _emc, _cpu = world
    assert vs.ovsdb.find("Bridge", name="br0")
    assert vs.ovsdb.find("Interface", name="p1")
    assert vs.ovsdb.find("Port", name="p2")
