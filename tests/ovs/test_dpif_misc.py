"""dpif-netdev odds and ends: port lifecycle, odd actions, drops."""

import pytest

from repro.hosts.host import Host
from repro.ovs import odp
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import ControllerAction, OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.sim.cpu import CpuCategory, ExecContext

from .conftest import udp_pkt


@pytest.fixture
def world():
    host = Host("misc", n_cpus=2)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    p1, a1 = vs.add_sim_port("br0", "p1")
    p2, a2 = vs.add_sim_port("br0", "p2")
    ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
    return host, vs, (p1, a1), (p2, a2), ctx, ExactMatchCache()


def test_port_lifecycle(world):
    host, vs, (p1, _a1), _p2, _ctx, _emc = world
    dpif = vs.dpif_netdev
    assert dpif.port_no("p1") == p1.dp_port_no
    dpif.del_port("p1")
    with pytest.raises(KeyError):
        dpif.port_no("p1")
    with pytest.raises(KeyError):
        dpif.del_port("p1")
    with pytest.raises(ValueError):
        dpif.add_port("p2", object())  # duplicate name


def test_truncate_action(world):
    host, vs, (p1, a1), (p2, a2), ctx, emc = world
    key_pkt = udp_pkt()
    from repro.net.flow import EXACT_MASK, extract_flow

    key = extract_flow(key_pkt.data, in_port=p1.dp_port_no)
    vs.dpif_netdev.megaflows.insert(
        key, EXACT_MASK, (odp.Trunc(20), odp.Output(p2.dp_port_no)))
    vs.dpif_netdev.process_batch([key_pkt], p1.dp_port_no, ctx, emc)
    [out] = a2.take_transmitted()
    assert len(out.data) == 20


def test_controller_action_charges_slowpath(world):
    host, vs, (p1, a1), _p2, ctx, emc = world
    of = OpenFlowConnection(vs.bridge("br0"))
    of.add_flow(0, 10, Match(), [ControllerAction("dfw-log")])
    before = host.cpu.busy_ns()
    vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx, emc)
    from repro.sim.costs import DEFAULT_COSTS

    assert host.cpu.busy_ns() - before >= DEFAULT_COSTS.userspace_slowpath_ns


def test_output_to_removed_port_counts_drop(world):
    host, vs, (p1, a1), (p2, a2), ctx, emc = world
    of = OpenFlowConnection(vs.bridge("br0"))
    of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
    vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx, emc)
    assert len(a2.take_transmitted()) == 1
    # Hot-unplug p2; the cached flow still points at its port number.
    vs.dpif_netdev.del_port("p2")
    dropped = vs.dpif_netdev.stats.dropped
    vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx, emc)
    assert vs.dpif_netdev.stats.dropped == dropped + 1


def test_malformed_tunnel_pop_drops(world):
    host, vs, (p1, a1), _p2, ctx, emc = world
    from repro.net.flow import EXACT_MASK, extract_flow

    pkt = udp_pkt()  # not encapsulated at all
    key = extract_flow(pkt.data, in_port=p1.dp_port_no)
    vs.dpif_netdev.megaflows.insert(key, EXACT_MASK,
                                    (odp.TunnelPop(vport=99),))
    dropped = vs.dpif_netdev.stats.dropped
    vs.dpif_netdev.process_batch([pkt], p1.dp_port_no, ctx, emc)
    assert vs.dpif_netdev.stats.dropped == dropped + 1


def test_recirc_depth_guard(world):
    host, vs, (p1, a1), _p2, ctx, emc = world
    # A self-recirculating flow must terminate at MAX_RECIRC_PASSES.
    from repro import telemetry
    from repro.net.flow import extract_flow, mask_from_fields
    from repro.ovs.dpif_netdev import MAX_RECIRC_PASSES
    from repro.telemetry import IpfixConfig, Telemetry
    from repro.telemetry.drops import DropReason

    pkt = udp_pkt()
    for rid in range(12):
        key = extract_flow(pkt.data, in_port=p1.dp_port_no, recirc_id=rid)
        vs.dpif_netdev.megaflows.insert(
            key, mask_from_fields(in_port=-1, recirc_id=-1),
            (odp.Recirc(rid + 1),))
    stats = vs.dpif_netdev.stats
    # Drops are tallied by an exporter observing elsewhere, so the
    # session charges nothing in the datapath.
    session = Telemetry(ipfix=IpfixConfig(point="kernel"))
    with telemetry.monitoring(session):
        # The first burst installs nine EMC entries, the second hits
        # them and the third replays every pass from the flow cache.
        for emc_hits, megaflow_hits in ((0, 9), (9, 0), (9, 0)):
            before = (stats.passes, stats.dropped, stats.emc_hits,
                      stats.megaflow_hits, stats.upcalls)
            vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx,
                                         emc)
            after = (stats.passes, stats.dropped, stats.emc_hits,
                     stats.megaflow_hits, stats.upcalls)
            # Passes at depth 0..MAX_RECIRC_PASSES, then one drop.
            assert [b - a for a, b in zip(before, after)] == [
                MAX_RECIRC_PASSES + 1, 1, emc_hits, megaflow_hits, 0]
    assert session.ipfix.drop_packets == {DropReason.DP_RECIRC_LIMIT: 3}
    assert a1.take_transmitted() == []


def test_main_cli_arguments():
    from repro.__main__ import EXPERIMENTS, main

    assert main(["--list"]) == 0
    assert main(["definitely-not-an-experiment"]) == 2
    assert set(EXPERIMENTS) >= {"fig2", "table2", "table3", "fig9",
                                "fig10", "fig11", "table5", "fig12",
                                "fig8", "fig1"}
