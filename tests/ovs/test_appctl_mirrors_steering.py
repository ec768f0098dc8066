"""ovs-appctl introspection, port mirrors (ERSPAN), and XDP steering."""

import pytest

from repro.afxdp.driver import AfxdpDriver, AfxdpOptions
from repro.hosts.host import Host
from repro.kernel.netdev import NetDevice, Wire
from repro.net.addresses import MacAddress, ip_to_int
from repro.net.builder import make_tcp_packet, make_udp_packet
from repro.net.flow import extract_flow, mask_from_fields
from repro.net.tunnel import decapsulate
from repro.ovs import odp
from repro.ovs.appctl import OvsAppctl
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import CtAction, OutputAction
from repro.ovs.ofproto import MirrorConfig
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.pmd import PmdThread
from repro.sim.cpu import CpuCategory, ExecContext

from .conftest import mac, udp_pkt


@pytest.fixture
def world():
    host = Host("ops", n_cpus=4)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    p1, a1 = vs.add_sim_port("br0", "p1")
    p2, a2 = vs.add_sim_port("br0", "p2")
    of = OpenFlowConnection(vs.bridge("br0"))
    ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
    emc = ExactMatchCache()
    return host, vs, of, (p1, a1), (p2, a2), ctx, emc


class TestAppctl:
    def test_dpctl_show(self, world):
        host, vs, of, (p1, a1), (p2, a2), ctx, emc = world
        of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
        vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx, emc)
        out = OvsAppctl(vs).dpctl_show()
        assert "port" in out and "p1" in out and "p2" in out
        assert "flows: 1" in out

    def test_dump_flows_shows_stats_and_actions(self, world):
        host, vs, of, (p1, a1), (p2, a2), ctx, emc = world
        of.add_flow(0, 10, Match(in_port=p1.ofport),
                    [CtAction(zone=9, commit=True, table=2)])
        of.add_flow(2, 1, Match(), [OutputAction("p2")])
        vs.dpif_netdev.process_batch([make_tcp_packet(
            mac(1), mac(2), "10.0.0.1", "10.0.0.2", flags=2)],
            p1.dp_port_no, ctx, emc)
        out = OvsAppctl(vs).dpctl_dump_flows()
        assert "ct(zone=9,commit)" in out
        assert "recirc(" in out
        assert "packets:" in out

    def test_dump_flows_empty(self, world):
        host, vs, _of, _p1, _p2, _ctx, _emc = world
        assert "no flows" in OvsAppctl(vs).dpctl_dump_flows()

    def test_pmd_stats(self, world):
        host, vs, of, (p1, a1), (p2, a2), ctx, emc = world
        of.add_flow(0, 10, Match(), [OutputAction("p2")])
        pmd = PmdThread(vs.dpif_netdev, host.cpu, core=1)
        pmd.add_rxq(vs.dpif_netdev.ports[p1.dp_port_no], 0)
        a1.inject([udp_pkt() for _ in range(32)])
        pmd.run_until_idle()
        out = OvsAppctl(vs).pmd_stats_show([pmd])
        assert "core 1" in out
        assert "packets processed: 32" in out

    def test_dump_conntrack(self, world):
        host, vs, of, (p1, a1), (p2, a2), ctx, emc = world
        of.add_flow(0, 10, Match(), [CtAction(zone=7, commit=True, table=2)])
        of.add_flow(2, 1, Match(), [OutputAction("p2")])
        vs.dpif_netdev.process_batch([make_tcp_packet(
            mac(1), mac(2), "10.0.0.1", "10.0.0.2", flags=2)],
            p1.dp_port_no, ctx, emc)
        out = OvsAppctl(vs).dpctl_dump_conntrack()
        assert "tcp,orig=(10.0.0.1:" in out
        assert "zone=7" in out

    def test_list_bridges(self, world):
        host, vs, of, _p1, _p2, _ctx, _emc = world
        of.add_flow(0, 1, Match(), [])
        out = OvsAppctl(vs).ofproto_list_bridges()
        assert "br0" in out and "ports" in out

    def test_appctl_on_kernel_datapath(self):
        host = Host("k", n_cpus=2)
        vs = host.install_ovs("system")
        vs.add_bridge("br0")
        dev = NetDevice("p1", mac(1))
        host.kernel.init_ns.register(dev)
        dev.set_up()
        vs.add_system_port("br0", dev)
        out = OvsAppctl(vs).dpctl_show()
        assert "system@" in out
        assert "p1" in out

    def test_kernel_dpctl_show_masks_line(self):
        """``ovs-dpctl show``'s third line: subtables probed over all
        lookups, and per lookup — how deep the linear mask walk goes."""
        host = Host("k", n_cpus=2)
        vs = host.install_ovs("system")
        vs.add_bridge("br0")
        devs = [NetDevice(name, mac(i)) for i, name in enumerate(("p1", "p2"))]
        for dev in devs:
            host.kernel.init_ns.register(dev)
            dev.set_up()
            vs.add_system_port("br0", dev)
        dp = vs.dpif_netlink.dp
        appctl = OvsAppctl(vs)
        ctx = ExecContext(host.cpu, 0, CpuCategory.SOFTIRQ)
        key = extract_flow(udp_pkt().data, in_port=dp.port_no("p1"))
        by_port = mask_from_fields(in_port=-1)
        dp.flow_put(key, by_port, [odp.Output(dp.port_no("p2"))])
        for _ in range(8):
            devs[0].deliver(udp_pkt(), ctx)
        assert appctl.dpctl_show() == "\n".join((
            f"system@{dp.name}:",
            "  lookups: hit:8 missed:0 lost:0",
            "  flows: 1",
            "  masks: hit:8 total:1 hit/pkt:1.00",
            "  port 1: br0 (internal) rx:0 tx:0",
            "  port 2: p1 (netdev) rx:8 tx:0",
            "  port 3: p2 (netdev) rx:0 tx:8",
        ))
        # A second mask ahead of the hitting one: every lookup now
        # probes it first, misses, and hits on the second probe.
        dp.flow_del(key, by_port)
        dp.flow_put(key._replace(in_port=99),
                    mask_from_fields(in_port=-1, recirc_id=-1),
                    [odp.Output(dp.port_no("p2"))])
        dp.flow_put(key, by_port, [odp.Output(dp.port_no("p2"))])
        for _ in range(8):
            devs[0].deliver(udp_pkt(), ctx)
        out = appctl.dpctl_show()
        assert "  lookups: hit:16 missed:0 lost:0" in out
        assert "  masks: hit:24 total:2 hit/pkt:1.50" in out


class TestMirrors:
    def test_span_mirror_copies_selected_traffic(self, world):
        host, vs, of, (p1, a1), (p2, a2), ctx, emc = world
        span, span_adapter = vs.add_sim_port("br0", "span0")
        vs.bridge("br0").mirrors.append(
            MirrorConfig("m0", output_port="span0",
                         select_src_ports=("p1",)))
        of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
        of.add_flow(0, 10, Match(in_port=p2.ofport), [OutputAction("p1")])
        pkt = udp_pkt()
        vs.dpif_netdev.process_batch([pkt], p1.dp_port_no, ctx, emc)
        assert len(a2.take_transmitted()) == 1
        mirrored = span_adapter.take_transmitted()
        assert len(mirrored) == 1
        assert mirrored[0].data == pkt.data
        # Traffic from p2 is not selected.
        vs.dpif_netdev.process_batch([udp_pkt()], p2.dp_port_no, ctx, emc)
        assert span_adapter.take_transmitted() == []

    def test_dst_selected_mirror(self, world):
        host, vs, of, (p1, a1), (p2, a2), ctx, emc = world
        _span, span_adapter = vs.add_sim_port("br0", "span0")
        vs.bridge("br0").mirrors.append(
            MirrorConfig("m0", output_port="span0",
                         select_dst_ports=("p2",)))
        of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
        vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx, emc)
        assert len(span_adapter.take_transmitted()) == 1

    def test_erspan_mirror_encapsulates(self, world):
        """The ERSPAN case study as a working feature: mirror to an
        ERSPAN tunnel port, get GRE/ERSPAN-encapsulated copies."""
        host, vs, of, (p1, a1), (p2, a2), ctx, emc = world
        nic = host.add_nic("uplink0")
        host.kernel.init_ns.add_address("uplink0", "192.168.1.1", 24)
        host.kernel.init_ns.neighbors.update(
            ip_to_int("192.168.1.9"), mac(99), nic.ifindex, permanent=True)
        up_port, up_adapter = vs.add_sim_port("br0", "up0")
        vs.dpif_netdev.ports[up_port.dp_port_no].device = nic
        vs.add_tunnel_port("br0", "erspan0", "erspan", "192.168.1.9",
                           key=100)
        vs.bridge("br0").mirrors.append(
            MirrorConfig("analyzer", output_port="erspan0",
                         select_src_ports=("p1",)))
        of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
        pkt = udp_pkt()
        vs.dpif_netdev.process_batch([pkt], p1.dp_port_no, ctx, emc)
        [outer] = up_adapter.take_transmitted()
        ttype, session, _src, dst, inner = decapsulate(outer.data)
        assert ttype == "erspan"
        assert session == 100
        assert dst == ip_to_int("192.168.1.9")
        assert inner == pkt.data


class TestMgmtSteering:
    def _nic(self):
        nic_owner = Host("steer", n_cpus=2)
        nic = nic_owner.add_nic("ens1")
        peer = NetDevice("peer", MacAddress.local(0x9999))
        peer.set_up()
        peer.set_rx_handler(lambda pkt, ctx: None)
        Wire(nic, peer)
        return nic_owner, nic

    def test_mgmt_tcp_reaches_kernel_stack(self):
        host, nic = self._nic()
        host.kernel.init_ns.stack.attach(nic)
        host.kernel.init_ns.add_address("ens1", "10.0.0.1", 24)
        driver = AfxdpDriver(nic, AfxdpOptions(
            mgmt_steering_ports=(22, 6653)))
        driver.setup()
        # After the driver attaches, stack attachment was replaced; the
        # XDP PASS path re-delivers into whatever the rx_handler is.
        host.kernel.init_ns.stack.attach(nic)
        ssh = make_tcp_packet(MacAddress.local(1), nic.mac,
                              "10.0.0.9", "10.0.0.1", 1234, 22, flags=0x02)
        nic.host_receive(ssh)
        host.kernel.service_nic(nic)
        assert host.kernel.init_ns.stack.counters.get("TcpInSegs", 0) == 1
        # Ordinary datapath traffic still lands in the XSK.
        udp = make_udp_packet(MacAddress.local(1), nic.mac,
                              "10.0.0.9", "10.0.0.1", 5, 5)
        nic.host_receive(udp)
        host.kernel.service_nic(nic)
        assert driver.sockets[0].rx_delivered == 1
