import gc
import hashlib
import sys
import tracemalloc

import pytest

from repro.hosts.host import Host
from repro.net.addresses import int_to_ip, ip_to_int
from repro.nsx.agent import NsxAgent
from repro.nsx.ruleset import (
    T_DFW_BASE, T_L3, TARGET_RULES, PortMap, collect_stats, install_ruleset)
from repro.nsx.topology import build_topology
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import CtAction
from repro.ovs.ofproto import Bridge
from repro.sim.cpu import CpuCategory, ExecContext
from repro.sim.rng import make_rng


class TestTopology:
    def test_table3_scale(self):
        topo = build_topology()
        assert topo.n_vms == 15
        assert len(topo.vifs) == 30  # two interfaces per VM
        assert len(topo.vteps) == 291

    def test_deterministic(self):
        a, b = build_topology(), build_topology()
        assert a.vifs == b.vifs
        assert a.vteps == b.vteps
        assert a.remote_macs == b.remote_macs

    def test_vif_ips_in_switch_subnet(self):
        topo = build_topology()
        for vif in topo.vifs:
            subnet = topo.subnets[vif.logical_switch]
            assert vif.ip & 0xFFFFFF00 == subnet

    def test_vtep_ips_unique(self):
        topo = build_topology()
        ips = [v.ip for v in topo.vteps]
        assert len(set(ips)) == len(ips)


def _hypervisor():
    """A host with ``br-int`` on the userspace datapath and its uplink."""
    host = Host("hv1", n_cpus=16)
    nic = host.add_nic("ens1")
    host.kernel.init_ns.add_address("ens1", "192.168.1.1", 16)
    vs = host.install_ovs("netdev")
    vs.add_bridge(NsxAgent.INTEGRATION_BRIDGE)
    uplink, uplink_adapter = vs.add_sim_port(NsxAgent.INTEGRATION_BRIDGE, "up0")
    vs.dpif_netdev.ports[uplink.dp_port_no].device = nic
    return host, vs, uplink, uplink_adapter


@pytest.fixture(scope="module")
def deployed():
    """A full NSX deployment on the userspace datapath (scaled rule count
    for test speed; the benchmark uses the full 103,302)."""
    host, vs, uplink, uplink_adapter = _hypervisor()
    agent = NsxAgent(vs)
    vif_ports = {}
    adapters = {}
    for vif in agent.topo.vifs[:4]:
        port, adapter = vs.add_sim_port(
            NsxAgent.INTEGRATION_BRIDGE, f"vif{vif.vif_id}")
        vif_ports[vif.vif_id] = port
        adapters[vif.vif_id] = adapter
    stats = agent.deploy(uplink, vif_ports, target_rules=9_000)
    return host, vs, agent, uplink_adapter, adapters, stats


class TestDeployment:
    def test_tunnel_count(self, deployed):
        _host, vs, agent, _up, _ad, stats = deployed
        assert stats.n_tunnels == 291
        bridge = vs.bridge("br-int")
        assert sum(1 for p in bridge.ports.values()
                   if p.kind == "tunnel") == 291

    def test_table_count_is_40(self, deployed):
        _host, _vs, _agent, _up, _ad, stats = deployed
        assert stats.n_tables == 40

    def test_match_fields_is_31(self, deployed):
        _host, _vs, _agent, _up, _ad, stats = deployed
        assert stats.n_match_fields == 31

    def test_rule_count_exact(self, deployed):
        _host, _vs, _agent, _up, _ad, stats = deployed
        assert stats.n_rules == 9_000

    def test_full_scale_constant(self):
        assert TARGET_RULES == 103_302


#: sha256 of :func:`_canonical_dump` of the default full-size deployment,
#: recorded at commit 2bb53d9 - before matches went sparse, the ACL nets
#: were computed arithmetically, action tuples were shared per zone and
#: ``add_flow`` stopped round-tripping a ``FlowMod``.
FULL_INSTALL_SHA256 = (
    "f8650a094bac744a6146cb0a96a046cf844b4aeabe54bf8fedd03a9a747121e3")


def _canonical_dump(bridge):
    """Every rule of every table, sorted, as text: table id, priority,
    sorted fields (as ints), actions, cookie - preceded per table by its
    subtable masks in classifier order, since that order decides which
    masks a lookup probes."""
    for table_id in sorted(bridge.tables):
        table = bridge.tables[table_id]
        masks = [s.mask for s in table._subtables.values()]
        yield f"table {table_id} masks {masks}"
        yield from sorted(
            f"{r.table_id} {r.priority} "
            f"{sorted((n, int(v), int(m)) for n, (v, m) in r.match.fields().items())} "
            f"{r.actions!r} {r.cookie}"
            for r in table.rules())


def test_full_size_install_is_the_rule_set_it_always_was():
    """The 103,302-rule pipeline, rule for rule and subtable for subtable,
    through ``NsxAgent.deploy`` as the benchmark and table3 build it."""
    _host, vs, uplink, _adapter = _hypervisor()
    stats = NsxAgent(vs).deploy(uplink, {})
    assert (stats.n_rules, stats.n_tables, stats.n_match_fields,
            stats.n_tunnels) == (103_302, 40, 31, 291)
    digest = hashlib.sha256()
    for line in _canonical_dump(vs.bridge(NsxAgent.INTEGRATION_BRIDGE)):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == FULL_INSTALL_SHA256


def _bare_install():
    """``(bridge, topology, port map)`` for ``install_ruleset`` alone."""
    topo = build_topology()
    ports = PortMap(
        1, "up0",
        {v.vif_id: (100 + v.vif_id, f"vif{v.vif_id}") for v in topo.vifs},
        {v.index: (1000 + v.index, f"geneve{v.index}") for v in topo.vteps})
    return Bridge("br-int"), topo, ports


def _install_footprint(n_rules):
    """``(GC-tracked objects, tracemalloc bytes)`` one install keeps alive."""
    bridge, topo, ports = _bare_install()
    gc.collect()
    n_objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        assert install_ruleset(bridge, topo, ports,
                               target_rules=n_rules) == n_rules
        gc.collect()
        n_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return len(gc.get_objects()) - n_objects, n_bytes


def test_rule_footprint_stays_sparse():
    """What one more rule costs, counted rather than timed.

    The 3,000-rule smoke set is 43 % structural rules that own their
    action objects, so the per-rule cost that scales to 103,302 is read
    off the 3,000 ACL rules between a 3,000- and a 6,000-rule install:

    ====================  ================  =================
    per added rule        commit 2bb53d9    sparse matches
    ====================  ================  =================
    GC-tracked objects    7.0               3.0 (Rule, Match, bucket list)
    tracemalloc bytes     1,854             438
    ====================  ================  =================

    (Whole smoke set, per rule: 6.28 -> 4.97 objects, 1,555 -> 474 B.)
    A dict, a dense tuple or a per-rule action list coming back trips the
    bounds below - 4 objects, and 60 % of the old bytes - instead of
    quietly returning the full build to 229 MB.
    """
    small_objects, small_bytes = _install_footprint(3_000)
    objects, n_bytes = _install_footprint(6_000)
    assert (objects - small_objects) / 3_000 <= 4
    assert (n_bytes - small_bytes) / 3_000 <= 0.60 * 1_854
    assert small_bytes / 3_000 <= 0.60 * 1_555


def _install_calls(n_rules):
    """Python-level calls (``sys.setprofile`` "call" events) one install
    makes: an exact count, the same on every run and host."""
    bridge, topo, ports = _bare_install()
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        install_ruleset(bridge, topo, ports, target_rules=n_rules)
    finally:
        sys.setprofile(None)
    return calls


def test_an_acl_rule_costs_few_calls():
    """The work of one more synthetic ACL, counted rather than timed:
    the 3,000 ACLs between a 3,000- and a 6,000-rule install.

    Rule at a time (a keyword ``Match``, ``add_flow`` -> ``Bridge`` ->
    ``FlowTable`` -> ``_Subtable``, five ``randrange`` draws two frames
    deep) an ACL cost 20.8 calls; built by a compiled match signature,
    drawn inline and installed one batch per table it cost 3.7, and 2.7
    once ``Rule`` stopped re-tupling its actions in ``__post_init__``
    (the constructor, ``Rule.__init__``, the subtable insert).  A
    per-rule call coming back trips the bound.
    """
    small = _install_calls(3_000)
    assert (_install_calls(6_000) - small) / 3_000 <= 3.5


def test_acl_draws_are_randrange_draws():
    """The ACL loop inlines ``randrange(256)`` and ``randrange(1024,
    65535)`` as CPython's rejection loop over ``getrandbits``: every ACL
    it installs is the one ``randrange`` draws, seed for seed."""
    for seed in (1, 2, 3, 4):
        bridge, topo, ports = _bare_install()
        install_ruleset(bridge, topo, ports, target_rules=3_000, seed=seed)
        installed = sorted(
            (rule.table_id, tuple(sorted(rule.match.fields().items())),
             rule.actions)
            for table_id in range(T_DFW_BASE, T_DFW_BASE + len(topo.subnets))
            for rule in bridge.table(table_id).rules()
            if rule.priority == 300)
        rng = make_rng("nsx-ruleset", seed)
        drawn = []
        for i in range(len(installed)):
            ls = i % len(topo.subnets)
            proto = 6 if rng.random() < 0.7 else 17
            octets = [rng.randrange(256) for _ in range(4)]
            port = rng.randrange(1024, 65535)
            src = ip_to_int(f"10.{octets[0]}.{octets[1]}.0")
            dst = ip_to_int(f"10.{octets[2]}.{octets[3]}.0")
            allow = rng.random() < 0.5
            match = Match(metadata=ls, eth_type=0x0800, nw_proto=proto,
                          nw_src=(src, 0xFFFFFF00), nw_dst=(dst, 0xFFFFFF00),
                          tp_dst=port)
            drawn.append((T_DFW_BASE + ls,
                          tuple(sorted(match.fields().items())),
                          (CtAction(zone=100 + ls, commit=True, table=T_L3),)
                          if allow else ()))
        assert installed == sorted(drawn)


class TestDataplaneThroughNsxPipeline:
    def _vif(self, agent, vif_id):
        return next(v for v in agent.topo.vifs if v.vif_id == vif_id)

    def test_vif_to_vif_same_switch(self, deployed):
        host, vs, agent, _up, adapters, _stats = deployed
        # Find two deployed VIFs on the same logical switch.
        vifs = [self._vif(agent, vid) for vid in adapters]
        pairs = [
            (a, b) for a in vifs for b in vifs
            if a is not b and a.logical_switch == b.logical_switch
        ]
        src, dst = pairs[0]
        from repro.net.builder import make_udp_packet

        pkt = make_udp_packet(src.mac, dst.mac, src.ip, dst.ip, 1000, 2000)
        ctx = ExecContext(host.cpu, 1, CpuCategory.USER)
        emc = ExactMatchCache()
        port_no = vs.dpif_netdev.port_no(f"vif{src.vif_id}")
        vs.dpif_netdev.process_batch([pkt], port_no, ctx, emc)
        out = adapters[dst.vif_id].take_transmitted()
        assert len(out) == 1
        # The DFW committed a connection in the switch's zone.
        zones = {c.zone for c in vs.dpif_netdev.conntrack.connections()}
        assert (100 + src.logical_switch) in zones
        # Two datapath passes: before and after conntrack (§5.1).
        assert vs.dpif_netdev.stats.passes >= 2

    def test_vif_to_remote_mac_encapsulates(self, deployed):
        host, vs, agent, uplink_adapter, adapters, _stats = deployed
        vif_id = next(iter(adapters))
        src = self._vif(agent, vif_id)
        remote = next(rm for rm in agent.topo.remote_macs
                      if rm.logical_switch == src.logical_switch)
        from repro.net.builder import make_udp_packet
        from repro.net.tunnel import decapsulate

        pkt = make_udp_packet(src.mac, remote.mac, src.ip,
                              src.ip + 100, 1000, 2000)
        ctx = ExecContext(host.cpu, 2, CpuCategory.USER)
        emc = ExactMatchCache()
        port_no = vs.dpif_netdev.port_no(f"vif{src.vif_id}")
        uplink_adapter.take_transmitted()
        vs.dpif_netdev.process_batch([pkt], port_no, ctx, emc)
        out = uplink_adapter.take_transmitted()
        assert len(out) == 1
        ttype, vni, outer_src, outer_dst, inner = decapsulate(out[0].data)
        assert ttype == "geneve"
        vtep = agent.topo.vteps[remote.vtep_index]
        assert outer_dst == vtep.ip
        assert vni == vtep.vni
        assert inner == pkt.data

    def test_spoofed_source_dropped(self, deployed):
        host, vs, agent, _up, adapters, _stats = deployed
        vif_id = next(iter(adapters))
        src = self._vif(agent, vif_id)
        from repro.net.builder import make_udp_packet
        from repro.net.addresses import MacAddress

        spoofed = make_udp_packet(MacAddress.local(0xBAD), src.mac,
                                  "1.2.3.4", int_to_ip(src.ip))
        ctx = ExecContext(host.cpu, 3, CpuCategory.USER)
        emc = ExactMatchCache()
        port_no = vs.dpif_netdev.port_no(f"vif{src.vif_id}")
        dropped_before = vs.dpif_netdev.stats.dropped
        vs.dpif_netdev.process_batch([spoofed], port_no, ctx, emc)
        assert vs.dpif_netdev.stats.dropped == dropped_before + 1

    def test_inbound_tunnel_to_vif(self, deployed):
        host, vs, agent, _up, adapters, _stats = deployed
        vif_id = next(iter(adapters))
        dst = self._vif(agent, vif_id)
        vtep = agent.topo.vteps[0]
        from repro.net.addresses import MacAddress
        from repro.net.builder import make_udp_packet
        from repro.net.tunnel import TunnelConfig, encapsulate
        from repro.net.packet import Packet

        inner = make_udp_packet(MacAddress.local(0x77), dst.mac,
                                int_to_ip(dst.ip ^ 0x40), int_to_ip(dst.ip),
                                53, 53)
        cfg = TunnelConfig(
            tunnel_type="geneve",
            local_ip=vtep.ip,
            remote_ip=ip_to_int("192.168.1.1"),
            vni=5000 + dst.logical_switch,
            local_mac=MacAddress.local(0x88),
            remote_mac=host.nics["ens1"].mac,
        )
        outer = Packet(encapsulate(cfg, inner.data))
        ctx = ExecContext(host.cpu, 4, CpuCategory.USER)
        emc = ExactMatchCache()
        uplink_no = vs.dpif_netdev.port_no("up0")
        adapters[vif_id].take_transmitted()
        vs.dpif_netdev.process_batch([outer], uplink_no, ctx, emc)
        out = adapters[vif_id].take_transmitted()
        assert len(out) == 1
        assert out[0].data == inner.data
