#!/usr/bin/env python3
"""An NSX hypervisor deployment on the AF_XDP datapath (§4, §5.1).

Plays out the paper's integration story end to end:

1. the NSX agent configures OVS over OVSDB and installs a
   production-grade rule set over OpenFlow (Table 3's shape, scaled
   down for demo speed — pass ``--full`` for all 103,302 rules);
2. a packet between two VIFs walks the distributed-firewall pipeline:
   classification -> conntrack -> forwarding, recirculating between
   passes exactly as §5.1 describes;
3. traffic to a remote hypervisor is Geneve-encapsulated using routes
   and neighbors mirrored from the kernel over Netlink;
4. an OVS upgrade is a process restart: caches and userspace conntrack
   flush and repopulate — no kernel module, no reboot (§6).

Run:  python examples/nsx_deployment.py [--full]
"""

import sys

from repro.hosts.host import Host
from repro.net.addresses import int_to_ip
from repro.net.builder import make_tcp_packet, make_udp_packet
from repro.net.tunnel import decapsulate
from repro.nsx.agent import NsxAgent
from repro.ovs.emc import ExactMatchCache
from repro.sim.cpu import CpuCategory, ExecContext


def main() -> None:
    full_scale = "--full" in sys.argv
    target_rules = None if full_scale else 12_000

    # -- hypervisor + NSX agent ---------------------------------------------
    host = Host("hypervisor-1", n_cpus=16)
    nic = host.add_nic("ens1")
    host.kernel.init_ns.add_address("ens1", "192.168.1.1", 16)
    vs = host.install_ovs("netdev")
    vs.add_bridge(NsxAgent.INTEGRATION_BRIDGE)
    uplink, uplink_adapter = vs.add_sim_port(NsxAgent.INTEGRATION_BRIDGE,
                                             "uplink")
    vs.dpif_netdev.ports[uplink.dp_port_no].device = nic

    agent = NsxAgent(host.vswitchd)
    vif_ports, adapters = {}, {}
    for vif in agent.topo.vifs[:4]:
        port, adapter = vs.add_sim_port(NsxAgent.INTEGRATION_BRIDGE,
                                        f"vif{vif.vif_id}")
        vif_ports[vif.vif_id] = port
        adapters[vif.vif_id] = adapter
    stats = agent.deploy(uplink, vif_ports, target_rules=target_rules)
    print("NSX deployment (Table 3 shape):")
    print(f"  Geneve tunnels     {stats.n_tunnels}")
    print(f"  VMs                {stats.n_vms} (x2 interfaces)")
    print(f"  OpenFlow rules     {stats.n_rules:,}"
          + ("" if full_scale else "  (scaled; --full for 103,302)"))
    print(f"  OpenFlow tables    {stats.n_tables}")
    print(f"  matching fields    {stats.n_match_fields}")

    ctx = ExecContext(host.cpu, 1, CpuCategory.USER)
    emc = ExactMatchCache()
    dpif = vs.dpif_netdev

    # -- VIF to VIF through the distributed firewall -------------------------
    vifs = [v for v in agent.topo.vifs if v.vif_id in vif_ports]
    src, dst = next(
        (a, b) for a in vifs for b in vifs
        if a is not b and a.logical_switch == b.logical_switch
    )
    syn = make_tcp_packet(src.mac, dst.mac, src.ip, dst.ip,
                          40000, 443, flags=0x02)
    dpif.process_batch([syn], dpif.port_no(f"vif{src.vif_id}"), ctx, emc)
    print(f"\nVIF {src.vif_id} -> VIF {dst.vif_id} "
          f"({int_to_ip(src.ip)} -> {int_to_ip(dst.ip)}):")
    print(f"  delivered: {len(adapters[dst.vif_id].take_transmitted())} "
          f"packet(s) after {dpif.stats.passes} datapath passes "
          "(classify -> conntrack -> forward)")
    conns = dpif.conntrack.connections()
    print(f"  firewall committed {len(conns)} connection(s) "
          f"in zone {conns[0].zone}")

    # -- VIF to a remote hypervisor: Geneve over the underlay ---------------
    remote = next(rm for rm in agent.topo.remote_macs
                  if rm.logical_switch == src.logical_switch)
    pkt = make_udp_packet(src.mac, remote.mac, src.ip, src.ip ^ 0x7,
                          5000, 5001)
    dpif.process_batch([pkt], dpif.port_no(f"vif{src.vif_id}"), ctx, emc)
    [outer] = uplink_adapter.take_transmitted()
    ttype, vni, outer_src, outer_dst, _inner = decapsulate(outer.data)
    vtep = agent.topo.vteps[remote.vtep_index]
    print(f"\nVIF {src.vif_id} -> remote MAC behind VTEP {vtep.index}:")
    print(f"  encapsulated in {ttype} vni={vni}, "
          f"{int_to_ip(outer_src)} -> {int_to_ip(outer_dst)}")
    print("  (route + ARP resolved from the Netlink-mirrored kernel tables)")

    # -- upgrading OVS is just a restart -------------------------------------
    megaflows_before = len(dpif.megaflows)
    vs.restart(emcs=(emc,))
    print(f"\nOVS restart (upgrade/bugfix, §6): megaflows "
          f"{megaflows_before} -> {len(dpif.megaflows)}, conntrack "
          f"-> {len(dpif.conntrack)}; OpenFlow rules resync "
          f"({vs.bridge('br-int').n_flows():,} still installed). "
          "No kernel module. No reboot.")
    # Traffic recovers immediately: the first packet re-populates caches.
    ack = make_tcp_packet(src.mac, dst.mac, src.ip, dst.ip,
                          40000, 443, flags=0x02)
    dpif.process_batch([ack], dpif.port_no(f"vif{src.vif_id}"), ctx, emc)
    print(f"  first post-restart packet delivered: "
          f"{len(adapters[dst.vif_id].take_transmitted())} packet(s)")


if __name__ == "__main__":
    main()
