"""The NSX agent: configures OVS through OVSDB + OpenFlow (§4, Figure 7).

"The NSX agent uses OVSDB ... to create two bridges: an integration
bridge for connecting virtual interfaces among VMs, and an underlay
bridge for tunnel endpoint and inter-host uplink traffic.  Then it
transforms the NSX network policies into flow rules and uses the
OpenFlow protocol to install them into the bridges."

Here the tunnel ports and the uplink live on the integration bridge and
underlay classification occupies table 0 — one datapath either way, the
same number of lookups per packet as the paper's description.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.addresses import MacAddress
from repro.nsx.ruleset import PortMap, RulesetStats, collect_stats, install_ruleset
from repro.nsx.topology import LogicalTopology, build_topology
from repro.ovs.ofproto import OfPort
from repro.ovs.vswitchd import VSwitchd
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext


class NsxAgent:
    INTEGRATION_BRIDGE = "br-int"

    def __init__(self, vswitchd: VSwitchd,
                 topology: Optional[LogicalTopology] = None) -> None:
        self.vs = vswitchd
        self.topo = topology or build_topology()
        self.stats: Optional[RulesetStats] = None

    def deploy(
        self,
        uplink: OfPort,
        vif_ports: Dict[int, OfPort],
        local_vtep_ip: str = "192.168.1.1",
        target_rules: Optional[int] = None,
        neighbor_macs: Optional[Dict[int, MacAddress]] = None,
    ) -> RulesetStats:
        """Configure tunnels and install the rule set on ``br-int``.

        ``uplink`` and every port in ``vif_ports`` must already exist on
        the integration bridge.  Missing VIFs in ``vif_ports`` get the
        uplink as a harmless stand-in (their rules still count; a real
        agent similarly programs rules for not-yet-plugged VIFs).
        """
        bridge = self.vs.bridge(self.INTEGRATION_BRIDGE)
        # Tunnel ports for every remote VTEP, plus control-plane priming:
        # the kernel must know how to route/ARP each endpoint, because
        # translation resolves encap through the Netlink replicas (§4).
        ns = self.vs.kernel.init_ns
        tunnels: Dict[int, "tuple[int, str]"] = {}
        uplink_dev = None
        if self.vs.dpif_netdev is not None:
            uplink_dev = self.vs.dpif_netdev.port_device(uplink.dp_port_no)
        elif self.vs.dpif_netlink is not None:
            uplink_dev = self.vs.dpif_netlink.port_device(uplink.dp_port_no)
        for vtep in self.topo.vteps:
            name = f"geneve{vtep.index}"
            port = self.vs.add_tunnel_port(
                self.INTEGRATION_BRIDGE, name, "geneve",
                vtep.ip, key=vtep.vni,
            )
            tunnels[vtep.index] = (port.ofport, name)
            if uplink_dev is not None:
                mac = None
                if neighbor_macs is not None:
                    mac = neighbor_macs.get(vtep.ip)
                if mac is None:
                    mac = MacAddress.local(0x30000 + vtep.index)
                ns.neighbors.update(vtep.ip, mac, uplink_dev.ifindex,
                                    permanent=True)

        # Unplugged VIFs get distinct placeholder ofports: the agent
        # programs rules for them ahead of VM arrival (as NSX does); the
        # rules are installed but simply never hit.
        vif_map: Dict[int, "tuple[int, str]"] = {}
        placeholder = 10_000
        for vif in self.topo.vifs:
            if vif.vif_id in vif_ports:
                port = vif_ports[vif.vif_id]
                vif_map[vif.vif_id] = (port.ofport, port.name)
            else:
                placeholder += 1
                vif_map[vif.vif_id] = (placeholder,
                                       f"unplugged-vif{vif.vif_id}")
        port_map = PortMap(
            uplink_ofport=uplink.ofport,
            uplink_name=uplink.name,
            vifs=vif_map,
            tunnels=tunnels,
        )
        kwargs = {}
        if target_rules is not None:
            kwargs["target_rules"] = target_rules
        install_ruleset(bridge, self.topo, port_map, **kwargs)
        # SYN-policing meter used by T12.
        if self.vs.dpif_netdev is not None:
            try:
                self.vs.dpif_netdev.meters.add(1, rate_kbps=1_000_000)
            except ValueError:
                pass
        self.stats = collect_stats(bridge, self.topo)
        return self.stats

    def resync(self, ctx: ExecContext) -> int:
        """Desired-state re-sync after a vswitchd restart.

        NSX reconciles declaratively: on OpenFlow reconnect it replays
        the full desired rule set as bundled flow_mods.  The rules are
        already present in ofproto (our restart model keeps them — the
        controller re-installs identical state), so the observable cost
        is the per-rule programming time, charged to the supervisor's
        control context.  Returns the number of rules replayed.
        """
        n_rules = sum(bridge.n_flows()
                      for bridge in self.vs.ofproto.bridges.values())
        ctx.charge(n_rules * DEFAULT_COSTS.nsx_resync_per_rule_ns,
                   label="nsx_resync")
        return n_rules
