"""The production-grade OpenFlow rule set (Table 3).

Synthesises the rule set of one NSX hypervisor with exactly the paper's
reported shape:

* 103,302 OpenFlow rules,
* 40 OpenFlow tables,
* 31 distinct matching fields,
* 291 Geneve tunnels,
* Geneve tunneling + a distributed firewall with conntrack zones, so
  "many packets recirculate through the datapath twice" (§5.1): the
  outer-header pass, the inner pass that sends to conntrack, and the
  post-conntrack pass that forwards.

The pipeline is NSX-shaped: classification (T0), port security (T1),
DFW conntrack dispatch (T2/T3), DFW sections per logical switch (T4-T8 —
this is where the bulk of the rules live), logical routing (T10-T13),
L2 lookup (T14), egress QoS/diagnostics (T15-T19), inbound-from-overlay
pipeline (T20-T29), output (T30/T31), service tables (T32-T39).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.kernel.conntrack import (
    CT_ESTABLISHED,
    CT_INVALID,
    CT_NEW,
)
from repro.net.addresses import ip_to_int
from repro.net.ipv4 import IPProto
from repro.net.tunnel import GENEVE_PORT
from repro.ovs.match import Match
from repro.ovs.ofactions import (
    CtAction,
    GotoTable,
    MeterAction,
    OutputAction,
    PopTunnel,
    SetFieldAction,
)
from repro.ovs.ofproto import Bridge
from repro.ovs.openflow import OpenFlowConnection
from repro.nsx.topology import LogicalTopology
from repro.sim.rng import make_rng

#: Table 3's headline number.
TARGET_RULES = 103_302
N_TABLES = 40

# Table ids.
T_CLASS = 0
T_PORTSEC = 1
T_DFW_DISPATCH = 2
T_DFW_STATE = 3
T_DFW_BASE = 4          # T4..T8: one DFW section per logical switch
T_DFW_DEFAULT = 9
T_L3 = 10
T_L3_EXTRA = 11         # T11..T13
T_L2 = 14
T_EGRESS_QOS = 15       # T15..T19
T_IN_CLASS = 20
T_IN_DFW_DISPATCH = 21
T_IN_DFW_STATE = 22
T_IN_DFW = 23
T_IN_EXTRA = 24
T_IN_L2 = 25
T_IN_MISC = 26          # T26..T29
T_OUT_LOCAL = 30
T_OUT_REMOTE = 31
T_SERVICE = 32          # T32..T39


@dataclass
class RulesetStats:
    n_rules: int
    n_tables: int
    n_match_fields: int
    n_tunnels: int
    n_vms: int
    n_vifs: int


@dataclass
class PortMap:
    """How logical entities map onto this bridge's ports."""

    uplink_ofport: int
    uplink_name: str
    #: vif_id -> (ofport, port name)
    vifs: Dict[int, "tuple[int, str]"]
    #: vtep index -> (ofport, tunnel port name)
    tunnels: Dict[int, "tuple[int, str]"]


def install_ruleset(
    bridge: Bridge,
    topo: LogicalTopology,
    ports: PortMap,
    target_rules: int = TARGET_RULES,
    seed: int = 11,
) -> int:
    """Install the synthetic production rule set; returns the rule count."""
    of = OpenFlowConnection(bridge)
    rng = make_rng("nsx-ruleset", seed)

    self_count = 0

    def add(table: int, priority: int, match: Match, actions) -> None:
        nonlocal self_count
        of.add_flow(table, priority, match, actions)
        self_count += 1

    # ------------------------------------------------------------- T0
    # Tunnel traffic from known VTEPs: decapsulate.
    for vtep in topo.vteps:
        _, tun_name = ports.tunnels[vtep.index]
        add(T_CLASS, 200,
            Match(in_port=ports.uplink_ofport, eth_type=0x0800,
                  nw_proto=IPProto.UDP, tp_dst=GENEVE_PORT,
                  nw_src=vtep.ip),
            [PopTunnel(tun_name)])
    # Decapsulated traffic re-enters on its tunnel port.
    for vtep in topo.vteps:
        tun_ofport, _ = ports.tunnels[vtep.index]
        add(T_CLASS, 150, Match(in_port=tun_ofport), [GotoTable(T_IN_CLASS)])
    # VIF traffic: stamp reg0 (logical port) and metadata (switch).
    for vif in topo.vifs:
        ofport, _name = ports.vifs[vif.vif_id]
        add(T_CLASS, 100, Match(in_port=ofport),
            [SetFieldAction("reg0", vif.vif_id),
             SetFieldAction("metadata", vif.logical_switch),
             GotoTable(T_PORTSEC)])
    # Guards: no VLANs inside the overlay; drop fragments conservatively.
    add(T_CLASS, 90, Match(vlan_tci=(0x1000, 0x1000)), [])
    add(T_CLASS, 80, Match(eth_type=0x0800, nw_frag=(1, 1)), [])
    add(T_CLASS, 70, Match(eth_type=0x0800, nw_ttl=0), [])
    add(T_CLASS, 1, Match(), [])

    # ------------------------------------------------------------- T1
    for vif in topo.vifs:
        add(T_PORTSEC, 100,
            Match(reg0=vif.vif_id, eth_src=vif.mac.value, eth_type=0x0800,
                  nw_src=vif.ip),
            [GotoTable(T_DFW_DISPATCH)])
        add(T_PORTSEC, 100,
            Match(reg0=vif.vif_id, eth_src=vif.mac.value, eth_type=0x0806),
            [GotoTable(T_L2)])  # ARP skips the IP firewall
        add(T_PORTSEC, 10, Match(reg0=vif.vif_id), [])  # spoofed: drop
    add(T_PORTSEC, 1, Match(), [])

    # ------------------------------------------------------------- T2/T3
    for vif in topo.vifs:
        add(T_DFW_DISPATCH, 100, Match(reg0=vif.vif_id),
            [SetFieldAction("reg1", vif.fw_zone),
             CtAction(zone=vif.fw_zone, table=T_DFW_STATE)])
    add(T_DFW_DISPATCH, 1, Match(), [])
    add(T_DFW_STATE, 200, Match(ct_state=(CT_INVALID, CT_INVALID)), [])
    for ls in topo.subnets:
        zone = 100 + ls
        add(T_DFW_STATE, 100,
            Match(ct_state=(CT_ESTABLISHED, CT_ESTABLISHED), ct_zone=zone),
            [GotoTable(T_L3)])
    for ls in topo.subnets:
        add(T_DFW_STATE, 50, Match(ct_state=(CT_NEW, CT_NEW), metadata=ls),
            [GotoTable(T_DFW_BASE + ls)])
    add(T_DFW_STATE, 1, Match(), [])

    # ---------------------------------------------------- T4..T8 (bulk)
    # Per-switch DFW sections.  First the structural allow rules the
    # workloads rely on, then synthetic tenant ACLs up to the target.
    for ls, subnet in topo.subnets.items():
        table = T_DFW_BASE + ls
        zone = 100 + ls
        # Allow new intra-subnet traffic, committing the connection.
        add(table, 500,
            Match(metadata=ls, eth_type=0x0800,
                  nw_src=(subnet, 0xFFFFFF00), nw_dst=(subnet, 0xFFFFFF00)),
            [CtAction(zone=zone, commit=True, table=T_L3)])
        # Allow routed traffic to the other logical switches.
        add(table, 400, Match(metadata=ls, eth_type=0x0800),
            [CtAction(zone=zone, commit=True, table=T_L3)])
        add(table, 1, Match(), [])

    # ------------------------------------------------------------- T9
    add(T_DFW_DEFAULT, 1, Match(), [])

    # ------------------------------------------------------------- T10
    for vif in topo.vifs:
        add(T_L3, 200,
            Match(eth_dst=topo.router_mac.value, eth_type=0x0800,
                  nw_dst=vif.ip),
            [SetFieldAction("eth_src", topo.router_mac.value),
             SetFieldAction("eth_dst", vif.mac.value),
             SetFieldAction("nw_ttl", 63),
             SetFieldAction("metadata", vif.logical_switch),
             GotoTable(T_L2)])
    for ls, subnet in topo.subnets.items():
        add(T_L3, 100,
            Match(eth_dst=topo.router_mac.value, eth_type=0x0800,
                  nw_dst=(subnet, 0xFFFFFF00)),
            [SetFieldAction("eth_src", topo.router_mac.value),
             SetFieldAction("nw_ttl", 63),
             SetFieldAction("metadata", ls),
             GotoTable(T_L2)])
    add(T_L3, 10, Match(), [GotoTable(T_L2)])  # bridged traffic

    # ------------------------------------------- T11..T13: router extras
    add(T_L3_EXTRA, 100, Match(eth_type=0x0800, nw_tos=(0xB8, 0xFC)),
        [GotoTable(T_L2)])  # EF DSCP fast-path (uses nw_tos)
    add(T_L3_EXTRA, 1, Match(), [GotoTable(T_L2)])
    add(T_L3_EXTRA + 1, 100,
        Match(eth_type=0x0800, nw_proto=IPProto.TCP,
              tcp_flags=(0x02, 0x17)),
        [MeterAction(1), GotoTable(T_L2)])  # SYN policing
    add(T_L3_EXTRA + 1, 1, Match(), [GotoTable(T_L2)])
    add(T_L3_EXTRA + 2, 100, Match(eth_type=0x0806, nw_proto=1),
        [GotoTable(T_L2)])  # ARP requests
    add(T_L3_EXTRA + 2, 1, Match(), [])

    # ------------------------------------------------------------- T14
    for vif in topo.vifs:
        add(T_L2, 100,
            Match(metadata=vif.logical_switch, eth_dst=vif.mac.value),
            [SetFieldAction("reg2", vif.vif_id), GotoTable(T_OUT_LOCAL)])
    for rm in topo.remote_macs:
        add(T_L2, 100,
            Match(metadata=rm.logical_switch, eth_dst=rm.mac.value),
            [SetFieldAction("reg3", rm.vtep_index + 1),
             GotoTable(T_OUT_REMOTE)])
    # Broadcast: deliver to the logical switch's local VIFs (ARP etc.).
    for ls in topo.subnets:
        actions = []
        for vif in topo.vifs:
            if vif.logical_switch == ls:
                _, name = ports.vifs[vif.vif_id]
                actions.append(OutputAction(name))
        add(T_L2, 50,
            Match(metadata=ls, eth_dst=0xFFFFFFFFFFFF), actions)
    add(T_L2, 1, Match(), [])

    # ---------------------------------------------- T15..T19 egress QoS
    for i in range(5):
        table = T_EGRESS_QOS + i
        add(table, 100, Match(reg4=i + 1), [GotoTable(T_OUT_LOCAL)])
        add(table, 1, Match(), [])

    # ------------------------------------------------------------- T20
    for ls in topo.subnets:
        add(T_IN_CLASS, 100, Match(tun_id=5000 + ls),
            [SetFieldAction("metadata", ls),
             GotoTable(T_IN_DFW_DISPATCH)])
    add(T_IN_CLASS, 1, Match(), [])

    # ------------------------------------------------------- T21..T25
    for ls in topo.subnets:
        zone = 100 + ls
        add(T_IN_DFW_DISPATCH, 100, Match(metadata=ls),
            [CtAction(zone=zone, table=T_IN_DFW_STATE)])
    add(T_IN_DFW_DISPATCH, 1, Match(), [])
    add(T_IN_DFW_STATE, 200, Match(ct_state=(CT_INVALID, CT_INVALID)), [])
    add(T_IN_DFW_STATE, 100,
        Match(ct_state=(CT_ESTABLISHED, CT_ESTABLISHED)),
        [GotoTable(T_IN_L2)])
    add(T_IN_DFW_STATE, 50, Match(ct_state=(CT_NEW, CT_NEW)),
        [GotoTable(T_IN_DFW)])
    add(T_IN_DFW_STATE, 1, Match(), [])
    for vif in topo.vifs:
        add(T_IN_DFW, 100,
            Match(eth_type=0x0800, nw_dst=vif.ip),
            [CtAction(zone=vif.fw_zone, commit=True, table=T_IN_L2)])
    add(T_IN_DFW, 1, Match(), [])
    # T24: inbound diagnostics (uses tun_src/tun_dst/ct_mark/reg5..8).
    add(T_IN_EXTRA, 100, Match(tun_src=topo.vteps[0].ip),
        [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 90, Match(tun_dst=ip_to_int("192.168.1.1")),
        [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 80, Match(ct_mark=1), [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 75, Match(reg1=101), [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 70, Match(reg5=1), [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 60, Match(reg6=1), [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 50, Match(reg7=1), [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 40, Match(reg8=1), [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 30, Match(recirc_id=0), [GotoTable(T_IN_L2)])
    add(T_IN_EXTRA, 20, Match(eth_type=0x0800, nw_proto=IPProto.UDP,
                              tp_src=GENEVE_PORT), [])
    add(T_IN_EXTRA, 1, Match(), [])
    for vif in topo.vifs:
        add(T_IN_L2, 100,
            Match(eth_dst=vif.mac.value),
            [SetFieldAction("reg2", vif.vif_id), GotoTable(T_OUT_LOCAL)])
    add(T_IN_L2, 1, Match(), [])

    # ----------------------------------------------------- T26..T29
    for i in range(4):
        add(T_IN_MISC + i, 1, Match(), [])

    # ------------------------------------------------------- T30/T31
    for vif in topo.vifs:
        _, name = ports.vifs[vif.vif_id]
        add(T_OUT_LOCAL, 100, Match(reg2=vif.vif_id), [OutputAction(name)])
    add(T_OUT_LOCAL, 1, Match(), [])
    for vtep in topo.vteps:
        _, tun_name = ports.tunnels[vtep.index]
        add(T_OUT_REMOTE, 100, Match(reg3=vtep.index + 1),
            [OutputAction(tun_name)])
    add(T_OUT_REMOTE, 1, Match(), [])

    # ----------------------------------------------------- T32..T39
    for i in range(8):
        add(T_SERVICE + i, 1, Match(), [])

    # ------------------------------------------------- synthetic ACLs
    # Tenant firewall rules make up the bulk of a production rule set.
    # Generate deterministic 5-tuple ACLs into the DFW sections until the
    # bridge holds exactly ``target_rules`` rules.
    remaining = target_rules - self_count
    if remaining < 0:
        raise ValueError(
            f"structural rules ({self_count}) already exceed the target"
        )
    n_switches = len(topo.subnets)
    # One frozen allow-action tuple per zone, shared by that zone's rules.
    allow_actions = [
        (CtAction(zone=100 + ls, commit=True, table=T_L3),)
        for ls in range(n_switches)
    ]
    net_10 = ip_to_int("10.0.0.0")
    # Plain ints, so the GC can untrack each all-int match key.
    tcp, udp = int(IPProto.TCP), int(IPProto.UDP)
    for i in range(remaining):
        ls = i % n_switches
        proto = tcp if rng.random() < 0.7 else udp
        src_net = net_10 | rng.randrange(256) << 16 | rng.randrange(256) << 8
        dst_net = net_10 | rng.randrange(256) << 16 | rng.randrange(256) << 8
        port = rng.randrange(1024, 65535)
        allow = rng.random() < 0.5
        add(T_DFW_BASE + ls, 300,
            Match(metadata=ls, eth_type=0x0800, nw_proto=proto,
                  nw_src=(src_net, 0xFFFFFF00),
                  nw_dst=(dst_net, 0xFFFFFF00),
                  tp_dst=port),
            allow_actions[ls] if allow else ())
    return self_count


def collect_stats(bridge: Bridge, topo: LogicalTopology) -> RulesetStats:
    """Compute the Table 3 statistics from the installed bridge."""
    n_rules = 0
    tables_used = 0
    fields: Set[str] = set()
    for table in bridge.tables.values():
        rules = table.rules()
        if not rules:
            continue
        tables_used += 1
        n_rules += len(rules)
        for rule in rules:
            fields.update(rule.match.field_names())
    return RulesetStats(
        n_rules=n_rules,
        n_tables=tables_used,
        n_match_fields=len(fields),
        n_tunnels=len(topo.vteps),
        n_vms=topo.n_vms,
        n_vifs=len(topo.vifs),
    )
