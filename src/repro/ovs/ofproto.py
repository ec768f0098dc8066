"""ofproto: bridges, OpenFlow tables, and slow-path translation (xlate).

The translation engine is the heart of OVS userspace: an upcalled packet's
flow key walks the bridge's OpenFlow tables, and the visited rules'
actions compile into a flat list of datapath (ODP) actions plus a
megaflow mask — the union of every subtable mask the lookups probed, so
the cached megaflow is exactly as wildcarded as this decision allows.

Pipeline recirculation (the NSX ct() pattern of §5.1) freezes translation
at the ct action: the datapath runs ct, then re-enters with a fresh
recirculation id that maps back to the table where translation resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.netlink import NetlinkMonitor
from repro.net.flow import FlowKey, FlowMask, mask_from_fields
from repro.net.tunnel import TunnelConfig
from repro.ovs import odp
from repro.ovs.match import _FIELD_INDEX, full_field_mask
from repro.ovs.megaflow import union_masks
from repro.ovs import ofactions as ofp
from repro.ovs.oftable import FlowTable, Rule
from repro.sim.cpu import ExecContext

MAX_TABLES = 255
MAX_TRANSLATION_DEPTH = 64

#: Translation-local key fields (OpenFlow metadata + NXM registers) are
#: the last ten fields of :class:`FlowKey`, from index ``_REG_START`` on.
_REG_START = _FIELD_INDEX["metadata"]
#: The register state a ``ct(table=)`` freeze carries, as one tuple.
_frozen_regs = itemgetter(*range(_REG_START, len(FlowKey._fields)))
_new_key = tuple.__new__

#: What every megaflow matches exactly: the datapath port and the pass.
_BASE_MASK = mask_from_fields(
    in_port=full_field_mask("in_port"),
    recirc_id=full_field_mask("recirc_id"),
)
#: What a recirculated pass adds: the conntrack verdict it resumed on.
_CT_MASK = mask_from_fields(
    ct_state=full_field_mask("ct_state"),
    ct_zone=full_field_mask("ct_zone"),
)


@dataclass
class TunnelPortConfig:
    """options:{} of a tunnel interface in OVSDB."""

    tunnel_type: str  # geneve | vxlan | gre | erspan
    remote_ip: int
    key: int  # VNI / GRE key / ERSPAN session
    ttl: int = 64


@dataclass
class OfPort:
    name: str
    ofport: int
    dp_port_no: int
    kind: str = "netdev"  # netdev | internal | tunnel
    tunnel: Optional[TunnelPortConfig] = None


@dataclass
class MirrorConfig:
    """A port mirror (SPAN/ERSPAN): copy selected traffic to an output.

    ``select_src_ports`` / ``select_dst_ports`` name bridge ports whose
    ingress/egress should be mirrored; the output may be a normal port or
    a tunnel port — an ERSPAN tunnel output reproduces the paper's
    flagship backport case study as a working feature.
    """

    name: str
    output_port: str
    select_src_ports: Tuple[str, ...] = ()
    select_dst_ports: Tuple[str, ...] = ()


class TranslationError(Exception):
    pass


@dataclass
class XlateResult:
    actions: Tuple[odp.OdpAction, ...]
    mask: FlowMask
    #: Which bridge/table the translation ended in (for debugging).
    final_table: int = 0


class Bridge:
    """One OpenFlow switch: ports + numbered flow tables."""

    def __init__(self, name: str, n_tables: int = 8) -> None:
        self.name = name
        self.tables: Dict[int, FlowTable] = {
            i: FlowTable(i) for i in range(n_tables)
        }
        self.ports: Dict[str, OfPort] = {}
        self._next_ofport = 1
        self.mirrors: List[MirrorConfig] = []

    def add_port(
        self,
        name: str,
        dp_port_no: int,
        kind: str = "netdev",
        tunnel: Optional[TunnelPortConfig] = None,
        ofport: Optional[int] = None,
    ) -> OfPort:
        if name in self.ports:
            raise ValueError(f"port {name!r} already on bridge {self.name}")
        if ofport is None:
            ofport = self._next_ofport
        self._next_ofport = max(self._next_ofport, ofport + 1)
        port = OfPort(name, ofport, dp_port_no, kind=kind, tunnel=tunnel)
        self.ports[name] = port
        return port

    def port(self, name: str) -> OfPort:
        p = self.ports.get(name)
        if p is None:
            raise KeyError(f"no port {name!r} on bridge {self.name}")
        return p

    def table(self, table_id: int) -> FlowTable:
        if table_id not in self.tables:
            if table_id >= MAX_TABLES:
                raise ValueError(f"table {table_id} out of range")
            self.tables[table_id] = FlowTable(table_id)
        return self.tables[table_id]

    def add_flow(self, table_id: int, rule: Rule) -> None:
        self.add_flows(table_id, (rule,))

    def add_flows(self, table_id: int, rules: Sequence[Rule]) -> None:
        """Install ``rules`` into one table, all or none: every action
        list is checked before the first insert.  Action tuples are
        immutable, so one check covers every rule sharing the tuple."""
        checked = set()
        for rule in rules:
            if id(rule.actions) not in checked:
                self._validate_actions(rule.actions)
                checked.add(id(rule.actions))
        self.table(table_id).add_rules(rules)

    def n_flows(self) -> int:
        return sum(len(t) for t in self.tables.values())

    @staticmethod
    def _validate_actions(acts: Tuple[ofp.OfAction, ...]) -> None:
        for i, act in enumerate(acts):
            if isinstance(act, ofp.CtAction) and act.table is not None:
                if i != len(acts) - 1:
                    raise ValueError(
                        "ct(table=N) must be the last action "
                        "(translation freezes there)"
                    )
            elif (isinstance(act, ofp.SetFieldAction)
                    and act.field not in _FIELD_INDEX):
                # OpenFlow's OFPBAC_BAD_SET_TYPE: refused at install, not
                # at the first packet's translation.
                raise ValueError(f"set_field: unknown field {act.field!r}")


class Ofproto:
    """The slow path shared by every bridge on one datapath."""

    def __init__(self, netlink_monitor: Optional[NetlinkMonitor] = None) -> None:
        self.bridges: Dict[str, Bridge] = {}
        #: dp port -> (bridge, port) for upcall dispatch.
        self._dp_ports: Dict[int, Tuple[Bridge, OfPort]] = {}
        self.monitor = netlink_monitor
        self._recirc_ids: Dict[Tuple[str, int], int] = {}
        self._recirc_resume: Dict[int, Tuple[str, int]] = {}
        self._next_recirc = 1
        self.n_translations = 0

    # ------------------------------------------------------------------
    def add_bridge(self, name: str) -> Bridge:
        if name in self.bridges:
            raise ValueError(f"bridge {name!r} exists")
        bridge = Bridge(name)
        self.bridges[name] = bridge
        return bridge

    def register_port(self, bridge: Bridge, port: OfPort) -> None:
        self._dp_ports[port.dp_port_no] = (bridge, port)

    def alloc_recirc_id(self, bridge: Bridge, resume_table: int,
                        regs: Tuple[int, ...] = ()) -> int:
        """Freeze a continuation: (bridge, table, register state) -> id.

        Registers are translation-local, so their values at the freeze
        point must be restored when translation resumes after the
        datapath recirculates — exactly the real xlate "frozen state".
        """
        key = (bridge.name, resume_table, regs)
        rid = self._recirc_ids.get(key)
        if rid is None:
            rid = self._next_recirc
            self._next_recirc += 1
            self._recirc_ids[key] = rid
            self._recirc_resume[rid] = key
        return rid

    # ------------------------------------------------------------------
    # Translation.
    # ------------------------------------------------------------------
    def translate(
        self, key: FlowKey, ctx: Optional[ExecContext] = None,
        observer=None,
    ) -> XlateResult:
        """Compile one flow's forwarding decision to datapath actions.

        ``observer``, when given, is called as ``observer(bridge,
        table_id, rule_or_None, key)`` after every table lookup — the
        ``ofproto/trace`` narration hook.  It observes only; the
        translation itself is unchanged.
        """
        self.n_translations += 1
        probed: List[FlowMask] = [_BASE_MASK]
        dp_in_port = key.in_port
        located = self._dp_ports.get(dp_in_port)
        if key.recirc_id:
            bridge_name, table_id, regs = self._resume_point(key.recirc_id)
            bridge = self.bridges[bridge_name]
            if regs:
                key = _new_key(FlowKey, key[:_REG_START] + regs)
            probed.append(_CT_MASK)
        else:
            if located is None:
                return XlateResult(odp.DROP, union_masks(probed))
            bridge, _port = located
            table_id = 0
        # OpenFlow rules match on OpenFlow port numbers; the datapath key
        # carries datapath port numbers.  Map before table lookups.
        if located is not None:
            key = _new_key(FlowKey, (located[1].ofport,) + key[1:])
        actions = self._xlate_tables(
            bridge, table_id, key, probed, ctx, dp_in_port=dp_in_port,
            observer=observer,
        )
        actions = self._apply_mirrors(bridge, key, dp_in_port, actions)
        return XlateResult(tuple(actions), union_masks(probed))

    def _apply_mirrors(
        self,
        bridge: Bridge,
        key: FlowKey,
        dp_in_port: int,
        actions: List[odp.OdpAction],
    ) -> List[odp.OdpAction]:
        """Append mirror outputs when the flow touches a selected port."""
        if not bridge.mirrors:
            return actions
        in_port = self._dp_ports.get(dp_in_port)
        in_name = in_port[1].name if in_port else None
        out_names = set()
        for act in actions:
            if isinstance(act, odp.Output):
                located = self._dp_ports.get(act.port_no)
                if located is not None:
                    out_names.add(located[1].name)
        out = list(actions)
        for mirror in bridge.mirrors:
            selected = (
                (in_name is not None and in_name in mirror.select_src_ports)
                or bool(out_names & set(mirror.select_dst_ports))
            )
            if selected:
                out.extend(
                    self._xlate_output(bridge, mirror.output_port, key,
                                       dp_in_port)
                )
        return out

    def _resume_point(self, recirc_id: int) -> Tuple[str, int, Tuple[int, ...]]:
        resume = self._recirc_resume.get(recirc_id)
        if resume is None:
            raise TranslationError(f"unknown recirculation id {recirc_id}")
        return resume

    def _xlate_tables(
        self,
        bridge: Bridge,
        table_id: int,
        key: FlowKey,
        probed: List[FlowMask],
        ctx: Optional[ExecContext],
        depth: int = 0,
        dp_in_port: int = 0,
        observer=None,
    ) -> List[odp.OdpAction]:
        if depth > MAX_TRANSLATION_DEPTH:
            raise TranslationError("translation too deep (table loop?)")
        rule = bridge.table(table_id).lookup(key, ctx, probed)
        if observer is not None:
            observer(bridge, table_id, rule, key)
        if rule is None:
            return []  # OpenFlow 1.3+ table-miss default: drop
        rule.n_packets += 1
        return self._xlate_actions(bridge, rule, key, probed, ctx, depth,
                                   dp_in_port, observer=observer)

    def _xlate_actions(
        self,
        bridge: Bridge,
        rule: Rule,
        key: FlowKey,
        probed: List[FlowMask],
        ctx: Optional[ExecContext],
        depth: int,
        dp_in_port: int = 0,
        observer=None,
    ) -> List[odp.OdpAction]:
        out: List[odp.OdpAction] = []
        for act in rule.actions:
            # Action classes are final: dispatch on the exact type, most
            # frequent (the NSX pipeline's) first.
            kind = type(act)
            if kind is ofp.SetFieldAction:
                # A known field: Bridge._validate_actions checked at install.
                index = _FIELD_INDEX[act.field]
                # Registers/metadata are translation-local: update the
                # working key, emit nothing to the datapath.
                if index < _REG_START:
                    out.append(odp.SetField(act.field, act.value))
                fields = list(key)
                fields[index] = act.value
                key = _new_key(FlowKey, fields)
            elif kind is ofp.GotoTable or kind is ofp.Resubmit:
                out.extend(
                    self._xlate_tables(
                        bridge, act.table_id, key, probed, ctx, depth + 1,
                        dp_in_port, observer=observer,
                    )
                )
                if kind is ofp.GotoTable:
                    break  # goto does not return
            elif kind is ofp.OutputAction:
                out.extend(
                    self._xlate_output(bridge, act.port, key, dp_in_port)
                )
            elif kind is ofp.CtAction:
                out.append(
                    odp.Ct(zone=act.zone, commit=act.commit,
                           nat_dst=act.nat_dst)
                )
                if act.table is not None:
                    rid = self.alloc_recirc_id(bridge, act.table,
                                               _frozen_regs(key))
                    out.append(odp.Recirc(rid))
                    return out  # freeze: the datapath resumes via recirc
            elif kind is ofp.PushVlanAction:
                out.append(odp.PushVlan(act.vid, act.pcp))
                key = key._replace(vlan_tci=act.vid | 0x1000 | (act.pcp << 13))
            elif kind is ofp.PopVlanAction:
                out.append(odp.PopVlan())
                key = key._replace(vlan_tci=0)
            elif kind is ofp.PopTunnel:
                port = bridge.port(act.tunnel_port)
                out.append(odp.TunnelPop(port.dp_port_no))
                return out
            elif kind is ofp.MeterAction:
                out.append(odp.Meter(act.meter_id))
            elif kind is ofp.TruncAction:
                out.append(odp.Trunc(act.max_len))
            elif kind is ofp.ControllerAction:
                out.append(odp.Userspace(act.reason))
            elif kind is ofp.DropAction:
                return []
            else:
                raise TranslationError(f"cannot translate {act!r}")
        return out

    def _xlate_output(
        self, bridge: Bridge, port_spec: str, key: FlowKey,
        dp_in_port: int = 0,
    ) -> List[odp.OdpAction]:
        if port_spec == "IN_PORT":
            return [odp.Output(dp_in_port)]
        if port_spec == "LOCAL":
            port = bridge.port(bridge.name)  # local port is named as bridge
            return [odp.Output(port.dp_port_no)]
        if port_spec not in bridge.ports:
            return []  # output to a nonexistent port: drop (as OVS does)
        port = bridge.port(port_spec)
        if port.kind == "tunnel":
            return self._xlate_tunnel_output(port, key)
        return [odp.Output(port.dp_port_no)]

    def _xlate_tunnel_output(
        self, port: OfPort, key: FlowKey
    ) -> List[odp.OdpAction]:
        """Resolve the tunnel route and neighbor from the cached Netlink
        replicas (§4), then emit a TunnelPush out the underlay port."""
        tcfg = port.tunnel
        if tcfg is None:
            raise TranslationError(f"{port.name} has no tunnel options")
        if self.monitor is None:
            raise TranslationError("no ovs-router (netlink monitor) configured")
        self.monitor.poll()
        route = self.monitor.route_lookup(tcfg.remote_ip)
        if route is None:
            return []  # no route to tunnel endpoint: drop
        underlay = self._port_for_ifindex(route.ifindex)
        if underlay is None:
            return []
        underlay_port, underlay_dev = underlay
        next_hop = route.gateway or tcfg.remote_ip
        neighbor = self.monitor.neighbor_lookup(next_hop)
        if neighbor is None:
            return []  # unresolved ARP: the control plane must prime it
        local_ip = self._local_ip_for_ifindex(route.ifindex)
        if local_ip is None:
            return []
        config = TunnelConfig(
            tunnel_type=tcfg.tunnel_type,
            local_ip=local_ip,
            remote_ip=tcfg.remote_ip,
            vni=tcfg.key,
            local_mac=underlay_dev.mac,
            remote_mac=neighbor.mac,
            ttl=tcfg.ttl,
        )
        return [odp.TunnelPush(config, underlay_port.dp_port_no)]

    # The dpif supplies device objects for route resolution.
    dp_port_device = None  # type: ignore[assignment]

    def _port_for_ifindex(self, ifindex: int):
        """Find the datapath port whose device has this kernel ifindex."""
        if self.dp_port_device is None:
            return None
        for dp_no, (bridge, port) in self._dp_ports.items():
            device = self.dp_port_device(dp_no)
            if device is not None and getattr(device, "ifindex", None) == ifindex:
                return port, device
        return None

    def _local_ip_for_ifindex(self, ifindex: int) -> Optional[int]:
        if self.monitor is None:
            return None
        for _if, ip, _plen in self.monitor.ns.addresses():
            if _if == ifindex:
                return ip
        return None
