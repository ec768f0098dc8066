"""The OVS kernel module: the in-kernel datapath of Figure 3 (left).

This is the "least mechanism" datapath of the original OVS design: a
masked flow table (megaflows) populated from userspace, an upcall channel
for misses, and an action executor with access to kernel facilities —
conntrack, tunnels, and devices.  It runs in softirq context on whatever
CPU received the packet, which with RSS means "almost 8 CPU cores" at
high load (§5.2).

Like the userspace datapath, the module replays lookups it has already
made (:mod:`repro.sim.replay`): a token of everything ``extract_flow``
reads keys a cell of the FlowKey, the flow table's version and the
actions and probe count of a lookup that hit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.kernel.netdev import NetDevice
from repro.net.addresses import MacAddress
from repro.net.flow import FlowKey, FlowMask, MaskSpec, extract_flow
from repro.net.packet import Packet
from repro.net.tunnel import decapsulate, encapsulate
from repro.ovs import odp
from repro.ovs.packet_ops import do_pop_vlan, do_push_vlan, set_field
from repro import telemetry
from repro.sim import faults, trace
from repro.telemetry.drops import DropReason
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext
from repro.sim.replay import ReplayCells

MAX_RECIRC_DEPTH = 8


@dataclass
class Upcall:
    """A packet the datapath could not handle, punted to userspace."""

    port_no: int
    pkt: Packet
    key: FlowKey


@dataclass
class Vport:
    port_no: int
    name: str
    device: Optional[NetDevice] = None
    kind: str = "netdev"  # "netdev" | "internal" | "tunnel"
    stats_rx: int = 0
    stats_tx: int = 0


class InternalPort(NetDevice):
    """A bridge-internal port: the kernel stack's window into the bridge."""

    device_type = "internal"

    def __init__(self, name: str, mac: MacAddress, datapath: "KernelDatapath",
                 port_no: int) -> None:
        super().__init__(name, mac)
        self._datapath = datapath
        self._port_no = port_no
        self.carrier = True

    def _transmit(self, pkt: Packet, ctx: ExecContext) -> bool:
        # The stack sends via the bridge: enter the datapath.
        self._datapath.receive(self._port_no, pkt, ctx)
        return True


class KernelFlowTable:
    """Masked flows with tuple-space lookup, as the module implements it.

    Each distinct mask is one subtable; lookups probe subtables in order
    until a hit.  This linear-in-masks cost is the megaflow lookup cost
    the EMC exists to hide in the userspace datapath.
    """

    def __init__(self) -> None:
        #: mask -> (its MaskSpec, subtable keyed on ``spec.project(key)``).
        #: Dict order is the probe order: a mask joins at the end and
        #: leaves with its last flow, so one that returns is probed last.
        self._tables: Dict[
            FlowMask,
            Tuple[MaskSpec, Dict[Tuple[int, ...], Tuple[odp.OdpAction, ...]]],
        ] = {}
        self.n_hit = 0
        self.n_missed = 0
        #: Subtables probed over all lookups, misses included: the
        #: ``masks: hit:`` figure of ``ovs-dpctl show``.
        self.n_mask_hit = 0
        #: Moves on every insert, remove and flush and on nothing else:
        #: a lookup's outcome can change only when it moves.
        self.version = 0

    def __len__(self) -> int:
        return sum(len(table) for _spec, table in self._tables.values())

    @property
    def n_masks(self) -> int:
        return len(self._tables)

    def insert(
        self, key: FlowKey, mask: FlowMask, actions: Tuple[odp.OdpAction, ...]
    ) -> None:
        odp.validate_actions(actions)
        entry = self._tables.get(mask)
        if entry is None:
            entry = self._tables[mask] = (MaskSpec(mask), {})
        spec, table = entry
        table[spec.project(key)] = tuple(actions)
        self.version += 1

    def remove(self, key: FlowKey, mask: FlowMask) -> None:
        entry = self._tables.get(mask)
        if entry is None:
            raise KeyError("no such mask")
        spec, table = entry
        del table[spec.project(key)]
        if not table:
            del self._tables[mask]
        self.version += 1

    def flush(self) -> None:
        self._tables.clear()
        self.version += 1

    def lookup(
        self, key: FlowKey, ctx: ExecContext
    ) -> Optional[Tuple[odp.OdpAction, ...]]:
        costs = DEFAULT_COSTS
        probed = 0
        for spec, table in self._tables.values():
            probed += 1
            actions = table.get(spec.project(key))
            if actions is not None:
                ctx.charge(
                    probed * costs.megaflow_subtable_ns, label="megaflow"
                )
                self.n_hit += 1
                self.n_mask_hit += probed
                return actions
        ctx.charge(
            max(probed, 1) * costs.megaflow_subtable_ns, label="megaflow"
        )
        self.n_missed += 1
        self.n_mask_hit += probed
        return None


class KernelDatapath:
    """One ``ovs-dpctl`` datapath instance living in a namespace's kernel."""

    def __init__(self, name: str, namespace) -> None:
        self.name = name
        self.ns = namespace
        self.flows = KernelFlowTable()
        self.ports: Dict[int, Vport] = {}
        self._port_by_name: Dict[str, int] = {}
        self._next_port = 1
        self.upcall_handler: Optional[Callable[[Upcall, ExecContext], None]] = None
        self.n_upcalls = 0
        #: Upcalls the kernel could not deliver to userspace (socket
        #: buffer overrun, no handler) — dpctl/show's ``lost:`` column.
        self.n_lost = 0
        #: Every other packet the module drops, by reason.
        self.dropped: Counter = Counter()
        self.now_ns_fn: Callable[[], int] = lambda: 0
        #: Replay cells: token -> (FlowKey, flows.version, actions,
        #: probed), stored only by lookups that hit.
        self.cells = ReplayCells()

    # ------------------------------------------------------------------
    # Port management.
    # ------------------------------------------------------------------
    def add_port(self, device: NetDevice) -> Vport:
        """Attach a device: its receive path now enters the datapath."""
        port = Vport(self._next_port, device.name, device=device)
        self._register(port)
        device.set_rx_handler(partial(self.receive, port.port_no))
        return port

    def add_internal_port(self, name: str, mac: MacAddress) -> Tuple[Vport, InternalPort]:
        port_no = self._next_port
        device = InternalPort(name, mac, self, port_no)
        self.ns.register(device)
        device.set_up()
        port = Vport(port_no, name, device=device, kind="internal")
        self._register(port)
        return port, device

    def add_tunnel_port(self, name: str) -> Vport:
        port = Vport(self._next_port, name, kind="tunnel")
        self._register(port)
        return port

    def _register(self, port: Vport) -> None:
        if port.name in self._port_by_name:
            raise ValueError(f"port {port.name!r} already on datapath")
        self.ports[port.port_no] = port
        self._port_by_name[port.name] = port.port_no
        self._next_port += 1

    def del_port(self, name: str) -> None:
        port_no = self._port_by_name.pop(name, None)
        if port_no is None:
            raise KeyError(f"no port {name!r}")
        port = self.ports.pop(port_no)
        if port.device is not None and port.kind != "internal":
            port.device.set_rx_handler(None)

    def port_no(self, name: str) -> int:
        return self._port_by_name[name]

    # ------------------------------------------------------------------
    # Flow management (the netlink flow_put/del interface).
    # ------------------------------------------------------------------
    def flow_put(self, key: FlowKey, mask: FlowMask, actions) -> None:
        self.flows.insert(key, mask, tuple(actions))

    def flow_del(self, key: FlowKey, mask: FlowMask) -> None:
        self.flows.remove(key, mask)

    def flow_flush(self) -> None:
        self.flows.flush()

    def _drop(self, reason: DropReason, octets: int) -> None:
        self.dropped[reason] += 1
        telemetry.drop_event(reason, octets=octets)

    # ------------------------------------------------------------------
    # The receive fast path.
    # ------------------------------------------------------------------
    def receive(self, port_no: int, pkt: Packet, ctx: ExecContext) -> None:
        port = self.ports.get(port_no)
        if port is None:
            self._drop(DropReason.KERNEL_RX_NO_PORT, len(pkt.data))
            return
        port.stats_rx += 1
        pkt.meta.in_port = port_no
        tele = telemetry.ACTIVE
        if tele is not None:
            # The kernel-path observation point: after the vport resolved
            # and in_port is stamped, before lookup.  Recirculation and
            # tunnel decap re-enter _lookup_and_execute directly, so a
            # packet is observed once per datapath entry.
            tele.observe("kernel", pkt, ctx)
        self._lookup_and_execute(pkt, ctx, depth=0)

    def _lookup_and_execute(self, pkt: Packet, ctx: ExecContext, depth: int) -> None:
        costs = DEFAULT_COSTS
        if depth > MAX_RECIRC_DEPTH:
            self._drop(DropReason.KERNEL_RECIRC_LIMIT, len(pkt.data))
            return  # loop mitigation, as the real module does
        ctx.charge(costs.flow_extract_ns, label="flow_extract")
        data = pkt.data
        meta = pkt.meta
        tunnel = meta.tunnel
        flows = self.flows
        cells = self.cells
        token = cell = None
        if cells.bypass:
            cells.bypass -= 1
        else:
            # Everything extract_flow reads, so equal tokens imply equal
            # FlowKeys.
            token = (data, meta.in_port, meta.recirc_id, meta.ct_state,
                     meta.ct_zone, meta.ct_mark,
                     tunnel.vni, tunnel.remote_ip, tunnel.local_ip)
            cell = cells.get(token)
            if cell is not None and cell[1] == flows.version:
                # The table has not moved since this lookup hit: issue
                # its charge and counters without the walk.
                cells.n_replays += 1
                probed = cell[3]
                ctx.charge(probed * costs.megaflow_subtable_ns,
                           label="megaflow")
                flows.n_hit += 1
                flows.n_mask_hit += probed
                self.execute_actions(pkt, cell[2], ctx, depth)
                return
            cells.missed()
        # A stale cell's key is still the frame's: only the outcome moved.
        key = cell[0] if cell is not None else extract_flow(
            data, meta.in_port, meta.recirc_id, meta.ct_state,
            meta.ct_zone, meta.ct_mark, tunnel.vni, tunnel.remote_ip,
            tunnel.local_ip,
        )
        mask_hits = flows.n_mask_hit
        actions = flows.lookup(key, ctx)
        if actions is None:
            self._upcall(pkt, key, ctx)
            return
        if token is not None:
            cells.store(token, (key, flows.version, actions,
                                flows.n_mask_hit - mask_hits))
        self.execute_actions(pkt, actions, ctx, depth)

    def _upcall(self, pkt: Packet, key: FlowKey, ctx: ExecContext) -> None:
        costs = DEFAULT_COSTS
        self.n_upcalls += 1
        plan = faults.ACTIVE
        if plan is not None and plan.should_fire("kernel.upcall_overload"):
            # The netlink socket buffer overflowed under an upcall storm:
            # the kernel increments ``lost`` and drops the packet (it
            # never reaches userspace, so no flow gets installed either).
            self.n_lost += 1
            trace.count("kernel.upcall_lost")
            telemetry.drop_event(DropReason.KERNEL_UPCALL_LOST,
                                 octets=len(pkt.data))
            return
        if self.upcall_handler is None:
            self.n_lost += 1
            telemetry.drop_event(DropReason.KERNEL_UPCALL_LOST,
                                 octets=len(pkt.data))
            return
        # The packet and key cross to userspace and back: two context
        # switches, a netlink copy each way, a classifier lookup up there.
        ctx.charge(costs.upcall_ns, label="upcall")
        self.upcall_handler(Upcall(pkt.meta.in_port, pkt, key), ctx)

    # ------------------------------------------------------------------
    # Action execution with kernel facilities.
    # ------------------------------------------------------------------
    def execute_actions(
        self,
        pkt: Packet,
        actions,
        ctx: ExecContext,
        depth: int = 0,
    ) -> None:
        costs = DEFAULT_COSTS
        data = pkt.data
        for act in actions:
            ctx.charge(costs.action_ns, label="odp_action")
            if isinstance(act, odp.Output):
                out = pkt if data is pkt.data else pkt.with_data(data)
                self._output(out, act.port_no, ctx)
            elif isinstance(act, odp.SetField):
                data = set_field(data, act.field, act.value)
            elif isinstance(act, odp.PushVlan):
                data = do_push_vlan(data, act.vid, act.pcp)
            elif isinstance(act, odp.PopVlan):
                data = do_pop_vlan(data)
            elif isinstance(act, odp.Ct):
                self._do_ct(pkt.with_data(data), act, ctx)
            elif isinstance(act, odp.Recirc):
                out = pkt.with_data(data)
                out.meta.recirc_id = act.recirc_id
                ctx.charge(costs.recirculate_ns, label="recirc")
                self._lookup_and_execute(out, ctx, depth + 1)
                return  # nothing executes after recirc
            elif isinstance(act, odp.TunnelPush):
                ctx.charge(costs.tunnel_encap_ns, label="tunnel_push")
                outer = encapsulate(act.config, data)
                ctx.charge(costs.copy_cost(len(outer) - len(data)),
                           label="encap_copy")
                out = Packet(outer)
                out.meta.in_port = pkt.meta.in_port
                self._output(out, act.out_port, ctx)
            elif isinstance(act, odp.TunnelPop):
                ctx.charge(costs.tunnel_decap_ns, label="tunnel_pop")
                try:
                    ttype, vni, src, dst, inner = decapsulate(data)
                except ValueError:
                    self._drop(DropReason.KERNEL_TUNNEL_DECAP_FAILED,
                               len(data))
                    return  # not a tunnel packet after all: drop
                out = Packet(inner)
                out.meta.in_port = act.vport
                out.meta.tunnel.tunnel_type = ttype
                out.meta.tunnel.vni = vni
                out.meta.tunnel.remote_ip = src
                out.meta.tunnel.local_ip = dst
                port = self.ports.get(act.vport)
                if port is not None:
                    port.stats_rx += 1
                self._lookup_and_execute(out, ctx, depth + 1)
                return
            elif isinstance(act, odp.Userspace):
                ctx.charge(costs.upcall_ns, label="userspace_action")
            elif isinstance(act, odp.Trunc):
                data = data[: act.max_len]
            elif isinstance(act, odp.Meter):
                pass  # kernel meters are modelled as no-ops here
            else:
                raise NotImplementedError(f"kernel DP cannot {act!r}")

    def _do_ct(self, pkt: Packet, act: odp.Ct, ctx: ExecContext) -> None:
        costs = DEFAULT_COSTS
        key = extract_flow(pkt.data)
        ctx.charge(costs.conntrack_lookup_ns, label="ct_lookup")
        result = self.ns.conntrack.process(
            key.five_tuple(),
            zone=act.zone,
            tcp_flags=key.tcp_flags,
            nbytes=len(pkt.data),
            commit=act.commit,
            now_ns=self.now_ns_fn(),
        )
        if act.commit and result.is_new:
            ctx.charge(
                costs.conntrack_commit_ns - costs.conntrack_lookup_ns,
                label="ct_commit",
            )
        meta = pkt.meta
        meta.ct_state = result.state_bits
        meta.ct_zone = act.zone
        if result.connection is not None:
            meta.ct_mark = result.connection.mark

    def _output(self, pkt: Packet, port_no: int, ctx: ExecContext) -> None:
        port = self.ports.get(port_no)
        if port is None or port.device is None:
            self._drop(DropReason.KERNEL_OUTPUT_NO_PORT, len(pkt.data))
            return
        port.stats_tx += 1
        if port.kind == "internal":
            # To the host stack through the internal device's receive side.
            port.device.deliver(pkt, ctx)
        else:
            port.device.transmit(pkt, ctx)
