"""ovs-vswitchd: the switch daemon.

Owns the ofproto layer (bridges + translation), exactly one datapath
(kernel ``system`` type, Figure 7a, or userspace ``netdev`` type,
Figure 7b), the Netlink table replicas (§4) and the OVSDB binding.

Port helpers cover every interface type the paper evaluates:

=============  ==========================================================
type           backing
=============  ==========================================================
system         a kernel NetDevice — kernel DP attaches it directly; the
               userspace DP reaches it through an AF_PACKET socket
afxdp          :class:`~repro.afxdp.driver.AfxdpDriver` (userspace DP)
dpdk           a bound :class:`~repro.dpdk.ethdev.DpdkEthDev`
dpdkvhostuser  a VM's virtio queues served in-process
geneve/vxlan/  tunnel vports; encap resolved through the cached
gre/erspan     route/neighbor replicas at translation time
internal       the bridge device the host stack uses
=============  ==========================================================
"""

from __future__ import annotations

from typing import Optional

from repro.afxdp.driver import AfxdpDriver, AfxdpOptions
from repro.dpdk.ethdev import DpdkEthDev
from repro.kernel.kernel import Kernel
from repro.kernel.netdev import NetDevice
from repro.kernel.netlink import NetlinkMonitor
from repro.kernel.nic import PhysicalNic
from repro.kernel.tap import TapDevice
from repro.net.addresses import MacAddress, ip_to_int
from repro.ovs.dpif_netdev import DpifNetdev
from repro.ovs.dpif_netlink import DpifNetlink
from repro.ovs.netdevs import (
    AfxdpAdapter,
    DpdkAdapter,
    InternalTapAdapter,
    SimAdapter,
    TapAdapter,
    VhostAdapter,
)
from repro.ovs.ofproto import Bridge, Ofproto, OfPort, TunnelPortConfig
from repro.ovs.ovsdb import OvsdbServer
from repro.sim.cpu import ExecContext
from repro.vhost.vhostuser import VhostUserPort


class VSwitchd:
    def __init__(self, kernel: Kernel, datapath_type: str = "netdev") -> None:
        if datapath_type not in ("netdev", "system"):
            raise ValueError(f"unknown datapath type {datapath_type!r}")
        self.kernel = kernel
        self.datapath_type = datapath_type
        self.monitor = NetlinkMonitor(kernel.init_ns)
        self.ofproto = Ofproto(self.monitor)
        self.ovsdb = OvsdbServer()
        self.restarts = 0
        if datapath_type == "system":
            kernel.load_ovs_module()
            self.dpif_netlink: Optional[DpifNetlink] = DpifNetlink(kernel)
            self.dpif_netlink.upcall_fn = self._upcall
            self.dpif_netdev: Optional[DpifNetdev] = None
            self.ofproto.dp_port_device = self.dpif_netlink.port_device
        else:
            self.dpif_netlink = None
            self.dpif_netdev = DpifNetdev(
                now_ns_fn=lambda: kernel.clock.now
            )
            self.dpif_netdev.upcall_fn = self._upcall
            self.ofproto.dp_port_device = self.dpif_netdev.port_device
        self._next_mac = 0x060000

    def ledger_layers(self) -> list:
        """What of this switch can lose a frame, each reporting
        ``sinks()``: its datapath and every AF_XDP driver behind it."""
        if self.dpif_netlink is not None:
            return [self.dpif_netlink]
        return [self.dpif_netdev, *self.dpif_netdev.afxdp_drivers()]

    # ------------------------------------------------------------------
    def _upcall(self, key, ctx: Optional[ExecContext]):
        result = self.ofproto.translate(key, ctx)
        return result.actions, result.mask

    def _alloc_mac(self) -> MacAddress:
        self._next_mac += 1
        return MacAddress.local(self._next_mac)

    # ------------------------------------------------------------------
    # Bridges.
    # ------------------------------------------------------------------
    def add_bridge(self, name: str) -> Bridge:
        bridge = self.ofproto.add_bridge(name)
        txn = self.ovsdb.transact()
        row = txn.insert("Bridge", name=name,
                         datapath_type=self.datapath_type)
        root = self.ovsdb.root()
        txn.update(root.uuid, bridges=root["bridges"] + [row])
        txn.commit()
        # The local ("LOCAL") port, named like the bridge.
        mac = self._alloc_mac()
        if self.dpif_netlink is not None:
            dp_no, _device = self.dpif_netlink.add_internal_port(name, mac)
        else:
            tap = TapDevice(name, mac)
            self.kernel.init_ns.register(tap)
            tap.set_up()
            dp_no = self.dpif_netdev.add_port(
                name, InternalTapAdapter(tap), kind="internal", device=tap
            ).port_no
        port = bridge.add_port(name, dp_no, kind="internal", ofport=65534)
        self.ofproto.register_port(bridge, port)
        return bridge

    def bridge(self, name: str) -> Bridge:
        return self.ofproto.bridges[name]

    # ------------------------------------------------------------------
    # Ports.
    # ------------------------------------------------------------------
    def _record_port(self, bridge_name: str, name: str, iface_type: str,
                     options: Optional[dict] = None) -> None:
        txn = self.ovsdb.transact()
        iface = txn.insert("Interface", name=name, type=iface_type,
                           options=options or {})
        port_row = txn.insert("Port", name=name, interfaces=[iface])
        [bridge_row] = self.ovsdb.find("Bridge", name=bridge_name)
        txn.update(bridge_row.uuid, ports=bridge_row["ports"] + [port_row])
        txn.commit()

    def _register(self, bridge: Bridge, port: OfPort) -> OfPort:
        self.ofproto.register_port(bridge, port)
        return port

    def add_system_port(self, bridge_name: str, device: NetDevice) -> OfPort:
        """A kernel-managed device (NIC, veth, tap kernel face)."""
        bridge = self.bridge(bridge_name)
        if self.dpif_netlink is not None:
            dp_no = self.dpif_netlink.add_port(device)
        else:
            dp_no = self.dpif_netdev.add_port(
                device.name, TapAdapter(device), device=device
            ).port_no
        self._record_port(bridge_name, device.name, "system")
        return self._register(bridge, bridge.add_port(device.name, dp_no))

    def add_afxdp_port(
        self,
        bridge_name: str,
        nic: PhysicalNic,
        options: Optional[AfxdpOptions] = None,
    ) -> OfPort:
        if self.dpif_netdev is None:
            raise ValueError("afxdp ports need the netdev datapath")
        bridge = self.bridge(bridge_name)
        driver = AfxdpDriver(nic, options)
        driver.setup()
        dp_no = self.dpif_netdev.add_port(
            nic.name, AfxdpAdapter(driver), device=nic
        ).port_no
        self._record_port(bridge_name, nic.name, "afxdp")
        return self._register(bridge, bridge.add_port(nic.name, dp_no))

    def add_dpdk_port(self, bridge_name: str, ethdev: DpdkEthDev) -> OfPort:
        if self.dpif_netdev is None:
            raise ValueError("dpdk ports need the netdev datapath")
        bridge = self.bridge(bridge_name)
        name = ethdev.nic.name
        dp_no = self.dpif_netdev.add_port(
            name, DpdkAdapter(ethdev), device=ethdev.nic
        ).port_no
        self._record_port(bridge_name, name, "dpdk")
        return self._register(bridge, bridge.add_port(name, dp_no))

    def add_vhostuser_port(self, bridge_name: str,
                           port: VhostUserPort) -> OfPort:
        if self.dpif_netdev is None:
            raise ValueError("vhostuser ports need the netdev datapath")
        bridge = self.bridge(bridge_name)
        dp_no = self.dpif_netdev.add_port(
            port.name, VhostAdapter(port), kind="vhost"
        ).port_no
        self._record_port(bridge_name, port.name, "dpdkvhostuser")
        return self._register(bridge, bridge.add_port(port.name, dp_no))

    def add_sim_port(self, bridge_name: str, name: str) -> "tuple[OfPort, SimAdapter]":
        """Direct-injection port for tests and workload drivers."""
        if self.dpif_netdev is None:
            raise ValueError("sim ports need the netdev datapath")
        bridge = self.bridge(bridge_name)
        adapter = SimAdapter()
        dp_no = self.dpif_netdev.add_port(name, adapter).port_no
        self._record_port(bridge_name, name, "sim")
        return self._register(bridge, bridge.add_port(name, dp_no)), adapter

    def add_tunnel_port(
        self,
        bridge_name: str,
        name: str,
        tunnel_type: str,
        remote_ip: "int | str",
        key: int,
    ) -> OfPort:
        bridge = self.bridge(bridge_name)
        remote = ip_to_int(remote_ip) if isinstance(remote_ip, str) else remote_ip
        if self.dpif_netlink is not None:
            dp_no = self.dpif_netlink.add_tunnel_port(name)
        else:
            dp_no = self.dpif_netdev.add_port(
                name, SimAdapter(), kind="tunnel"
            ).port_no
        cfg = TunnelPortConfig(tunnel_type=tunnel_type, remote_ip=remote,
                               key=key)
        self._record_port(bridge_name, name, tunnel_type,
                          {"remote_ip": remote, "key": key})
        return self._register(
            bridge, bridge.add_port(name, dp_no, kind="tunnel", tunnel=cfg)
        )

    # ------------------------------------------------------------------
    def restart(self, emcs=()) -> None:
        """Restart ovs-vswitchd.

        The upgrade/bugfix story of §6: with the userspace datapath this
        drops caches and (unlike the kernel DP) conntrack state, but
        needs no module reload and no reboot.  ``emcs`` are the PMD
        threads' exact-match caches, which die with the process too (see
        :meth:`DpifNetdev.cold_start`).  OpenFlow rules are re-installed
        by the controller on reconnect; we keep them, as NSX re-syncs
        immediately.
        """
        self.restarts += 1
        if self.dpif_netdev is not None:
            self.dpif_netdev.cold_start(emcs=emcs)
        if self.dpif_netlink is not None:
            # Kernel flows are flushed too, but netfilter conntrack
            # survives in the kernel.
            self.dpif_netlink.flow_flush()

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """The daemon process died (SIGSEGV, OOM-kill...).

        Nothing is charged — dying is free — but the datapaths diverge
        immediately: the kernel module keeps forwarding its installed
        megaflows and counts new-flow misses as ``lost:`` (no handler
        sockets), while the netdev datapath simply stops (its PMD
        threads died with the process).  The supervisor
        (:mod:`repro.sim.supervisor`) owns detection and the charged
        recovery sequence; this method only severs the daemon's
        datapath attachments.
        """
        if self.dpif_netlink is not None:
            self.dpif_netlink.detach_handler()
        if self.dpif_netdev is not None:
            self.dpif_netdev.upcall_fn = None

    def recover(self) -> None:
        """The restarted daemon re-attaches to its datapath(s).

        State divergence (what survived vs what comes back cold) is
        handled by the supervisor's recovery phases; this re-wires the
        upcall path of the new process."""
        if self.dpif_netlink is not None:
            self.dpif_netlink.attach_handler(self._upcall)
        if self.dpif_netdev is not None:
            self.dpif_netdev.upcall_fn = self._upcall
