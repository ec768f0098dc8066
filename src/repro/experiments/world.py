"""The world table: every P2P/PVP/PCP forwarding world, built in one place.

A *world* is one host forwarding TRex traffic between two physical ports
(``trex-tx -> ens1 -> switch -> ens2 -> trex-rx``), optionally looping
through a VM (PVP) or a container (PCP) on the way.  The table is keyed
by ``(datapath, topology)`` and drawn in DESIGN.md §22:
:func:`cell_support` names the reason for every empty cell and
:func:`build_world` builds every other one.

**Construction order is part of the contract.**  Ifindexes, MACs (drawn
from a process-wide counter), port numbers and rule install order can
all reach the ledgers, so every row builds in one fixed sequence: NICs,
TRex sinks, wires, IRQ affinity, VM or container, vswitchd (a DPDK row
binds its NICs first), ports, flows, PMD threads.  Within "ports",
the kernel loop rows plug the VM or container port between ens1 and
ens2 (and attach the VM's tap together with the VM), while the netdev
loop rows plug it after both NIC ports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.afxdp.driver import AfxdpOptions
from repro.dpdk.ethdev import bind_device
from repro.ebpf.programs import (
    container_ip_key,
    container_redirect_program,
    l2_forward_program,
    l2_key,
)
from repro.ebpf.xdp import XdpContext
from repro.experiments.common import (
    CpuSnapshot,
    PipelineMeasurement,
    reduce_run,
    warmup_count,
)
from repro.hosts.container import Container
from repro.hosts.host import Host
from repro.hosts.vm import VirtualMachine
from repro.kernel.netdev import NetDevice, Wire
from repro.kernel.nic import PhysicalNic
from repro.kernel.tc import TcIngressHook
from repro.net.addresses import MacAddress, ip_to_int
from repro.net.packet import Packet
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.pmd import PmdThread
from repro.ovs.vswitchd import VSwitchd
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext
from repro.tools.conservation import PacketLedger, afxdp_packet_ledger
from repro.traffic.trex import TrexStream

DATAPATHS: Tuple[str, ...] = (
    "kernel", "ebpf", "afxdp_copy", "afxdp_zc", "dpdk")
TOPOLOGIES: Tuple[str, ...] = ("P2P", "PVP", "PCP")

#: The empty cells of the table, and why each has no physical analogue.
UNSUPPORTED: Dict[Tuple[str, str], str] = {
    ("ebpf", "PVP"): "the tc eBPF datapath has no VM attachment here",
    ("ebpf", "PCP"): "the tc eBPF datapath has no container attachment here",
    ("afxdp_copy", "PCP"): (
        "PCP AF_XDP is the in-kernel XDP-redirect path (Fig. 5 C); "
        "no XSK is bound, so copy vs zero-copy does not apply"
    ),
}

#: Rounds a loop pump may take to settle one burst.  A burst settles in
#: a handful; a pump still moving frames after this many is wedged, and
#: says so instead of returning with frames in flight.
PUMP_CAP = 200

#: The container's address: the TRex stream's default destination
#: (``FlowSpec.dst_base``), which a PCP stream with ``vary_dst=False``
#: keeps.
CONTAINER_IP = "48.0.0.1"


def cell_support(datapath: str, topology: str) -> Optional[str]:
    """None when the table builds ``(datapath, topology)``, else why not."""
    if datapath not in DATAPATHS:
        raise ValueError(f"unknown datapath {datapath!r}")
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    return UNSUPPORTED.get((datapath, topology))


class GuestForwarder:
    """testpmd inside the VM: rx queue -> tx queue, burning a vCPU."""

    def __init__(self, vm: VirtualMachine) -> None:
        self.vm = vm
        self.ctx = vm.ctx

    def pump(self, budget: int = 64) -> int:
        costs = DEFAULT_COSTS
        pkts = self.vm.nic.rx_queue.pop_batch(budget)
        for pkt in pkts:
            self.ctx.charge(costs.guest_fwd_ns, label="guest_fwd")
            self.ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
            self.vm.nic.tx_queue.push(pkt)
        return len(pkts)


class ContainerForwarder:
    """A packet-ring forwarder inside the container namespace."""

    def __init__(self, container: Container, ctx: ExecContext) -> None:
        self.container = container
        self.ctx = ctx
        container.inside.set_rx_handler(self._forward)

    def _forward(self, pkt: Packet, _ctx) -> None:
        self.ctx.charge(DEFAULT_COSTS.container_fwd_ns,
                        label="container_fwd")
        # Swap MACs and send straight back out (l2fwd semantics).
        data = pkt.data[6:12] + pkt.data[0:6] + pkt.data[12:]
        self.container.inside.transmit(pkt.with_data(data), self.ctx)


def _sink(sinks: Dict[str, int], name: str, n: int) -> None:
    if n:
        sinks[name] = sinks.get(name, 0) + n


@dataclass
class World:
    """One built row of the table."""

    datapath: str
    topology: str
    host: Host
    nic_in: PhysicalNic
    nic_out: PhysicalNic
    link_gbps: float
    #: None for the daemon-less worlds (eBPF at tc, PCP's XDP redirect).
    vs: Optional[VSwitchd]
    #: PMD thread ``i`` runs on CPU ``i``.
    pmds: List[PmdThread]
    #: ``pump(daemon_up=True)`` drains what was injected as far as the
    #: live layers allow: kernel softirq work runs whether or not the
    #: daemon is up, a dead process's PMD threads do not.
    pump: Callable[..., None]
    #: Measured packets injected between two pumps.
    chunk: int
    #: Per-stream control-plane setup, run by :meth:`drive` (the eBPF
    #: row learns the stream's destination MAC).
    prepare: Callable[[TrexStream], None] = lambda stream: None

    @property
    def name(self) -> str:
        return f"{self.datapath}/{self.topology}"

    @property
    def pmd_cpus(self) -> Tuple[int, ...]:
        return tuple(range(len(self.pmds)))

    def drive(self, stream: TrexStream, n_packets: int) -> PipelineMeasurement:
        """The measured loop of every forwarding experiment: ``prepare``,
        a warm-up long enough to install every flow's caches (pumped
        after each packet), a CPU snapshot, then ``n_packets`` injected
        in ``chunk``-sized bursts with a pump after each, reduced by
        :func:`~repro.experiments.common.reduce_run`."""
        self.prepare(stream)
        inject, pump = self.nic_in.host_receive, self.pump
        for pkt in stream.burst(warmup_count(stream)):
            inject(pkt)
            pump()
        before = CpuSnapshot.take(self.host.cpu)
        chunk = self.chunk
        sent = 0
        while sent < n_packets:
            n = min(chunk, n_packets - sent)
            for pkt in stream.burst(n):
                inject(pkt)
            sent += n
            pump()
        return reduce_run(self.host.cpu, before, n_packets,
                          link_gbps=self.link_gbps,
                          frame_len=stream.frame_len,
                          pmd_cpus=self.pmd_cpus)

    def ledger(self, offered: int,
               extra_sinks: Optional[Dict[str, int]] = None) -> PacketLedger:
        """The P2P conservation ledger once the queues have drained:
        ``offered`` frames either reached ``trex-rx`` or sit in a named
        sink.  ``extra_sinks`` adds outcomes the datapath cannot see,
        such as a supervisor's crash casualties."""
        if self.topology != "P2P":
            raise ValueError(f"{self.name} has no conservation ledger")
        if self.datapath in ("afxdp_copy", "afxdp_zc"):
            dpif = self.vs.dpif_netdev
            return afxdp_packet_ledger(
                offered, self.nic_in,
                dpif.ports[dpif.port_no("ens1")].adapter.driver,
                dpif.ports[dpif.port_no("ens2")].adapter.driver,
                dpif, extra_sinks=extra_sinks)
        sinks = dict(extra_sinks or {})
        _sink(sinks, "nic.rx_missed", self.nic_in.rx_missed)
        if self.datapath == "kernel":
            _sink(sinks, "dp.lost_upcalls", self.vs.dpif_netlink.dp.n_lost)
        elif self.datapath == "ebpf":
            _sink(sinks, "nic.xdp_drops", self.nic_in.xdp_drops)
            _sink(sinks, "nic.xdp_passes_to_stack", self.nic_in.xdp_passes)
        else:
            _sink(sinks, "dp.dropped", self.vs.dpif_netdev.stats.dropped)
        return PacketLedger(offered=offered,
                            forwarded=self.nic_out.wire_peer.stats.rx_packets,
                            sinks=sinks)


def base_host(n_queues: int, link_gbps: float,
              n_cpus: int = 16) -> Tuple[Host, PhysicalNic, PhysicalNic]:
    """Every row's first steps: host ``dut`` with NICs ens1/ens2, each
    wired to a TRex sink, and one IRQ lane per ens1 queue from CPU 0
    upward.  Fig. 10's RR path starts from the same host."""
    host = Host("dut", n_cpus=n_cpus)
    nic_in = host.add_nic("ens1", n_queues=n_queues)
    nic_out = host.add_nic("ens2", n_queues=n_queues)
    sink_in = NetDevice("trex-tx", MacAddress.local(0xF0001))
    sink_out = NetDevice("trex-rx", MacAddress.local(0xF0002))
    for sink in (sink_in, sink_out):
        sink.set_up()
        sink.set_rx_handler(lambda pkt, ctx: None)
    Wire(nic_in, sink_in, gbps=link_gbps)
    Wire(nic_out, sink_out, gbps=link_gbps)
    for q in range(n_queues):
        host.kernel.set_irq_affinity("ens1", q, q % host.cpu.n_cpus)
    return host, nic_in, nic_out


# ----------------------------------------------------------------------
# Pumps.  ``napi`` is the kernel's ``(budget, interrupt_mode)`` for ens1,
# or None where the PMDs own the NIC (DPDK).
# ----------------------------------------------------------------------
def _drain_pump(host: Host, nic: PhysicalNic,
                napi: Optional[Tuple[int, bool]],
                pmds: Sequence[PmdThread]) -> Callable[..., None]:
    """P2P, and the PCP rows that loop back inside one softirq: NAPI
    rounds until ens1 is empty, each followed by a PMD iteration, then
    the PMDs run until idle."""
    kernel = host.kernel
    budget, interrupt_mode = napi or (0, False)

    def pump(daemon_up: bool = True) -> None:
        if napi is not None:
            while nic.pending():
                kernel.service_nic(nic, budget=budget,
                                   interrupt_mode=interrupt_mode)
                if daemon_up:
                    for pmd in pmds:
                        pmd.run_iteration()
        if daemon_up:
            for pmd in pmds:
                pmd.run_until_idle()

    return pump


def _loop_pump(name: str, host: Host, nic: PhysicalNic,
               napi: Optional[Tuple[int, bool]], pmds: Sequence[PmdThread],
               qemu=None, guest: Optional[GuestForwarder] = None
               ) -> Callable[..., None]:
    """The loop rows whose frames come back through a second hop: a round
    is a NAPI round, a PMD iteration, the VM's backend, its forwarder and
    the backend again; rounds repeat until nothing moved and ens1 is
    empty, at most :data:`PUMP_CAP` of them."""
    kernel = host.kernel
    budget, interrupt_mode = napi or (0, False)

    def pump(daemon_up: bool = True) -> None:
        for _ in range(PUMP_CAP):
            moved = 0
            if napi is not None:
                moved += kernel.service_nic(nic, budget=budget,
                                            interrupt_mode=interrupt_mode)
            if daemon_up:
                for pmd in pmds:
                    moved += pmd.run_iteration()
            if qemu is not None:
                moved += qemu.pump()
            if guest is not None:
                moved += guest.pump()
            if qemu is not None:
                moved += qemu.pump()
            if not moved and not nic.pending():
                return
        raise AssertionError(
            f"{name} world still moving frames after {PUMP_CAP} pump "
            f"rounds ({nic.pending()} pending on {nic.name})")

    return pump


# ----------------------------------------------------------------------
# The rows.
# ----------------------------------------------------------------------
@dataclass
class _Row:
    """What a row builder gets: the knobs and the base host."""

    datapath: str
    topology: str
    link_gbps: float
    options: AfxdpOptions
    pmd_main_thread_mode: bool
    vm_attach: str
    napi_budget: Optional[int]
    source_rules: Sequence[int]
    host: Host
    nic_in: PhysicalNic
    nic_out: PhysicalNic

    @property
    def afxdp(self) -> bool:
        return self.datapath in ("afxdp_copy", "afxdp_zc")

    def switch(self, plug=None) -> Tuple[VSwitchd, str]:
        """vswitchd, bridge br0, the NIC ports and, on a loop row, the
        VM or container port ``plug(vs) -> (port, name)``; then one
        ``in_port`` rule per hop.  Returns vswitchd and the name of the
        port ens1's traffic goes to."""
        devices = [self.nic_in, self.nic_out]
        if self.datapath == "dpdk":
            devices = [bind_device(self.host.kernel.init_ns, dev.name)
                       for dev in devices]
        kernel = self.datapath == "kernel"
        vs = self.host.install_ovs("system" if kernel else "netdev")
        vs.add_bridge("br0")

        def add(device):
            if kernel:
                return vs.add_system_port("br0", device)
            if self.datapath == "dpdk":
                return vs.add_dpdk_port("br0", device)
            return vs.add_afxdp_port("br0", device, self.options)

        p_in = add(devices[0])
        if plug is not None and kernel:
            plugged, plugged_name = plug(vs)
        add(devices[1])
        if plug is not None and not kernel:
            plugged, plugged_name = plug(vs)
        hops = [(p_in.ofport, "ens2")] if plug is None else [
            (p_in.ofport, plugged_name), (plugged.ofport, "ens2")]
        of = OpenFlowConnection(vs.bridge("br0"))
        first_in, first_out = hops[0]
        for src in self.source_rules:
            of.add_flow(0, 20, Match(in_port=first_in, nw_src=src),
                        [OutputAction(first_out)])
        for in_port, out in hops:
            of.add_flow(0, 10, Match(in_port=in_port), [OutputAction(out)])
        return vs, first_out

    def pmd(self, vs: VSwitchd, core: int, ports: Sequence[str],
            queue: int = 0) -> PmdThread:
        dpif = vs.dpif_netdev
        kwargs = {"main_thread_mode": self.pmd_main_thread_mode}
        if self.afxdp:
            kwargs["batch_size"] = self.options.batch_size
        pmd = PmdThread(dpif, self.host.cpu, core=core, **kwargs)
        for name in ports:
            pmd.add_rxq(dpif.ports[dpif.port_no(name)], queue)
        return pmd

    def napi(self, budget: int = 8, interrupt_mode: bool = True,
             irq_cpu: Optional[Callable[[int], int]] = None
             ) -> Optional[Tuple[int, bool]]:
        """The row's NAPI service of ens1.  Without a ``napi_budget``
        knob the row's own tuning applies, its IRQ lanes moved to
        ``irq_cpu(q)`` where given; with one, plain interrupt-driven
        NAPI at that budget on the base IRQ lanes."""
        if self.datapath == "dpdk":
            return None
        if self.napi_budget is not None:
            return self.napi_budget, True
        if irq_cpu is not None:
            for q in range(self.nic_in.n_queues):
                self.host.kernel.set_irq_affinity("ens1", q, irq_cpu(q))
        return budget, interrupt_mode

    def world(self, vs: Optional[VSwitchd], pmds: List[PmdThread],
              pump: Callable[..., None], chunk: int = 32, **kw) -> World:
        return World(self.datapath, self.topology, self.host, self.nic_in,
                     self.nic_out, self.link_gbps, vs, pmds, pump, chunk,
                     **kw)


def _p2p(r: _Row) -> World:
    host, nic_in, nic_out = r.host, r.nic_in, r.nic_out
    if r.datapath == "ebpf":
        program, fib = l2_forward_program()
        TcIngressHook(nic_in, program, host.kernel.init_ns)

        def learn(stream: TrexStream) -> None:
            fib.update(l2_key(stream.next_packet().data[0:6]),
                       nic_out.ifindex.to_bytes(4, "little"))

        return r.world(None, [], _drain_pump(host, nic_in, r.napi(), []),
                       chunk=64, prepare=learn)
    vs, _ = r.switch()
    if r.datapath == "kernel":
        return r.world(vs, [], _drain_pump(host, nic_in, r.napi(), []),
                       chunk=64)
    n_queues = nic_in.n_queues
    pmds = [r.pmd(vs, q, ["ens1"], queue=q) for q in range(n_queues)]
    chunk = r.options.batch_size if r.afxdp else 32
    # Softirq lanes sit on the CPUs after the PMDs, so PMD and kernel
    # work never collide on a hyperthread pair.
    napi = r.napi(r.options.batch_size, r.options.interrupt_mode,
                  lambda q: (n_queues + q) % host.cpu.n_cpus)
    return r.world(vs, pmds, _drain_pump(host, nic_in, napi, pmds),
                   chunk=chunk)


def _pvp(r: _Row) -> World:
    """The guest runs a testpmd-style forwarder bouncing frames from its
    virtio rx queue to its tx queue."""
    vm = VirtualMachine(r.host, "vm1", "10.0.0.5", vcpu_core=12)
    if r.datapath == "kernel":
        vm.attach_tap(qemu_core=13)
    guest = GuestForwarder(vm)

    def plug(vs: VSwitchd):
        if r.datapath == "kernel" or (r.afxdp and r.vm_attach == "tap"):
            tap = vm.tap or vm.attach_tap(qemu_core=13)
            return vs.add_system_port("br0", tap), tap.name
        return (vs.add_vhostuser_port("br0", vm.attach_vhostuser()),
                f"vhost-{vm.name}")

    vs, vm_port = r.switch(plug)
    pmds = [] if r.datapath == "kernel" else [
        r.pmd(vs, 0, ["ens1", vm_port])]
    napi = r.napi() if r.datapath == "kernel" else r.napi(
        r.options.batch_size, r.options.interrupt_mode, lambda q: 2)
    return r.world(vs, pmds, _loop_pump(r.datapath + "/PVP", r.host,
                                        r.nic_in, napi, pmds, vm.qemu, guest))


def _pcp(r: _Row) -> World:
    """The container runs a PACKET_MMAP-style ring forwarder on its veth."""
    host, nic_in, nic_out = r.host, r.nic_in, r.nic_out
    container = Container(host, "c1", CONTAINER_IP)
    ContainerForwarder(container, host.user_ctx(12, name="c1-fwd"))
    veth = container.outside
    if r.datapath == "afxdp_zc":
        # Figure 5 path C: the XDP program redirects container traffic
        # to the veth, and the veth's own XDP program sends the replies
        # straight to ens2 — "it processes packets in-kernel ...
        # avoiding the costly userspace-to-kernel overhead" (§5.2).
        program, _xsks, devs, ip_table = container_redirect_program()
        nic_in.attach_xdp(XdpContext(program))
        devs.set_dev(0, veth.ifindex)
        ip_table.update(container_ip_key(ip_to_int(CONTAINER_IP)),
                        (0).to_bytes(4, "little"))
        return_ctx = host.kernel.softirq_ctx(1)

        def veth_return(pkt: Packet, _ctx) -> None:
            return_ctx.charge(
                DEFAULT_COSTS.xdp_ctx_setup_ns + DEFAULT_COSTS.xdp_redirect_ns,
                label="veth_xdp",
            )
            nic_out.transmit(pkt, return_ctx)

        veth.set_rx_handler(veth_return)
        return r.world(None, [], _drain_pump(host, nic_in, r.napi(32), []))
    # The kernel module reaches the veth within the softirq; DPDK goes
    # through an AF_PACKET-style port, syscalls and copies both ways
    # (§5.2: "the costly userspace-to-kernel DPDK overhead").
    vs, _ = r.switch(lambda vs: (vs.add_system_port("br0", veth), veth.name))
    if r.datapath == "kernel":
        return r.world(vs, [], _drain_pump(host, nic_in, r.napi(), []))
    pmds = [r.pmd(vs, 0, ["ens1", veth.name])]
    return r.world(vs, pmds, _loop_pump("dpdk/PCP", host, nic_in, None, pmds))


_BUILDERS: Dict[str, Callable[[_Row], World]] = {
    "P2P": _p2p, "PVP": _pvp, "PCP": _pcp}


def build_world(
    datapath: str,
    topology: str,
    *,
    link_gbps: float = 25.0,
    n_queues: Optional[int] = None,
    n_cpus: int = 16,
    options: Optional[AfxdpOptions] = None,
    pmd_main_thread_mode: bool = False,
    vm_attach: str = "vhostuser",
    napi_budget: Optional[int] = None,
    source_rules: Sequence[int] = (),
) -> World:
    """Build the ``(datapath, topology)`` row of the table.

    * ``n_queues``: ens1/ens2 queues, one PMD each on a P2P userspace
      row; the kernel's P2P and PVP rows default to RSS over 10 IRQ
      lanes, every other row to 1.
    * ``options``: the AF_XDP ports' options; the datapath fixes
      ``force_copy_mode`` (True for ``afxdp_copy``, False for
      ``afxdp_zc``).
    * ``pmd_main_thread_mode``: the PMDs share the main thread.
    * ``vm_attach``: ``"vhostuser"`` or ``"tap"``, how the AF_XDP PVP
      rows plug the VM in (the kernel row always uses a tap, DPDK
      vhostuser).
    * ``napi_budget``: None keeps each row's tuned NIC service (the
      kernel takes an interrupt every 8 packets; AF_XDP's softirq works
      at the PMD batch size, off the PMD cores).  A number is plain
      interrupt-driven NAPI at that budget on the base IRQ lanes: the
      untuned host the upgrade and degradation runs crash.
    * ``source_rules``: one priority-20 rule per source IP ahead of the
      ingress ``in_port`` rule, so every flow pays its own upcall and
      megaflow.
    """
    reason = cell_support(datapath, topology)
    if reason is not None:
        raise ValueError(f"no {datapath}/{topology} world: {reason}")
    if vm_attach not in ("vhostuser", "tap"):
        raise ValueError(f"unknown VM attachment {vm_attach!r}")
    if n_queues is None:
        n_queues = 10 if datapath == "kernel" and topology != "PCP" else 1
    copy_mode = {"afxdp_copy": True, "afxdp_zc": False}.get(datapath)
    host, nic_in, nic_out = base_host(n_queues, link_gbps, n_cpus)
    return _BUILDERS[topology](_Row(
        datapath, topology, link_gbps,
        replace(options or AfxdpOptions(), force_copy_mode=copy_mode),
        pmd_main_thread_mode, vm_attach, napi_budget, source_rules,
        host, nic_in, nic_out))
