"""The world table: every forwarding and endpoint world, built in one place.

A *forwarding* world is one host forwarding TRex traffic between two
physical ports (``trex-tx -> ens1 -> switch -> ens2 -> trex-rx``),
optionally looping through a VM (PVP) or a container (PCP) on the way.
An *endpoint* world carries traffic between two ends the experiment
drives itself: a wire and a VM (W2V, Fig. 10), two VMs on one host (V2V,
Fig. 8b) or on two hosts over Geneve (V2V-geneve, Fig. 8a), or two
containers (C2C, Figs. 8c and 11).  The table is keyed by
``(datapath, topology)`` and drawn in DESIGN.md §22: :func:`cell_support`
names the reason for every empty cell and :func:`build_world` builds
every other one.

**Construction order is part of the contract.**  Ifindexes, MACs (drawn
from a process-wide counter), port numbers and rule install order can
all reach the ledgers, so every row builds in one fixed sequence: NICs,
TRex sinks, wires, IRQ affinity, VMs or containers, vswitchd (a DPDK row
binds its NICs first), ports, flows, PMD threads.  Within "ports", the
kernel loop rows plug the VM or container port between ens1 and ens2
(and attach each VM's tap together with the VMs), while the netdev rows
plug it after the NIC ports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.hosts.testbed import Testbed
from repro.hosts.vm import VirtualMachine
from repro.kernel.netdev import NetDevice, Wire
from repro.kernel.nic import PhysicalNic
from repro.kernel.tc import TcIngressHook
from repro.net.addresses import MacAddress, ip_to_int
from repro.net.packet import Packet
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.ofproto import OfPort
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.pmd import PmdThread
from repro.ovs.vswitchd import VSwitchd
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, ExecContext
from repro.tools.conservation import PacketLedger
from repro.traffic.trex import TrexStream

DATAPATHS: Tuple[str, ...] = (
    "kernel", "ebpf", "afxdp_copy", "afxdp_zc", "dpdk")
TOPOLOGIES: Tuple[str, ...] = ("P2P", "PVP", "PCP")
#: The endpoint rows, whose traffic starts and ends outside TRex.
ENDPOINTS: Tuple[str, ...] = ("W2V", "V2V", "V2V-geneve", "C2C")

#: The empty cells of the table, and why each has no physical analogue.
UNSUPPORTED: Dict[Tuple[str, str], str] = {
    **{("ebpf", topology): "the tc eBPF datapath has no VM attachment here"
       for topology in ("PVP", "W2V", "V2V", "V2V-geneve")},
    **{("ebpf", topology):
       "the tc eBPF datapath has no container attachment here"
       for topology in ("PCP", "C2C")},
    ("afxdp_copy", "PCP"): (
        "PCP AF_XDP is the in-kernel XDP-redirect path (Fig. 5 C); "
        "no XSK is bound, so copy vs zero-copy does not apply"
    ),
    ("afxdp_copy", "V2V"): (
        "VM-to-VM traffic on one host reaches no NIC, so no XSK is bound "
        "and copy vs zero-copy does not apply"
    ),
    ("dpdk", "V2V-geneve"): (
        "the tunnel resolves its underlay route and neighbour through "
        "the kernel's ens1, which binding it to DPDK removes; a DPDK "
        "VTEP needs its address on the bridge port, not modelled here"
    ),
}

#: Rounds a loop pump may take to settle.  A burst or a transaction
#: settles in a handful; a pump still moving frames after this many is
#: wedged, and says so instead of returning with frames in flight.
PUMP_CAP = 200

#: The container's address: the TRex stream's default destination
#: (``FlowSpec.dst_base``), which a PCP stream with ``vary_dst=False``
#: keeps.
CONTAINER_IP = "48.0.0.1"


def cell_support(datapath: str, topology: str) -> Optional[str]:
    """None when the table builds ``(datapath, topology)``, else why not."""
    if datapath not in DATAPATHS:
        raise ValueError(f"unknown datapath {datapath!r}")
    if topology not in TOPOLOGIES + ENDPOINTS:
        raise ValueError(f"unknown topology {topology!r}")
    return UNSUPPORTED.get((datapath, topology))


@dataclass(frozen=True)
class Endpoints:
    """An endpoint topology and what its experiment brings to it."""

    shape: str
    #: ``pipeline(vs, bridge, a, b)`` installs the flows between the two
    #: ends' ports ``a`` and ``b``; None is the in_port cross-connect.
    #: The Geneve row has no default: its pipeline also decapsulates
    #: what the uplink receives onto the tunnel port ``b``.
    pipeline: Optional[Callable[[VSwitchd, str, OfPort, OfPort], None]] = None
    #: Checksum and TSO offload of the ends' devices: the VMs' virtio
    #: NICs or the containers' veths.
    csum: bool = True
    tso: bool = True


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


class VethAfxdpAdapter:
    """AF_XDP on a veth (§3.4 path A): copy mode, no offloads.

    The veth had no zero-copy AF_XDP in this kernel generation, so every
    packet is copied into the umem and back out.
    """

    n_rxq = 1

    def __init__(self, device) -> None:
        self.device = device
        self._rx: List = []
        device.set_rx_handler(lambda pkt, ctx: self._rx.append(pkt))

    @staticmethod
    def _umem_frames(pkt) -> int:
        # AF_XDP umem frames are 2 kB: a GSO super-frame occupies many,
        # each with its own descriptor, copy and dp_packet.
        return max(1, -(-len(pkt) // 2048))

    def rx_burst(self, ctx: ExecContext, batch: int = 32,
                 queue: int = 0) -> List:
        costs = DEFAULT_COSTS
        n = min(batch, len(self._rx))
        if n == 0:
            return []
        pkts, self._rx = self._rx[:n], self._rx[n:]
        ctx.charge(costs.ring_batch_ns + n * costs.ring_op_ns, label="xsk_rx")
        for pkt in pkts:
            frames = self._umem_frames(pkt)
            ctx.charge(frames * costs.afxdp_copy_mode_ns
                       + costs.copy_cost(len(pkt)), label="afxdp_copy")
            ctx.charge(frames * (costs.dp_packet_init_ns + costs.ring_op_ns)
                       + costs.software_rxhash_ns, label="dp_packet")
        return pkts

    def tx_burst(self, pkts: List, ctx: ExecContext, queue: int = 0) -> int:
        costs = DEFAULT_COSTS
        ctx.charge(costs.ring_batch_ns + len(pkts) * costs.ring_op_ns,
                   label="xsk_tx")
        with ctx.as_category(CpuCategory.SYSTEM):
            ctx.charge(costs.syscall_base_ns, label="tx_kick")
            for pkt in pkts:
                frames = self._umem_frames(pkt)
                ctx.charge(frames * costs.ring_op_ns
                           + costs.copy_cost(len(pkt)), label="afxdp_copy")
                self.device.transmit(pkt, ctx)
        return len(pkts)


def _veth_xdp_redirect(veth: NetDevice, dst: NetDevice) -> None:
    """Figure 5 path C between two veths: an XDP program on ``veth``
    redirects every frame to ``dst`` in the kernel, inline in the
    sender's context as real veth XDP runs."""
    costs = DEFAULT_COSTS

    def handler(pkt: Packet, ctx: ExecContext) -> None:
        ctx.charge(
            costs.xdp_ctx_setup_ns + costs.dma_first_touch_ns
            + costs.ebpf_map_lookup_ns + costs.xdp_redirect_ns,
            label="veth_xdp",
        )
        dst.transmit(pkt, ctx)

    veth.set_rx_handler(handler)


def _prime_neighbors(a: VirtualMachine, b: VirtualMachine) -> None:
    """Static ARP between two guests, as the testbed primes its underlay."""
    a.kernel.init_ns.neighbors.update(
        ip_to_int(b.ip), b.nic.mac, a.nic.ifindex, permanent=True)
    b.kernel.init_ns.neighbors.update(
        ip_to_int(a.ip), a.nic.mac, b.nic.ifindex, permanent=True)


@dataclass
class World:
    """One built row of the table."""

    datapath: str
    topology: str
    host: Host
    #: ens1 and ens2 of the base host; None where the row has no NIC.
    nic_in: Optional[PhysicalNic]
    nic_out: Optional[PhysicalNic]
    link_gbps: float
    #: None for the daemon-less worlds (eBPF at tc, the XDP redirects).
    vs: Optional[VSwitchd]
    #: PMD thread ``i`` runs on CPU ``i``.
    pmds: List[PmdThread]
    #: A P2P or softirq PCP row's ``pump(daemon_up=True)`` drains what
    #: was injected as far as the live layers allow: kernel softirq work
    #: runs whether or not the daemon is up, a dead process's PMD
    #: threads do not.  Every other row's ``pump()`` is a
    #: :func:`bounded_pump` that settles it.
    pump: Callable[..., Any]
    #: Measured packets injected between two pumps.
    chunk: int
    #: Per-stream control-plane setup, run by :meth:`drive` (the eBPF
    #: row learns the stream's destination MAC).
    prepare: Callable[[TrexStream], None] = lambda stream: None
    #: An endpoint world's client and server ends: VMs, containers, or
    #: (W2V) the VM and ens1, whose wire leads to the server host.
    ends: Tuple[Any, ...] = ()

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
        """The conservation ledger once the queues have drained:
        ``offered`` frames either reached ``trex-rx``, where TRex counts
        them, or sit in a sink of ens1 or the switch.  ``extra_sinks``
        adds outcomes no layer can see, such as a supervisor's crash
        casualties.  An endpoint world has no TRex ends, so no ledger."""
        if self.ends:
            raise ValueError(f"{self.name} has no conservation ledger")
        layers = [self.nic_in]
        if self.vs is not None:
            layers += self.vs.ledger_layers()
        trex_rx = self.nic_out.wire_peer
        return PacketLedger.of(offered, trex_rx.stats.rx_packets, layers,
                               extra_sinks)


def base_host(n_queues: int, link_gbps: float,
              n_cpus: int = 16) -> Tuple[Host, PhysicalNic, PhysicalNic]:
    """The forwarding rows' and W2V's first steps: host ``dut`` with NICs
    ens1/ens2, each wired to a TRex sink, and one IRQ lane per ens1 queue
    from CPU 0 upward."""
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
# Pumps.  ``napi`` is the kernel's ``(budget, interrupt_mode)`` for a
# NIC, or None where the PMDs own the NIC (DPDK).
# ----------------------------------------------------------------------
def _napi_stages(host: Host, nic: PhysicalNic,
                 napi: Optional[Tuple[int, bool]]) -> List[Callable[[], int]]:
    if napi is None:
        return []
    budget, interrupt_mode = napi
    return [partial(host.kernel.service_nic, nic, budget=budget,
                    interrupt_mode=interrupt_mode)]


def bounded_pump(name: str, stages: Sequence[Callable[[], int]],
                 pending: Optional[Callable[[], int]] = None
                 ) -> Callable[[], int]:
    """The pump of every world whose frames cross more than one hop.

    A round calls each stage once, in order, and sums the frames they
    moved; rounds repeat until one moves nothing and ``pending()`` (the
    NIC queues, where the world has any) is zero.  A world still moving
    after :data:`PUMP_CAP` rounds raises ``AssertionError`` naming the
    world, the cap and the frames pending, instead of returning with
    frames in flight.  A settled pump returns 0, so it can be a stage of
    a larger world's.
    """
    stages = tuple(stages)

    def pump() -> int:
        for _ in range(PUMP_CAP):
            moved = 0
            for stage in stages:
                moved += stage()
            if not moved and (pending is None or not pending()):
                return 0
        left = "" if pending is None else f" ({pending()} frames pending)"
        raise AssertionError(
            f"{name} world still moving frames after {PUMP_CAP} pump "
            f"rounds{left}")

    return pump


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


# ----------------------------------------------------------------------
# The rows.
# ----------------------------------------------------------------------
def _in_port_rules(of: OpenFlowConnection,
                   hops: Sequence[Tuple[int, str]]) -> None:
    """One priority-10 ``in_port=<in> -> output:<out>`` rule per hop."""
    for in_port, out in hops:
        of.add_flow(0, 10, Match(in_port=in_port), [OutputAction(out)])


@dataclass
class _Row:
    """What a row builder gets: the knobs, then the host it builds on."""

    datapath: str
    topology: str
    ends: Endpoints
    link_gbps: float
    n_queues: int
    n_cpus: int
    options: AfxdpOptions
    pmd_main_thread_mode: bool
    vm_attach: str
    napi_budget: Optional[int]
    source_rules: Sequence[int]
    host: Optional[Host] = None
    nic_in: Optional[PhysicalNic] = None
    nic_out: Optional[PhysicalNic] = None

    @property
    def afxdp(self) -> bool:
        return self.datapath in ("afxdp_copy", "afxdp_zc")

    @property
    def kernel(self) -> bool:
        return self.datapath == "kernel"

    def at(self, host: Host, nic_in: Optional[PhysicalNic] = None,
           nic_out: Optional[PhysicalNic] = None) -> "_Row":
        return replace(self, host=host, nic_in=nic_in, nic_out=nic_out)

    def ovs(self, bridge: str) -> VSwitchd:
        """vswitchd of the row's datapath type, with one bridge."""
        vs = self.host.install_ovs("system" if self.kernel else "netdev")
        vs.add_bridge(bridge)
        return vs

    def add_nic(self, vs: VSwitchd, bridge: str, device) -> OfPort:
        """A NIC port; a DPDK row's ``device`` is the bound ethdev."""
        if self.kernel:
            return vs.add_system_port(bridge, device)
        if self.datapath == "dpdk":
            return vs.add_dpdk_port(bridge, device)
        return vs.add_afxdp_port(bridge, device, self.options)

    def guests(self, *specs: Tuple[str, str, int]) -> List[VirtualMachine]:
        """One VM per ``(name, ip, vcpu_core)``, with the ends' offloads;
        a kernel row then attaches each VM's tap, its backend on the
        core after the vCPU.  §5.1's tap VMs (the V2V rows) run QEMU's
        userspace backend; the others vhost-net."""
        vms = [VirtualMachine(self.host, name, ip, vcpu_core=core,
                              csum_offload=self.ends.csum, tso=self.ends.tso)
               for name, ip, core in specs]
        if self.kernel:
            for vm in vms:
                self._tap(vm)
        return vms

    def _tap(self, vm: VirtualMachine):
        return vm.tap or vm.attach_tap(
            qemu_core=vm.vcpu_core + 1,
            vhost_net=not self.topology.startswith("V2V"))

    def vm_port(self, vs: VSwitchd, bridge: str,
                vm: VirtualMachine) -> Tuple[OfPort, str]:
        """The VM's port and its name: its tap on the kernel row and the
        AF_XDP rows with ``vm_attach="tap"``, vhostuser otherwise."""
        if self.kernel or (self.afxdp and self.vm_attach == "tap"):
            tap = self._tap(vm)
            return vs.add_system_port(bridge, tap), tap.name
        return (vs.add_vhostuser_port(bridge, vm.attach_vhostuser()),
                f"vhost-{vm.name}")

    def connect(self, vs: VSwitchd, bridge: str, a: OfPort,
                b: OfPort) -> None:
        """The ends' pipeline between ports ``a`` and ``b``; by default
        the in_port cross-connect."""
        if self.ends.pipeline is not None:
            self.ends.pipeline(vs, bridge, a, b)
            return
        of = OpenFlowConnection(vs.bridge(bridge))
        _in_port_rules(of, [(a.ofport, b.name), (b.ofport, a.name)])

    def switch(self, plug=None) -> Tuple[VSwitchd, str]:
        """vswitchd, bridge br0, the NIC ports and, on a loop row, the
        VM or container port ``plug(vs) -> (port, name)``; then one
        ``in_port`` rule per hop.  Returns vswitchd and the name of the
        port ens1's traffic goes to."""
        devices = [self.nic_in, self.nic_out]
        if self.datapath == "dpdk":
            devices = [bind_device(self.host.kernel.init_ns, dev.name)
                       for dev in devices]
        vs = self.ovs("br0")
        p_in = self.add_nic(vs, "br0", devices[0])
        if plug is not None and self.kernel:
            plugged, plugged_name = plug(vs)
        self.add_nic(vs, "br0", devices[1])
        if plug is not None and not self.kernel:
            plugged, plugged_name = plug(vs)
        hops = [(p_in.ofport, "ens2")] if plug is None else [
            (p_in.ofport, plugged_name), (plugged.ofport, "ens2")]
        of = OpenFlowConnection(vs.bridge("br0"))
        first_in, first_out = hops[0]
        for src in self.source_rules:
            of.add_flow(0, 20, Match(in_port=first_in, nw_src=src),
                        [OutputAction(first_out)])
        _in_port_rules(of, hops)
        return vs, first_out

    def pmd(self, vs: VSwitchd, core: int, ports: Sequence[str],
            queue: int = 0) -> PmdThread:
        """The PMD thread on ``core``, polling rx queue ``queue`` of each
        named port."""
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
        """The row's NAPI service of its NIC.  Without a ``napi_budget``
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
              pump: Callable[..., Any], chunk: int = 32, **kw) -> World:
        return World(self.datapath, self.topology, self.host, self.nic_in,
                     self.nic_out, self.link_gbps, vs, pmds, pump, chunk,
                     **kw)


def _p2p(r: _Row) -> World:
    r = r.at(*base_host(r.n_queues, r.link_gbps, r.n_cpus))
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
    if r.kernel:
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
    r = r.at(*base_host(r.n_queues, r.link_gbps, r.n_cpus))
    [vm] = r.guests(("vm1", "10.0.0.5", 12))
    guest = GuestForwarder(vm)
    vs, vm_port = r.switch(lambda vs: r.vm_port(vs, "br0", vm))
    pmds = [] if r.kernel else [r.pmd(vs, 0, ["ens1", vm_port])]
    napi = r.napi() if r.kernel else r.napi(
        r.options.batch_size, r.options.interrupt_mode, lambda q: 2)
    # A round: NAPI, the PMD, the VM's backend, its forwarder, the
    # backend again.
    backend = [vm.qemu.pump] if vm.qemu is not None else []
    stages = (_napi_stages(r.host, r.nic_in, napi)
              + [pmd.run_iteration for pmd in pmds]
              + backend + [guest.pump] + backend)
    return r.world(vs, pmds, bounded_pump(r.datapath + "/PVP", stages,
                                          r.nic_in.pending))


def _pcp(r: _Row) -> World:
    """The container runs a PACKET_MMAP-style ring forwarder on its veth."""
    r = r.at(*base_host(r.n_queues, r.link_gbps, r.n_cpus))
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
    if r.kernel:
        return r.world(vs, [], _drain_pump(host, nic_in, r.napi(), []))
    pmds = [r.pmd(vs, 0, ["ens1", veth.name])]
    return r.world(vs, pmds, bounded_pump(
        "dpdk/PCP", [pmds[0].run_iteration], nic_in.pending))


def _w2v(r: _Row) -> World:
    """Fig. 10: a VM cross-connected with ens1, whose wire leads to the
    host that answers it."""
    r = r.at(*base_host(r.n_queues, r.link_gbps, r.n_cpus))
    host, nic = r.host, r.nic_in
    [vm] = r.guests(("vm1", "10.0.0.5", 12))
    vs = r.ovs("br0")
    uplink = r.add_nic(vs, "br0", bind_device(host.kernel.init_ns, nic.name)
                       if r.datapath == "dpdk" else nic)
    vif, vif_name = r.vm_port(vs, "br0", vm)
    r.connect(vs, "br0", vif, uplink)
    pmds = [] if r.kernel else [r.pmd(vs, 0, [nic.name, vif_name])]
    stages = ([pmd.run_iteration for pmd in pmds]
              + _napi_stages(host, nic, r.napi())
              + ([vm.qemu.pump] if vm.qemu is not None else []))
    return r.world(vs, pmds, bounded_pump(f"{r.datapath}/W2V", stages,
                                          nic.pending), ends=(vm, nic))


def _v2v(r: _Row) -> World:
    """Fig. 8b: two VMs on one host."""
    r = r.at(Host("dut", n_cpus=r.n_cpus))
    vms = r.guests(("vm1", "10.0.0.1", 12), ("vm2", "10.0.0.2", 14))
    _prime_neighbors(*vms)
    vs = r.ovs("br-int")
    (a, a_name), (b, b_name) = [r.vm_port(vs, "br-int", vm) for vm in vms]
    r.connect(vs, "br-int", a, b)
    pmds = [] if r.kernel else [r.pmd(vs, 0, [a_name, b_name])]
    stages = ([vm.qemu.pump for vm in vms if vm.qemu is not None]
              + [pmd.run_iteration for pmd in pmds] + [vm.pump for vm in vms])
    return r.world(vs, pmds, bounded_pump(f"{r.datapath}/V2V", stages),
                   ends=tuple(vms))


def _geneve_side(r: _Row, vm_name: str, vm_ip: str, remote_vtep: str):
    """One host of the Geneve row: its VM, its switch tunnelling to
    ``remote_vtep`` and the pump that settles this host alone."""
    host, nic = r.host, r.nic_in
    [vm] = r.guests((vm_name, vm_ip, 12))
    vs = r.ovs("br-int")
    r.add_nic(vs, "br-int", nic)
    vif, vif_name = r.vm_port(vs, "br-int", vm)
    tun = vs.add_tunnel_port("br-int", "geneve0", "geneve", remote_vtep,
                             key=77)
    r.connect(vs, "br-int", vif, tun)
    if r.kernel:
        pmds = []
        stages = _napi_stages(host, nic, r.napi(16)) + [vm.qemu.pump]
    else:
        pmds = [r.pmd(vs, 0, [nic.name, vif_name])]
        stages = ([vm.qemu.pump] if vm.qemu is not None else []) + [
            pmds[0].run_iteration] + _napi_stages(
                host, nic, r.napi(16, r.options.interrupt_mode))
    stages.append(vm.pump)
    name = f"{r.datapath}/V2V-geneve {host.name}"
    return vm, vs, pmds, bounded_pump(name, stages, nic.pending)


def _v2v_geneve(r: _Row) -> World:
    """Fig. 8a: a VM on each of two back-to-back hosts, their switches
    joined by a Geneve tunnel over the underlay."""
    testbed = Testbed(link_gbps=r.link_gbps, n_cpus=r.n_cpus,
                      n_queues=r.n_queues)
    testbed.configure_underlay()
    nics = [host.nics["ens1"] for host in testbed.hosts]
    for nic in nics:
        # Overlay deployments raise the underlay MTU to fit the Geneve
        # headers around full-size inner frames (NSX requires >= 1600).
        nic.mtu = 1600
    (vm_a, vs, pmds_a, pump_a), (vm_b, _vs, pmds_b, pump_b) = (
        _geneve_side(r.at(testbed.a, nics[0]), "vm-a", "10.0.0.1",
                     "192.168.1.2"),
        _geneve_side(r.at(testbed.b, nics[1]), "vm-b", "10.0.0.2",
                     "192.168.1.1"))
    _prime_neighbors(vm_a, vm_b)

    def pending() -> int:
        return (nics[0].pending() + nics[1].pending()
                + len(vm_a.nic.tx_queue) + len(vm_b.nic.tx_queue))

    pump = bounded_pump(f"{r.datapath}/V2V-geneve", (pump_a, pump_b), pending)
    return r.at(testbed.a).world(vs, pmds_a + pmds_b, pump,
                                 ends=(vm_a, vm_b))


def _c2c(r: _Row) -> World:
    """Figs. 8c and 11: two containers on one host."""
    r = r.at(Host("dut", n_cpus=r.n_cpus))
    c1 = Container(r.host, "c1", "172.17.0.2")
    c2 = Container(r.host, "c2", "172.17.0.3")
    for veth in (c1.outside, c1.inside, c2.outside, c2.inside):
        veth.csum_offload = r.ends.csum
        # An XDP program or an XSK on a veth disables GSO through it:
        # super-segments pay software segmentation at the veth boundary.
        # (The MTU is raised so a cost-charged super-frame still
        # traverses the simulated path in one piece.)
        veth.tso = r.ends.tso and not r.afxdp
        veth.mtu = 65535
    name = f"{r.datapath}/C2C"
    if r.datapath == "afxdp_zc":
        _veth_xdp_redirect(c1.outside, c2.outside)
        _veth_xdp_redirect(c2.outside, c1.outside)
        return r.world(None, [], bounded_pump(name, ()), ends=(c1, c2))
    vs = r.ovs("br0")
    p1, p2 = (_add_veth_xsk_port(vs, "br0", veth)
              if r.datapath == "afxdp_copy"
              else vs.add_system_port("br0", veth)
              for veth in (c1.outside, c2.outside))
    r.connect(vs, "br0", p1, p2)
    pmds = [] if r.kernel else [r.pmd(vs, 0, [p1.name, p2.name])]
    return r.world(vs, pmds, bounded_pump(
        name, [pmd.run_iteration for pmd in pmds]), ends=(c1, c2))


def _add_veth_xsk_port(vs: VSwitchd, bridge: str, veth: NetDevice) -> OfPort:
    """A userspace-datapath port reading the veth through an XSK in copy
    mode (:class:`VethAfxdpAdapter`)."""
    dp = vs.dpif_netdev.add_port(veth.name, VethAfxdpAdapter(veth),
                                 device=veth)
    br = vs.bridge(bridge)
    port = br.add_port(veth.name, dp.port_no)
    vs.ofproto.register_port(br, port)
    return port


_BUILDERS: Dict[str, Callable[[_Row], World]] = {
    "P2P": _p2p, "PVP": _pvp, "PCP": _pcp, "W2V": _w2v, "V2V": _v2v,
    "V2V-geneve": _v2v_geneve, "C2C": _c2c}


def build_world(
    datapath: str,
    topology: "str | Endpoints",
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

    ``topology`` is a name, or for an endpoint row an :class:`Endpoints`
    carrying the experiment's pipeline and the ends' offloads (the
    forwarding rows take only their name; V2V-geneve only a spec with a
    pipeline).

    * ``n_queues``: NIC queues, one PMD each on a P2P userspace row; the
      kernel's P2P and PVP rows default to RSS over 10 IRQ lanes, every
      other row to 1.
    * ``options``: the AF_XDP ports' options; the datapath fixes
      ``force_copy_mode`` (True for ``afxdp_copy``, False for
      ``afxdp_zc``).
    * ``pmd_main_thread_mode``: the PMDs share the main thread.
    * ``vm_attach``: ``"vhostuser"`` or ``"tap"``, how the AF_XDP rows
      plug a VM in (the kernel rows always use a tap, DPDK vhostuser).
    * ``napi_budget``: None keeps each row's tuned NIC service (the
      kernel takes an interrupt every 8 packets, 16 on the Geneve
      underlay; AF_XDP's softirq works at the PMD batch size, off the
      PMD cores).  A number is plain interrupt-driven NAPI at that
      budget on the base IRQ lanes: the untuned host the upgrade and
      degradation runs crash.
    * ``source_rules``: one priority-20 rule per source IP ahead of the
      ingress ``in_port`` rule, so every flow pays its own upcall and
      megaflow.
    """
    ends = topology if isinstance(topology, Endpoints) else Endpoints(topology)
    reason = cell_support(datapath, ends.shape)
    if reason is not None:
        raise ValueError(f"no {datapath}/{ends.shape} world: {reason}")
    if isinstance(topology, Endpoints) and ends.shape in TOPOLOGIES:
        raise ValueError(f"{ends.shape} is a forwarding row: pass its name, "
                         f"not an Endpoints spec")
    if ends.shape == "V2V-geneve" and ends.pipeline is None:
        raise ValueError("V2V-geneve needs its experiment's pipeline, "
                         "which also decapsulates the tunnel")
    topology = ends.shape
    if vm_attach not in ("vhostuser", "tap"):
        raise ValueError(f"unknown VM attachment {vm_attach!r}")
    if n_queues is None:
        n_queues = 10 if datapath == "kernel" and topology in (
            "P2P", "PVP") else 1
    copy_mode = {"afxdp_copy": True, "afxdp_zc": False}.get(datapath)
    return _BUILDERS[topology](_Row(
        datapath, topology, ends, link_gbps, n_queues, n_cpus,
        replace(options or AfxdpOptions(), force_copy_mode=copy_mode),
        pmd_main_thread_mode, vm_attach, napi_budget, source_rules))
