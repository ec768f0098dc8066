"""The Kernel: namespaces, IRQ affinity, NAPI service, module loading.

A :class:`Kernel` belongs to one simulated host.  It owns the init
namespace (plus container namespaces), maps NIC queues to CPUs for softirq
accounting (IRQ affinity / RSS spreading), and "loads" the OVS kernel
module on demand — creating :class:`~repro.kernel.ovs_module.KernelDatapath`
instances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kernel.namespace import NetNamespace
from repro.kernel.netlink import RtNetlink
from repro.kernel.nic import PhysicalNic
from repro.kernel.ovs_module import KernelDatapath
from repro.sim import trace
from repro.sim.clock import Clock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext


class Kernel:
    def __init__(self, cpu: CpuModel, clock: Optional[Clock] = None,
                 version: str = "5.3.0",
                 softirq_category: CpuCategory = CpuCategory.SOFTIRQ) -> None:
        self.cpu = cpu
        self.clock = clock or cpu.clock
        self.version = version
        #: A guest VM's kernel charges its softirq work as GUEST time on
        #: the host CPUs (the "guest" column of the paper's Table 4).
        self.softirq_category = softirq_category
        self.init_ns = NetNamespace("init")
        self._namespaces: Dict[str, NetNamespace] = {"init": self.init_ns}
        self.rtnetlink = RtNetlink(self.init_ns)
        #: (nic_name, queue) -> cpu; default spreads queues round-robin,
        #: which is what irqbalance + RSS give you.
        self._irq_affinity: Dict[Tuple[str, int], int] = {}
        self._softirq_ctx: Dict[int, ExecContext] = {}
        self._datapaths: Dict[str, KernelDatapath] = {}
        self.module_loaded = False

    # -- namespaces -----------------------------------------------------
    def add_namespace(self, name: str) -> NetNamespace:
        if name in self._namespaces:
            raise ValueError(f"namespace {name!r} exists")
        ns = NetNamespace(name)
        self._namespaces[name] = ns
        return ns

    def namespace(self, name: str) -> NetNamespace:
        return self._namespaces[name]

    def namespaces(self) -> List[NetNamespace]:
        return list(self._namespaces.values())

    # -- IRQ affinity and softirq contexts --------------------------------
    def set_irq_affinity(self, nic_name: str, queue: int, cpu: int) -> None:
        self._irq_affinity[(nic_name, queue)] = cpu

    def cpu_for_queue(self, nic: PhysicalNic, queue: int) -> int:
        explicit = self._irq_affinity.get((nic.name, queue))
        if explicit is not None:
            return explicit
        return (nic.ifindex * 7 + queue) % self.cpu.n_cpus

    def softirq_ctx(self, cpu: int) -> ExecContext:
        """The per-CPU softirq execution context (ksoftirqd)."""
        ctx = self._softirq_ctx.get(cpu)
        if ctx is None:
            ctx = ExecContext(self.cpu, cpu, self.softirq_category,
                              name=f"softirq/cpu{cpu}")
            self._softirq_ctx[cpu] = ctx
        return ctx

    # -- NAPI -----------------------------------------------------------
    def service_nic(self, nic: PhysicalNic, budget: int = 64,
                    interrupt_mode: bool = True) -> int:
        """Run one NAPI round over all queues of a NIC.

        In interrupt mode each non-empty queue pays the IRQ entry cost
        before polling (coalesced over the budget); in busy-poll mode the
        poll loop overhead is charged instead.
        """
        costs = DEFAULT_COSTS
        total = 0
        rec = trace.ACTIVE
        prof = rec.profiler if rec is not None else None
        if prof is not None:
            prof.enter("kernel.service_nic")
        try:
            for queue, ring in enumerate(nic.rx_rings):
                if not ring:
                    continue
                ctx = self.softirq_ctx(self.cpu_for_queue(nic, queue))
                if interrupt_mode:
                    ctx.charge(costs.irq_entry_ns, label="irq")
                    if rec is not None:
                        rec.count("kernel.irqs")
                ctx.charge(costs.napi_poll_ns, label="napi")
                if rec is not None:
                    rec.count("kernel.napi_polls")
                total += nic.service_queue(queue, ctx, budget=budget)
        finally:
            if prof is not None:
                prof.exit_()
        return total

    def pump(self, max_rounds: int = 10_000) -> int:
        """Service every NIC in every namespace until quiescent.

        Drives multi-hop interactions (ARP round trips, TCP handshakes)
        to completion in tests and control-plane paths.  Returns packets
        processed.
        """
        total = 0
        for _ in range(max_rounds):
            progressed = 0
            for ns in self.namespaces():
                for dev in ns.devices():
                    if isinstance(dev, PhysicalNic) and dev.pending():
                        progressed += self.service_nic(dev)
            total += progressed
            if not progressed:
                return total
        raise RuntimeError("kernel pump did not quiesce (packet storm?)")

    # -- the openvswitch module -------------------------------------------
    def load_ovs_module(self) -> None:
        """modprobe openvswitch.  (With AF_XDP, never called — the point.)"""
        self.module_loaded = True

    def create_datapath(self, name: str,
                        namespace: Optional[NetNamespace] = None) -> KernelDatapath:
        if not self.module_loaded:
            raise RuntimeError(
                "openvswitch.ko is not loaded (kernel.load_ovs_module())"
            )
        if name in self._datapaths:
            raise ValueError(f"datapath {name!r} exists")
        dp = KernelDatapath(name, namespace or self.init_ns)
        dp.now_ns_fn = lambda: self.clock.now
        self._datapaths[name] = dp
        return dp

    def datapath(self, name: str) -> KernelDatapath:
        return self._datapaths[name]
