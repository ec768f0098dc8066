"""Virtual machines.

A VM is a guest kernel (whose packet work shows up as GUEST time on host
CPUs, per Table 4) with a virtio NIC attached to the host one of two ways:

* **vhostuser** (path B of Figure 5): OVS serves the virtqueues directly;
* **tap** (path A): a QEMU backend shuttles frames between the virtio
  queues and a host tap device, paying syscalls and copies — the 2 µs
  ``sendto`` path.
"""

from __future__ import annotations

from typing import Optional

from repro.hosts.host import Host
from repro.kernel.kernel import Kernel
from repro.kernel.tap import TapDevice
from repro.net.addresses import MacAddress
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, ExecContext
from repro.vhost.vhostuser import VhostUserPort
from repro.vhost.virtio import VirtioNic


class QemuTapBackend:
    """QEMU's net=tap backend: virtio queues <-> a host tap fd.

    Runs in host USER context (it is the QEMU process); every frame in
    either direction is a read()/write() on the tap plus a copy.
    """

    def __init__(self, tap: TapDevice, guest_nic: VirtioNic,
                 ctx: ExecContext) -> None:
        self.tap = tap
        self.guest_nic = guest_nic
        self.ctx = ctx
        guest_nic.backend_polls = False  # interrupt-driven QEMU

    def pump(self, budget: int = 64) -> int:
        costs = DEFAULT_COSTS
        ctx = self.ctx
        tap = self.tap
        moved = 0
        # Host -> guest: tap user face -> virtio rx queue.  QEMU copies
        # the frame from its buffer into the guest's virtio buffers (on
        # top of the tap read's own kernel->user copy).
        for _ in range(min(budget, tap.user_pending())):
            pkt = tap.user_read(ctx)
            if pkt is None:
                break
            ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
            ctx.charge(costs.copy_cost(len(pkt.data)), label="qemu_copy")
            if self.guest_nic.rx_queue.push(pkt):
                moved += 1
        # Guest -> host: virtio tx queue -> tap user face (sendto each).
        for pkt in self.guest_nic.tx_queue.pop_batch(budget):
            ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
            ctx.charge(costs.copy_cost(len(pkt.data)), label="qemu_copy")
            tap.user_write(pkt, ctx)
            moved += 1
        return moved


class VhostNetBackend:
    """vhost-net: the kernel worker thread serving a tap-attached VM.

    Unlike the legacy userspace QEMU shuttle, vhost-net moves frames
    between the tap queue and guest memory entirely in the kernel: one
    copy per direction, no per-packet syscall.  Its time is SYSTEM time
    on its own core (the ``vhost-<pid>`` kernel threads ``top`` shows).
    """

    def __init__(self, tap: TapDevice, guest_nic: VirtioNic,
                 ctx: ExecContext) -> None:
        self.tap = tap
        self.guest_nic = guest_nic
        self.ctx = ctx
        guest_nic.backend_polls = False

    def pump(self, budget: int = 64) -> int:
        to_user = self.tap._to_user
        # Nothing below touches the guest's tx ring before its turn.
        from_guest = self.guest_nic.tx_queue.pop_batch(budget)
        if not to_user and not from_guest:
            return 0
        costs = DEFAULT_COSTS
        ctx = self.ctx
        with ctx.as_category(CpuCategory.SYSTEM):
            # Host -> guest: tap queue -> guest rx ring (one copy).
            pushed = 0
            for _ in range(min(budget, len(to_user))):
                pkt = to_user.popleft()
                ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
                ctx.charge(costs.copy_cost(len(pkt.data)), label="vhost_copy")
                if self.guest_nic.rx_queue.push(pkt):
                    pushed += 1
            if pushed:
                # One guest interrupt per burst.
                ctx.charge(costs.virtqueue_kick_ns, label="guest_kick")
            moved = pushed
            # Guest -> host: guest tx ring -> the tap's kernel face.
            for pkt in from_guest:
                ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
                ctx.charge(costs.copy_cost(len(pkt.data)), label="vhost_copy")
                self.tap.deliver(pkt, ctx)
                moved += 1
        return moved


class VirtualMachine:
    """A guest with its own kernel and one virtio interface."""

    def __init__(
        self,
        host: Host,
        name: str,
        ip: str,
        vcpu_core: int,
        prefix_len: int = 24,
        csum_offload: bool = True,
        tso: bool = True,
        mac: Optional[MacAddress] = None,
    ) -> None:
        self.host = host
        self.name = name
        self.vcpu_core = vcpu_core
        # Guest kernel time is GUEST time on the host CPUs.
        self.kernel = Kernel(host.cpu, clock=host.clock,
                             softirq_category=CpuCategory.GUEST)
        self.nic = VirtioNic(
            "eth0", mac or Host._alloc_mac(),
            csum_offload=csum_offload, tso=tso,
        )
        self.kernel.init_ns.register(self.nic)
        self.nic.set_up()
        self.kernel.init_ns.stack.attach(self.nic)
        self.kernel.init_ns.add_address("eth0", ip, prefix_len)
        self.ip = ip
        self.ctx = host.guest_ctx(vcpu_core, name=f"{name}-vcpu")
        self.tap: Optional[TapDevice] = None
        self.qemu: Optional[QemuTapBackend] = None
        self.vhost: Optional[VhostUserPort] = None
        host.pumpables.append(self.pump)

    # ------------------------------------------------------------------
    # Attachment modes.
    # ------------------------------------------------------------------
    def attach_vhostuser(self) -> VhostUserPort:
        """Path B: give OVS direct access to the virtqueues."""
        if self.vhost or self.tap:
            raise ValueError(f"{self.name} is already attached")
        self.vhost = VhostUserPort(f"vhost-{self.name}", self.nic)
        return self.vhost

    def attach_tap(self, qemu_core: int, vhost_net: bool = True) -> TapDevice:
        """Path A: a tap device on the host.

        With ``vhost_net`` (the production default) a kernel worker
        thread shuttles frames; without it, the legacy userspace QEMU
        backend pays a read/write syscall per frame.
        """
        if self.vhost or self.tap:
            raise ValueError(f"{self.name} is already attached")
        self.tap = TapDevice(f"tap-{self.name}", Host._alloc_mac())
        self.host.kernel.init_ns.register(self.tap)
        self.tap.set_up()
        if vhost_net:
            ctx = self.host.user_ctx(qemu_core, name=f"vhost-{self.name}")
            self.qemu = VhostNetBackend(self.tap, self.nic, ctx)
        else:
            qemu_ctx = self.host.user_ctx(qemu_core, name=f"qemu-{self.name}")
            self.qemu = QemuTapBackend(self.tap, self.nic, qemu_ctx)
        self.host.pumpables.append(self.qemu.pump)
        return self.tap

    @property
    def stack(self):
        return self.kernel.init_ns.stack

    # ------------------------------------------------------------------
    def pump(self, budget: int = 256) -> int:
        """Guest-side NAPI: deliver queued virtio rx frames to the guest
        stack, then drain any guest kernel work."""
        moved = self.nic.guest_service_rx(
            self.kernel.softirq_ctx(self.vcpu_core), budget=budget
        )
        moved += self.kernel.pump()
        return moved
