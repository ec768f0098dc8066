"""rte_ethdev: userspace poll-mode drive of a bound NIC.

:func:`bind_device` detaches the NIC from the kernel (dpdk-devbind with
vfio-pci): the device disappears from the namespace registry and thus from
``ip``/``tcpdump``/... (Table 1).  The returned :class:`DpdkEthDev` polls
the hardware rings from plain userspace context with mbuf costs and full
hardware offload visibility.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dpdk.mempool import Mempool
from repro.kernel.namespace import NetNamespace
from repro.kernel.nic import PhysicalNic
from repro.net.packet import Packet
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext


class DpdkEthDev:
    def __init__(self, nic: PhysicalNic, mempool: Optional[Mempool] = None) -> None:
        self.nic = nic
        self.mempool = mempool or Mempool()
        self.rx_packets = 0
        self.tx_packets = 0
        self._outstanding_mbufs = 0

    @property
    def n_queues(self) -> int:
        return self.nic.n_queues

    def rx_burst(self, queue: int, ctx: ExecContext, batch: int = 32) -> List[Packet]:
        """Poll one hardware rx ring — pure userspace, no syscall.

        Hardware metadata (RSS hash, checksum validity) is available in
        the rx descriptor, so no software rxhash is needed (§5.5's DPDK
        advantage).
        """
        ring = self.nic.rx_rings[queue]
        if not ring or batch <= 0:
            return []
        costs = DEFAULT_COSTS
        granted = self.mempool.alloc(min(batch, len(ring)), ctx)
        self._outstanding_mbufs += granted
        pkts = []
        for _ in range(granted):
            pkt = ring.popleft()
            ctx.charge(costs.nic_rx_ns, label="rx_desc")
            if not pkt.meta.llc_warm:
                ctx.charge(costs.dma_first_touch_ns, label="dma_first_touch")
                pkt.meta.llc_warm = True
            pkts.append(pkt)
        self.rx_packets += len(pkts)
        return pkts

    def tx_burst(self, queue: int, pkts: List[Packet], ctx: ExecContext) -> int:
        """Write tx descriptors and ring the doorbell — again no syscall."""
        sent = 0
        for pkt in pkts:
            # The descriptor cost is charged inside PhysicalNic.transmit;
            # hardware checksum/TSO offloads apply exactly as for the
            # kernel driver (feature flags on the NIC).
            if self.nic.transmit(pkt, ctx):
                sent += 1
        # Return the mbufs these packets rode in on (packets injected from
        # elsewhere, e.g. a vhost port, carry their own buffers).
        reclaim = min(len(pkts), self._outstanding_mbufs)
        self.mempool.free(reclaim, ctx)
        self._outstanding_mbufs -= reclaim
        self.tx_packets += sent
        return sent

    def pending(self, queue: Optional[int] = None) -> int:
        return self.nic.pending(queue)


def bind_device(namespace: NetNamespace, name: str) -> DpdkEthDev:
    """dpdk-devbind: move a NIC from the kernel driver to vfio-pci."""
    device = namespace.device(name)
    if not isinstance(device, PhysicalNic):
        raise ValueError(f"{name} is not a physical NIC")
    namespace.unregister(name)
    device.set_rx_handler(None)
    device.detach_xdp()
    return DpdkEthDev(device)


def unbind_device(namespace: NetNamespace, ethdev: DpdkEthDev) -> PhysicalNic:
    """Return the NIC to the kernel driver (and to Table 1's tools)."""
    namespace.register(ethdev.nic)
    return ethdev.nic
