"""vhost-user: the OVS-side backend of a VM's virtio queues.

OVS maps the guest's memory and serves the virtqueues directly from its
PMD threads — no tap, no syscall, one data copy per direction.  "Using
this vhostuser implementation, packets traverse path B, avoiding a hop
through the kernel" (§3.3).
"""

from __future__ import annotations

from typing import List

from repro.net.packet import Packet
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext
from repro.vhost.virtio import VirtioNic


class VhostUserPort:
    """The switch's endpoint for one VM interface."""

    def __init__(self, name: str, guest_nic: VirtioNic,
                 backend_polls: bool = True) -> None:
        self.name = name
        self.guest_nic = guest_nic
        guest_nic.backend_polls = backend_polls
        self.rx_packets = 0
        self.tx_packets = 0
        self.tx_dropped = 0

    def rx_burst(self, ctx: ExecContext, batch: int = 32) -> List[Packet]:
        """Pull guest->host frames (PMD thread context).

        One copy out of guest memory per packet; virtio offload metadata
        (csum_partial/gso_size) rides along untouched.
        """
        costs = DEFAULT_COSTS
        pkts = self.guest_nic.tx_queue.pop_batch(batch)
        for pkt in pkts:
            ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
            ctx.charge(costs.copy_cost(len(pkt.data)), label="vhost_copy")
            self.rx_packets += 1
        return pkts

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext) -> int:
        """Push host->guest frames; kicks the guest once per burst.

        TSO to a VM needs no segmentation: the super-segment lands in
        guest memory whole, which is why Figure 8b's vhostuser+TSO bar
        beats even the kernel datapath.
        """
        costs = DEFAULT_COSTS
        sent = 0
        rx_queue = self.guest_nic.rx_queue
        for pkt in pkts:
            nbytes = len(pkt.data)
            meta = pkt.meta
            ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
            ctx.charge(costs.copy_cost(nbytes), label="vhost_copy")
            if not meta.csum_verified and not meta.csum_partial:
                # virtio requires a checksum verdict: OVS validates in
                # software before handing the frame to the guest (the
                # AF_XDP no-rx-offload penalty, §4).
                ctx.charge(costs.checksum_cost(nbytes), label="csum_fixup")
                meta.csum_verified = True
            if rx_queue.push(pkt):
                sent += 1
            else:
                self.tx_dropped += 1
        if sent:
            # The guest is interrupt-driven: one irq-style kick per burst.
            ctx.charge(costs.virtqueue_kick_ns, label="guest_kick")
        self.tx_packets += sent
        return sent
