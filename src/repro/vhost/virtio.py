"""Virtqueues and the guest-side virtio NIC."""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.kernel.netdev import NetDevice
from repro.net.addresses import MacAddress
from repro.net.packet import Packet
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext


class Virtqueue:
    """A descriptor ring shared between guest and backend.

    ``kick()``/``notifications`` model the eventfd doorbell: a busy-polling
    peer (OVS PMD) never needs it; a sleeping peer pays a wakeup.
    """

    def __init__(self, size: int = 1024) -> None:
        if size <= 0:
            raise ValueError("virtqueue needs a positive size")
        self.size = size
        self._ring: Deque[Packet] = deque()
        self.kicks = 0
        self.drops_full = 0

    def __len__(self) -> int:
        return len(self._ring)

    def push(self, pkt: Packet) -> bool:
        if len(self._ring) >= self.size:
            self.drops_full += 1
            return False
        self._ring.append(pkt)
        return True

    def pop_batch(self, max_n: int) -> List[Packet]:
        ring = self._ring
        if not ring:
            return []
        popleft = ring.popleft
        return [popleft() for _ in range(min(max_n, len(ring)))]

    def kick(self) -> None:
        self.kicks += 1


class VirtioNic(NetDevice):
    """The guest's eth0: a virtio-net device bound to two virtqueues.

    ``tx_queue`` carries guest->host frames, ``rx_queue`` host->guest.
    Guest-side costs are charged in the GUEST accounting category — this
    is the ``guest`` column of the paper's Table 4.

    Offload negotiation mirrors virtio-net features: with ``csum_offload``
    the guest sends CHECKSUM_PARTIAL frames; with ``tso`` it sends 64 kB
    super-segments (``gso_size`` set).
    """

    device_type = "virtio"

    def __init__(
        self,
        name: str,
        mac: MacAddress,
        csum_offload: bool = True,
        tso: bool = True,
        queue_size: int = 1024,
    ) -> None:
        super().__init__(name, mac, mtu=1500)
        self.csum_offload = csum_offload
        self.tso = tso
        self.tx_queue = Virtqueue(queue_size)
        self.rx_queue = Virtqueue(queue_size)
        #: Set when the backend busy-polls (vhostuser PMD); kicks skipped.
        self.backend_polls = False
        self.carrier = True

    def _transmit(self, pkt: Packet, ctx: ExecContext) -> bool:
        costs = DEFAULT_COSTS
        if not self.csum_offload and pkt.meta.csum_partial:
            # No offload negotiated: the guest checksums in software.
            ctx.charge(costs.checksum_cost(len(pkt)), label="guest_csum")
            pkt.meta.csum_partial = False
        if not self.tso and pkt.meta.gso_size:
            payload = max(len(pkt) - 54, 1)
            segments = -(-payload // pkt.meta.gso_size)
            ctx.charge(segments * costs.software_gso_per_segment_ns
                       + costs.copy_cost(len(pkt)), label="guest_gso")
            pkt.meta.gso_size = 0
        ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
        was_empty = len(self.tx_queue) == 0
        ok = self.tx_queue.push(pkt)
        if ok and not self.backend_polls and was_empty:
            # Kick suppression (VIRTIO_RING_F_EVENT_IDX): only the first
            # frame of a burst wakes the backend; while the queue is
            # non-empty the backend is known to be processing.
            ctx.charge(costs.virtqueue_kick_ns + costs.vmexit_ns,
                       label="vq_kick")
            self.tx_queue.kick()
        return ok

    def guest_service_rx(self, ctx: ExecContext, budget: int = 64) -> int:
        """The guest kernel's NAPI over the virtio rx queue (GUEST time)."""
        costs = DEFAULT_COSTS
        pkts = self.rx_queue.pop_batch(budget)
        for pkt in pkts:
            ctx.charge(costs.virtqueue_op_ns, label="virtqueue")
            if not pkt.meta.csum_verified and not pkt.meta.csum_partial:
                # Nobody vouched for the checksum (e.g. it crossed an
                # AF_XDP path with no rx offload): the guest verifies in
                # software before the data reaches its TCP stack.
                ctx.charge(costs.checksum_cost(len(pkt)),
                           label="guest_csum_verify")
                pkt.meta.csum_verified = True
            self.deliver(pkt, ctx)
        return len(pkts)
