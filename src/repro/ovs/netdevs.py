"""Port adapters: how dpif-netdev drives each kind of packet I/O.

Each adapter exposes ``rx_burst(ctx, batch, queue)`` and
``tx_burst(pkts, ctx, queue)`` over one underlying I/O mechanism:

* :class:`AfxdpAdapter` — the paper's AF_XDP driver (netdev-afxdp);
* :class:`DpdkAdapter` — a DPDK ethdev (netdev-dpdk);
* :class:`VhostAdapter` — a vhost-user VM interface;
* :class:`TapAdapter` — a tap/AF_PACKET system port (the slow path A);
* :class:`SimAdapter` — direct injection for tests and workload drivers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.afxdp.driver import AfxdpDriver
from repro.dpdk.af_packet import AfPacketPort
from repro.dpdk.ethdev import DpdkEthDev
from repro.kernel.netdev import NetDevice
from repro.net.packet import Packet
from repro.sim.cpu import ExecContext
from repro.vhost.vhostuser import VhostUserPort


class AfxdpAdapter:
    def __init__(self, driver: AfxdpDriver) -> None:
        self.driver = driver

    @property
    def n_rxq(self) -> int:
        return self.driver.nic.n_queues

    def rx_burst(self, ctx: ExecContext, batch: int = 32,
                 queue: int = 0) -> List[Packet]:
        return self.driver.rx_burst(queue, ctx)

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext,
                 queue: int = 0) -> int:
        return self.driver.tx_burst(queue, pkts, ctx)


class DpdkAdapter:
    def __init__(self, ethdev: DpdkEthDev) -> None:
        self.ethdev = ethdev

    @property
    def n_rxq(self) -> int:
        return self.ethdev.n_queues

    def rx_burst(self, ctx: ExecContext, batch: int = 32,
                 queue: int = 0) -> List[Packet]:
        return self.ethdev.rx_burst(queue, ctx, batch=batch)

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext,
                 queue: int = 0) -> int:
        return self.ethdev.tx_burst(queue, pkts, ctx)


class VhostAdapter:
    def __init__(self, port: VhostUserPort) -> None:
        self.port = port

    n_rxq = 1

    def rx_burst(self, ctx: ExecContext, batch: int = 32,
                 queue: int = 0) -> List[Packet]:
        return self.port.rx_burst(ctx, batch=batch)

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext,
                 queue: int = 0) -> int:
        return self.port.tx_burst(pkts, ctx)


class TapAdapter:
    """A "system" port of the userspace datapath: an AF_PACKET socket on
    a kernel-managed device (tap, veth...).  Every burst is a syscall."""

    def __init__(self, device: NetDevice) -> None:
        self.af_packet = AfPacketPort(device)
        self.device = device

    n_rxq = 1

    def rx_burst(self, ctx: ExecContext, batch: int = 32,
                 queue: int = 0) -> List[Packet]:
        return self.af_packet.rx_burst(ctx, batch=batch)

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext,
                 queue: int = 0) -> int:
        return self.af_packet.tx_burst(pkts, ctx)

    def pending(self) -> int:
        return self.af_packet.pending()


class InternalTapAdapter:
    """A userspace-datapath *internal* port.

    With dpif-netdev, bridge-internal ports are tap devices: the kernel
    face is the ``br0`` interface the host stack sees; OVS reads frames
    the kernel transmitted into it and writes frames toward the stack.
    That is how the management/control TCP traffic of §4 reaches the
    kernel stack under AF_XDP (slow, but control traffic is low volume).
    """

    def __init__(self, tap) -> None:
        self.tap = tap

    n_rxq = 1

    def rx_burst(self, ctx: ExecContext, batch: int = 32,
                 queue: int = 0) -> List[Packet]:
        out: List[Packet] = []
        for _ in range(batch):
            pkt = self.tap.user_read(ctx)
            if pkt is None:
                break
            out.append(pkt)
        return out

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext,
                 queue: int = 0) -> int:
        for pkt in pkts:
            self.tap.user_write(pkt, ctx)
        return len(pkts)

    def pending(self) -> int:
        return self.tap.user_pending()


class SimAdapter:
    """Inject/collect packets directly (workload generators, tests)."""

    def __init__(self) -> None:
        self._rx: Deque[Packet] = deque()
        self.transmitted: List[Packet] = []

    n_rxq = 1

    def inject(self, pkts: List[Packet]) -> None:
        self._rx.extend(pkts)

    def rx_burst(self, ctx: ExecContext, batch: int = 32,
                 queue: int = 0) -> List[Packet]:
        n = min(batch, len(self._rx))
        return [self._rx.popleft() for _ in range(n)]

    def tx_burst(self, pkts: List[Packet], ctx: ExecContext,
                 queue: int = 0) -> int:
        self.transmitted.extend(pkts)
        return len(pkts)

    def take_transmitted(self) -> List[Packet]:
        out = self.transmitted
        self.transmitted = []
        return out
