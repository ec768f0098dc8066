"""Network devices: the base class, statistics, and point-to-point wires.

A :class:`NetDevice` lives in a network namespace, has an ifindex and MAC,
and moves frames in two directions:

* ``transmit(pkt, ctx)`` — the kernel (or a userspace driver) hands the
  device a frame to put on its medium;
* ``deliver(pkt, ctx)`` — the medium hands the device a frame, which flows
  to whoever consumes this device's receive path (the kernel stack by
  default, or an attached handler such as the OVS datapath).

Devices managed by the kernel are visible to rtnetlink and therefore to
``ip``/``tcpdump``/... (Table 1).  A device bound to DPDK is *removed*
from its namespace's registry, which is exactly why those tools stop
working (§2.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.addresses import MacAddress
from repro.net.packet import Packet
from repro.sim.cpu import ExecContext

RxHandler = Callable[[Packet, ExecContext], None]


@dataclass
class DeviceStats:
    """Counters as reported by ``ip -s link`` / nstat."""

    rx_packets: int = 0
    rx_bytes: int = 0
    rx_dropped: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0
    tx_dropped: int = 0

    def snapshot(self) -> dict:
        return {
            "rx_packets": self.rx_packets,
            "rx_bytes": self.rx_bytes,
            "rx_dropped": self.rx_dropped,
            "tx_packets": self.tx_packets,
            "tx_bytes": self.tx_bytes,
            "tx_dropped": self.tx_dropped,
        }


class NetDevice:
    """Base network device."""

    device_type = "generic"

    def __init__(self, name: str, mac: MacAddress, mtu: int = 1500) -> None:
        if not name or len(name) > 15:
            raise ValueError(f"bad interface name: {name!r}")
        self.name = name
        self.mac = mac
        self.mtu = mtu
        self.ifindex = 0  # assigned at namespace registration
        self.up = False
        self.carrier = False
        self.stats = DeviceStats()
        #: Consumes packets this device receives.  None = packets are
        #: dropped (device has no stack attached yet).
        self.rx_handler: Optional[RxHandler] = None
        #: Packet taps (tcpdump) see both directions.
        self._taps: list[Callable[[Packet, str], None]] = []

    # -- configuration --------------------------------------------------
    def set_up(self, up: bool = True) -> None:
        self.up = up

    def set_rx_handler(self, handler: Optional[RxHandler]) -> None:
        self.rx_handler = handler

    def add_tap(self, tap: Callable[[Packet, str], None]) -> None:
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[Packet, str], None]) -> None:
        self._taps.remove(tap)

    def _run_taps(self, pkt: Packet, direction: str) -> None:
        for tap in self._taps:
            tap(pkt, direction)

    # -- datapath --------------------------------------------------------
    def transmit(self, pkt: Packet, ctx: ExecContext) -> bool:
        """Send a frame out of this device.  Returns False if dropped."""
        if not self.up:
            self.stats.tx_dropped += 1
            return False
        size = len(pkt.data)
        stats = self.stats
        if size > self.mtu + 14 and not pkt.meta.gso_size:
            stats.tx_dropped += 1
            return False
        stats.tx_packets += 1
        stats.tx_bytes += size
        if self._taps:
            self._run_taps(pkt, "tx")
        return self._transmit(pkt, ctx)

    def _transmit(self, pkt: Packet, ctx: ExecContext) -> bool:
        """Device-specific transmit; default devices have no medium."""
        return True

    def deliver(self, pkt: Packet, ctx: ExecContext) -> None:
        """A frame arrived from the medium; hand it to the consumer."""
        if not self.up:
            self.stats.rx_dropped += 1
            return
        stats = self.stats
        stats.rx_packets += 1
        stats.rx_bytes += len(pkt.data)
        if self._taps:
            self._run_taps(pkt, "rx")
        rx_handler = self.rx_handler
        if rx_handler is None:
            stats.rx_dropped += 1
            return
        rx_handler(pkt, ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "UP" if self.up else "DOWN"
        return f"<{self.device_type} {self.name} ifindex={self.ifindex} {state}>"


class Wire:
    """A full-duplex point-to-point link between two devices.

    The experiments' testbeds are back-to-back servers; the wire models
    link speed (used to cap achievable rates) and sets carrier on both
    ends.  Frame propagation is immediate — serialisation/propagation
    delay is accounted analytically by the experiments from ``gbps``.
    """

    def __init__(self, a: NetDevice, b: NetDevice, gbps: float = 10.0) -> None:
        if gbps <= 0:
            raise ValueError("link speed must be positive")
        self.a = a
        self.b = b
        self.gbps = gbps
        a.carrier = True
        b.carrier = True
        self._attach(a, b)
        self._attach(b, a)

    @staticmethod
    def _attach(dev: NetDevice, peer: NetDevice) -> None:
        if getattr(dev, "wire_peer", None) is not None:
            raise ValueError(f"{dev.name} is already wired")
        dev.wire_peer = peer  # type: ignore[attr-defined]

    def wire_time_ns(self, nbytes: int) -> float:
        """Serialisation delay of a frame on this link."""
        return (nbytes + 20) * 8 / self.gbps
