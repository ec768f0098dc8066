"""Packet conservation: the forwarding worlds' audit.

The trace layer's invariant is ``spans == cpu_charged_ns``; this is the
packet-side analogue: every frame offered to the ingress NIC must be
accounted for — forwarded out, dropped at a *named* layer counter, or
diverted to the kernel stack.  A sink nobody counts is exactly the kind
of silent loss the fault-injection layer exists to expose, so the
degradation experiment and the Hypothesis property suite both assert
:meth:`PacketLedger.conserved` at every sweep point.

Each layer that can lose a frame owns its sinks and reports them as
``sinks() -> Dict[DropReason, int]`` (ingress to egress)::

    PhysicalNic    nic.rx_missed, nic.xdp_drops, nic.xdp_passes_to_stack,
                   nic.xdp_redirect_failed
    AfxdpDriver    xsk.rx_dropped_* and xsk.tx_dropped_*, live + retired
    DpifNetdev     dp.dropped  (lost upcalls, action drops, ...)
    DpifNetlink    kernel.upcall_lost, kernel.upcall_failed

:meth:`PacketLedger.of` sums them, so a ledger's sink names are the
taxonomy's values and nothing else.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional


@dataclass
class PacketLedger:
    """One audit of ``offered`` packets against per-layer outcomes.

    ``sinks`` maps a named terminal outcome (a drop counter or a
    diversion like "to the kernel stack") to a packet count.
    """

    offered: int
    forwarded: int
    sinks: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, offered: int, forwarded: int, layers: Iterable,
           extra_sinks: Optional[Dict[str, int]] = None) -> "PacketLedger":
        """The ledger of ``layers``, each reporting ``sinks()``, plus
        ``extra_sinks``: outcomes no layer can see itself, such as a
        supervisor's crash casualties.  Zero counts are left out."""
        total = Counter(extra_sinks or {})
        for layer in layers:
            for reason, n in layer.sinks().items():
                total[reason.value] += n
        return cls(offered, forwarded,
                   {name: n for name, n in total.items() if n})

    @classmethod
    def merge(cls, ledgers: Iterable["PacketLedger"]) -> "PacketLedger":
        """The sum of per-unit ledgers.  All counts are integers, so the
        sum is exact in any order; the merged ledger balances iff every
        unit's does."""
        offered = forwarded = 0
        sinks: Counter = Counter()
        for ledger in ledgers:
            offered += ledger.offered
            forwarded += ledger.forwarded
            sinks.update(ledger.sinks)
        return cls(offered, forwarded, dict(sinks))

    @property
    def total_dropped(self) -> int:
        return sum(self.sinks.values())

    @property
    def accounted(self) -> int:
        return self.forwarded + self.total_dropped

    def conserved(self) -> bool:
        return self.offered == self.accounted

    def render(self) -> str:
        lines = [f"offered    {self.offered}",
                 f"forwarded  {self.forwarded}"]
        for name in sorted(self.sinks):
            if self.sinks[name]:
                lines.append(f"{name:26s} {self.sinks[name]}")
        status = "balanced" if self.conserved() else (
            f"UNACCOUNTED {self.offered - self.accounted}")
        lines.append(f"accounted  {self.accounted} ({status})")
        return "\n".join(lines)


def afxdp_packet_ledger(
    offered: int,
    nic_in,
    driver_in,
    driver_out,
    dpif,
    extra_sinks: "Dict[str, int] | None" = None,
) -> PacketLedger:
    """Audit an AF_XDP P2P world after its queues have drained, counting
    as forwarded what the XSKs of ``driver_in``/``driver_out`` (one
    driver when a hairpin reuses the ingress NIC) put on the wire.
    :meth:`repro.experiments.world.World.ledger` is the same sum over a
    built world, counted at its TRex sink."""
    drivers = list(dict.fromkeys((driver_in, driver_out)))
    return PacketLedger.of(offered, sum(d.tx_sent for d in drivers),
                           [nic_in, dpif, *drivers], extra_sinks)
