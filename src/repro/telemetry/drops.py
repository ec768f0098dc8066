"""The unified drop-reason taxonomy.

Modeled on the kernel's ``skb_drop_reason`` enum: every place the
simulation loses (or diverts) a packet names a :class:`DropReason`
member instead of an ad-hoc string.  The enum *value* is the exact sink
string the conservation ledger has always used, so adopting the
taxonomy is a pure rename — ``tools/conservation.py`` ledgers,
``coverage/show`` counters (``drop.<reason>``) and exported IPFIX drop
records all speak this one vocabulary, byte-identical to the historic
literals.

Each member carries:

* ``stage`` — where the loss sits relative to the datapath dispatch
  point the telemetry layer observes at.  ``PRE_DATAPATH`` losses never
  reached the observation hook (so IPFIX flow totals exclude them),
  ``DATAPATH``/``POST_DATAPATH`` losses did (so flow totals include
  them).  This is what makes the reconciliation invariant of
  :meth:`repro.telemetry.Telemetry.reconcile` exact.
* ``ledger_sink`` — the conservation-ledger sink this reason counts
  in, by one rule: the fine-grained ``dp.*`` reasons share the coarse
  ``dp.dropped`` sink, exactly as many ``skb_drop_reason``s share one
  interface counter, and every other reason is its own sink.
* ``counter`` — for XSK reasons, the bare per-socket attribute name
  (``XskSocket.rx_dropped_no_fill`` etc.) the sink value is read from.

This module deliberately imports nothing but the standard library so
that ``tools/conservation.py``, ``afxdp/driver.py`` and ``ebpf/xdp.py``
can all use it without import cycles.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple


class DropStage(enum.Enum):
    """Where a loss sits relative to the datapath observation hook."""

    #: Lost before the datapath dispatch point (never observed).
    PRE_DATAPATH = "pre_datapath"
    #: Lost by the datapath itself (observed, then dropped).
    DATAPATH = "datapath"
    #: Lost after datapath processing, on the transmit side.
    POST_DATAPATH = "post_datapath"


class DropReason(enum.Enum):
    """One member per way the simulation can lose (or divert) a packet.

    The value is the canonical sink string; ``str(reason.value)`` is what
    ledgers render and what ``coverage/show`` counts as
    ``drop.<value>``.
    """

    def __new__(cls, value: str, stage: "DropStage",
                counter: Optional[str] = None) -> "DropReason":
        obj = object.__new__(cls)
        obj._value_ = value
        obj.stage = stage
        obj.counter = counter
        return obj

    @property
    def ledger_sink(self) -> str:
        """The conservation-ledger sink this reason counts in: the
        fine-grained ``dp.*`` reasons share ``DpifNetdev.stats.dropped``,
        so they fold into ``dp.dropped``; every other reason is its own
        sink."""
        if self.value.startswith("dp."):
            return DropReason.DP_DROPPED.value
        return self.value

    # -- NIC / XDP layer (before any datapath saw the packet) ----------
    #: Hardware rx ring full; the frame was never DMAed.
    NIC_RX_MISSED = ("nic.rx_missed", DropStage.PRE_DATAPATH)
    #: The attached XDP program returned DROP (or ABORTED).
    NIC_XDP_DROP = ("nic.xdp_drops", DropStage.PRE_DATAPATH)
    #: XDP_PASS diverted the frame into the kernel stack — not a loss,
    #: but a leg the ledger must account for.
    NIC_XDP_PASS_TO_STACK = ("nic.xdp_passes_to_stack",
                             DropStage.PRE_DATAPATH)
    #: XDP_REDIRECT had no live socket/device to land on.
    NIC_XDP_REDIRECT_FAILED = ("nic.xdp_redirect_failed",
                               DropStage.PRE_DATAPATH)

    # -- AF_XDP socket rx (before the PMD polled the frame) ------------
    XSK_RX_NO_FILL = ("xsk.rx_dropped_no_fill", DropStage.PRE_DATAPATH,
                      "rx_dropped_no_fill")
    XSK_RX_OVERRUN = ("xsk.rx_dropped_overrun", DropStage.PRE_DATAPATH,
                      "rx_dropped_overrun")

    # -- Userspace datapath (DpifNetdev) -------------------------------
    #: The coarse ledger sink every fine-grained dp.* reason folds into
    #: (``DpifNetdev.stats.dropped``); never emitted as an event itself.
    DP_DROPPED = ("dp.dropped", DropStage.DATAPATH)
    DP_UPCALL_LOST = ("dp.upcall_lost", DropStage.DATAPATH)
    DP_UPCALL_FAILED = ("dp.upcall_failed", DropStage.DATAPATH)
    DP_RECIRC_LIMIT = ("dp.recirc_limit", DropStage.DATAPATH)
    DP_EMPTY_ACTIONS = ("dp.empty_actions", DropStage.DATAPATH)
    DP_METER_DROP = ("dp.meter_drop", DropStage.DATAPATH)
    DP_TUNNEL_DECAP_FAILED = ("dp.tunnel_decap_failed", DropStage.DATAPATH)
    DP_TX_NO_PORT = ("dp.tx_no_port", DropStage.DATAPATH)

    # -- Kernel datapath (openvswitch.ko analog) -----------------------
    KERNEL_RX_NO_PORT = ("kernel.rx_no_port", DropStage.PRE_DATAPATH)
    #: ``dp.n_lost``: the upcall never reached a handler.
    KERNEL_UPCALL_LOST = ("kernel.upcall_lost", DropStage.DATAPATH)
    #: The upcall reached userspace but translation failed.
    KERNEL_UPCALL_FAILED = ("kernel.upcall_failed", DropStage.DATAPATH)
    KERNEL_RECIRC_LIMIT = ("kernel.recirc_limit", DropStage.DATAPATH)
    KERNEL_TUNNEL_DECAP_FAILED = ("kernel.tunnel_decap_failed",
                                  DropStage.DATAPATH)
    KERNEL_OUTPUT_NO_PORT = ("kernel.output_no_port", DropStage.DATAPATH)

    # -- AF_XDP socket tx (after the datapath forwarded the frame) -----
    XSK_TX_NO_UMEM = ("xsk.tx_dropped_no_umem", DropStage.POST_DATAPATH,
                      "tx_dropped_no_umem")
    XSK_TX_RING_FULL = ("xsk.tx_dropped_ring_full",
                        DropStage.POST_DATAPATH, "tx_dropped_ring_full")
    XSK_TX_KICK = ("xsk.tx_dropped_kick", DropStage.POST_DATAPATH,
                   "tx_dropped_kick")

    # -- Supervised crash recovery --------------------------------------
    #: Frames sitting in XSK rx rings when the daemon died.
    CRASH_XSK_RX_INFLIGHT = ("crash.xsk_rx_inflight",
                             DropStage.PRE_DATAPATH)
    #: Frames sitting in XSK tx rings when the daemon died.
    CRASH_XSK_TX_INFLIGHT = ("crash.xsk_tx_inflight",
                             DropStage.POST_DATAPATH)
    #: Frames stranded in DPDK hardware rings across a rebind.
    CRASH_DPDK_RING_RESET = ("crash.dpdk_ring_reset",
                             DropStage.PRE_DATAPATH)


#: XSK per-socket rx counters, in the order the driver retires them.
XSK_RX_REASONS: Tuple[DropReason, ...] = (
    DropReason.XSK_RX_NO_FILL,
    DropReason.XSK_RX_OVERRUN,
)

#: XSK per-socket tx counters, in the order the driver retires them.
XSK_TX_REASONS: Tuple[DropReason, ...] = (
    DropReason.XSK_TX_NO_UMEM,
    DropReason.XSK_TX_RING_FULL,
    DropReason.XSK_TX_KICK,
)


_BY_SINK: Dict[str, DropReason] = {
    reason.value: reason for reason in DropReason
}


def reason_for_sink(sink: str) -> DropReason:
    """The taxonomy member whose canonical value is ``sink``.

    Raises ``KeyError`` for unknown sinks — an unknown name means a
    ledger leg escaped the taxonomy, which is exactly the bug the
    unified vocabulary exists to prevent.
    """
    return _BY_SINK[sink]
