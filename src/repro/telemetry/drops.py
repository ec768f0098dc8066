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
* ``ledger_sink`` — the coarse conservation-ledger sink this reason
  folds into, or ``None`` for reasons the ledgers do not account (the
  kernel datapath's internal drops).  Several fine-grained datapath
  reasons share the coarse ``dp.dropped`` sink, exactly as many
  ``skb_drop_reason``s share one interface counter.
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
                ledger_sink: Optional[str],
                counter: Optional[str] = None) -> "DropReason":
        obj = object.__new__(cls)
        obj._value_ = value
        obj.stage = stage
        obj.ledger_sink = ledger_sink
        obj.counter = counter
        return obj

    # -- NIC / XDP layer (before any datapath saw the packet) ----------
    #: Hardware rx ring full; the frame was never DMAed.
    NIC_RX_MISSED = ("nic.rx_missed", DropStage.PRE_DATAPATH,
                     "nic.rx_missed")
    #: The attached XDP program returned DROP (or ABORTED).
    NIC_XDP_DROP = ("nic.xdp_drops", DropStage.PRE_DATAPATH,
                    "nic.xdp_drops")
    #: XDP_PASS diverted the frame into the kernel stack — not a loss,
    #: but a leg the AF_XDP ledger must account for.
    NIC_XDP_PASS_TO_STACK = ("nic.xdp_passes_to_stack",
                             DropStage.PRE_DATAPATH,
                             "nic.xdp_passes_to_stack")
    #: XDP_REDIRECT had no live socket/device to land on.
    NIC_XDP_REDIRECT_FAILED = ("nic.xdp_redirect_failed",
                               DropStage.PRE_DATAPATH,
                               "nic.xdp_redirect_failed")

    # -- AF_XDP socket rx (before the PMD polled the frame) ------------
    XSK_RX_NO_FILL = ("xsk.rx_dropped_no_fill", DropStage.PRE_DATAPATH,
                      "xsk.rx_dropped_no_fill", "rx_dropped_no_fill")
    XSK_RX_OVERRUN = ("xsk.rx_dropped_overrun", DropStage.PRE_DATAPATH,
                      "xsk.rx_dropped_overrun", "rx_dropped_overrun")

    # -- Userspace datapath (DpifNetdev) -------------------------------
    #: The coarse ledger sink every fine-grained dp.* reason folds into
    #: (``DpifNetdev.stats.dropped``); never emitted as an event itself.
    DP_DROPPED = ("dp.dropped", DropStage.DATAPATH, "dp.dropped")
    DP_UPCALL_LOST = ("dp.upcall_lost", DropStage.DATAPATH, "dp.dropped")
    DP_UPCALL_FAILED = ("dp.upcall_failed", DropStage.DATAPATH,
                        "dp.dropped")
    DP_RECIRC_LIMIT = ("dp.recirc_limit", DropStage.DATAPATH,
                       "dp.dropped")
    DP_EMPTY_ACTIONS = ("dp.empty_actions", DropStage.DATAPATH,
                        "dp.dropped")
    DP_METER_DROP = ("dp.meter_drop", DropStage.DATAPATH, "dp.dropped")
    DP_TUNNEL_DECAP_FAILED = ("dp.tunnel_decap_failed",
                              DropStage.DATAPATH, "dp.dropped")
    DP_TX_NO_PORT = ("dp.tx_no_port", DropStage.DATAPATH, "dp.dropped")

    # -- Kernel datapath (openvswitch.ko analog) -----------------------
    # The kernel worlds' ledgers have no dp sink (conservation there is
    # nic-level), so these carry no ledger_sink.
    KERNEL_RX_NO_PORT = ("kernel.rx_no_port", DropStage.PRE_DATAPATH,
                         None)
    KERNEL_UPCALL_LOST = ("kernel.upcall_lost", DropStage.DATAPATH, None)
    #: The upcall reached userspace but translation failed.
    KERNEL_UPCALL_FAILED = ("kernel.upcall_failed", DropStage.DATAPATH,
                            None)
    KERNEL_RECIRC_LIMIT = ("kernel.recirc_limit", DropStage.DATAPATH,
                           None)
    KERNEL_TUNNEL_DECAP_FAILED = ("kernel.tunnel_decap_failed",
                                  DropStage.DATAPATH, None)
    KERNEL_OUTPUT_NO_PORT = ("kernel.output_no_port", DropStage.DATAPATH,
                             None)

    # -- AF_XDP socket tx (after the datapath forwarded the frame) -----
    XSK_TX_NO_UMEM = ("xsk.tx_dropped_no_umem", DropStage.POST_DATAPATH,
                      "xsk.tx_dropped_no_umem", "tx_dropped_no_umem")
    XSK_TX_RING_FULL = ("xsk.tx_dropped_ring_full",
                        DropStage.POST_DATAPATH,
                        "xsk.tx_dropped_ring_full", "tx_dropped_ring_full")
    XSK_TX_KICK = ("xsk.tx_dropped_kick", DropStage.POST_DATAPATH,
                   "xsk.tx_dropped_kick", "tx_dropped_kick")

    # -- Supervised crash recovery --------------------------------------
    #: Frames sitting in XSK rx rings when the daemon died.
    CRASH_XSK_RX_INFLIGHT = ("crash.xsk_rx_inflight",
                             DropStage.PRE_DATAPATH,
                             "crash.xsk_rx_inflight")
    #: Frames sitting in XSK tx rings when the daemon died.
    CRASH_XSK_TX_INFLIGHT = ("crash.xsk_tx_inflight",
                             DropStage.POST_DATAPATH,
                             "crash.xsk_tx_inflight")
    #: Frames stranded in DPDK hardware rings across a rebind.
    CRASH_DPDK_RING_RESET = ("crash.dpdk_ring_reset",
                             DropStage.PRE_DATAPATH,
                             "crash.dpdk_ring_reset")


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
