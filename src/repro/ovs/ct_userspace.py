"""Userspace connection tracking.

The kernel datapath gets conntrack from netfilter; the userspace datapath
cannot, so OVS carries its own implementation — one of the paper's
"features must be reimplemented" costs (§4, §6 ✗).  The core logic is
shared with :mod:`repro.kernel.conntrack` (the semantics are identical by
design); what differs is ownership: this table lives inside ovs-vswitchd,
its time is USER time, and it dies with the process (connection state is
lost over an OVS restart — the operational trade-off of the move to
userspace).
"""

from __future__ import annotations

from typing import Callable

from repro.kernel.conntrack import ConntrackTable, CtResult
from repro.net.flow import FiveTuple
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext


class UserspaceConntrack:
    def __init__(self, max_connections: int = 1_000_000,
                 now_ns_fn: Callable[[], int] = lambda: 0) -> None:
        self._table = ConntrackTable(max_connections=max_connections)
        self._now_ns_fn = now_ns_fn

    def __len__(self) -> int:
        return len(self._table)

    def process(
        self,
        five_tuple: FiveTuple,
        zone: int,
        ctx: ExecContext,
        tcp_flags: int = 0,
        nbytes: int = 0,
        commit: bool = False,
    ) -> CtResult:
        costs = DEFAULT_COSTS
        ctx.charge(costs.conntrack_lookup_ns, label="ct_lookup")
        result = self._table.process(
            five_tuple,
            zone=zone,
            tcp_flags=tcp_flags,
            nbytes=nbytes,
            commit=commit,
            now_ns=self._now_ns_fn(),
        )
        if commit and result.is_new:
            ctx.charge(
                costs.conntrack_commit_ns - costs.conntrack_lookup_ns,
                label="ct_commit",
            )
        return result

    def peek(self, five_tuple: FiveTuple, zone: int) -> CtResult:
        """Classify without committing, charging, or touching state —
        the ``ofproto/trace`` verdict: what *would* ct() say right now."""
        return self._table.lookup(five_tuple, zone, self._now_ns_fn())

    def flush(self) -> None:
        """An OVS restart: all connection state is gone (unlike the kernel
        datapath, where netfilter state survives a vswitchd restart)."""
        self._table.flush()

    def connections(self):
        return self._table.connections()
