"""Figure 10: inter-host VM latency and transaction rate (§5.3).

netperf TCP_RR between a host and a VM on another host:

=========  ===============  ==============
Config     P50/P90/P99 us   Explanation
=========  ===============  ==============
Kernel     58 / 68 / 94     adaptive interrupt+polling everywhere
AF_XDP     39 / 41 / 53     polling on the switch, trailing DPDK mainly
                            because of missing hardware checksum (§4)
DPDK       36 / 38 / 45     always polling
=========  ===============  ==============

One transaction = a 1-byte TCP segment from the VM through the switch to
the wire, the server host's stack turning it around, and the reply
travelling back into the VM.  Every hop runs on the real simulated
objects (virtio queues, PMD/dpif pipeline, AF_XDP rings, NIC service);
the interrupt/wakeup variance of the non-polling hops comes from
log-normal jitter terms whose medians model NIC interrupt moderation and
scheduler wakeups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.experiments.world import build_world
from repro.net.builder import make_tcp_packet
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, ExecContext
from repro.traffic.netperf import NetperfResult, TcpRrRunner

N_TRANSACTIONS = 400

PAPER_US = {
    "kernel": (58, 68, 94),
    "afxdp": (39, 41, 53),
    "dpdk": (36, 38, 45),
}

#: Jitter medians (ns) and sigmas for the non-deterministic hops.
#: The kernel path is interrupt-driven at the NIC in both directions on
#: the client host and on the server host (adaptive moderation on the
#: ConnectX generation is ~10 us under RR load); the userspace datapaths
#: poll the NIC so only the server side and the guest's virtio interrupt
#: jitter remain.
_JITTER = {
    "kernel": {
        "client_nic_irq": (9_500.0, 0.35),
        "client_nic_irq_back": (9_500.0, 0.35),
        "server_nic_irq": (9_000.0, 0.35),
        "guest_virtio_irq": (6_000.0, 0.4),
        "netserver_wakeup": (4_500.0, 0.5),
        "guest_app_wakeup": (4_500.0, 0.5),
    },
    "afxdp": {
        "server_nic_irq": (11_000.0, 0.3),
        "guest_virtio_irq": (8_000.0, 0.35),
        "netserver_wakeup": (5_500.0, 0.45),
        "guest_app_wakeup": (5_500.0, 0.45),
    },
    "dpdk": {
        "server_nic_irq": (10_500.0, 0.25),
        "guest_virtio_irq": (7_500.0, 0.3),
        "netserver_wakeup": (5_200.0, 0.4),
        "guest_app_wakeup": (5_200.0, 0.4),
    },
}


@dataclass
class Fig10Result:
    results: Dict[str, NetperfResult]

    def render(self) -> str:
        rows = []
        for config, r in self.results.items():
            paper = PAPER_US[config]
            rows.append((
                config,
                f"{r.p50_us:.0f}/{r.p90_us:.0f}/{r.p99_us:.0f}",
                f"{paper[0]}/{paper[1]}/{paper[2]}",
                f"{r.transactions_per_s:,.0f}",
            ))
        return format_table(
            ["Config", "P50/P90/P99 (us)", "Paper (us)", "Transactions/s"],
            rows,
            title="Figure 10: host <-> remote-VM TCP_RR latency",
        )


class _RrPath:
    """The world table's W2V row + an abstract server turn.

    The request leaves the guest through the client host's real switch
    path onto ens1's wire; the server side is a fixed host-stack
    turnaround (same for every config, as in the testbed); the reply
    comes back in through ens1 and the switch into the guest.  The
    world's bounded pump settles each direction.
    """

    def __init__(self, config: str) -> None:
        self.config = config
        world = build_world("afxdp_zc" if config == "afxdp" else config, "W2V")
        self.host, self.vs = world.host, world.vs
        self.vm, self.nic = world.ends
        self._pump_client = world.pump
        self.pmd = world.pmds[0] if world.pmds else None
        self.guest_ctx = self.vm.ctx
        self.server_ctx = ExecContext(self.host.cpu, 14, CpuCategory.SYSTEM,
                                      name="netserver-host")
        # The wire's far end: capture transmissions, to echo them back.
        self._wire_out: List = []
        self.nic.wire_peer.set_rx_handler(  # type: ignore[union-attr]
            lambda pkt, ctx: self._wire_out.append(pkt))
        # One round's frames are byte-identical: build each once; every
        # transaction sends a fresh clone (own Packet + PacketMeta) — the
        # request's made here, the reply's by the NIC's DMA copy
        # (``host_receive`` clones before it touches metadata).
        self._request = make_tcp_packet(
            self.vm.nic.mac, self.nic.mac,
            "10.0.0.5", "10.0.0.9", 40000, 12865, payload=b"x")
        self._reply = make_tcp_packet(
            self.nic.mac, self.vm.nic.mac,
            "10.0.0.9", "10.0.0.5", 12865, 40000, payload=b"y")
        # Warm the caches so measured transactions see steady state.
        for _ in range(4):
            self.one_transaction()

    # ------------------------------------------------------------------
    def contexts(self) -> List[ExecContext]:
        ctxs = [self.guest_ctx, self.server_ctx]
        if self.pmd is not None:
            ctxs.append(self.pmd.ctx)
        if self.vm.qemu is not None:
            ctxs.append(self.vm.qemu.ctx)
        ctxs.extend(self.host.kernel._softirq_ctx.values())
        return ctxs

    def one_transaction(self) -> None:
        costs = DEFAULT_COSTS
        # 1. The guest app writes 1 byte; its TCP stack emits a segment.
        self.guest_ctx.charge(costs.tcp_segment_ns, label="guest_tcp")
        self.guest_ctx.charge(costs.socket_copy_per_byte_ns * 1,
                              label="guest_copy")
        self.vm.nic.transmit(self._request.clone(), self.guest_ctx)
        self._pump_client()
        if not self._wire_out:
            raise AssertionError("request never reached the wire")
        self._wire_out.clear()

        # 2. The server host: NIC rx -> stack -> netserver -> reply tx.
        self.server_ctx.charge(
            costs.nic_rx_ns + costs.skb_alloc_ns + costs.dma_first_touch_ns
            + costs.tcp_segment_ns, label="server_rx")
        self.server_ctx.charge(costs.tcp_segment_ns + costs.skb_free_ns
                               + costs.nic_tx_ns, label="server_tx")

        # 3. Back through the switch into the guest.
        self.nic.host_receive(self._reply)
        self._pump_client()
        if not self.vm.nic.rx_queue.pop_batch(4):
            raise AssertionError("reply never reached the guest")
        self.guest_ctx.charge(costs.tcp_segment_ns, label="guest_tcp")


def run_fig10(n_transactions: int = N_TRANSACTIONS) -> Fig10Result:
    results: Dict[str, NetperfResult] = {}
    for config in ("kernel", "afxdp", "dpdk"):
        path = _RrPath(config)
        runner = TcpRrRunner(path.contexts(), _JITTER[config],
                             seed=hash(config) & 0xFFFF)
        results[config] = runner.run(path.one_transaction, n_transactions)
    return Fig10Result(results=results)


def main() -> None:  # pragma: no cover - CLI entry
    print(run_fig10().render())


if __name__ == "__main__":  # pragma: no cover
    main()
