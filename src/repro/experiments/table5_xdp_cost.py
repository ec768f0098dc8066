"""Table 5: single-core XDP processing rates by task complexity (§5.4).

====================================================  ========
XDP Processing Task                                   Rate
====================================================  ========
A: Drop only                                          14 Mpps
B: Parse Eth/IPv4 hdr and drop                        8.1 Mpps
C: Parse, lookup in L2 table, and drop                7.1 Mpps
D: Parse, swap src/dst MAC, and fwd                   4.7 Mpps
====================================================  ========

Task A hits the 10 Gbps line rate; every added instruction/lookup/write
after that costs throughput — "Complexity in XDP code reduces
performance" (Outcome #4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.reporting import format_table
from repro.ebpf.programs import (
    drop_program,
    l2_key,
    parse_drop_program,
    parse_lookup_drop_program,
    parse_swap_tx_program,
)
from repro.ebpf.xdp import XdpContext
from repro.experiments.common import CpuSnapshot, reduce_run
from repro.hosts.host import Host
from repro.kernel.netdev import NetDevice, Wire
from repro.net.addresses import MacAddress
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 2_000
LINK_GBPS = 10.0

PAPER_MPPS = {"A": 14.0, "B": 8.1, "C": 7.1, "D": 4.7}
TASK_NAMES = {
    "A": "Drop only",
    "B": "Parse Eth/IPv4 hdr and drop",
    "C": "Parse Eth/IPv4, L2 table lookup, drop",
    "D": "Parse Eth/IPv4, swap src/dst MAC, fwd",
}


@dataclass
class Table5Result:
    mpps: Dict[str, float]

    def render(self) -> str:
        rows = [
            (task, TASK_NAMES[task], f"{self.mpps[task]:.1f}",
             PAPER_MPPS[task])
            for task in "ABCD"
        ]
        return format_table(
            ["Task", "XDP processing", "Rate (Mpps)", "Paper (Mpps)"],
            rows,
            title="Table 5: single-core XDP processing rates",
        )


def _measure_task(program_ctx: XdpContext, packets: int,
                  n_flows: int = 1) -> float:
    host = Host("dut", n_cpus=4)
    nic = host.add_nic("ens1", n_queues=1)
    sink = NetDevice("sink", MacAddress.local(0xF1001))
    sink.set_up()
    sink.set_rx_handler(lambda pkt, ctx: None)
    Wire(nic, sink, gbps=LINK_GBPS)
    nic.attach_xdp(program_ctx)
    host.kernel.set_irq_affinity("ens1", 0, 0)
    stream = TrexStream(FlowSpec(n_flows), frame_len=64)
    # Warm up (cold caches, program image).
    for pkt in stream.burst(64):
        nic.host_receive(pkt)
    while nic.pending():
        host.kernel.service_nic(nic, budget=64, interrupt_mode=False)
    before = CpuSnapshot.take(host.cpu)
    sent = 0
    while sent < packets:
        for pkt in stream.burst(64):
            nic.host_receive(pkt)
        sent += 64
        while nic.pending():
            host.kernel.service_nic(nic, budget=64, interrupt_mode=False)
    return reduce_run(host.cpu, before, sent, link_gbps=LINK_GBPS,
                      frame_len=64).mpps


def _build_program(task: str):
    if task == "A":
        return drop_program()
    if task == "B":
        return parse_drop_program()
    if task == "C":
        lookup_prog, table = parse_lookup_drop_program()
        # Populate the L2 table so task C's lookup hits, as in the paper.
        stream = TrexStream(FlowSpec(1), frame_len=64)
        table.update(l2_key(stream.next_packet().data[0:6]),
                     (1).to_bytes(4, "little"))
        return lookup_prog
    if task == "D":
        return parse_swap_tx_program()
    raise ValueError(f"unknown task {task!r}")


def run_cell(task: str, packets: int, n_flows: int) -> float:
    """One Table 5 row: build the task's program (a pure, uncharged
    build) and measure it."""
    return _measure_task(XdpContext(_build_program(task)), packets,
                         n_flows=n_flows)


def run_table5(packets: int = PACKETS, n_flows: int = 1) -> Table5Result:
    """Measure the four tasks; ``n_flows > 1`` spreads the stream over
    that many distinct flows (every-frame-different traffic defeats any
    per-frame verdict caching, isolating raw program execution cost)."""
    return Table5Result(mpps={task: run_cell(task, packets, n_flows)
                              for task in "ABCD"})


def main() -> None:  # pragma: no cover - CLI entry
    print(run_table5().render())


if __name__ == "__main__":  # pragma: no cover
    main()
