"""Figure 2: single-core, single-flow 64-byte forwarding by datapath.

"Figure 2 compares the performance of OVS in practice across three
datapaths: the OVS kernel module, an eBPF implementation, and DPDK.  The
test case is a single flow of 64-byte UDP packets ... the sandbox
overhead makes eBPF packet switching 10–20 % slower than with the
conventional OVS kernel module."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.reporting import bar_chart
from repro.experiments.world import build_world
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 2_000
LINK_GBPS = 10.0


@dataclass
class Fig2Result:
    mpps: Dict[str, float]

    @property
    def ebpf_slowdown_pct(self) -> float:
        return 100.0 * (1 - self.mpps["ebpf"] / self.mpps["kernel"])

    def render(self) -> str:
        return bar_chart(
            list(self.mpps),
            list(self.mpps.values()),
            unit="Mpps",
            title="Figure 2: 64B single-flow forwarding, one core",
        )


#: Serial cell order; each cell is one shard unit (DESIGN §17).
DATAPATHS = ("kernel", "dpdk", "ebpf")


def run_cell(datapath: str, packets: int) -> float:
    """One Figure 2 bar: fresh world, fresh stream, one rate."""
    stream = TrexStream(FlowSpec(n_flows=1), frame_len=64)
    world = build_world(datapath, "P2P", n_queues=1, link_gbps=LINK_GBPS)
    return world.drive(stream, packets).mpps


def run_fig2(packets: int = PACKETS, shards: int = 1) -> Fig2Result:
    from repro.experiments.common import sharded_cells
    from repro.sim.shard import Unit

    units = [
        Unit(key=dp, runner="repro.experiments.fig2_single_flow:run_cell",
             params=dict(datapath=dp, packets=packets),
             weight={"kernel": 2.0, "dpdk": 1.0, "ebpf": 1.5}[dp])
        for dp in DATAPATHS
    ]
    return Fig2Result(mpps=sharded_cells(units, shards=shards))


def main() -> None:  # pragma: no cover - CLI entry
    result = run_fig2()
    print(result.render())
    print(f"\neBPF is {result.ebpf_slowdown_pct:.0f}% slower than the "
          f"kernel module (paper: 10-20%)")


if __name__ == "__main__":  # pragma: no cover
    main()
