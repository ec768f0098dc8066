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


#: Bar order.
DATAPATHS = ("kernel", "dpdk", "ebpf")


def run_cell(datapath: str, packets: int) -> float:
    """One Figure 2 bar: fresh world, fresh stream, one rate."""
    stream = TrexStream(FlowSpec(n_flows=1), frame_len=64)
    world = build_world(datapath, "P2P", n_queues=1, link_gbps=LINK_GBPS)
    return world.drive(stream, packets).mpps


def run_fig2(packets: int = PACKETS) -> Fig2Result:
    return Fig2Result(mpps={dp: run_cell(dp, packets) for dp in DATAPATHS})


def main() -> None:  # pragma: no cover - CLI entry
    result = run_fig2()
    print(result.render())
    print(f"\neBPF is {result.ebpf_slowdown_pct:.0f}% slower than the "
          f"kernel module (paper: 10-20%)")


if __name__ == "__main__":  # pragma: no cover
    main()
