"""Figure 12: multi-queue P2P scaling on 25 GbE (§5.5).

"One server ran the TRex traffic generator, the other ran OVS with DPDK
or AF_XDP packet I/O with 1, 2, 4, or 6 receive queues and an equal
number of PMD threads.  We generated streams of 64 and 1518[-byte]
packets at 25 Gbps line rate ... With 1518-byte packets, OVS AF_XDP
coped with 25 Gbps line rate using 6 queues, while in the presence of
64-byte packets the performance topped out at around 12 Mpps ... The
DPDK version consistently outperformed AF_XDP."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.reporting import format_table
from repro.experiments.world import build_world
from repro.sim.stats import line_rate_mpps
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS_PER_QUEUE = 1_200
LINK_GBPS = 25.0
QUEUE_COUNTS = (1, 2, 4, 6)
FRAME_SIZES = (64, 1518)


@dataclass
class Fig12Result:
    #: (datapath, frame, queues) -> (mpps, gbps)
    series: Dict[Tuple[str, int, int], Tuple[float, float]]

    def gbps(self, datapath: str, frame: int, queues: int) -> float:
        return self.series[(datapath, frame, queues)][1]

    def mpps(self, datapath: str, frame: int, queues: int) -> float:
        return self.series[(datapath, frame, queues)][0]

    def render(self) -> str:
        rows: List[Tuple] = []
        for queues in QUEUE_COUNTS:
            row = [queues]
            for datapath in ("afxdp", "dpdk"):
                for frame in FRAME_SIZES:
                    m, g = self.series[(datapath, frame, queues)]
                    row.append(f"{g:.1f} ({m:.1f}M)")
            rows.append(tuple(row))
        return format_table(
            ["Queues", "AF_XDP 64B", "AF_XDP 1518B", "DPDK 64B",
             "DPDK 1518B"],
            rows,
            title="Figure 12: P2P throughput, Gbps (Mpps), 25 GbE",
        )


def _wire_gbps(mpps: float, frame: int) -> float:
    return mpps * (frame + 20) * 8 / 1e3


def run_cell(datapath: str, frame: int, queues: int,
             packets_per_queue: int) -> Tuple[float, float]:
    """One Figure 12 point — a (datapath, frame, queues) point of the
    multi-queue scaling curve: fresh world, fresh stream, one rate."""
    # The workload must have enough flows for RSS to spread work
    # across the queues (TRex varies the IPs at line-rate tests).
    flows = FlowSpec(n_flows=max(16 * queues, 16))
    n = packets_per_queue * queues
    # The §5.5 DUT is a dual-socket 12-core (24 HT) server.
    world = build_world("afxdp_zc" if datapath == "afxdp" else "dpdk", "P2P",
                        n_queues=queues, link_gbps=LINK_GBPS, n_cpus=24)
    m = world.drive(TrexStream(flows, frame_len=frame), n)
    return (m.mpps, _wire_gbps(m.mpps, frame))


def run_fig12(packets_per_queue: int = PACKETS_PER_QUEUE) -> Fig12Result:
    return Fig12Result(series={
        (datapath, frame, queues): run_cell(datapath, frame, queues,
                                            packets_per_queue)
        for frame in FRAME_SIZES
        for queues in QUEUE_COUNTS
        for datapath in ("afxdp", "dpdk")
    })


def main(argv=None) -> None:  # pragma: no cover - CLI entry
    import argparse

    parser = argparse.ArgumentParser(
        prog="fig12_multiqueue",
        description="Figure 12: multi-queue P2P scaling on 25 GbE",
    )
    parser.add_argument("--packets-per-queue", type=int,
                        default=PACKETS_PER_QUEUE)
    args = parser.parse_args(argv)
    result = run_fig12(packets_per_queue=args.packets_per_queue)
    print(result.render())
    line64 = line_rate_mpps(LINK_GBPS, 64)
    print(f"\n64B line rate: {line64:.1f} Mpps; "
          f"1518B line rate: {line_rate_mpps(LINK_GBPS, 1518):.2f} Mpps")


if __name__ == "__main__":  # pragma: no cover
    main()
