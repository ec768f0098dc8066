"""Figure 9 + Table 4: forwarding rate and CPU use across datapaths (§5.2).

Three loopback scenarios — P2P, PVP, PCP — each with the kernel datapath,
AF_XDP (tap and vhostuser for PVP) and DPDK, at 1 flow and 1,000 random
flows of 64-byte packets.  The reductions report both the maximum
lossless rate (Figure 9's top row) and the CPU consumption in
hyperthread units split by accounting category (the bottom row and
Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.reporting import format_table
from repro.experiments.common import PipelineMeasurement, positive_int
from repro.experiments.world import build_world
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 1_500
LINK_GBPS = 25.0
FLOW_COUNTS = (1, 1000)

#: scenario -> [(configuration label, world-table datapath)]; the paper's
#: AF_XDP runs are zero-copy, and its "afxdp+tap" PVP bar plugs the VM
#: in by tap instead of vhostuser.
CONFIGS: Dict[str, List[Tuple[str, str]]] = {
    "P2P": [("kernel", "kernel"), ("afxdp", "afxdp_zc"), ("dpdk", "dpdk")],
    "PVP": [("kernel+tap", "kernel"), ("afxdp+tap", "afxdp_zc"),
            ("afxdp+vhost", "afxdp_zc"), ("dpdk+vhost", "dpdk")],
    "PCP": [("kernel", "kernel"), ("afxdp", "afxdp_zc"), ("dpdk", "dpdk")],
}


@dataclass
class Fig9Result:
    #: (scenario, config, n_flows) -> measurement
    cells: Dict[Tuple[str, str, int], PipelineMeasurement] = field(
        default_factory=dict
    )

    def mpps(self, scenario: str, config: str, flows: int) -> float:
        return self.cells[(scenario, config, flows)].mpps

    def cpu(self, scenario: str, config: str, flows: int) -> Dict[str, float]:
        return self.cells[(scenario, config, flows)].cpu_util

    def render_rates(self) -> str:
        rows = []
        for scenario, configs in CONFIGS.items():
            for label, _ in configs:
                if (scenario, label, 1) not in self.cells:
                    continue  # partial run (subset of scenarios)
                rows.append((
                    scenario, label,
                    f"{self.mpps(scenario, label, 1):.2f}",
                    f"{self.mpps(scenario, label, 1000):.2f}",
                ))
        return format_table(
            ["Scenario", "Configuration", "1 flow (Mpps)",
             "1000 flows (Mpps)"],
            rows,
            title="Figure 9: maximum lossless forwarding rate",
        )

    def render_table4(self) -> str:
        rows = []
        for scenario, configs in CONFIGS.items():
            for label, _ in configs:
                if (scenario, label, 1000) not in self.cells:
                    continue
                util = self.cpu(scenario, label, 1000)
                rows.append((
                    scenario, label,
                    util.get("system", 0.0),
                    util.get("softirq", 0.0),
                    util.get("guest", 0.0),
                    util.get("user", 0.0),
                    util.get("total", 0.0),
                ))
        return format_table(
            ["Path", "Configuration", "system", "softirq", "guest",
             "user", "total"],
            rows,
            title="Table 4: CPU use with 1,000 flows (hyperthread units)",
        )


def run_cell(scenario: str, label: str, flows: int,
             packets: int) -> PipelineMeasurement:
    """One Figure 9 cell: fresh world, fresh stream, one measurement.

    The shard unit (DESIGN §17): everything the cell touches — host,
    clock, caches, RNG streams — is built here, so a worker process
    measures exactly what the serial loop does.
    """
    world = build_world(
        dict(CONFIGS[scenario])[label], scenario, link_gbps=LINK_GBPS,
        vm_attach="tap" if label == "afxdp+tap" else "vhostuser")
    # PCP streams target the container's IP (the loopback path needs
    # the packets delivered *to* it); sources still vary for flow
    # diversity.
    spec = FlowSpec(n_flows=flows, vary_dst=(scenario != "PCP"))
    stream = TrexStream(spec, frame_len=64)
    return world.drive(stream, packets)


def cell_units(
    packets: int = PACKETS,
    scenarios: Tuple[str, ...] = ("P2P", "PVP", "PCP"),
) -> "List":
    """The experiment as a serial-ordered list of shard units."""
    from repro.sim.shard import Unit

    units = []
    for scenario in scenarios:
        for label, _datapath in CONFIGS[scenario]:
            for flows in FLOW_COUNTS:
                units.append(Unit(
                    key=(scenario, label, flows),
                    runner="repro.experiments.fig9_forwarding:run_cell",
                    params=dict(scenario=scenario, label=label,
                                flows=flows, packets=packets),
                ))
    return units


def run_fig9(
    packets: int = PACKETS,
    scenarios: Tuple[str, ...] = ("P2P", "PVP", "PCP"),
    shards: int = 1,
) -> Fig9Result:
    from repro.sim.shard import run_units

    units = cell_units(packets, scenarios)
    result = Fig9Result()
    result.cells.update(zip((u.key for u in units),
                            run_units(units, shards=shards)))
    return result


def main(argv=None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        prog="fig9_forwarding",
        description="Figure 9 + Table 4: forwarding rate and CPU use",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="sample counters at fixed virtual-time intervals and write "
             "the series as JSONL to PATH",
    )
    parser.add_argument("--packets", type=positive_int, default=PACKETS)
    args = parser.parse_args(argv)
    if args.metrics is None:
        result = run_fig9(packets=args.packets)
    else:
        from repro.sim import trace
        from repro.sim.profile import MetricsSampler

        sampler = MetricsSampler()
        rec = trace.ACTIVE
        if rec is None:
            with trace.recording() as rec:
                rec.sampler = sampler
                result = run_fig9(packets=args.packets)
        else:
            # Ride the caller's recorder (python -m repro --trace fig9
            # --metrics ...); the sampler only reads, so the caller's
            # ledger stays byte-identical.
            rec.sampler = sampler
            try:
                result = run_fig9(packets=args.packets)
            finally:
                rec.sampler = None
        with open(args.metrics, "w") as fh:
            fh.write(sampler.to_jsonl(extra={"experiment": "fig9"}) + "\n")
        print(f"wrote {len(sampler.samples)} metric samples "
              f"to {args.metrics}")
    print(result.render_rates())
    print()
    print(result.render_table4())


if __name__ == "__main__":  # pragma: no cover
    main()
