"""Degradation under injected faults: the robustness curve.

Sweeps a fault rate through the AF_XDP P2P forwarding pipeline —
tx-kick EAGAIN, fill-ring overruns, upcall-queue overload and a crashing
ovs-vswitchd firing together — and reports how throughput, drops and
per-packet latency degrade (the paper's operability claims, §3.3, §6).
Every lost packet lands in a named counter and conservation holds at
every point.  Goodput falls monotonically, with a cliff at the first
non-zero rate: one restart's downtime dominates the per-run ratio.

Runs are deterministic per seed (``test_robustness_determinism.py``)::

    python -m repro degradation
    python -m repro.experiments.degradation --json --seed 7
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import CpuSnapshot, positive_int, reduce_run
from repro.experiments.common import warmup_count
from repro.experiments.world import build_world
from repro.sim import faults, trace
from repro.sim.faults import FaultPlan, FaultRule
from repro.sim.supervisor import Supervisor
from repro.traffic.trex import FlowSpec, TrexStream

#: The fault points the sweep drives, all at the same rate.  The crash
#: point is consulted once per burst (a process dies per event, not per
#: packet); the supervised restart it triggers loses the in-flight burst
#: at the failed-redirect dispatch and brings the caches back cold.
SWEPT_POINTS: Tuple[str, ...] = (
    "afxdp.tx_kick_eagain",
    "afxdp.fill_ring_overrun",
    "dp.upcall_overload",
    "vswitchd.crash",
)

DEFAULT_RATES: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2)
PACKETS = 600
N_FLOWS = 64
LINK_GBPS = 25.0
#: Offered burst size, and the NAPI budget the kernel services it with.
BURST = 32


@dataclass
class DegradationPoint:
    """One sweep point of the degradation curve."""

    fault_rate: float
    offered: int
    delivered: int
    #: Offered-load rate the pipeline sustained (reduce_run's metric).
    mpps: float
    #: Delivered-packet rate: the robustness headline.
    goodput_mpps: float
    #: Bottleneck-lane ns per *delivered* packet (latency proxy).
    ns_per_delivered: float
    #: Virtual time spent sleeping in tx-kick backoff.
    backoff_wait_ns: float
    lost_upcalls: int
    faults_fired: Dict[str, int] = field(default_factory=dict)
    drops: Dict[str, int] = field(default_factory=dict)
    conserved: bool = True

    def to_json(self) -> Dict:
        return {
            "fault_rate": self.fault_rate,
            "offered": self.offered,
            "delivered": self.delivered,
            "mpps": round(self.mpps, 6),
            "goodput_mpps": round(self.goodput_mpps, 6),
            "ns_per_delivered": round(self.ns_per_delivered, 3),
            "backoff_wait_ns": round(self.backoff_wait_ns, 1),
            "lost_upcalls": self.lost_upcalls,
            "faults_fired": dict(sorted(self.faults_fired.items())),
            "drops": dict(sorted(self.drops.items())),
            "conserved": self.conserved,
        }


def _run_point(
    plan: FaultPlan,
    rate: float,
    packets: int,
    n_flows: int,
    link_gbps: float,
    sampler=None,
) -> DegradationPoint:
    """Build a fresh AF_XDP P2P world and drive it under ``plan``, the
    sweep's plan for fault ``rate``."""
    # Each sweep point needs its own isolated ledger (per-point backoff
    # waits, counters).
    with faults.injecting(plan), trace.isolated() as rec:
        if sampler is not None:
            rec.sampler = sampler
        stream = TrexStream(FlowSpec(n_flows=n_flows))
        # One rule per source IP: every flow pays its own upcall and
        # installs its own megaflow, so the upcall-overload point and the
        # revalidator's flow limit actually see per-flow pressure (a
        # single in_port rule would collapse into one wildcard megaflow).
        world = build_world("afxdp_zc", "P2P", link_gbps=link_gbps,
                            napi_budget=BURST, source_rules=stream.src_ips)
        host, nic_in = world.host, world.nic_in
        dpif = world.vs.dpif_netdev
        driver_out = dpif.ports[dpif.port_no("ens2")].adapter.driver
        # Passive unless the plan fires ``vswitchd.crash``: a plan
        # without that rule (or at rate 0) leaves every byte of the
        # ledger unchanged.
        supervisor = Supervisor(host.user_ctx(host.cpu.n_cpus - 1),
                                host.clock, vs=world.vs, pmds=world.pmds)

        warmup = warmup_count(stream)
        for pkt in stream.burst(warmup):
            nic_in.host_receive(pkt)
            world.pump()
        before = CpuSnapshot.take(host.cpu)
        delivered_before = driver_out.tx_sent
        sent = 0
        while sent < packets:
            chunk = min(BURST, packets - sent)
            for pkt in stream.burst(chunk):
                nic_in.host_receive(pkt)
            sent += chunk
            if supervisor.maybe_crash():
                # The daemon died with this burst in flight: the XSKs
                # died with it, so the kernel's XDP dispatch drains the
                # burst at the failed redirect.  The supervised restart
                # then runs to completion (charged, clock advances) and
                # the datapath resumes with cold caches.
                world.pump(daemon_up=False)
                supervisor.finish()
            world.pump()
            # Revalidator pass between bursts, as real udpif runs
            # continuously: under lost-upcall pressure it tightens the
            # flow limit, feeding the degradation back into the datapath.
            dpif.revalidate(emcs=[pmd.emc for pmd in world.pmds])
        measurement = reduce_run(
            host.cpu, before, packets,
            link_gbps=link_gbps, frame_len=stream.frame_len,
            pmd_cpus=world.pmd_cpus,
        )
        # ``tx_sent`` counts the sockets a supervised restart retired
        # too, so a crash does not under-report delivery.
        delivered = driver_out.tx_sent - delivered_before
        ledger = world.ledger(warmup + packets, supervisor.crash_sinks)
        backoff_entry = rec.waits.get("tx_kick_backoff")
        backoff_wait_ns = backoff_entry[1] if backoff_entry else 0.0
    ratio = delivered / packets if packets else 0.0
    return DegradationPoint(
        fault_rate=rate,
        offered=packets,
        delivered=delivered,
        mpps=measurement.mpps,
        goodput_mpps=measurement.mpps * ratio,
        ns_per_delivered=(measurement.wall_ns / delivered
                          if delivered else float("inf")),
        backoff_wait_ns=backoff_wait_ns,
        lost_upcalls=dpif.stats.lost,
        faults_fired=dict(plan.fired),
        drops={k: v for k, v in ledger.sinks.items() if v},
        conserved=ledger.conserved(),
    )


def run_degradation(
    packets: int = PACKETS,
    n_flows: int = N_FLOWS,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 0,
    link_gbps: float = LINK_GBPS,
    metrics_lines: "List[str] | None" = None,
) -> List[DegradationPoint]:
    """Sweep the fault rates.  With ``metrics_lines`` (a list to append
    to), each point runs with a fresh virtual-time
    :class:`~repro.sim.profile.MetricsSampler` whose JSONL series —
    every line tagged with the point's fault rate — is collected there."""
    points = []
    for rate in rates:
        sampler = None
        if metrics_lines is not None:
            from repro.sim.profile import MetricsSampler

            # A sweep point only charges a few hundred virtual µs, so
            # sample far finer than the 1 ms default.
            sampler = MetricsSampler(interval_ns=25_000.0)
        plan = FaultPlan(
            seed=seed,
            rules=[FaultRule(name, rate=rate) for name in SWEPT_POINTS],
        )
        point = _run_point(plan, rate, packets, n_flows, link_gbps,
                           sampler)
        if not point.conserved:
            raise AssertionError(
                f"packet conservation violated at rate={rate}: "
                f"{point.to_json()}"
            )
        if sampler is not None and sampler.samples:
            metrics_lines.append(
                sampler.to_jsonl(extra={"experiment": "degradation",
                                        "fault_rate": rate}))
        points.append(point)
    return points


def render(points: Sequence[DegradationPoint]) -> str:
    lines = [
        f"{'rate':>6}  {'goodput':>9}  {'delivered':>9}  {'dropped':>8}  "
        f"{'lost':>5}  {'ns/pkt':>9}  {'backoff':>10}",
    ]
    for p in points:
        dropped = p.offered - p.delivered
        lines.append(
            f"{p.fault_rate:>6.2f}  {p.goodput_mpps:>9.3f}  "
            f"{p.delivered:>9}  {dropped:>8}  {p.lost_upcalls:>5}  "
            f"{p.ns_per_delivered:>9.0f}  {p.backoff_wait_ns:>10.0f}"
        )
    return "\n".join(lines)


def main(argv: "List[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(
        prog="degradation",
        description="Forwarding rate and conservation under a sweep of "
                    "injected fault rates",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the sweep as sorted JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--packets", type=positive_int, default=PACKETS)
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write each sweep point's metric samples "
                             "as JSONL to PATH")
    args = parser.parse_args(argv)
    seed, packets, metrics_path = args.seed, args.packets, args.metrics
    metrics_lines: "List[str] | None" = (
        [] if metrics_path is not None else None)
    points = run_degradation(packets=packets, seed=seed,
                             metrics_lines=metrics_lines)
    if metrics_path is not None:
        with open(metrics_path, "w") as fh:
            fh.write("\n".join(metrics_lines) + "\n")
        print(f"wrote metric samples for {len(metrics_lines)} sweep "
              f"points to {metrics_path}")
    if args.json:
        print(json.dumps({
            "seed": seed,
            "packets": packets,
            "points": [p.to_json() for p in points],
        }, indent=2, sort_keys=True))
    else:
        print(f"degradation sweep (seed={seed}, {packets} packets, "
              f"{N_FLOWS} flows):")
        print(render(points))


if __name__ == "__main__":
    main()
