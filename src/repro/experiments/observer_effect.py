"""The observer effect: what flow telemetry costs the datapath.

Sweeps the sFlow sampling rate — off, 1/1024, 1/64, 1/8, 1/1 — over the
kernel and AF_XDP zero-copy datapaths and reports the throughput
degradation curve.  Monitoring is not free: every packet pays the
sampling rate test at each instrumented dispatch point, and every taken
sample pays the header scrape + record encode.  The sweep quantifies
that, on the same worlds Figure 9 measures.

IPFIX export stays *on* in every cell (with timeouts longer than the
run, so the cache flushes exactly once at the end): each cell therefore
also proves the reconciliation invariant — the collector's totals match
the packet-conservation ledger leg for leg — while the curve isolates
the pure sampling cost, because the IPFIX charge is identical across
rates.

Sampling streams are seeded (:mod:`repro.sim.rng`), and a sample is
taken iff the point's uniform draw falls below ``1/rate`` — so the
samples at a low rate are a subset of the samples at any higher rate
under the same seed, and the measured cost is monotone by construction.
Runs are deterministic per seed (the CI telemetry job runs each seed
twice and diffs the JSON)::

    python -m repro observer-effect
    python -m repro.experiments.observer_effect --json --seed 7
    python -m repro.experiments.observer_effect --pcap /tmp/oe
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.experiments.common import positive_int, warmup_count
from repro.experiments.world import build_world
from repro.sim import trace
from repro.telemetry import IpfixConfig, SflowConfig, Telemetry
from repro.tools.pcap import write_pcap
from repro.traffic.trex import FlowSpec, TrexStream

#: Sampling rates swept, as 1/N (0 = sampling off).
RATES: Tuple[int, ...] = (0, 1024, 64, 8, 1)
#: datapath -> (sFlow sampling points, IPFIX hook point).
POINTS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "kernel": (("kernel",), "kernel"),
    "afxdp_zc": (("xdp", "dpif"), "dpif"),
}
DATAPATHS: Tuple[str, ...] = tuple(POINTS)
PACKETS = 600
N_FLOWS = 64
LINK_GBPS = 25.0
#: Longer than any cell's virtual run: no flow expires mid-measurement,
#: and the uncharged ``flush_all`` after the window exports each flow
#: exactly once.
IPFIX_TIMEOUT_NS = 10 ** 12


@dataclass
class ObserverPoint:
    """One (datapath, sampling rate) cell of the observer-effect sweep."""

    datapath: str
    rate: int  # 0 = sampling off
    offered: int
    forwarded: int
    mpps: float
    ns_per_packet: float
    observed: int
    sampled: int
    flow_records: int
    drop_records: int
    reconciled: bool
    conserved: bool

    @property
    def rate_label(self) -> str:
        return "off" if self.rate == 0 else f"1/{self.rate}"

    def to_json(self) -> Dict:
        return {
            "datapath": self.datapath,
            "rate": self.rate,
            "offered": self.offered,
            "forwarded": self.forwarded,
            "mpps": round(self.mpps, 6),
            "ns_per_packet": round(self.ns_per_packet, 3),
            "observed": self.observed,
            "sampled": self.sampled,
            "flow_records": self.flow_records,
            "drop_records": self.drop_records,
            "reconciled": self.reconciled,
            "conserved": self.conserved,
        }


def _run_cell(
    datapath: str,
    rate: int,
    packets: int,
    n_flows: int,
    seed: int,
    pcap_prefix: Optional[str] = None,
) -> ObserverPoint:
    """One fresh world driven under one sampling rate."""
    points, ipfix_point = POINTS[datapath]
    # Each cell keeps its own isolated ledger.
    with trace.isolated():
        world = build_world(datapath, "P2P", n_queues=1,
                            link_gbps=LINK_GBPS)
        stream = TrexStream(FlowSpec(n_flows=n_flows))
        sflow = (SflowConfig(rate=rate, points=points, seed=seed)
                 if rate else None)
        session = Telemetry(
            sflow=sflow,
            ipfix=IpfixConfig(point=ipfix_point,
                              active_timeout_ns=IPFIX_TIMEOUT_NS,
                              idle_timeout_ns=IPFIX_TIMEOUT_NS),
            now_ns_fn=lambda: world.host.clock.now,
        )
        # Installed before the drive so the warmup is observed too: the
        # ledger's ``offered`` includes warmup frames, and reconciliation
        # must account for every one of them.
        with telemetry.monitoring(session):
            measurement = world.drive(stream, packets)
            # End-of-run export, after the measured window (uncharged).
            session.flush_all()
            offered = warmup_count(stream) + packets
            ledger = world.ledger(offered)
            problems = session.reconcile(ledger)
    if problems:
        raise AssertionError(
            f"telemetry reconciliation failed for {datapath} "
            f"rate={rate}: {problems}")
    sampler = session.sflow
    if pcap_prefix is not None and sampler is not None and sampler.samples:
        write_pcap(
            f"{pcap_prefix}-{datapath}-{rate}.pcap",
            [s.header for s in sampler.samples],
            timestamps_us=[s.ts_ns // 1000 for s in sampler.samples],
        )
    collector = session.collector
    return ObserverPoint(
        datapath=datapath,
        rate=rate,
        offered=offered,
        forwarded=ledger.forwarded,
        mpps=measurement.mpps,
        ns_per_packet=measurement.ns_per_packet,
        observed=sampler.total_observed if sampler is not None else 0,
        sampled=sampler.total_sampled if sampler is not None else 0,
        flow_records=collector.flow_records,
        drop_records=collector.drop_records,
        reconciled=not problems,
        conserved=ledger.conserved(),
    )


def run_observer_effect(
    packets: int = PACKETS,
    n_flows: int = N_FLOWS,
    rates: Sequence[int] = RATES,
    datapaths: Sequence[str] = DATAPATHS,
    seed: int = 0,
    pcap_prefix: Optional[str] = None,
) -> List[ObserverPoint]:
    """Sweep sampling rate x datapath; assert conservation,
    reconciliation, and the monotone cost contract at every point."""
    results: List[ObserverPoint] = []
    for datapath in datapaths:
        curve: List[ObserverPoint] = []
        for rate in rates:
            point = _run_cell(datapath, rate, packets, n_flows, seed,
                              pcap_prefix)
            if not point.conserved:
                raise AssertionError(
                    f"packet conservation violated at {datapath} "
                    f"rate={rate}: {point.to_json()}")
            curve.append(point)
        # Coupled sampling makes the cost monotone by construction;
        # a violation means a hook charges inconsistently.
        for prev, cur in zip(curve, curve[1:]):
            if not (cur.ns_per_packet > prev.ns_per_packet
                    and cur.mpps <= prev.mpps):
                raise AssertionError(
                    f"observer cost not monotone on {datapath}: "
                    f"{prev.rate_label} -> {cur.rate_label} "
                    f"({prev.ns_per_packet} -> {cur.ns_per_packet} "
                    f"ns/pkt)")
        results.extend(curve)
    return results


def render(points: Sequence[ObserverPoint]) -> str:
    lines = [
        f"{'datapath':>9}  {'rate':>6}  {'mpps':>8}  {'ns/pkt':>8}  "
        f"{'overhead':>8}  {'sampled':>7}  {'flows':>5}",
    ]
    base: Dict[str, float] = {}
    for p in points:
        if p.rate == 0:
            base[p.datapath] = p.ns_per_packet
        over = p.ns_per_packet - base.get(p.datapath, p.ns_per_packet)
        lines.append(
            f"{p.datapath:>9}  {p.rate_label:>6}  {p.mpps:>8.3f}  "
            f"{p.ns_per_packet:>8.1f}  {over:>+8.1f}  {p.sampled:>7}  "
            f"{p.flow_records:>5}"
        )
    return "\n".join(lines)


def main(argv: "List[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(
        prog="observer_effect",
        description="Telemetry's throughput cost by sampling rate",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the sweep as sorted JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--packets", type=positive_int, default=PACKETS)
    parser.add_argument("--pcap", metavar="PREFIX", default=None,
                        help="write each cell's sampled headers to "
                             "PREFIX-*.pcap")
    args = parser.parse_args(argv)
    seed, packets, pcap_prefix = args.seed, args.packets, args.pcap
    points = run_observer_effect(packets=packets, seed=seed,
                                 pcap_prefix=pcap_prefix)
    if args.json:
        print(json.dumps({
            "seed": seed,
            "packets": packets,
            "points": [p.to_json() for p in points],
        }, indent=2, sort_keys=True))
    else:
        print(f"observer effect (seed={seed}, {packets} packets, "
              f"{N_FLOWS} flows):")
        print(render(points))
        if pcap_prefix is not None:
            print(f"sampled headers written to {pcap_prefix}-*.pcap")


if __name__ == "__main__":
    main()
