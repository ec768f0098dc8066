"""Shared measurement harness for the evaluation experiments.

The measurement methodology mirrors the paper's:

* drive a known number of packets through a configuration,
* read per-CPU virtual busy time off the :class:`~repro.sim.cpu.CpuModel`,
* the sustained rate is ``packets / busiest-lane-time`` (the pipeline
  bottleneck), SMT-adjusted when more hyperthreads are saturated than
  physical cores exist, capped by the wire,
* CPU utilisation is busy time over the bottleneck window, in units of
  hyperthreads — exactly Table 4's columns.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.cpu import CpuCategory, CpuModel
from repro.sim.stats import line_rate_mpps, smt_effective_lanes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.traffic.trex import TrexStream

WARMUP_PACKETS = 64


def positive_int(text: str) -> int:
    """``argparse`` type for a count of packets or workers: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def warmup_count(stream: "TrexStream") -> int:
    """Enough warmup to install every flow's caches before measuring
    (the paper measures steady state: per-flow setup is amortised over
    minutes of traffic, not over our short measured window)."""
    return max(WARMUP_PACKETS, 2 * stream.flows.n_flows)


@dataclass
class CpuSnapshot:
    per_cpu: Dict[int, Dict[CpuCategory, float]]

    @classmethod
    def take(cls, cpu: CpuModel) -> "CpuSnapshot":
        return cls(
            per_cpu={
                c: {cat: cpu.busy_ns(cpu=c, category=cat)
                    for cat in CpuCategory}
                for c in range(cpu.n_cpus)
            }
        )


@dataclass
class PipelineMeasurement:
    """The reduction of one measured run."""

    packets: int
    mpps: float
    ns_per_packet: float
    wall_ns: float
    n_busy_lanes: int
    #: Table-4-style utilisation in hyperthread units, POLL_IDLE folded
    #: into ``user``.
    cpu_util: Dict[str, float]
    capped_by_line: bool = False


def reduce_run(
    cpu: CpuModel,
    before: CpuSnapshot,
    packets: int,
    link_gbps: Optional[float] = None,
    frame_len: int = 64,
    pmd_cpus: "tuple[int, ...]" = (),
    busy_threshold_ns: float = 1.0,
) -> PipelineMeasurement:
    """Reduce accounting deltas to rate + utilisation.

    ``pmd_cpus`` name the poll-mode lanes: they burn their whole wall
    window even when idle, so their utilisation is topped up with
    POLL_IDLE — the reason "CPU usage is fixed regardless of the number
    of flows across all the userspace options" (§5.2).
    """
    if packets <= 0:
        raise ValueError("measure at least one packet")
    deltas: Dict[int, Dict[CpuCategory, float]] = {}
    lane_busy: Dict[int, float] = {}
    for c in range(cpu.n_cpus):
        deltas[c] = {}
        for cat in CpuCategory:
            d = cpu.busy_ns(cpu=c, category=cat) - before.per_cpu[c][cat]
            if d:
                deltas[c][cat] = d
        lane_busy[c] = sum(deltas[c].values())
    busy_lanes = {c: b for c, b in lane_busy.items()
                  if b > busy_threshold_ns}
    if not busy_lanes:
        raise RuntimeError("no CPU time was charged; nothing was measured")
    wall = max(busy_lanes.values())
    n_lanes = len(busy_lanes)

    # Rate: bottleneck-lane limited, SMT-adjusted, line capped.
    raw_mpps = packets / wall * 1e3
    effective = smt_effective_lanes(n_lanes, cpu.n_cpus)
    if n_lanes:
        raw_mpps *= effective / n_lanes
    capped = False
    if link_gbps is not None:
        line = line_rate_mpps(link_gbps, frame_len)
        if raw_mpps > line:
            raw_mpps = line
            capped = True

    # Utilisation over the wall window.
    util: Dict[str, float] = {}
    for c, cats in deltas.items():
        for cat, ns in cats.items():
            name = "user" if cat is CpuCategory.POLL_IDLE else cat.value
            util[name] = util.get(name, 0.0) + ns / wall
    for c in pmd_cpus:
        # Poll-idle top-up: the PMD burns the rest of its window.
        idle = max(0.0, wall - lane_busy.get(c, 0.0))
        util["user"] = util.get("user", 0.0) + idle / wall
    util["total"] = sum(v for k, v in util.items() if k != "total")

    return PipelineMeasurement(
        packets=packets,
        mpps=raw_mpps,
        ns_per_packet=wall / packets,
        wall_ns=wall,
        n_busy_lanes=n_lanes,
        cpu_util={k: round(v, 2) for k, v in util.items()},
        capped_by_line=capped,
    )

