"""Matrix cells: one (datapath, topology, frame, flows) measurement.

A cell builds its world from the experiments' world table
(:func:`repro.experiments.world.build_world`) and drives it with the
world's measured loop.  Its rate is that drive's own measurement —
:func:`repro.experiments.common.reduce_run`'s busiest-lane rate times
the SMT yield, capped at the line — the same reduction ``fig9`` prints.
No load is offered, so nothing is searched.  The result is a plain
JSON-ready dict, fully deterministic: building the same cell twice
yields byte-identical canonical JSON.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from repro.experiments.world import (
    DATAPATHS,
    TOPOLOGIES,
    build_world,
    cell_support,
)
from repro.sim import trace
from repro.traffic.trex import FlowSpec, TrexStream

#: Nominal core frequency used to express per-packet cost in cycles
#: (the paper's testbed runs Xeon cores around this clock).
CPU_GHZ = 2.6

#: Ledger counters that are packet-drop sinks: anything a cell sheds on
#: the floor shows up here (AF_XDP ring overruns, upcall shedding, ...).
_DROP_SINK_RE = re.compile(
    r"drop|lost|discard|shortfall|overrun|leak|no_fill|no_umem|ring_full"
)


class UnsupportedCell(Exception):
    """Raised for grid points with no physical analogue (e.g. eBPF PVP)."""


@dataclass(frozen=True)
class CellSpec:
    """One point of the sweep surface."""

    topology: str
    datapath: str
    frame_len: int
    n_flows: int

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.datapath not in DATAPATHS:
            raise ValueError(f"unknown datapath {self.datapath!r}")
        if self.frame_len < 64 or self.frame_len > 9000:
            raise ValueError(f"implausible frame length {self.frame_len}")
        if self.n_flows < 1:
            raise ValueError("need at least one flow")

    @property
    def cell_id(self) -> str:
        return (f"{self.topology.lower()}/{self.datapath}"
                f"/{self.frame_len}B/{self.n_flows}f")


def _drive(world, stream: TrexStream, packets: int):
    """Run a world's drive, collecting drop-sink counter deltas.

    Tracing is read-only observability (it never charges time), so the
    measurement is identical whether a recorder is attached or not; if
    the caller already has one attached we ride it via counter deltas
    instead of nesting (the trace layer forbids nested attach).
    """
    active = trace.ACTIVE
    if active is not None:
        before = dict(active.counters)
        measurement = world.drive(stream, packets)
        counters = {
            k: v - before.get(k, 0)
            for k, v in active.counters.items()
            if v != before.get(k, 0)
        }
    else:
        with trace.recording() as rec:
            measurement = world.drive(stream, packets)
        counters = dict(rec.counters)
    drops = {
        k: v for k, v in counters.items() if v and _DROP_SINK_RE.search(k)
    }
    return measurement, drops


def run_cell(
    spec: CellSpec,
    packets: int = 400,
    link_gbps: float = 25.0,
) -> dict:
    """Measure one cell: drive its world and report the measurement."""
    reason = cell_support(spec.datapath, spec.topology)
    if reason is not None:
        raise UnsupportedCell(reason)
    if packets < 1:
        raise ValueError("measure at least one packet")
    world = build_world(spec.datapath, spec.topology, link_gbps=link_gbps)
    # PCP streams must target the container's IP (fig9 does the same):
    # the loopback path needs packets delivered *to* it, sources still
    # vary for flow diversity.
    stream = TrexStream(
        FlowSpec(n_flows=spec.n_flows, vary_dst=(spec.topology != "PCP")),
        frame_len=spec.frame_len,
    )
    measurement, drops = _drive(world, stream, packets)
    return {
        "id": spec.cell_id,
        "topology": spec.topology,
        "datapath": spec.datapath,
        "frame_len": spec.frame_len,
        "n_flows": spec.n_flows,
        "packets": packets,
        "link_gbps": link_gbps,
        "rate_mpps": measurement.mpps,
        "ns_per_packet": measurement.ns_per_packet,
        "cycles_per_packet": measurement.ns_per_packet * CPU_GHZ,
        "capped_by_line": measurement.capped_by_line,
        "n_busy_lanes": measurement.n_busy_lanes,
        "cpu_util": dict(measurement.cpu_util),
        "drops": drops,
    }
