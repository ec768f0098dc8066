"""The full-sweep driver: grid × :func:`~repro.perfmatrix.cells.run_cell`.

Two committed grids:

* ``QUICK_GRID`` — the CI surface: {64B, 1518B} × {1, 1000 flows} ×
  {kernel, AF_XDP copy, AF_XDP zero-copy, DPDK} × {P2P, PVP}.  This is
  what ``BASELINE_matrix.json`` pins and the ``perf-matrix`` CI job
  gates.
* ``FULL_GRID`` — the paper-scale surface: {64B, 256B, 1024B, 1518B} ×
  {1, 1k, 100k flows} × all five datapaths × {P2P, PVP, PCP}.  The
  100k-flow column warms up 200k packets per cell; expect the full
  sweep to take tens of minutes (run it offline, not in CI).

Everything is deterministic — no timestamps, no wall-clock, floats
straight from the virtual cost model — so two runs of the same grid
produce byte-identical canonical JSON, and the gate can afford tight
per-cell tolerances.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.perfmatrix.cells import (
    DATAPATHS,
    TOPOLOGIES,
    CellSpec,
    cell_support,
    run_cell,
)
from repro.perfmatrix.schema import SCHEMA_ID, validate_matrix


@dataclass(frozen=True)
class MatrixGrid:
    """One sweep surface plus the per-cell measurement knobs."""

    label: str
    frame_lens: Tuple[int, ...]
    flow_counts: Tuple[int, ...]
    datapaths: Tuple[str, ...]
    topologies: Tuple[str, ...]
    packets: int = 400
    link_gbps: float = 25.0
    resolution_mpps: float = 0.01
    loss_tolerance: float = 0.0

    def specs(self) -> List[CellSpec]:
        return [
            CellSpec(topology=topo, datapath=dp,
                     frame_len=size, n_flows=flows)
            for topo in self.topologies
            for dp in self.datapaths
            for size in self.frame_lens
            for flows in self.flow_counts
        ]


QUICK_GRID = MatrixGrid(
    label="quick",
    frame_lens=(64, 1518),
    flow_counts=(1, 1000),
    datapaths=("kernel", "afxdp_copy", "afxdp_zc", "dpdk"),
    topologies=("P2P", "PVP"),
    packets=400,
)

FULL_GRID = MatrixGrid(
    label="full",
    frame_lens=(64, 256, 1024, 1518),
    flow_counts=(1, 1000, 100_000),
    datapaths=DATAPATHS,
    topologies=TOPOLOGIES,
    packets=1500,
)


def _shard_cell(spec: CellSpec, packets: int, link_gbps: float,
                resolution_mpps: float, loss_tolerance: float,
                progress: bool = False) -> dict:
    """Pool-unit wrapper around :func:`run_cell` (DESIGN §17)."""
    if progress:  # pragma: no cover - cosmetics
        print(f"  {spec.cell_id} ...", file=sys.stderr, flush=True)
    return run_cell(spec, packets=packets, link_gbps=link_gbps,
                    resolution_mpps=resolution_mpps,
                    loss_tolerance=loss_tolerance)


def run_matrix(grid: MatrixGrid, progress: bool = False,
               shards: int = 1) -> dict:
    """Sweep the grid; returns the schema-valid matrix document."""
    from repro.sim.shard import Unit, run_units

    skipped: Dict[Tuple[str, str], str] = {}
    units: List[Unit] = []
    for spec in grid.specs():
        reason = cell_support(spec.datapath, spec.topology)
        if reason is not None:
            skipped[(spec.datapath, spec.topology)] = reason
            continue
        units.append(Unit(
            key=spec.cell_id,
            runner="repro.perfmatrix.matrix:_shard_cell",
            params=dict(spec=spec, packets=grid.packets,
                        link_gbps=grid.link_gbps,
                        resolution_mpps=grid.resolution_mpps,
                        loss_tolerance=grid.loss_tolerance,
                        progress=progress),
        ))
    cells = run_units(units, shards=shards)
    doc = {
        "schema": SCHEMA_ID,
        "grid": {
            "label": grid.label,
            "frame_lens": list(grid.frame_lens),
            "flow_counts": list(grid.flow_counts),
            "datapaths": list(grid.datapaths),
            "topologies": list(grid.topologies),
            "packets": grid.packets,
            "link_gbps": grid.link_gbps,
            "resolution_mpps": grid.resolution_mpps,
            "loss_tolerance": grid.loss_tolerance,
        },
        "cells": cells,
        "skipped": [
            {"datapath": dp, "topology": topo, "reason": reason}
            for (dp, topo), reason in sorted(skipped.items())
        ],
    }
    problems = validate_matrix(doc)
    if problems:  # pragma: no cover - emitter bug guard
        raise AssertionError(
            "emitted an invalid matrix: " + "; ".join(problems)
        )
    return doc


def canonical_json(doc: dict) -> str:
    """The byte-stable serialization the determinism tests diff."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_matrix(doc: dict) -> str:
    """Figure-9-style table: one row per (topology, datapath, size)."""
    flow_counts = doc["grid"]["flow_counts"]
    by_key: Dict[Tuple[str, str, int], Dict[int, dict]] = {}
    for cell in doc["cells"]:
        key = (cell["topology"], cell["datapath"], cell["frame_len"])
        by_key.setdefault(key, {})[cell["n_flows"]] = cell
    rows = []
    for (topo, dp, size), by_flows in sorted(by_key.items()):
        row = [topo, dp, f"{size}B"]
        for flows in flow_counts:
            cell = by_flows.get(flows)
            if cell is None:
                row.append("-")
            else:
                capped = "*" if cell["capped_by_line"] else ""
                row.append(f"{cell['rate_mpps']:.2f}{capped}")
        rows.append(tuple(row))
    headers = ["Topology", "Datapath", "Frame"] + [
        f"{f} flow{'s' if f != 1 else ''} (Mpps)" for f in flow_counts
    ]
    return format_table(
        headers, rows,
        title=f"Performance matrix ({doc['grid']['label']}): "
              f"maximum lossless rate (* = line rate)",
    )


def _csv(value: str) -> List[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def build_grid(args) -> MatrixGrid:
    base = FULL_GRID if args.full else QUICK_GRID
    frame_lens = (tuple(int(s) for s in _csv(args.sizes))
                  if args.sizes else base.frame_lens)
    flow_counts = (tuple(int(f) for f in _csv(args.flows))
                   if args.flows else base.flow_counts)
    datapaths = (tuple(_csv(args.datapaths))
                 if args.datapaths else base.datapaths)
    topologies = (tuple(_csv(args.topologies))
                  if args.topologies else base.topologies)
    return MatrixGrid(
        label=base.label,
        frame_lens=frame_lens,
        flow_counts=flow_counts,
        datapaths=datapaths,
        topologies=topologies,
        packets=args.budget if args.budget else base.packets,
        link_gbps=args.link_gbps,
        resolution_mpps=args.resolution,
        loss_tolerance=args.loss_tolerance,
    )


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro matrix",
        description="Sweep the performance matrix and binary-search each "
                    "cell's maximum lossless rate.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="the CI grid (default)")
    mode.add_argument("--full", action="store_true",
                      help="the paper-scale grid incl. 100k flows, eBPF "
                           "and PCP (tens of minutes)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write matrix.json here")
    parser.add_argument("--budget", type=int, default=0, metavar="N",
                        help="measured packets per cell (default: grid's)")
    parser.add_argument("--sizes", default=None,
                        help="comma-separated frame lengths, e.g. 64,1518")
    parser.add_argument("--flows", default=None,
                        help="comma-separated flow counts, e.g. 1,1000")
    parser.add_argument("--datapaths", default=None,
                        help=f"subset of {','.join(DATAPATHS)}")
    parser.add_argument("--topologies", default=None,
                        help=f"subset of {','.join(TOPOLOGIES)}")
    parser.add_argument("--link-gbps", type=float, default=25.0)
    parser.add_argument("--resolution", type=float, default=0.01,
                        metavar="MPPS", help="search bracket width bound")
    parser.add_argument("--loss-tolerance", type=float, default=0.0,
                        metavar="FRAC",
                        help="loss fraction still counted lossless")
    parser.add_argument("--progress", action="store_true",
                        help="narrate cells to stderr")
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="sweep cells across N worker processes; the "
                             "matrix document is byte-identical to "
                             "--shards 1 (see DESIGN §17)")
    args = parser.parse_args(argv)

    doc = run_matrix(build_grid(args), progress=args.progress,
                     shards=args.shards)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(canonical_json(doc))
        print(f"wrote {len(doc['cells'])} cells to {args.out}")
    print(render_matrix(doc))
    if doc["skipped"]:
        print()
        print("skipped (no physical analogue):")
        for entry in doc["skipped"]:
            print(f"  {entry['datapath']} x {entry['topology']}: "
                  f"{entry['reason']}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
