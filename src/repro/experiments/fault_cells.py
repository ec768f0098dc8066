"""Seeded fault-plan worlds as pool units (DESIGN §17).

The merged-ledger property needs a world where faults actually fire and
packets actually die at named sinks, split by *port*: each unit is one
port-pair sub-world (its own NIC, driver, datapath, PMD) driven under
its own unit-scoped :class:`~repro.sim.faults.FaultPlan`.  Because every
count in a :class:`~repro.tools.conservation.PacketLedger` is an
integer, the merged ledger is exact whichever worker runs which port,
in whatever order — offered, forwarded and every per-sink tally sum to
the serial run's, byte for byte.

The plan travels in the unit's ``params`` (``FaultPlan`` constructor
kwargs, rebuilt in the worker) and :func:`run_fault_cell` installs it
around its own body, never through a module global: an ambient plan's
per-point RNG streams interleave across units in serial order, which no
pool can reproduce — :func:`~repro.sim.shard.run_units` refuses that
configuration outright.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sim import faults
from repro.sim.faults import FaultPlan, FaultRule
from repro.tools.conservation import PacketLedger
from repro.traffic.trex import FlowSpec, TrexStream

LINK_GBPS = 10.0


def run_fault_cell(packets: int, n_flows: int,
                   plan: Dict[str, Any]) -> PacketLedger:
    """One port-pair sub-world driven under its own fault plan (``plan``
    is the ``FaultPlan`` constructor kwargs); returns its conservation
    ledger."""
    from repro.experiments.common import warmup_count
    from repro.experiments.world import build_world

    with faults.injecting(FaultPlan(**plan)):
        world = build_world("afxdp_zc", "P2P", link_gbps=LINK_GBPS)
        stream = TrexStream(FlowSpec(n_flows=n_flows), frame_len=64)
        world.drive(stream, packets)
        return world.ledger(warmup_count(stream) + packets)


def fault_units(n_ports: int, seed: int, packets: int = 240,
                tx_kick_rate: float = 0.1) -> List:
    """One unit per port-pair, each with its own seeded plan.

    Port ``i`` gets plan seed ``seed + i`` — the per-port streams are a
    pure function of the port, not of which worker runs it.
    """
    from repro.sim.shard import Unit

    units = []
    for i in range(n_ports):
        units.append(Unit(
            key=f"port{i}",
            runner="repro.experiments.fault_cells:run_fault_cell",
            params=dict(packets=packets, n_flows=2 + (i % 3), plan=dict(
                seed=seed + i,
                rules=(
                    FaultRule("afxdp.tx_kick_eagain", rate=tx_kick_rate),
                    FaultRule("afxdp.fill_ring_overrun", rate=0.02),
                    FaultRule("dp.upcall_overload", nth=7),
                ),
                emc_insert_inv_prob=2,
            )),
        ))
    return units


def merged_fault_ledger(n_ports: int, seed: int, shards: int = 1,
                        packets: int = 240) -> Dict:
    """Run the port set on ``shards`` workers and merge the ledgers; the
    property suite compares these dicts."""
    from repro.sim.shard import run_units

    units = fault_units(n_ports, seed, packets=packets)
    merged = PacketLedger.merge(run_units(units, shards=shards))
    return {"offered": merged.offered, "forwarded": merged.forwarded,
            "sinks": dict(sorted(merged.sinks.items()))}


def main(argv=None) -> None:  # pragma: no cover - CLI entry
    """CI entry: the merged ledger as canonical JSON, so two runs (or
    two worker counts) can be byte-diffed by ``diff``."""
    import argparse
    import json

    from repro.experiments.common import positive_int

    parser = argparse.ArgumentParser(
        prog="fault_cells",
        description="Seeded fault-plan port set; merged conservation "
                    "ledger (DESIGN §17)",
    )
    parser.add_argument("--ports", type=positive_int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--packets", type=positive_int, default=240)
    parser.add_argument("--json", action="store_true",
                        help="emit the merged ledger as sorted JSON")
    parser.add_argument("--shards", type=positive_int, default=1, metavar="N",
                        help="run the ports across N worker processes; "
                             "the merged ledger is byte-identical to "
                             "--shards 1 (see DESIGN §17)")
    args = parser.parse_args(argv)
    ledger = merged_fault_ledger(args.ports, args.seed,
                                 shards=args.shards,
                                 packets=args.packets)
    if args.json:
        print(json.dumps(ledger, indent=2, sort_keys=True))
    else:
        dropped = ledger["offered"] - ledger["forwarded"]
        print(f"{args.ports} ports, seed {args.seed}: "
              f"offered {ledger['offered']} forwarded "
              f"{ledger['forwarded']} dropped {dropped}")
        for name, n in ledger["sinks"].items():
            print(f"  {name}: {n}")


if __name__ == "__main__":  # pragma: no cover - CLI entry
    main()
