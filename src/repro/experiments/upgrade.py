"""Crash-recovery / hot-upgrade downtime under live traffic (§6).

The paper's operational case for the userspace datapath is that an
upgrade (or a crash) is a daemon restart — no module reload, no reboot.
This experiment prices that restart per datapath flavor: a supervised
ovs-vswitchd is killed mid-traffic by the seeded ``vswitchd.crash``
fault, the :class:`~repro.sim.supervisor.Supervisor` drives the charged
recovery sequence on the virtual clock, and continuous offered load
(fixed-rate bursts) measures what the dataplane actually lost.

What each flavor keeps across the crash decides its disruption:

==========  ========================================================
kernel      megaflows + netfilter conntrack live in the kernel; warm
            flows forward through the whole outage, only new-flow
            upcalls are ``lost:``
ebpf (tc)   program + maps pinned in the kernel; zero dataplane loss,
            the restart is purely control-plane
afxdp       XSK fds die with the process: every redirect fails until
            the supervisor re-creates umem + sockets, then the caches
            (EMC/megaflow) and userspace conntrack restart cold
dpdk        the process owned the device; hw rings fill while nobody
            polls and are discarded by the re-init's queue reset, and
            EAL init dominates the downtime
==========  ========================================================

Runs are deterministic per seed (the CI upgrade job runs each seed
twice and diffs the JSON)::

    python -m repro upgrade
    python -m repro.experiments.upgrade --json --seed 7 \
        --scenarios kernel,afxdp_zc
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import warmup_count
from repro.experiments.world import DATAPATHS, build_world
from repro.sim import faults, trace
from repro.sim.clock import MSEC
from repro.sim.faults import FaultPlan, FaultRule
from repro.sim.supervisor import Supervisor
from repro.traffic.trex import FlowSpec, TrexStream

#: One P2P world per datapath of the world table.
SCENARIOS: Tuple[str, ...] = DATAPATHS

PACKETS = 9_600
#: Offered burst size, and the NAPI budget the kernel services it with.
BURST = 32
#: Offered-load cadence: one burst per virtual millisecond.
BURST_INTERVAL_NS = 1 * MSEC
N_FLOWS = 16
LINK_GBPS = 25.0
#: Retry-stretch odds for the recovery-path faults (seeded, so the two
#: CI seeds exercise different retry counts).
RETRY_FAULT_RATE = 0.3


@dataclass
class ScenarioResult:
    """One datapath flavor's crash-and-recover under load."""

    scenario: str
    offered: int
    delivered: int
    restarts: int
    crashed_at_ns: float
    downtime_ns: float
    detect_ns: float
    backoff_ns: float
    ovsdb_retries: int
    netlink_redumps: int
    phase_ns: Dict[str, float] = field(default_factory=dict)
    sinks: Dict[str, int] = field(default_factory=dict)
    conserved: bool = True

    @property
    def lost(self) -> int:
        return self.offered - self.delivered

    def to_json(self) -> Dict:
        return {
            "scenario": self.scenario,
            "offered": self.offered,
            "delivered": self.delivered,
            "lost": self.lost,
            "restarts": self.restarts,
            "crashed_at_ms": round(self.crashed_at_ns / MSEC, 6),
            "downtime_ms": round(self.downtime_ns / MSEC, 6),
            "detect_ms": round(self.detect_ns / MSEC, 6),
            "backoff_ms": round(self.backoff_ns / MSEC, 6),
            "ovsdb_retries": self.ovsdb_retries,
            "netlink_redumps": self.netlink_redumps,
            "phase_ms": {k: round(v / MSEC, 6)
                         for k, v in sorted(self.phase_ns.items())},
            "sinks": dict(sorted(self.sinks.items())),
            "conserved": self.conserved,
        }


# ----------------------------------------------------------------------
def _run_scenario(name: str, packets: int, seed: int) -> ScenarioResult:
    """Build one flavor's world and crash it once under load."""
    n_bursts = max(1, (packets + BURST - 1) // BURST)
    crash_nth = max(2, n_bursts // 5)
    plan = FaultPlan(seed=seed, rules=[
        FaultRule("vswitchd.crash", nth=crash_nth, max_fires=1),
        FaultRule("ovsdb.disconnect", rate=RETRY_FAULT_RATE),
        FaultRule("netlink.enobufs", rate=RETRY_FAULT_RATE),
    ])
    stream = TrexStream(FlowSpec(n_flows=N_FLOWS))
    with faults.injecting(plan), trace.isolated():
        # Every scenario wires trex -> ens1 -> br0 -> ens2 -> trex; an
        # untuned host services the NIC at BURST in interrupt mode.
        world = build_world(name, "P2P", link_gbps=LINK_GBPS, n_queues=1,
                            napi_budget=BURST)
        world.prepare(stream)
        host = world.host
        sup = Supervisor(host.user_ctx(host.cpu.n_cpus - 1), host.clock,
                         vs=world.vs, pmds=world.pmds)
        warmup = warmup_count(stream)
        for pkt in stream.burst(warmup):
            world.nic_in.host_receive(pkt)
            world.pump(True)
        start = host.clock.now
        sent = 0
        burst_no = 0
        while sent < packets:
            host.clock.advance_to(start + burst_no * BURST_INTERVAL_NS)
            sup.poll()
            sup.maybe_crash()
            chunk = min(BURST, packets - sent)
            for pkt in stream.burst(chunk):
                world.nic_in.host_receive(pkt)
            sent += chunk
            world.pump(sup.up)
            if sup.up and world.pmds:
                world.vs.dpif_netdev.revalidate(
                    emcs=[pmd.emc for pmd in world.pmds])
            burst_no += 1
        # A recovery that outlives the offered window (DPDK's EAL init)
        # still completes; drain whatever the reborn daemon can forward.
        sup.finish()
        world.pump(sup.up)
        ledger = world.ledger(warmup + packets, sup.crash_sinks)
    rec0 = sup.history[0] if sup.history else None
    return ScenarioResult(
        scenario=name,
        offered=packets,
        delivered=ledger.forwarded - warmup,
        restarts=sup.restarts,
        crashed_at_ns=(rec0.crashed_at_ns - start) if rec0 else 0.0,
        downtime_ns=rec0.downtime_ns if rec0 else 0.0,
        detect_ns=(rec0.detected_at_ns - rec0.crashed_at_ns) if rec0
        else 0.0,
        backoff_ns=rec0.backoff_ns if rec0 else 0.0,
        ovsdb_retries=rec0.ovsdb_retries if rec0 else 0,
        netlink_redumps=rec0.netlink_redumps if rec0 else 0,
        phase_ns=dict(rec0.phase_ns) if rec0 else {},
        sinks={k: v for k, v in ledger.sinks.items() if v},
        conserved=ledger.conserved(),
    )


def run_upgrade(
    packets: int = PACKETS,
    seed: int = 0,
    scenarios: Sequence[str] = SCENARIOS,
) -> List[ScenarioResult]:
    results = []
    for name in scenarios:
        if name not in SCENARIOS:
            known = ", ".join(SCENARIOS)
            raise ValueError(f"unknown scenario {name!r}; known: {known}")
        result = _run_scenario(name, packets, seed)
        if not result.conserved:
            raise AssertionError(
                f"packet conservation violated in {name!r}: "
                f"{result.to_json()}")
        results.append(result)
    return results


def render(results: Sequence[ScenarioResult]) -> str:
    lines = [
        f"{'scenario':<12} {'downtime':>10} {'detect':>8} {'lost':>7} "
        f"{'delivered':>9} {'retries':>8}",
    ]
    for r in results:
        retries = r.ovsdb_retries + r.netlink_redumps
        lines.append(
            f"{r.scenario:<12} {r.downtime_ns / MSEC:>8.1f}ms "
            f"{r.detect_ns / MSEC:>6.1f}ms {r.lost:>7} "
            f"{r.delivered:>9} {retries:>8}"
        )
    return "\n".join(lines)


def main(argv: "List[str] | None" = None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    as_json = "--json" in argv
    seed = 0
    packets = PACKETS
    scenarios: Sequence[str] = SCENARIOS
    if "--seed" in argv:
        seed = int(argv[argv.index("--seed") + 1])
    if "--packets" in argv:
        packets = int(argv[argv.index("--packets") + 1])
    if "--scenarios" in argv:
        scenarios = tuple(
            argv[argv.index("--scenarios") + 1].split(","))
    results = run_upgrade(packets=packets, seed=seed, scenarios=scenarios)
    if as_json:
        print(json.dumps({
            "seed": seed,
            "packets": packets,
            "scenarios": {r.scenario: r.to_json() for r in results},
        }, indent=2, sort_keys=True))
    else:
        print(f"supervised crash-recovery (seed={seed}, {packets} packets "
              f"offered as {BURST}-packet bursts every "
              f"{BURST_INTERVAL_NS / MSEC:g} ms):")
        print(render(results))


if __name__ == "__main__":
    main()
