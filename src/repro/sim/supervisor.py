"""Supervised crash-recovery for ovs-vswitchd (§6 made measurable).

The paper's operational argument for the userspace datapath — "upgrades
are a daemon restart, not a reboot" — cuts both ways: a restart is also
what a *crash* costs you, and how much it costs depends entirely on
which state survives the process.  This module turns that into a
virtual-time event the experiments can measure:

* a :class:`Supervisor` (think ``systemd`` with ``Restart=always``)
  watches the daemon through periodic heartbeats on the virtual clock;
* the seeded fault plan (:mod:`repro.sim.faults`, point
  ``vswitchd.crash``) kills the daemon mid-traffic;
* the supervisor notices after ``miss_threshold`` missed heartbeats and
  drives a *charged* restart sequence, phase by phase, as the
  experiment's clock passes each phase's end time.

Recovery phases (each one a named span in the trace ledger)::

    detect    the missed-heartbeat window (probes charged)
    backoff   bounded exponential restart throttle (waited, not charged)
    exec      fork/exec + library init + config parse
    ovsdb     reconnect (retried on ``ovsdb.disconnect`` faults) and
              re-read of every row
    ports     per-type re-bind: AF_XDP sockets + umem recreated, DPDK
              EAL + per-port config, kernel ports re-dumped over
              netlink (re-dumped from scratch on ``netlink.enobufs``)
    state     datapath-divergent: the netdev DP comes back with cold
              EMC/megaflow caches and a fresh (empty) userspace
              conntrack; the kernel DP keeps megaflows + netfilter
              conntrack and skips this phase
    resync    NSX replays the desired rule set over OpenFlow

While the daemon is up the supervisor is strictly passive — no charges,
no waits, no RNG draws, no trace counters — so a world that never
crashes produces a byte-identical ledger with or without one (the
zero-overhead-off contract of the fault layer applies here too).

Packet conservation through a crash: frames sitting in a crashed
process's AF_XDP rings die with its file descriptors and are returned
by :meth:`~repro.afxdp.driver.AfxdpDriver.drop_sockets_on_crash` as
named sinks (``crash.xsk_rx_inflight`` / ``crash.xsk_tx_inflight``);
frames that accumulated in a DPDK device's hardware rings while nobody
polled are discarded by the re-init's queue reset and land in
``crash.dpdk_ring_reset``.  :data:`Supervisor.crash_sinks` aggregates
these for the experiment's :class:`~repro.tools.conservation.
PacketLedger`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import telemetry
from repro.sim import faults, trace
from repro.sim.clock import Clock, MSEC
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext
from repro.telemetry.drops import DropReason

#: Cap on fault-stretched retries inside one recovery (ovsdb reconnects
#: and netlink re-dumps).  A real init system would escalate to a human
#: well before this; for us it bounds the RNG draws per restart so a
#: recovery's cost stays a pure function of (plan, state).
MAX_RETRIES = 5


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the watchdog, defaults shaped like systemd's.

    ``heartbeat_interval_ns``/``miss_threshold`` mirror a watchdog of
    ``WatchdogSec=30ms`` probed at 10 ms; ``backoff_base_ns`` is
    systemd's ``RestartSec=100ms`` default, doubled per consecutive
    crash up to ``backoff_cap_ns``.  A daemon that stays up for
    ``stable_uptime_ns`` earns its crash counter back."""

    heartbeat_interval_ns: float = 10 * MSEC
    miss_threshold: int = 3
    backoff_base_ns: float = 100 * MSEC
    backoff_cap_ns: float = 10_000 * MSEC
    stable_uptime_ns: float = 1_000 * MSEC


@dataclass
class _Phase:
    name: str
    duration_ns: float
    end_ns: float = 0.0
    charge_ns: float = 0.0
    wait_ns: float = 0.0
    action: Optional[Callable[[ExecContext], None]] = None


@dataclass
class RestartRecord:
    """One completed crash→recovery cycle, for ``supervisor/show``."""

    cause: str
    crashed_at_ns: int
    detected_at_ns: float
    recovered_at_ns: float
    backoff_ns: float
    ovsdb_retries: int
    netlink_redumps: int
    phase_ns: Dict[str, float] = field(default_factory=dict)

    @property
    def downtime_ns(self) -> float:
        return self.recovered_at_ns - self.crashed_at_ns


class Supervisor:
    """Watches one ovs-vswitchd; restarts it when the fault plan kills it.

    ``ctx`` is the control-plane execution context recovery work is
    charged to (the supervisor is a userspace process too).  ``pmds``
    lists the PMD threads whose EMCs must be flushed on a netdev-DP
    cold start.  ``vs=None`` supervises a daemon-less world (the eBPF
    flavor, where the dataplane lives in the kernel and only the
    control process dies): recovery is detect + backoff + exec.

    The supervisor never advances the clock itself; the experiment's
    burst loop does, and calls :meth:`poll` so phases complete as their
    end times pass.  :meth:`finish` completes a recovery that runs past
    the offered-load window.
    """

    def __init__(
        self,
        ctx: ExecContext,
        clock: Clock,
        vs=None,
        pmds: "tuple | list" = (),
        nsx_agent=None,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        self.ctx = ctx
        self.clock = clock
        self.vs = vs
        self.pmds = list(pmds)
        self.nsx_agent = nsx_agent
        self.cfg = config or SupervisorConfig()
        self.up = True
        self.restarts = 0
        self.consecutive_crashes = 0
        self.epoch_ns = clock.now          # heartbeat schedule anchor
        self.started_at_ns: float = clock.now
        self.last_cause: Optional[str] = None
        self.history: List[RestartRecord] = []
        self.crash_sinks: Dict[str, int] = {}
        self._pending: List[_Phase] = []
        self._rec: Optional[RestartRecord] = None

    # ------------------------------------------------------------------
    # Port discovery (which state must be re-bound).
    # ------------------------------------------------------------------
    def _afxdp_drivers(self) -> list:
        if self.vs is None or self.vs.dpif_netdev is None:
            return []
        return self.vs.dpif_netdev.afxdp_drivers()

    def _dpdk_ethdevs(self) -> list:
        if self.vs is None or self.vs.dpif_netdev is None:
            return []
        return [port.adapter.ethdev
                for port in self.vs.dpif_netdev.ports.values()
                if getattr(port.adapter, "ethdev", None) is not None]

    def _n_kernel_ports(self) -> int:
        if self.vs is None or self.vs.dpif_netlink is None:
            return 0
        return len(self.vs.dpif_netlink.dp.ports)

    # ------------------------------------------------------------------
    # Crash entry points.
    # ------------------------------------------------------------------
    def maybe_crash(self) -> bool:
        """Consult the ``vswitchd.crash`` fault point once.

        Call once per burst from the drive loop.  Passive without an
        installed plan (no RNG, no counters) and while already down (a
        dead daemon cannot die again)."""
        plan = faults.ACTIVE
        if plan is None or not self.up:
            return False
        if not plan.should_fire("vswitchd.crash"):
            return False
        self.crash("vswitchd.crash")
        return True

    def crash(self, cause: str = "vswitchd.crash") -> None:
        """The daemon just died; sever its attachments and plan recovery.

        Dying is free — the cost model charges the *recovery*.  In-flight
        frames in the dead process's AF_XDP rings are retired into
        :data:`crash_sinks` so the packet ledger still balances."""
        if not self.up:
            raise RuntimeError("supervised daemon is already down")
        now = self.clock.now
        self.up = False
        self.last_cause = cause
        uptime = now - self.started_at_ns
        if self.consecutive_crashes and uptime >= self.cfg.stable_uptime_ns:
            self.consecutive_crashes = 0
        self.consecutive_crashes += 1
        trace.count("supervisor.crashes")
        for driver in self._afxdp_drivers():
            for name, n in driver.drop_sockets_on_crash().items():
                self.crash_sinks[name] = self.crash_sinks.get(name, 0) + n
        if self.vs is not None:
            self.vs.crash()
        self._plan_recovery(now, cause)

    # ------------------------------------------------------------------
    # Recovery planning: every duration, retry and charge is fixed at
    # crash time (fault retries drawn from the plan's per-point RNG
    # streams), so the whole sequence is a deterministic function of
    # (seed, world state at the crash).
    # ------------------------------------------------------------------
    def _plan_recovery(self, now: int, cause: str) -> None:
        cfg, costs = self.cfg, DEFAULT_COSTS
        plan = faults.ACTIVE
        phases: List[_Phase] = []

        # detect: probes tick on the absolute schedule epoch + k*h; the
        # first probe after the crash is the first one missed.
        h = cfg.heartbeat_interval_ns
        k0 = int((now - self.epoch_ns) // h) + 1
        detected_at = self.epoch_ns + (k0 + cfg.miss_threshold - 1) * h
        phases.append(_Phase(
            "detect", detected_at - now,
            charge_ns=cfg.miss_threshold * costs.heartbeat_probe_ns,
        ))

        # backoff: free restart on the first crash, then doubling.
        n = self.consecutive_crashes
        backoff = 0.0 if n <= 1 else min(
            cfg.backoff_cap_ns, cfg.backoff_base_ns * (2 ** (n - 2)))
        if backoff:
            phases.append(_Phase("backoff", backoff, wait_ns=backoff))

        phases.append(_Phase("exec", costs.exec_restart_ns,
                             charge_ns=costs.exec_restart_ns))

        # ovsdb: reconnect (fault-stretched) + full re-read.
        ovsdb_retries = 0
        if self.vs is not None:
            while (plan is not None and ovsdb_retries < MAX_RETRIES
                   and plan.should_fire("ovsdb.disconnect")):
                ovsdb_retries += 1
            n_rows = len(self.vs.ovsdb._rows)
            connect = (ovsdb_retries + 1) * costs.ovsdb_connect_ns
            read = n_rows * costs.ovsdb_row_read_ns
            waited = ovsdb_retries * costs.ovsdb_reconnect_wait_ns
            phases.append(_Phase("ovsdb", connect + read + waited,
                                 charge_ns=connect + read, wait_ns=waited))

        # ports: per-type re-bind.  The action runs at phase end so new
        # sockets/queues appear only once recovery reaches this point.
        afxdp = self._afxdp_drivers()
        dpdk = self._dpdk_ethdevs()
        n_kports = self._n_kernel_ports()
        redumps = 0
        if n_kports and plan is not None:
            while (redumps < MAX_RETRIES
                   and plan.should_fire("netlink.enobufs")):
                redumps += 1
        ports_ns = sum(drv.setup_cost_ns() for drv in afxdp)
        if dpdk:
            ports_ns += costs.dpdk_eal_init_ns
            ports_ns += len(dpdk) * costs.dpdk_port_config_ns
        if n_kports:
            ports_ns += (redumps + 1) * n_kports * costs.netlink_port_dump_ns

        def rebind(ctx: ExecContext) -> None:
            for drv in afxdp:
                drv.setup(ctx)
            if dpdk:
                ctx.charge(costs.dpdk_eal_init_ns, label="dpdk_eal_init")
                stale = 0
                for eth in dpdk:
                    ctx.charge(costs.dpdk_port_config_ns,
                               label="dpdk_port_config")
                    # Queue re-init resets the hardware rings; frames
                    # that piled up while nobody polled are discarded.
                    for q in range(eth.n_queues):
                        ring = eth.nic.rx_rings[q]
                        stale += len(ring)
                        ring.clear()
                if stale:
                    reset = DropReason.CRASH_DPDK_RING_RESET
                    self.crash_sinks[reset.value] = (
                        self.crash_sinks.get(reset.value, 0) + stale)
                    telemetry.drop_event(reset, n=stale)
            if n_kports:
                ctx.charge((redumps + 1) * n_kports
                           * costs.netlink_port_dump_ns,
                           label="netlink_port_dump")

        if ports_ns:
            phases.append(_Phase("ports", ports_ns, action=rebind))

        # state: only the netdev DP diverged (caches + userspace
        # conntrack died with the process); the kernel DP's megaflows
        # and netfilter conntrack survived and need nothing.
        if self.vs is not None and self.vs.dpif_netdev is not None:
            emcs = [pmd.emc for pmd in self.pmds]
            dpif = self.vs.dpif_netdev

            def cold(ctx: ExecContext) -> None:
                dpif.cold_start(ctx, emcs=emcs)

            phases.append(_Phase("state", costs.conntrack_init_ns,
                                 action=cold))

        # resync: NSX replays desired state over OpenFlow.
        if self.vs is not None:
            n_rules = sum(bridge.n_flows()
                          for bridge in self.vs.ofproto.bridges.values())
            resync_ns = n_rules * costs.nsx_resync_per_rule_ns
            if self.nsx_agent is not None:
                agent = self.nsx_agent
                phases.append(_Phase(
                    "resync", resync_ns,
                    action=lambda ctx: agent.resync(ctx)))
            elif n_rules:
                phases.append(_Phase("resync", resync_ns,
                                     charge_ns=resync_ns))

        t = float(now)
        for ph in phases:
            t += ph.duration_ns
            ph.end_ns = t
        self._pending = phases
        self._rec = RestartRecord(
            cause=cause, crashed_at_ns=now, detected_at_ns=detected_at,
            recovered_at_ns=t, backoff_ns=backoff,
            ovsdb_retries=ovsdb_retries, netlink_redumps=redumps,
        )

    # ------------------------------------------------------------------
    # Phase execution.
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Execute every pending phase whose end time has passed."""
        if self.up or not self._pending:
            return
        now = self.clock.now
        while self._pending and self._pending[0].end_ns <= now:
            self._run_phase(self._pending.pop(0))
        if not self._pending:
            self._restarted()

    def finish(self) -> None:
        """Complete an in-progress recovery, advancing the clock to its
        scheduled end (for runs whose offered load stops mid-recovery,
        and for the non-clocked degradation sweep)."""
        if self.up or not self._pending:
            return
        self.clock.advance_to(int(math.ceil(self._pending[-1].end_ns)))
        self.poll()

    def _run_phase(self, ph: _Phase) -> None:
        if ph.charge_ns:
            self.ctx.charge(ph.charge_ns, label=f"supervisor.{ph.name}")
        if ph.wait_ns:
            self.ctx.wait(ph.wait_ns, label=f"supervisor.{ph.name}")
        if ph.action is not None:
            ph.action(self.ctx)
        assert self._rec is not None
        self._rec.phase_ns[ph.name] = (
            self._rec.phase_ns.get(ph.name, 0.0) + ph.duration_ns)

    def _restarted(self) -> None:
        rec = self._rec
        assert rec is not None
        self._rec = None
        if self.vs is not None:
            self.vs.recover()
            self.vs.restarts += 1
        self.up = True
        self.restarts += 1
        self.started_at_ns = rec.recovered_at_ns
        self.history.append(rec)
        trace.count("supervisor.restarts")

    # ------------------------------------------------------------------
    # Introspection (``appctl supervisor/show``).
    # ------------------------------------------------------------------
    def render(self) -> str:
        cfg = self.cfg
        lines = [
            f"status: {'up' if self.up else 'restarting'}",
            f"restarts: {self.restarts}",
            f"consecutive crashes: {self.consecutive_crashes}",
            f"heartbeat: every {cfg.heartbeat_interval_ns / MSEC:g} ms, "
            f"miss threshold {cfg.miss_threshold}",
        ]
        if self.up:
            uptime = self.clock.now - self.started_at_ns
            lines.insert(1, f"uptime: {uptime / MSEC:.3f} ms")
        else:
            assert self._rec is not None
            done = [p for p in (self._rec.phase_ns or {})]
            nxt = self._pending[0]
            lines.append(
                f"recovery: phase {nxt.name!r} ends at "
                f"{nxt.end_ns / MSEC:.3f} ms"
                + (f" (done: {', '.join(done)})" if done else ""))
        if self.last_cause is not None:
            lines.append(f"last crash cause: {self.last_cause}")
        n = self.consecutive_crashes
        next_backoff = 0.0 if n == 0 else min(
            cfg.backoff_cap_ns, cfg.backoff_base_ns * (2 ** (n - 1)))
        lines.append(
            f"next backoff: {next_backoff / MSEC:g} ms "
            f"(resets after {cfg.stable_uptime_ns / MSEC:g} ms stable)")
        for i, rec in enumerate(self.history):
            lines.append(
                f"restart[{i}]: cause={rec.cause} "
                f"downtime={rec.downtime_ns / MSEC:.3f}ms "
                f"backoff={rec.backoff_ns / MSEC:g}ms "
                f"ovsdb_retries={rec.ovsdb_retries} "
                f"netlink_redumps={rec.netlink_redumps}")
            for name in ("detect", "backoff", "exec", "ovsdb", "ports",
                         "state", "resync"):
                if name in rec.phase_ns:
                    lines.append(
                        f"  {name:8s} {rec.phase_ns[name] / MSEC:.3f} ms")
        if self.crash_sinks:
            for name in sorted(self.crash_sinks):
                lines.append(f"sink {name}: {self.crash_sinks[name]}")
        return "\n".join(lines)
