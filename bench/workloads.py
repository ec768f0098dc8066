"""The six benchmark workloads and their output checks.

Every workload is closed loop with one client: the next burst, the next
transaction or the next experiment starts only when the previous one has
been pumped to completion.  A workload is built from ``seed`` alone
(``TrexStream(seed=)``, the churn tuple generator; ``PYTHONHASHSEED`` is
pinned from the same seed by ``run.py``), exposes

* ``setup()``  - build the world and the stream and run one warm round
  (the p2p workloads: the drive's full warm-up and a tenth of a round),
* ``round()``  - one fixed-size unit of work, returning ``(ops, failed)``
  and leaving the round's virtual-clock results in ``self.virtual``,

and checks its own output: an op *fails* when its packet neither arrives
at the expected egress sink nor is accounted to a named ``DropReason``
sink, when a transaction asserts, or when an experiment raises.

Packet size is fixed at 64 B on purpose: wall cost in this simulator is
per packet (per-byte costs are arithmetic on the virtual clock), and the
virtual size sweep is already gated by ``matrix_gate``.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments import (
    fig8_tcp_throughput,
    fig10_latency,
    fig11_container_latency,
    table2_optimizations,
    table5_xdp_cost,
)
from repro.experiments.common import (
    CpuSnapshot,
    reduce_run,
    warmup_count,
)
from repro.experiments.degradation import run_degradation
from repro.experiments.fig1_loc_churn import run_fig1
from repro.experiments.fig2_single_flow import run_fig2
from repro.experiments.fig9_forwarding import run_fig9
from repro.experiments.fig12_multiqueue import run_fig12
from repro.experiments.observer_effect import run_observer_effect
from repro.experiments.p2p import P2PBench, afxdp_p2p, dpdk_p2p, kernel_p2p
from repro.experiments.table3_ruleset import run_table3
from repro.experiments.upgrade import run_upgrade
from repro.hosts.host import Host
from repro.net.builder import make_udp_packet
from repro.net.packet import Packet
from repro.nsx.agent import NsxAgent
from repro.nsx.ruleset import T_OUT_LOCAL
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction, SetFieldAction
from repro.ovs.openflow import FlowMod, FlowModCommand, OpenFlowConnection
from repro.sim.cpu import CpuCategory, ExecContext
from repro.telemetry.drops import DropReason
from repro.tools.conservation import PacketLedger, afxdp_packet_ledger
from repro.traffic.trex import FlowSpec, TrexStream

FRAME_LEN = 64
N_FLOWS = 1_000


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    #: What one op is, for the README and the human-readable output.
    op = "packet"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        #: Exact (virtual-clock) results of the most recent round.
        self.virtual: Dict[str, float] = {}

    def setup(self) -> Tuple[int, int]:
        """Build everything and run the first warm round."""
        self.build()
        return self.round()

    def build(self) -> None:
        raise NotImplementedError

    def round(self) -> Tuple[int, int]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Counts read off the world's own objects (traced runs)."""
        return {}


class Rounds(NamedTuple):
    """What :func:`run_rounds` measured."""

    rates: List[float]       # ops per wall second, one per round
    walls: List[float]       # wall seconds, one per round
    ops: int
    failed: int
    first_virtual: Dict[str, float]   # virtual results of round one
    first_rss_mb: float      # the process's peak RSS after round one

    @property
    def rate(self) -> float:
        """Ops per wall second over all the rounds together."""
        return self.ops / sum(self.walls)


def run_rounds(workload: Workload, seconds: float) -> Rounds:
    """Run whole rounds for about ``seconds``: a new round starts only
    while the previous round's length still fits in what is left.

    Peak RSS is read after the first round, not at the end: how many
    rounds fit depends on the host's speed, and memory that grows with
    them (conntrack entries, garbage awaiting collection) would make the
    figure depend on it too."""
    out = Rounds([], [], 0, 0, {}, 0.0)
    clock = time.perf_counter
    begin = clock()
    while True:
        start = clock()
        ops, failed = workload.round()
        wall = clock() - start
        out.rates.append(ops / wall)
        out.walls.append(wall)
        out = out._replace(ops=out.ops + ops, failed=out.failed + failed)
        if len(out.rates) == 1:
            out = out._replace(
                first_virtual=dict(workload.virtual),
                first_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if clock() - begin + wall > seconds:
            return out


# ----------------------------------------------------------------------
# Forwarding between two physical ports.
# ----------------------------------------------------------------------
class EgressCheck:
    """Counts what reaches the egress sink and audits the rest.

    A counting rx handler on the far end of the egress wire sees every
    frame the switch really transmitted; ``ledger_fn(offered)`` is the
    world's ``tools.conservation`` ledger, whose named sinks excuse a
    packet that did not arrive.  Anything in neither is a failed op.
    """

    def __init__(self, egress_sink,
                 ledger_fn: Callable[[int], PacketLedger]) -> None:
        self.delivered = 0
        self.delivered_bytes = 0
        self.offered = 0
        self.failed = 0
        self._ledger_fn = ledger_fn
        egress_sink.set_rx_handler(self._on_rx)

    def _on_rx(self, pkt, ctx) -> None:
        self.delivered += 1
        self.delivered_bytes += len(pkt.data)

    def settle(self, ops: int) -> int:
        """Account ``ops`` newly offered packets; returns how many of
        them failed."""
        self.offered += ops
        ledger = self._ledger_fn(self.offered)
        # The ledger's own tx count must agree with what the sink saw:
        # a frame counted as sent that never arrived is a failure too.
        accounted = (self.delivered + ledger.total_dropped
                     - abs(ledger.forwarded - self.delivered))
        failed_so_far = max(self.failed, self.offered - accounted)
        newly_failed = failed_so_far - self.failed
        self.failed = failed_so_far
        return newly_failed


def _afxdp_ledger(bench: P2PBench) -> Callable[[int], PacketLedger]:
    dpif = bench.host.vswitchd.dpif_netdev
    driver_in = dpif.ports[dpif.port_no("ens1")].adapter.driver
    driver_out = dpif.ports[dpif.port_no("ens2")].adapter.driver
    return lambda offered: afxdp_packet_ledger(
        offered, bench.nic_in, driver_in, driver_out, dpif)


def _nic_ledger(bench: P2PBench) -> Callable[[int], PacketLedger]:
    """Kernel and DPDK worlds: conservation is nic-level."""
    def ledger(offered: int) -> PacketLedger:
        sinks = {}
        if bench.nic_in.rx_missed:
            sinks[DropReason.NIC_RX_MISSED.value] = bench.nic_in.rx_missed
        return PacketLedger(offered=offered,
                            forwarded=bench.nic_out.stats.tx_packets,
                            sinks=sinks)
    return ledger


class DistinctStream:
    """A TRex-style stream that never sends the same flow twice.

    ``burst()`` walks successive ``TrexStream`` chunks, each seeded
    differently, so every cache keyed on packet bytes or on the flow
    (XDP verdict memo, EMC) misses on every packet.  ``flows`` is what
    ``measured_drive`` sizes its warm-up from; it is kept at the hit
    workload's 1,000 so both workloads make the same calls and differ
    only in whether keys repeat.
    """

    CHUNK = 4096

    def __init__(self, seed: int, frame_len: int = FRAME_LEN) -> None:
        self.flows = FlowSpec(n_flows=N_FLOWS)
        self.frame_len = frame_len
        self._seed = seed
        self._chunks = 0
        self._chunk: Optional[TrexStream] = None
        self._left = 0

    def _next_chunk(self) -> None:
        self._chunk = TrexStream(
            FlowSpec(n_flows=self.CHUNK), frame_len=self.frame_len,
            seed=(self._seed << 20) + self._chunks)
        self._chunks += 1
        self._left = self.CHUNK

    def burst(self, n: int) -> List[Packet]:
        out: List[Packet] = []
        while n:
            if not self._left:
                self._next_chunk()
            take = min(n, self._left)
            out.extend(self._chunk.burst(take))
            self._left -= take
            n -= take
        return out


class WarmStream:
    """A stream whose flows the world has already seen.

    ``measured_drive`` sizes the warm-up of every call from
    ``stream.flows`` (2 x flows, at least 64 packets) and pumps it at
    burst size 1.  Once set-up has warmed every flow, repeating that
    would put thousands of single-packet bursts into each timed round of
    a workload chosen for its batched path; one flow leaves the 64.
    """

    flows = FlowSpec(n_flows=1)

    def __init__(self, stream) -> None:
        self._stream = stream
        self.frame_len = stream.frame_len

    def burst(self, n: int) -> List[Packet]:
        return self._stream.burst(n)


class P2PForwarding(Workload):
    """``bench.drive(stream, packets)`` on a two-port forwarding world."""

    #: Measured packets per drive call; each call also injects the
    #: drive's own warm-up, and those packets count as ops too.
    packets = 60_000

    def make_bench(self) -> P2PBench:
        raise NotImplementedError

    def make_ledger(self, bench: P2PBench) -> Callable[[int], PacketLedger]:
        raise NotImplementedError

    def make_stream(self):
        return TrexStream(FlowSpec(n_flows=N_FLOWS), frame_len=FRAME_LEN,
                          seed=self.seed)

    def build(self) -> None:
        self.bench = self.make_bench()
        self.check = EgressCheck(self.bench.nic_out.wire_peer,
                                 self.make_ledger(self.bench))
        self.stream = self.make_stream()
        if self.smoke:
            self.packets = 1_000

    def setup(self) -> Tuple[int, int]:
        self.build()
        # The first drive warms every flow's caches (2 x flows packets
        # at burst size 1) and sends a tenth of a round behind them.
        warm = self._drive(self.packets // 10)
        self.stream = WarmStream(self.stream)
        return warm

    def round(self) -> Tuple[int, int]:
        return self._drive(self.packets)

    def _drive(self, packets: int) -> Tuple[int, int]:
        measurement = self.bench.drive(self.stream, packets)
        ops = warmup_count(self.stream) + packets
        self.virtual = {"virt_ns_per_op": measurement.ns_per_packet}
        return ops, self.check.settle(ops)


class P2pAfxdpHit(P2PForwarding):
    """1,000 flows cycled on the AF_XDP zero-copy path: XDP memo and EMC
    hit on every packet, dp-JIT closures dispatch."""

    name = "p2p_afxdp_hit"

    def make_bench(self) -> P2PBench:
        return afxdp_p2p()

    make_ledger = staticmethod(_afxdp_ledger)


class P2pAfxdpMiss(P2pAfxdpHit):
    """Same world and calls, no flow ever repeats: the eBPF JIT runs on
    every packet and the EMC thrashes into megaflow lookups."""

    name = "p2p_afxdp_miss"
    packets = 24_000

    def make_stream(self):
        return DistinctStream(self.seed)


class P2pKernel(P2PForwarding):
    """Kernel module datapath, interrupt-mode RSS over 10 queues: no ebpf,
    afxdp or ovs userspace code runs, so they must not move it."""

    name = "p2p_kernel"
    packets = 80_000

    def make_bench(self) -> P2PBench:
        return kernel_p2p(n_queues=10)

    make_ledger = staticmethod(_nic_ledger)


# ----------------------------------------------------------------------
# The write side of OVS under the NSX rule set.
# ----------------------------------------------------------------------
class NsxChurn(Workload):
    """Every packet a new connection under the 103,302-rule NSX pipeline, a
    flow-mod + revalidate every 128 packets: translate, megaflow
    insert/evict and dp-JIT rebind dominate."""

    name = "nsx_churn"

    #: Packets per round, per ``process_batch`` burst, and between two
    #: flow-mod + revalidate passes.  The period was tuned once so that
    #: ``ovs.ofproto.wall_share`` lands near 50 % and is frozen here.
    ROUND_PACKETS = 2_048
    BURST = 32
    FLOW_MOD_PERIOD = 128
    #: Megaflows idle for longer than this (virtual ns, about 2.5
    #: periods of traffic) are evicted by the revalidator, which keeps
    #: the megaflow table - and so a round's work - bounded.
    MAX_IDLE_NS = 1_000_000
    BRIDGE = "br-int"

    def build(self) -> None:
        host = Host("hv1", n_cpus=16)
        nic = host.add_nic("ens1")
        host.kernel.init_ns.add_address("ens1", "192.168.1.1", 16)
        vs = host.install_ovs("netdev")
        vs.add_bridge(self.BRIDGE)
        uplink, _ = vs.add_sim_port(self.BRIDGE, "up0")
        vs.dpif_netdev.ports[uplink.dp_port_no].device = nic
        agent = NsxAgent(vs)
        src = agent.topo.vifs[0]
        dst = next(v for v in agent.topo.vifs
                   if v.logical_switch == src.logical_switch
                   and v is not src)
        vif_ports, adapters = {}, {}
        for vif in (src, dst):
            port, adapter = vs.add_sim_port(self.BRIDGE,
                                            f"vif{vif.vif_id}")
            vif_ports[vif.vif_id] = port
            adapters[vif.vif_id] = adapter
        self.ruleset = agent.deploy(
            uplink, vif_ports,
            target_rules=3_000 if self.smoke else None)

        self.host = host
        self.dpif = vs.dpif_netdev
        self.ctx = ExecContext(host.cpu, 1, CpuCategory.USER, name="pmd")
        self.emc = ExactMatchCache()
        self.in_port = self.dpif.port_no(f"vif{src.vif_id}")
        self.egress = adapters[dst.vif_id]
        self.of = OpenFlowConnection(vs.bridge(self.BRIDGE))
        # The flow-mod toggles a rule that re-decides the shared
        # post-conntrack megaflow (same egress, one more set-field), so
        # each revalidation evicts it, the next packet re-upcalls it and
        # the dp-JIT compiles it again.
        match = Match(reg2=dst.vif_id)
        egress_name = f"vif{dst.vif_id}"
        self._flow_mods = (
            FlowMod(FlowModCommand.ADD, table_id=T_OUT_LOCAL, priority=200,
                    match=match,
                    actions=(SetFieldAction("nw_ttl", 63),
                             OutputAction(egress_name))),
            FlowMod(FlowModCommand.DELETE_STRICT, table_id=T_OUT_LOCAL,
                    priority=200, match=match),
        )
        self.n_flow_mods = 0
        self.removed_changed = 0
        self.removed_idle = 0
        # Distinct 5-tuples: a seeded permutation of the port space.
        self._template = make_udp_packet(
            src.mac, dst.mac, src.ip, dst.ip, 1, 1,
            frame_len=FRAME_LEN, fill_checksum=False).data
        self._rng = random.Random(self.seed)
        self._ports = self._rng.sample(range(60_000 * 60_000), 100_000)
        self._cursor = 0
        self.delivered = 0
        if self.smoke:
            self.ROUND_PACKETS = 256

    def _burst(self, n: int) -> List[Packet]:
        t = self._template
        head, tail = t[:34], t[38:]
        out = []
        for x in self._ports[self._cursor:self._cursor + n]:
            pkt = Packet(b"".join((
                head,
                (1024 + x % 60_000).to_bytes(2, "big"),
                (1024 + x // 60_000).to_bytes(2, "big"),
                tail)))
            pkt.meta.l3_offset = 14
            pkt.meta.l4_offset = 34
            out.append(pkt)
        self._cursor += n
        if self._cursor + self.ROUND_PACKETS > len(self._ports):
            # Far beyond any run length; reshuffled tuples may repeat
            # ones whose connections already exist.
            self._rng.shuffle(self._ports)
            self._cursor = 0
        return out

    def round(self) -> Tuple[int, int]:
        dpif, ctx = self.dpif, self.ctx
        before = CpuSnapshot.take(self.host.cpu)
        dropped_before = dpif.stats.dropped
        sent = 0
        while sent < self.ROUND_PACKETS:
            dpif.process_batch(self._burst(self.BURST), self.in_port, ctx,
                               self.emc)
            sent += self.BURST
            if sent % self.FLOW_MOD_PERIOD == 0:
                self.of.flow_mod(self._flow_mods[self.n_flow_mods % 2])
                self.n_flow_mods += 1
                self.host.clock.advance_to(int(ctx.local_time_ns))
                result = dpif.revalidate(max_idle_ns=self.MAX_IDLE_NS,
                                         emcs=(self.emc,))
                self.removed_changed += result["removed_changed"]
                self.removed_idle += result["removed_idle"]
        delivered = len(self.egress.take_transmitted())
        self.delivered += delivered
        named = dpif.stats.dropped - dropped_before
        measurement = reduce_run(self.host.cpu, before, sent,
                                 frame_len=FRAME_LEN)
        self.virtual = {"virt_ns_per_op": measurement.ns_per_packet}
        return sent, max(0, sent - delivered - named)

    def counters(self) -> Dict[str, float]:
        return {
            "nsx.rules": self.ruleset.n_rules,
            "ct.conns": len(self.dpif.conntrack),
            "megaflows": len(self.dpif.megaflows),
            "churn.flow_mods": self.n_flow_mods,
            "churn.removed_changed": self.removed_changed,
            "churn.removed_idle": self.removed_idle,
        }


# ----------------------------------------------------------------------
# Request/response latency at burst size 1.
# ----------------------------------------------------------------------
class RrLatency(Workload):
    """TCP_RR through vhostuser/tap VM paths on kernel, afxdp and dpdk at
    burst size 1: nothing amortises, fixed per-burst cost shows."""

    name = "rr_latency"
    op = "transaction"

    TRANSACTIONS = 2_000

    def build(self) -> None:
        if self.smoke:
            self.TRANSACTIONS = 200

    def round(self) -> Tuple[int, int]:
        ops = 3 * self.TRANSACTIONS
        try:
            result = fig10_latency.run_fig10(
                n_transactions=self.TRANSACTIONS)
        except AssertionError:
            # "request never reached the wire" / "reply never reached
            # the guest": the run stops at the first lost transaction.
            self.virtual = {}
            return ops, ops
        rr = result.results
        self.virtual = {
            "virt_ns_per_op": statistics.fmean(
                r.mean_us for r in rr.values()) * 1_000.0,
            "virt_rr_p50_us": rr["afxdp"].p50_us,
            "virt_rr_p99_us": rr["afxdp"].p99_us,
        }
        return ops, 0


# ----------------------------------------------------------------------
# Everything behind ``python -m repro``.
# ----------------------------------------------------------------------
#: (name, ``run_*`` function, keyword arguments of the smoke size).
PAPER_EXPERIMENTS: Tuple[Tuple[str, Callable, Dict[str, object]], ...] = (
    ("fig1", run_fig1, {}),
    ("fig2", run_fig2, {"packets": 200}),
    ("table2", table2_optimizations.run_table2, {"packets": 200}),
    ("table3", run_table3, {"target_rules": 3_000}),
    ("fig8", fig8_tcp_throughput.run_fig8, {"total_bytes": 100_000}),
    ("fig9", run_fig9, {"packets": 150, "scenarios": ("P2P",)}),
    ("fig10", fig10_latency.run_fig10, {"n_transactions": 40}),
    ("fig11", fig11_container_latency.run_fig11, {"n_transactions": 40}),
    ("table5", table5_xdp_cost.run_table5, {"packets": 200}),
    ("fig12", run_fig12, {"packets_per_queue": 120}),
    ("degradation", run_degradation, {"packets": 100}),
    ("upgrade", run_upgrade,
     {"packets": 960, "scenarios": ("kernel", "afxdp_zc")}),
    ("observer-effect", run_observer_effect, {"packets": 100}),
)


def paper_errors(results: Dict[str, object]) -> List[float]:
    """|measured - paper| / paper for every entry of the experiments'
    public PAPER_* dicts (fig8, fig10, fig11, table2, table5)."""
    pairs: List[Tuple[float, float]] = []
    for key, paper in fig8_tcp_throughput.PAPER_GBPS.items():
        pairs.append((results["fig8"].gbps[key], paper))
    for name, module in (("fig10", fig10_latency),
                         ("fig11", fig11_container_latency)):
        for config, paper in module.PAPER_US.items():
            r = results[name].results[config]
            pairs.extend(zip((r.p50_us, r.p90_us, r.p99_us), paper))
    for name, module in (("table2", table2_optimizations),
                         ("table5", table5_xdp_cost)):
        for key, paper in module.PAPER_MPPS.items():
            pairs.append((results[name].mpps[key], paper))
    return [abs(measured - paper) / paper for measured, paper in pairs]


class PaperSuite(Workload):
    """All 13 experiments behind `python -m repro` at default sizes: many
    short worlds, so host/vswitchd/nsx build time dominates."""

    name = "paper_suite"
    op = "experiment"

    def build(self) -> None:
        #: Wall seconds of each experiment in the most recent pass.
        self.wall_s: Dict[str, float] = {}

    def setup(self) -> Tuple[int, int]:
        self.build()
        # The warm pass runs every experiment once at its smoke size: it
        # fills the process-wide caches (eBPF JIT, cost tables) without
        # costing a second full pass.
        return self._pass(smoke=True)

    def round(self) -> Tuple[int, int]:
        return self._pass(smoke=self.smoke)

    def _pass(self, smoke: bool) -> Tuple[int, int]:
        results: Dict[str, object] = {}
        failed = 0
        for name, run, smoke_kwargs in PAPER_EXPERIMENTS:
            start = time.perf_counter()
            try:
                results[name] = run(**(smoke_kwargs if smoke else {}))
            except Exception as exc:  # an experiment that raises failed
                print(f"paper_suite: {name} raised {exc!r}")
                failed += 1
            self.wall_s[name] = time.perf_counter() - start
        self.virtual = {}
        if not failed:
            self.virtual["paper_err_pct"] = 100.0 * statistics.median(
                paper_errors(results))
        return len(PAPER_EXPERIMENTS), failed


WORKLOADS = {w.name: w for w in (
    P2pAfxdpHit, P2pAfxdpMiss, P2pKernel, NsxChurn, RrLatency, PaperSuite)}


# ----------------------------------------------------------------------
# Proof that the output check has teeth.
# ----------------------------------------------------------------------
def dpdk_stall_selftest(packets: int = 18_000) -> Dict[str, int]:
    """Drive ``dpdk_p2p`` past its mempool: rx mbufs are never returned
    to the ingress port's pool, so forwarding stops after 8,192 packets
    while ``measured_drive`` keeps dividing by *offered* packets.  The
    egress check must report the difference as failed ops."""
    bench = dpdk_p2p()
    check = EgressCheck(bench.nic_out.wire_peer, _nic_ledger(bench))
    stream = TrexStream(FlowSpec(n_flows=N_FLOWS), frame_len=FRAME_LEN,
                        seed=1)
    bench.drive(stream, packets)
    offered = warmup_count(stream) + packets
    return {"offered": offered, "delivered": check.delivered,
            "failed": check.settle(offered)}
