"""One exact record of the virtual numbers the tier-1 suite guards.

``tests/record.json`` holds one entry per run of :data:`RUNS`, as
structure rather than a hash:

* the experiments and perf matrix cells that build through the world
  table: ``result`` (the result JSON; ``null`` for fig10/fig11), and the
  ``ledger`` lines and ``counters`` of a recorder attached around the
  run.  The experiments that ``tests/test_claims.py`` reads run at the
  sizes its claims are stated at; the rest at the smoke battery's
  ``TINY`` sizes;
* the claims' other runs (fig1, the ablations, the sensitivity sweeps,
  two small worlds): ``result`` only;
* ``afxdp-*``, the AF_XDP P2P walk (DESIGN §21) in each branch it has —
  cycled and never-repeating flows, copy mode, ``interrupt_mode``, the
  malloc path, a fault plan over every ``afxdp.*`` point: every busy
  lane, the traced window's ledger, and the objects' own counters;
* ``nsx-churn``, the NSX upcall and revalidation walk: the revalidator's
  counters, every busy lane, and the sha256 of the sorted megaflows
  (non-numeric state stays a digest);
* ``matrix-quick``, the whole quick-grid matrix document, cells keyed by
  ``id``.

Floats are JSON numbers and ``repr`` round-trips them, so the comparison
is exact; :func:`compare` names each moved key with its old and new
value.  A deliberate change is re-recorded with::

    PYTHONPATH=src python -m tests.record

It takes no flags and rewrites the whole file.  Runs are deterministic,
so untouched entries rewrite byte-equal and the diff shows what moved.
"""

from __future__ import annotations

import contextlib
import dataclasses
import difflib
import functools
import hashlib
import json
import pathlib
import random

from repro.afxdp.driver import AfxdpOptions
from repro.afxdp.umempool import LockStrategy
from repro.experiments.degradation import run_degradation
from repro.experiments.fault_cells import merged_fault_ledger
from repro.experiments.fig1_loc_churn import run_fig1
from repro.experiments.fig2_single_flow import DATAPATHS, run_fig2
from repro.experiments.fig2_single_flow import run_cell as fig2_cell
from repro.experiments.fig8_tcp_throughput import run_fig8
from repro.experiments.fig9_forwarding import run_fig9
from repro.experiments.fig10_latency import run_fig10
from repro.experiments.fig11_container_latency import run_fig11
from repro.experiments.fig12_multiqueue import run_fig12
from repro.experiments.observer_effect import run_observer_effect
from repro.experiments.table2_optimizations import run_cell as table2_cell
from repro.experiments.table2_optimizations import run_table2
from repro.experiments.table3_ruleset import run_table3
from repro.experiments.table5_xdp_cost import run_table5
from repro.experiments.upgrade import run_upgrade
from repro.experiments.world import build_world
from repro.hosts.host import Host
from repro.net.builder import make_udp_packet
from repro.net.packet import Packet
from repro.nsx.agent import NsxAgent
from repro.nsx.ruleset import T_OUT_LOCAL
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction, SetFieldAction
from repro.ovs.openflow import FlowMod, FlowModCommand, OpenFlowConnection
from repro.perfmatrix.cells import CellSpec, run_cell
from repro.perfmatrix.matrix import QUICK_GRID, run_matrix
from repro.sim import costs, faults, trace
from repro.sim.cpu import CpuCategory, ExecContext
from repro.sim.faults import FaultPlan, FaultRule
from repro.traffic.trex import FlowSpec, TrexStream

from tests.integration.test_experiments_smoke import TINY

RECORD = pathlib.Path(__file__).with_name("record.json")
#: Moved keys :func:`compare` lists before it counts the rest.
LIMIT = 20


def busy(host):
    """Every (cpu, category) busy accumulator, exactly."""
    return {f"{cpu}/{category.value}": lane[category.idx]
            for cpu, lane in enumerate(host.cpu._busy)
            for category in CpuCategory}


def _traced(run):
    """``run``'s entry: its result plus the ledger and counters of a
    recorder attached around it."""
    def observe():
        with trace.recording() as rec:
            result = run()
        return {"result": result, "ledger": rec.ledger().splitlines(),
                "counters": dict(rec.counters)}
    return observe


def _result_only(run):
    return lambda: {"result": run()}


# ----------------------------------------------------------------------
# The experiments and matrix cells that build through the world table.
# ----------------------------------------------------------------------
#: Every supported (topology, datapath) cell of the perf matrix.
MATRIX_CELLS = (
    ("P2P", "kernel"), ("P2P", "ebpf"), ("P2P", "afxdp_copy"),
    ("P2P", "afxdp_zc"), ("P2P", "dpdk"),
    ("PVP", "kernel"), ("PVP", "afxdp_copy"), ("PVP", "afxdp_zc"),
    ("PVP", "dpdk"),
    ("PCP", "kernel"), ("PCP", "afxdp_zc"), ("PCP", "dpdk"),
)


def _keyed(mapping):
    return {"/".join(map(str, key)): value for key, value in mapping.items()}


def _fig9():
    cells = run_fig9(packets=1_200).cells
    return _keyed({k: dataclasses.asdict(m) for k, m in cells.items()})


def _table3():
    result = run_table3()
    return {"stats": dataclasses.asdict(result.stats),
            "pipeline_passes": result.pipeline_passes}


def _ledger_only(run, **kwargs):
    """Fig. 10/11: their percentiles hang on ``hash(config)``, so the
    entry keeps the ledger and counters and ``None`` for the result."""
    run(**kwargs)


#: name -> the result JSON of one world-table run.  fig2, fig8, fig9,
#: fig12, table2, table3 and table5 run at their claims' sizes.
WORLD_RUNS = {
    "fig2": lambda: run_fig2().mpps,
    "fig9": _fig9,
    "fig12": lambda: _keyed(run_fig12(packets_per_queue=800).series),
    "table2": lambda: run_table2().mpps,
    "upgrade-seed0": lambda: [
        r.to_json() for r in run_upgrade(packets=TINY["packets"], seed=0)],
    "upgrade-seed7": lambda: [
        r.to_json() for r in run_upgrade(packets=TINY["packets"], seed=7)],
    "degradation": lambda: [p.to_json() for p in run_degradation(
        packets=TINY["packets"] // 2, n_flows=16, seed=0)],
    "observer-effect": lambda: [p.to_json() for p in run_observer_effect(
        packets=TINY["packets"] // 2, n_flows=16, seed=0)],
    "fault-ledger": lambda: merged_fault_ledger(
        2, seed=3, packets=TINY["fig9_packets"]),
    "fig8": lambda: _keyed(run_fig8(total_bytes=300_000).gbps),
    "table3": _table3,
    "table5": lambda: run_table5().mpps,
    "fig10": functools.partial(_ledger_only, run_fig10,
                               n_transactions=TINY["transactions"]),
    "fig11": functools.partial(_ledger_only, run_fig11,
                               n_transactions=TINY["transactions"]),
}
for _topology, _datapath in MATRIX_CELLS:
    for _flows in (1, 1000):
        WORLD_RUNS[f"matrix-{_topology}-{_datapath}-{_flows}f"] = (
            functools.partial(run_cell, CellSpec(_topology, _datapath, 64,
                                                 _flows),
                              packets=TINY["packets"]))


# ----------------------------------------------------------------------
# The AF_XDP walk's virtual state.
# ----------------------------------------------------------------------
AFXDP_PACKETS = 1_500
#: Both drives' packets, each behind a 64-packet warm-up.
AFXDP_OFFERED = 64 + 500 + 64 + AFXDP_PACKETS


class Warm:
    """A stream whose flows the world has seen: 64 warm-up packets."""

    flows = FlowSpec(n_flows=1)
    frame_len = 64

    def __init__(self, stream):
        self.burst = stream.burst


def cycled():
    return TrexStream(FlowSpec(n_flows=1_000), frame_len=64, seed=1)


def distinct():
    """Every frame its own flow, like the bench's ``DistinctStream``."""
    return TrexStream(FlowSpec(n_flows=4_096), frame_len=64, seed=7)


def fault_plan():
    """Every ``afxdp.*`` point fires now and then; tx-kick EAGAIN fires
    often enough to exhaust the retry budget too."""
    points = sorted(p for p in faults.FAULT_POINTS if p.startswith("afxdp."))
    rules = [FaultRule(p, rate=0.6 if p == "afxdp.tx_kick_eagain" else 0.02)
             for p in points]
    rules.append(FaultRule("ebpf.map_lookup_fault", rate=0.02))
    return FaultPlan(seed=3, rules=rules)


AFXDP_CONFIGS = {
    "cycled": ("afxdp_zc", AfxdpOptions(), cycled, None),
    "distinct": ("afxdp_zc", AfxdpOptions(), distinct, None),
    "copy_mode": ("afxdp_copy", AfxdpOptions(), cycled, None),
    "interrupt_mode": ("afxdp_zc", AfxdpOptions(interrupt_mode=True),
                       cycled, None),
    "malloc": ("afxdp_zc", AfxdpOptions(lock_strategy=LockStrategy.MUTEX,
                                        batched_locking=False,
                                        preallocated_metadata=False),
               cycled, None),
    "faults": ("afxdp_zc", AfxdpOptions(), cycled, fault_plan),
}

SOCKET_COUNTERS = (
    "rx_delivered", "rx_dropped_no_fill", "tx_sent", "rx_dropped_overrun",
    "tx_dropped_no_umem", "tx_dropped_ring_full", "tx_dropped_kick",
    "frames_leaked", "zc_fallbacks",
)
NIC_COUNTERS = ("rx_missed", "xdp_drops", "xdp_passes",
                "xdp_redirect_failed")


def afxdp_counters(bench, plan):
    """The objects' own counters after an AF_XDP P2P drive."""
    dpif = bench.host.vswitchd.dpif_netdev
    drivers = {name: dpif.ports[dpif.port_no(name)].adapter.driver
               for name in ("ens1", "ens2")}
    out = {"drivers": {}, "nics": {}}
    for name, driver in drivers.items():
        sockets = {}
        for queue, sock in driver.sockets.items():
            rings = {"rx": sock.rx_ring, "tx": sock.tx_ring,
                     "fill": sock.umem.fill_ring,
                     "completion": sock.umem.completion_ring}
            sockets[queue] = {
                "bind_mode": sock.bind_mode.value,
                **{attr: getattr(sock, attr) for attr in SOCKET_COUNTERS},
                "rings": {ring: {"len": len(r), "full": r.full_events,
                                 "empty": r.empty_events}
                          for ring, r in rings.items()},
                "pool": {"free": sock.pool.free_count,
                         "lock_acquisitions": sock.pool.lock_acquisitions,
                         "futex_slow_paths": sock.pool.futex_slow_paths},
            }
        out["drivers"][name] = {
            "rx_packets": driver.rx_packets,
            "tx_packets": driver.tx_packets,
            "alloc_counter": driver._alloc_counter,
            "retired": dict(driver.retired),
            "sockets": sockets,
        }
    for nic in (bench.nic_in, bench.nic_out, bench.nic_out.wire_peer):
        out["nics"][nic.name] = {
            "stats": nic.stats.snapshot(),
            **{attr: getattr(nic, attr, None) for attr in NIC_COUNTERS}}
    out["dpif"] = dataclasses.asdict(dpif.stats)
    mf = dpif.megaflows
    out["megaflows"] = {
        "hits": mf.hits, "misses": mf.misses, "version": mf.version,
        "entries": [[e.n_packets, e.n_bytes, e.last_used_ns]
                    for e in mf.entries()]}
    if plan is not None:
        out["faults"] = {"events": dict(plan.events),
                         "fired": dict(plan.fired)}
    out["packet_ledger"] = dataclasses.asdict(bench.ledger(AFXDP_OFFERED))
    return out


def _afxdp(config):
    datapath, options, make_stream, make_plan = AFXDP_CONFIGS[config]
    bench = build_world(datapath, "P2P", options=options)
    stream = make_stream()
    bench.drive(Warm(stream), 500)
    plan = make_plan() if make_plan is not None else None
    injecting = (faults.injecting(plan) if plan is not None
                 else contextlib.nullcontext())
    with injecting, trace.recording() as rec:
        bench.drive(Warm(stream), AFXDP_PACKETS)
    return {"busy": busy(bench.host), "ledger": rec.ledger().splitlines(),
            "counters": afxdp_counters(bench, plan)}


# ----------------------------------------------------------------------
# The NSX slow path: upcalls and revalidation.
# ----------------------------------------------------------------------
BRIDGE = NsxAgent.INTEGRATION_BRIDGE
CHURN_PACKETS = 256
CHURN_BURST = 32


class ChurnWorld:
    """``nsx_churn``'s world at smoke size: one hypervisor, the 3,000-rule
    deployment, one VIF sending to another on its logical switch, driven
    with 256 new connections in 32-packet bursts around one flow-mod and
    one revalidation."""

    def __init__(self, seed: int = 1) -> None:
        host = Host("hv1", n_cpus=16)
        nic = host.add_nic("ens1")
        host.kernel.init_ns.add_address("ens1", "192.168.1.1", 16)
        vs = host.install_ovs("netdev")
        vs.add_bridge(BRIDGE)
        uplink, _ = vs.add_sim_port(BRIDGE, "up0")
        vs.dpif_netdev.ports[uplink.dp_port_no].device = nic
        agent = NsxAgent(vs)
        src = agent.topo.vifs[0]
        dst = next(v for v in agent.topo.vifs
                   if v.logical_switch == src.logical_switch
                   and v is not src)
        vif_ports = {}
        for vif in (src, dst):
            port, adapter = vs.add_sim_port(BRIDGE, f"vif{vif.vif_id}")
            vif_ports[vif.vif_id] = port
            if vif is dst:
                self.egress = adapter
        agent.deploy(uplink, vif_ports, target_rules=3_000)
        self.host, self.vs, self.dpif = host, vs, vs.dpif_netdev
        self.ctx = ExecContext(host.cpu, 1, CpuCategory.USER, name="pmd")
        self.emc = ExactMatchCache()
        self.in_port = self.dpif.port_no(f"vif{src.vif_id}")
        self.of = OpenFlowConnection(vs.bridge(BRIDGE))
        # The benchmark's toggled rule: one more set-field on the shared
        # post-conntrack decision, so revalidation re-decides it.
        self.flow_mod = FlowMod(
            FlowModCommand.ADD, table_id=T_OUT_LOCAL, priority=200,
            match=Match(reg2=dst.vif_id),
            actions=(SetFieldAction("nw_ttl", 63),
                     OutputAction(f"vif{dst.vif_id}")))
        template = make_udp_packet(src.mac, dst.mac, src.ip, dst.ip, 1, 1,
                                   frame_len=64, fill_checksum=False).data
        self._head, self._tail = template[:34], template[38:]
        self._ports = random.Random(seed).sample(range(60_000 * 60_000),
                                                 CHURN_PACKETS)

    def _burst(self, start: int):
        out = []
        for x in self._ports[start:start + CHURN_BURST]:
            out.append(Packet(b"".join((
                self._head,
                (1024 + x % 60_000).to_bytes(2, "big"),
                (1024 + x // 60_000).to_bytes(2, "big"),
                self._tail))))
        return out

    def churn(self):
        """Half the connections, the flow-mod and one revalidation, then
        the other half.  Returns the revalidator's counters."""
        dpif, ctx = self.dpif, self.ctx
        for start in range(0, CHURN_PACKETS, CHURN_BURST):
            if start == CHURN_PACKETS // 2:
                self.of.flow_mod(self.flow_mod)
                self.host.clock.advance_to(int(ctx.local_time_ns))
                counters = dpif.revalidate(emcs=(self.emc,))
            dpif.process_batch(self._burst(start), self.in_port, ctx,
                               self.emc)
        return counters


def megaflow_digest(dpif) -> str:
    lines = sorted(f"{tuple(e.key)} {e.mask} {e.actions!r}"
                   for e in dpif.megaflows.entries())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _nsx_churn():
    world = ChurnWorld()
    revalidate = world.churn()
    return {"revalidate": revalidate, "busy": busy(world.host),
            "megaflows_sha256": megaflow_digest(world.dpif)}


# ----------------------------------------------------------------------
# The claims' other runs.
# ----------------------------------------------------------------------
def _fig1():
    result = run_fig1()
    return {"dataset": result.dataset, "simulated": result.simulated}


def _mpps(world, packets, flows=1, vary_dst=True):
    stream = TrexStream(FlowSpec(flows, vary_dst=vary_dst), frame_len=64)
    return world.drive(stream, packets).mpps


def _classifier_ns_per_packet(emc_size, flush_megaflows, packets=1_500):
    """ns per packet through the userspace datapath behind an EMC of
    ``emc_size`` entries, the megaflows flushed before every burst or
    kept: 64 flows, one ``in_port`` rule, warmed by one 256-packet
    burst."""
    host = Host("dut", n_cpus=2)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    p1, _ = vs.add_sim_port("br0", "p1")
    vs.add_sim_port("br0", "p2")
    OpenFlowConnection(vs.bridge("br0")).add_flow(
        0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
    dpif = vs.dpif_netdev
    ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
    emc = ExactMatchCache(n_entries=emc_size)
    stream = TrexStream(FlowSpec(64), frame_len=64)
    dpif.process_batch(stream.burst(256), p1.dp_port_no, ctx, emc)
    before = host.cpu.busy_ns()
    bursts = -(-packets // 32)
    for _ in range(bursts):
        if flush_megaflows:
            dpif.megaflows.flush()
        dpif.process_batch(stream.burst(32), p1.dp_port_no, ctx, emc)
    return (host.cpu.busy_ns() - before) / (32 * bursts)


def _afxdp_p2p(link_gbps, flows, packets, datapath="afxdp_zc", **options):
    """One P2P AF_XDP rate with ``options`` on the ports."""
    world = build_world(datapath, "P2P", link_gbps=link_gbps,
                        options=AfxdpOptions(**options))
    return _mpps(world, packets, flows=flows)


#: At 25 Gbps, 16 flows: the default options (spinlock, batched locking,
#: polling, zero-copy) and one mechanism taken away at a time.
AFXDP_ABLATED = {
    "default": {},
    "mutex, per-frame": {"lock_strategy": LockStrategy.MUTEX,
                         "batched_locking": False},
    "spinlock, per-frame": {"batched_locking": False},
    "interrupt": {"interrupt_mode": True, "batch_size": 8},
    "copy": {"datapath": "afxdp_copy"},
}


#: The sensitivity sweeps' cost perturbations.  Their unperturbed
#: points are the fig2 and table2 entries themselves.
FIG2_PERTURBED = {
    "cache_miss +50%": {"cache_miss_ns": 63.0, "dma_first_touch_ns": 42.0},
    "ebpf_insn -30%": {"ebpf_insn_ns": 1.47},
    "skb +50%": {"skb_alloc_ns": 180.0, "skb_free_ns": 90.0},
}
O1_PERTURBED = {
    "poll -40%": {"poll_ns": 720.0},
    "ctx-switch +50%": {"context_switch_ns": 5_250.0},
}


def _perturbed(perturbations, run):
    out = {}
    for label, overrides in perturbations.items():
        with costs.overridden(**overrides):
            out[label] = run()
    return out


def _afxdp_lifecycle():
    """§6: deploy OVS on an AF_XDP port, then restart it twice (an
    upgrade, a bugfix)."""
    host = Host("prod", n_cpus=4)
    nic = host.add_nic("ens1")
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    vs.add_afxdp_port("br0", nic, AfxdpOptions())
    vs.restart()
    vs.restart()
    return {"module_loaded": host.kernel.module_loaded,
            "nic_in_init_ns": host.kernel.init_ns.has_device("ens1")}


#: name -> the result JSON of one run the record keeps without a ledger.
CLAIM_RUNS = {
    "fig1": _fig1,
    "ablation-caches": lambda: {
        "full": _classifier_ns_per_packet(8192, False),
        "no EMC": _classifier_ns_per_packet(2, False),
        "no caches": _classifier_ns_per_packet(2, True)},
    "ablation-afxdp": lambda: {
        label: _afxdp_p2p(25, 16, 1_500, **knobs)
        for label, knobs in AFXDP_ABLATED.items()},
    "ablation-pcp": lambda: {
        datapath: _mpps(build_world(datapath, "PCP", link_gbps=25), 1_500,
                        flows=16, vary_dst=False)
        for datapath in ("kernel", "afxdp_zc", "dpdk")},
    "sensitivity-fig2": lambda: _perturbed(FIG2_PERTURBED, lambda: {
        datapath: fig2_cell(datapath, 800) for datapath in DATAPATHS}),
    "sensitivity-o1": lambda: _perturbed(O1_PERTURBED, lambda: {
        label: table2_cell(label, 800) for label in ("none", "O1")}),
    # O2 alone on table2's world: mutex against spinlock, both per frame.
    "o2-per-frame": lambda: {
        "mutex": _afxdp_p2p(10, 1, 600, batched_locking=False,
                            lock_strategy=LockStrategy.MUTEX),
        "spinlock": _afxdp_p2p(10, 1, 600, batched_locking=False)},
    "lifecycle-afxdp": _afxdp_lifecycle,
}


# ----------------------------------------------------------------------
# The quick performance matrix.
# ----------------------------------------------------------------------
def _matrix_quick():
    doc = run_matrix(QUICK_GRID)
    doc["cells"] = {cell["id"]: cell for cell in doc["cells"]}
    return {"result": doc}


RUNS = {name: _traced(run) for name, run in WORLD_RUNS.items()}
RUNS.update({name: _result_only(run) for name, run in CLAIM_RUNS.items()})
for _config in AFXDP_CONFIGS:
    RUNS[f"afxdp-{_config}"] = functools.partial(_afxdp, _config)
RUNS["nsx-churn"] = _nsx_churn
RUNS["matrix-quick"] = _matrix_quick


def observe(name: str) -> dict:
    """One fresh run's entry, in the form the record stores it."""
    return json.loads(json.dumps(RUNS[name]()))


def load() -> dict:
    return json.loads(RECORD.read_text())


# ----------------------------------------------------------------------
# Comparison.
# ----------------------------------------------------------------------
def _show(value) -> str:
    if isinstance(value, dict):
        return f"{{{len(value)} keys}}"
    if isinstance(value, list):
        return f"[{len(value)} items]"
    return repr(value)


def _moved(old, new, path):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}/{key}" if path else key
            if key not in new:
                yield f"{sub}: {_show(old[key])} -> (absent)"
            elif key not in old:
                yield f"{sub}: (absent) -> {_show(new[key])}"
            else:
                yield from _moved(old[key], new[key], sub)
    elif (isinstance(old, list) and isinstance(new, list)
          and all(isinstance(x, str) for x in old + new)):
        # Ledger lines: a diff, so one inserted line is one moved key.
        matcher = difflib.SequenceMatcher(a=old, b=new, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag != "equal":
                yield from (f"{path}: - {line}" for line in old[i1:i2])
                yield from (f"{path}: + {line}" for line in new[j1:j2])
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}: {_show(old)} -> {_show(new)}"
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moved(a, b, f"{path}/{i}")
    elif repr(old) != repr(new):
        line = f"{path}: {_show(old)} -> {_show(new)}"
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (old, new))
        if numbers and old:
            line += f" ({100 * (new - old) / abs(old):+.2f} %)"
        yield line


def compare(recorded: dict, fresh: dict) -> list:
    """Each key whose value moved from ``recorded`` to ``fresh``, as
    ``path: old -> new`` lines (ledgers as ``- line`` / ``+ line``);
    the first :data:`LIMIT`, then a count of the rest."""
    moved = list(_moved(recorded, fresh, ""))
    if len(moved) > LIMIT:
        moved[LIMIT:] = [f"... and {len(moved) - LIMIT} more moved keys"]
    return moved


def main() -> None:
    record = {name: observe(name) for name in sorted(RUNS)}
    RECORD.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(record)} entries to {RECORD}")


if __name__ == "__main__":
    main()
