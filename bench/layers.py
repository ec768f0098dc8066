"""The traced run: per-layer wall and virtual attribution.

End-to-end numbers are measured with every observer off.  This module
is the separate traced run that explains them.  It makes these passes
over one workload, each on rounds of the same size as the timed run:

1. **reference** - untraced rounds, the rate the overheads are held
   against;
2. **span pass** - ``spans.Tracer`` wraps the layer boundaries, a fresh
   world is built under it (so the set-up layers get spans too) and
   rounds are timed; self time and call counts per layer come from here;
3. **ledger pass** - the same world under ``trace.recording()`` with a
   recorder that books every virtual charge to the layer of the
   innermost open span, so virtual ns/op print next to wall ns/op; the
   ledger must balance (``rec.conserved()``).  ``ExecContext.charge`` is
   too hot for a timer per call: this pass counts its calls exactly and
   prices them from a 1M-call calibration loop;
4. **observers** (the two plain p2p workloads) - quarter-length rounds
   under ``trace.recording()``, ``profile.profiling()`` and a 1-in-64
   ``Telemetry`` session, each against the same rounds bare;
5. **shards** (``paper_suite``) - ``run_fig9`` on one shard against one
   shard per usable CPU.

The gap between pass 1 and pass 2 is reported as
``bench.trace_overhead_pct`` and never folded into an end-to-end number.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

import spans
from spec import spread
from repro.sim import trace
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.trace import TraceRecorder
from workloads import Workload, run_rounds

#: Layers whose boundary functions never charge the virtual clock.
NO_VIRTUAL_STAGE = ("traffic", "net", "hosts", "nsx")
#: Shares of ``--seconds`` given to passes 1-3; each runs at least one
#: round.
REFERENCE_SHARE, SPAN_SHARE, LEDGER_SHARE = 0.25, 0.45, 0.15
CHARGE_CALIBRATION_CALLS = 1_000_000
#: What each workload was chosen to exercise, as [low, high] ranges of
#: its per-layer metrics; a full-size traced run outside one fails.
EXERCISES = {
    "p2p_afxdp_hit": {"ebpf.memo_hit_rate": (0.99, 1.0),
                      "ovs.pmd.avg_batch": (30.0, 32.0)},
    "p2p_afxdp_miss": {"ebpf.memo_hit_rate": (0.0, 0.01),
                       "ovs.pmd.avg_batch": (28.0, 32.0)},
    "p2p_kernel": {"ebpf.calls_per_op": (0.0, 0.0),
                   "afxdp.calls_per_op": (0.0, 0.0),
                   "ovs.pmd.calls_per_op": (0.0, 0.0),
                   "ovs.dpif_netdev.calls_per_op": (0.0, 0.0)},
    "nsx_churn": {"ovs.ofproto.wall_share": (0.40, 0.60)},
}


class LayerLedger(TraceRecorder):
    """A trace ledger that also books each charge to a layer: the layer
    of the innermost wall span open when the charge was made."""

    def __init__(self, tracer: spans.Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        #: (layer, stage) -> [charges, virtual ns]
        self.by_layer: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0])

    def record(self, stage: str, ns: float) -> None:
        super().record(stage, ns)
        entry = self.by_layer[(self._tracer.current_layer(), stage)]
        entry[0] += 1
        entry[1] += ns

    def record_n(self, stage: str, ns: float, n: int) -> None:
        super().record_n(stage, ns, n)
        entry = self.by_layer[(self._tracer.current_layer(), stage)]
        entry[0] += n
        entry[1] += ns * n

    def layer_ns(self, layer: str) -> float:
        return sum(ns for (name, _stage), (_n, ns) in self.by_layer.items()
                   if name == layer)

    def charges(self, layer: str, stage: str) -> int:
        return int(self.by_layer.get((layer, stage), (0, 0.0))[0])


def calibrate_charge(calls: int = CHARGE_CALIBRATION_CALLS) -> float:
    """Wall ns of one ``ExecContext.charge`` call, observers off."""
    ctx = ExecContext(CpuModel(1), 0, CpuCategory.USER, name="calib")
    charge = ctx.charge
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(calls):
        pass
    loop = clock() - t0
    t0 = clock()
    for _ in range(calls):
        charge(1.0, "calib")
    return max(0.0, (clock() - t0 - loop) / calls)


def _jit_runs() -> Tuple[int, int]:
    from repro.ebpf import jit

    stats = jit.stats().values()
    return (sum(s.jit_runs for s in stats),
            sum(s.interp_runs for s in stats))


def _dpjit_stats() -> Dict[str, int]:
    from repro.ovs import dpjit

    s = dpjit.STATS
    return {"compiled": s.compiled, "declined": s.declined,
            "invalidated": s.invalidated, "dispatched": s.dispatched}


def _pct_over(base_rate: float, rate: float) -> float:
    """How much longer an op takes at ``rate`` than at ``base_rate``."""
    return 100.0 * (base_rate / rate - 1.0) if rate else 0.0


def _observer_overheads(workload_cls, seed: int, smoke: bool
                        ) -> Dict[str, float]:
    """Pass 4: the cost of each observer on quarter-length rounds."""
    from repro import telemetry
    from repro.sim import profile
    from repro.telemetry import IpfixConfig, SflowConfig, Telemetry

    workload = workload_cls(seed, smoke)
    workload.setup()
    workload.packets = max(32, workload.packets // 4)

    def rate(rounds: int = 3) -> float:
        return max(run_rounds(workload, 0.0).rates[0]
                   for _ in range(rounds))

    bare = rate()
    with trace.recording():
        traced = rate()
    with profile.profiling():
        profiled = rate()
    points = (("kernel",) if workload.name == "p2p_kernel"
              else ("xdp", "dpif"))
    session = Telemetry(
        sflow=SflowConfig(rate=64, points=points, seed=seed),
        ipfix=IpfixConfig(point=points[-1]),
        now_ns_fn=lambda: workload.bench.host.clock.now)
    with telemetry.monitoring(session):
        monitored = rate()
    return {
        "sim.trace.overhead_pct": _pct_over(bare, traced),
        "sim.profile.overhead_pct": _pct_over(bare, profiled),
        "telemetry.overhead_pct_1in64": _pct_over(bare, monitored),
    }


def _shard_speedup(smoke: bool) -> Dict[str, float]:
    """Pass 5: fig9 on one shard against one per usable CPU."""
    from repro.experiments.fig9_forwarding import run_fig9
    from repro.sim.shard import usable_cpus

    cpus = usable_cpus()
    kwargs = {"packets": 150, "scenarios": ("P2P",)} if smoke else {}
    walls = []
    for shards in (1, cpus):
        start = time.perf_counter()
        run_fig9(shards=shards, **kwargs)
        walls.append(time.perf_counter() - start)
    return {"sim.shard.fig9_speedup": walls[0] / walls[1],
            "sim.shard.usable_cpus": float(cpus)}


def _copy(agg: Dict) -> Dict:
    return {key: list(value) for key, value in agg.items()}


def run_passes(workload_cls: Callable[..., Workload], seed: int,
               seconds: float, smoke: bool) -> SimpleNamespace:
    """Passes 1-3; returns what they collected, before reduction."""
    p = SimpleNamespace(overhead=spans.calibrate(),
                        charge_ns=calibrate_charge(), problems=[])
    # Pass 1: untraced reference.
    workload = workload_cls(seed, smoke)
    workload.setup()
    p.ref = run_rounds(workload, seconds * REFERENCE_SHARE)
    p.experiment_wall_s = dict(getattr(workload, "wall_s", {}))

    tracer = spans.Tracer()
    with tracer:
        # Pass 2: wall spans, on a world built under the wrappers.
        tracer.install()
        workload = workload_cls(seed, smoke)
        workload.setup()
        p.setup_agg = _copy(tracer.agg)
        tracer.reset()
        p.spanned = run_rounds(workload, seconds * SPAN_SHARE)
        p.span_agg = _copy(tracer.agg)
        p.raw = list(tracer.raw)
        p.world_counters = workload.counters()

        # Pass 3: every count - the virtual ledger by layer, the trace
        # counters, the JIT statistics, exact charge calls.
        tracer.reset()
        tracer.count_calls()
        p.ledger = LayerLedger(tracer)
        jit0, interp0 = _jit_runs()
        dpjit0 = _dpjit_stats()
        with trace.recording(p.ledger):
            p.booked = run_rounds(workload, seconds * LEDGER_SHARE)
        jit1, interp1 = _jit_runs()
        p.jit_runs, p.interp_runs = jit1 - jit0, interp1 - interp0
        p.dpjit = {k: v - dpjit0[k] for k, v in _dpjit_stats().items()}
        p.ledger_agg = _copy(tracer.agg)
        p.charge_calls = sum(tracer.counts.values())
    if not p.ledger.conserved():
        p.problems.append(
            f"virtual ledger does not balance: spans "
            f"{p.ledger.total_ns!r} vs cpu {p.ledger.cpu_charged_ns!r}")
    return p


def _per(n: float, d: float, scale: float = 1.0) -> float:
    return scale * n / d if d else 0.0


def layer_rows(p: SimpleNamespace) -> Dict[str, Dict[str, float]]:
    """Per layer: calls and wall self time per op from the span pass,
    virtual ns per op from the ledger pass.  The ``bench`` row is what
    ran outside every boundary (the drive loops, the pumps): the root
    span's self time."""
    by_layer = spans.fold(p.span_agg, p.overhead, by_layer=True)
    wall_ns = sum(p.spanned.walls) * 1e9
    top = [v for (_n, parent), v in p.span_agg.items()
           if parent == spans.ROOT]
    by_layer[spans.ROOT]["self_ns"] = max(
        0.0, wall_ns - sum(v[1] for v in top)
        - sum(v[0] for v in top) * p.overhead.outer_ns)
    return {layer: {
        "calls_per_op": by_layer[layer]["calls"] / p.spanned.ops,
        "wall_ns_per_op": by_layer[layer]["self_ns"] / p.spanned.ops,
        "virt_ns_per_op": p.ledger.layer_ns(layer) / p.booked.ops,
    } for layer in list(spans.BOUNDARIES) + [spans.ROOT]}


def reduce_metrics(p: SimpleNamespace, rows: Dict[str, Dict[str, float]]
                   ) -> Dict[str, float]:
    """The per-layer metrics every workload shares."""
    m: Dict[str, float] = {}
    for layer in spans.BOUNDARIES:
        for key, value in rows[layer].items():
            if key != "virt_ns_per_op" or layer not in NO_VIRTUAL_STAGE:
                m[f"{layer}.{key}"] = value

    ops, ledger_ops, count = p.spanned.ops, p.booked.ops, p.ledger.counter
    wall_ns = sum(p.spanned.walls) * 1e9
    by_span = spans.fold(p.span_agg, p.overhead, by_layer=False)
    setup_by_span = spans.fold(p.setup_agg, p.overhead, by_layer=False)
    ledger_spans = spans.fold(p.ledger_agg, p.overhead, by_layer=False)

    # Set-up layers: from the spans of the world build.
    m["traffic.stream_build_s"] = setup_by_span[
        "traffic:TrexStream.__init__"]["self_ns"] / 1e9
    m["afxdp.setup_s"] = setup_by_span[
        "afxdp:AfxdpDriver.setup"]["self_ns"] / 1e9
    m["hosts.build_s"] = spans.fold(
        p.setup_agg, p.overhead, by_layer=True)["hosts"]["self_ns"] / 1e9
    m["nsx.deploy_s"] = setup_by_span["nsx:NsxAgent.deploy"]["self_ns"] / 1e9
    m["nsx.rules_per_s"] = _per(p.world_counters.get("nsx.rules", 0),
                                m["nsx.deploy_s"])

    m["kernel.ovs_module.lookup_ns_per_op"] = by_span[
        "kernel.ovs_module:KernelFlowTable.lookup"]["self_ns"] / ops

    xdp_runs = ledger_spans["ebpf:XdpContext.run"]["calls"]
    m["ebpf.jit_runs_per_op"] = p.jit_runs / ledger_ops
    m["ebpf.interp_runs"] = float(p.interp_runs)
    m["ebpf.memo_hit_rate"] = (
        1.0 - (p.jit_runs + p.interp_runs) / xdp_runs if xdp_runs else 0.0)

    m["afxdp.tx_kicks_per_op"] = count("afxdp.tx_kick_syscalls") / ledger_ops
    m["afxdp.ring_stalls"] = float(
        count("afxdp.tx_ring_full") + count("afxdp.fill_ring_full")
        + count("afxdp.comp_ring_overrun"))
    m["ovs.pmd.avg_batch"] = _per(
        count("dp.rx_packets"),
        ledger_spans["ovs.dpif_netdev:DpifNetdev.process_batch"]["calls"])
    m["ovs.emc.hit_rate"] = _per(count("emc.hit"),
                                 count("emc.hit") + count("emc.miss"))
    m["ovs.megaflow.hit_rate"] = _per(
        count("dpcls.hit"), count("dpcls.hit") + count("dpcls.miss"))
    # Every datapath pass charges exactly one flow_extract.
    passes = p.ledger.charges("ovs.dpif_netdev", "flow_extract")
    m["ovs.dpif_netdev.passes_per_op"] = passes / ledger_ops
    m["ovs.dpif_netdev.upcalls_per_kop"] = 1e3 * count("dp.upcall") \
        / ledger_ops
    m["ovs.megaflow.inserts_per_kop"] = 1e3 * count("dpcls.insert") \
        / ledger_ops
    m["ovs.dpjit.dispatch_share"] = _per(p.dpjit["dispatched"], passes)
    for key in ("compiled", "declined", "invalidated"):
        m[f"ovs.dpjit.{key}"] = float(p.dpjit[key])

    translate = by_span["ovs.ofproto:Ofproto.translate"]
    m["ovs.ofproto.wall_us_per_translate"] = _per(
        translate["self_ns"], translate["calls"], 1e-3)
    m["ovs.ofproto.wall_share"] = rows["ovs.ofproto"]["wall_ns_per_op"] \
        * ops / wall_ns
    revalidate = by_span["ovs.ofproto:DpifNetdev.revalidate"]
    m["ovs.revalidate.wall_ms_per_pass"] = _per(
        revalidate["total_ns"], revalidate["calls"], 1e-6)
    m["ovs.ct_userspace.conns"] = float(p.world_counters.get("ct.conns", 0))

    m["sim.cpu.charge_calls_per_op"] = p.charge_calls / ledger_ops
    m["sim.cpu.charge_ns_per_call"] = p.charge_ns
    m["sim.cpu.wall_ns_per_op"] = m["sim.cpu.charge_calls_per_op"] \
        * p.charge_ns

    reference = p.ref.rate
    m.update(p.ref.first_virtual)
    m["bench.untraced_ops_per_s"] = reference
    m["bench.span_overhead_ns"] = p.overhead.total_ns
    m["bench.trace_overhead_pct"] = _pct_over(reference, p.spanned.rate)
    m["bench.repeat_iqr_pct"] = 100.0 * spread(p.ref.rates)
    return m


def trace_document(p: SimpleNamespace, rows: Dict[str, Dict[str, float]],
                   workload: str, seed: int) -> Dict[str, object]:
    """The trace file; ``bench/README.md`` says how to read it."""
    t0 = min((start for _i, _n, start, _e, _p in p.raw), default=0)
    names = sorted({name for _i, name, _s, _e, _p in p.raw})
    index = {name: i for i, name in enumerate(names)}
    return {
        "workload": workload,
        "seed": seed,
        "ops": p.spanned.ops,
        "wall_s": sum(p.spanned.walls),
        "span_overhead_ns": {"inner": p.overhead.inner_ns,
                             "outer": p.overhead.outer_ns},
        "layers": rows,
        "spans": spans.span_table(p.span_agg, p.overhead),
        "setup_spans": spans.span_table(p.setup_agg, p.overhead),
        # The ledger pass: virtual ns by the layer that charged them.
        "ledger_ops": p.booked.ops,
        "virtual_stages": [
            {"layer": layer, "stage": stage, "charges": int(n), "ns": ns}
            for (layer, stage), (n, ns) in sorted(p.ledger.by_layer.items())],
        "counters": dict(sorted(p.ledger.counters.items())),
        "world_counters": p.world_counters,
        # The first spans of the pass, raw: [id, index into span_names,
        # start (ns after the first span's start), duration, parent id];
        # parent id 0 is the root.
        "span_names": names,
        "raw_spans": [[i, index[name], start - t0, end - start, parent]
                      for i, name, start, end, parent in p.raw],
    }


def exercise_problems(workload: str, m: Dict[str, float]) -> List[str]:
    return [f"{metric} is {m[metric]!r}, outside [{low}, {high}]: "
            f"{workload} does not exercise what it was chosen for"
            for metric, (low, high) in EXERCISES.get(workload, {}).items()
            if not low <= m[metric] <= high]


def traced_run(workload_cls: Callable[..., Workload], seed: int,
               seconds: float, smoke: bool = False) -> Dict[str, object]:
    """Run every pass; returns ``{"metrics", "trace", "attempted",
    "failed", "problems"}`` where ``metrics`` maps per-layer metric
    names to values (only those that apply to this workload)."""
    cpu_start = time.process_time()
    gc_start = sum(s["collections"] for s in gc.get_stats())
    p = run_passes(workload_cls, seed, seconds, smoke)
    rows = layer_rows(p)
    m = reduce_metrics(p, rows)
    name = workload_cls.name
    if name in ("p2p_afxdp_hit", "p2p_kernel"):
        m.update(_observer_overheads(workload_cls, seed, smoke))
    if name == "paper_suite":
        m.update(_shard_speedup(smoke))
        for experiment, wall in p.experiment_wall_s.items():
            m[f"experiments.{experiment}.wall_s"] = wall
    if not smoke:  # smoke rounds are too short to look like the real ones
        p.problems += exercise_problems(name, m)
    attempted = p.ref.ops + p.spanned.ops + p.booked.ops
    failed = p.ref.failed + p.spanned.failed + p.booked.failed
    m["fail_share"] = failed / attempted
    m["bench.cpu_s"] = time.process_time() - cpu_start
    m["bench.gc_collections"] = float(
        sum(s["collections"] for s in gc.get_stats()) - gc_start)
    return {"metrics": m, "trace": trace_document(p, rows, name, seed),
            "attempted": attempted, "failed": failed,
            "problems": p.problems}
