"""Wall-clock spans around the simulator's layer boundaries.

The benchmark measures every layer *from outside*: for the traced pass
only, :class:`Tracer` replaces each boundary function named in
:data:`BOUNDARIES` with a timing wrapper at class (or module) level and
puts the originals back afterwards.  Nothing under ``src/`` knows it is
being timed.

One span = one call of a boundary function.  Spans nest exactly as the
calls do, so each has a parent (the innermost open span, or the root
``bench`` span).  A layer's **self time** is what is left of its spans'
duration after taking out the part its child spans cover and the
calibrated cost of the wrappers themselves::

    self = duration - sum(child durations)
           - n_children * outer_overhead - inner_overhead

``inner_overhead`` is the clock-read cost that falls inside a span's own
start/end window; ``outer_overhead`` is the rest of a wrapper's cost
(argument packing, stack push/pop, aggregation), which falls inside the
*parent's* window.  Both come from :func:`calibrate`.

Spans are aggregated in memory per (span name, parent name); the first
:data:`RAW_SPAN_CAP` are also kept raw (id, name, start, end, parent id)
so a trace file shows real nesting, not only totals.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

RAW_SPAN_CAP = 10_000
ROOT = "bench"

#: layer -> boundary functions, as ``module:Class.attr`` or
#: ``module:function``.  Layers are named after the modules under
#: ``src/repro``; the span name is ``<layer>:<Class.attr>``.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "traffic": (
        "repro.traffic.trex:TrexStream.__init__",
        "repro.traffic.trex:TrexStream.burst",
    ),
    "net": (
        "repro.net.packet:Packet.clone",
        "repro.net.flow:extract_flow",
    ),
    "kernel": (
        "repro.kernel.nic:PhysicalNic.host_receive",
        "repro.kernel.kernel:Kernel.service_nic",
        "repro.kernel.nic:PhysicalNic.service_queue",
        "repro.kernel.netdev:NetDevice.transmit",
    ),
    "kernel.ovs_module": (
        "repro.kernel.ovs_module:KernelDatapath.receive",
        "repro.kernel.ovs_module:KernelFlowTable.lookup",
    ),
    "ebpf": (
        "repro.ebpf.xdp:XdpContext.run",
    ),
    "afxdp": (
        "repro.afxdp.socket:XskSocket.kernel_rx",
        "repro.afxdp.driver:AfxdpDriver.rx_burst",
        "repro.afxdp.driver:AfxdpDriver.tx_burst",
        "repro.afxdp.driver:AfxdpDriver.setup",
    ),
    "ovs.pmd": (
        "repro.ovs.pmd:PmdThread.run_iteration",
    ),
    "ovs.dpif_netdev": (
        "repro.ovs.dpif_netdev:DpifNetdev.process_batch",
    ),
    "ovs.megaflow": (
        "repro.ovs.megaflow:MegaflowCache.insert",
        "repro.ovs.megaflow:MegaflowCache.remove",
    ),
    "ovs.ofproto": (
        "repro.ovs.ofproto:Ofproto.translate",
        "repro.ovs.dpif_netdev:DpifNetdev.revalidate",
        "repro.ovs.openflow:OpenFlowConnection.flow_mod",
    ),
    "ovs.ct_userspace": (
        "repro.ovs.ct_userspace:UserspaceConntrack.process",
    ),
    "vhost": (
        "repro.vhost.vhostuser:VhostUserPort.rx_burst",
        "repro.vhost.vhostuser:VhostUserPort.tx_burst",
        "repro.hosts.vm:VirtualMachine.pump",
    ),
    "hosts": (
        "repro.hosts.host:Host.__init__",
        "repro.hosts.host:Host.install_ovs",
    ),
    "nsx": (
        "repro.nsx.agent:NsxAgent.deploy",
    ),
}

#: Functions too hot for a timer per call (several per packet): the
#: traced pass only counts their calls and prices them from a separate
#: calibration loop.
COUNTED: Dict[str, Tuple[str, ...]] = {
    "sim.cpu": (
        "repro.sim.cpu:ExecContext.charge",
        "repro.sim.cpu:ExecContext.charge_n",
    ),
}


def resolve(target: str) -> Tuple[object, str, Callable]:
    """``module:Class.attr`` -> (owner, attribute name, function).  The
    owner is the class that defines ``attr`` itself, or the module."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


def span_name(layer: str, target: str) -> str:
    return f"{layer}:{target.partition(':')[2]}"


class Tracer:
    """Installs the wrappers, keeps the span stack, aggregates spans."""

    def __init__(self) -> None:
        # A stack frame is [name, child_ns, n_children, span_id].
        self._root = [ROOT, 0, 0, 0]
        self.stack: List[list] = [self._root]
        #: (name, parent name) -> [calls, total_ns, child_ns, n_children]
        self.agg: Dict[Tuple[str, str], List[int]] = {}
        #: (id, name, start_ns, end_ns, parent id), first RAW_SPAN_CAP.
        self.raw: List[Tuple[int, str, int, int, int]] = []
        #: name -> calls, for the COUNTED functions.
        self.counts: Dict[str, int] = {}
        self._next_id = 1
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def current_layer(self) -> str:
        """Layer of the innermost open span (``bench`` outside any)."""
        return self.stack[-1][0].partition(":")[0]

    def reset(self) -> None:
        """Forget everything recorded so far; wrappers stay installed."""
        self.agg.clear()
        self.raw.clear()
        self.counts.clear()
        self._root[1] = self._root[2] = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so that every call records a span ``name``."""
        stack, agg, raw = self.stack, self.agg, self.raw
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [name, 0, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                parent[2] += 1
                entry = agg.get((name, parent[0]))
                if entry is None:
                    agg[(name, parent[0])] = [1, duration, frame[1],
                                              frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += frame[1]
                    entry[3] += frame[2]
                if len(raw) < RAW_SPAN_CAP:
                    raw.append((span_id, name, start, end, parent[3]))

        span.__wrapped__ = fn
        return span

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, target: str, wrapper: Callable) -> None:
        owner, attr, original = resolve(target)
        if isinstance(owner, type):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function: every ``from m import f`` made its
        # own reference, so rebind each one that is still the original.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            if module.__dict__.get(attr) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the boundary functions.  Install *before* building a
        world: closures such as ``measured_drive``'s ``inject`` capture
        bound methods at build time and would keep the originals."""
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        for layer, targets in BOUNDARIES.items():
            for target in targets:
                fn = resolve(target)[2]
                self._patch(target, self.timed(fn, span_name(layer, target)))

    def count_calls(self) -> None:
        """Additionally count calls of the :data:`COUNTED` functions."""
        for layer, targets in COUNTED.items():
            for target in targets:
                fn = resolve(target)[2]
                self._patch(target,
                            self._counted(fn, span_name(layer, target)))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _noop() -> None:
    return None


class Overhead:
    """Per-span wrapper cost in ns, split by whose window it lands in."""

    def __init__(self, inner_ns: float, outer_ns: float) -> None:
        self.inner_ns = inner_ns
        self.outer_ns = outer_ns

    @property
    def total_ns(self) -> float:
        return self.inner_ns + self.outer_ns


def calibrate(calls: int = 200_000) -> Overhead:
    """Price one wrapper: time ``calls`` wrapped no-ops against as many
    bare ones.  The mean recorded duration of the no-op spans is the
    inner share; the remainder of the per-call difference is outer."""
    tracer = Tracer()
    wrapped = tracer.timed(_noop, "bench:noop")
    clock = time.perf_counter_ns
    for _ in range(1000):  # warm both loops
        wrapped()
        _noop()
    tracer.reset()
    t0 = clock()
    for _ in range(calls):
        _noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        wrapped()
    spanned = clock() - t0
    n, total, _, _ = tracer.agg[("bench:noop", ROOT)]
    inner = total / n
    per_call = max(0.0, (spanned - bare) / calls)
    return Overhead(inner_ns=inner, outer_ns=max(0.0, per_call - inner))


def self_ns(total_ns: float, child_ns: float, calls: int, n_children: int,
            overhead: Overhead) -> float:
    """Self time of ``calls`` spans (see the module docstring)."""
    return (total_ns - child_ns
            - n_children * overhead.outer_ns
            - calls * overhead.inner_ns)


def fold(agg: Dict[Tuple[str, str], List[int]], overhead: Overhead,
         by_layer: bool) -> Dict[str, Dict[str, float]]:
    """Sum the (name, parent) aggregates per layer or per span name:
    ``{key: {"calls", "total_ns", "self_ns"}}``, all zero for a key that
    never ran.  Self time is clamped at zero per aggregate: a boundary
    that does almost nothing can calibrate slightly negative."""
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0.0})
    for (name, _parent), (calls, total, child, n_children) in agg.items():
        row = out[name.partition(":")[0] if by_layer else name]
        row["calls"] += calls
        row["total_ns"] += total
        row["self_ns"] += max(
            0.0, self_ns(total, child, calls, n_children, overhead))
    return out


def span_table(agg: Dict[Tuple[str, str], List[int]],
               overhead: Overhead) -> List[Dict[str, object]]:
    """The aggregates as JSON-ready rows, for the trace file."""
    return [{
        "span": name,
        "parent": parent,
        "calls": calls,
        "total_ns": total,
        "child_ns": child,
        "n_children": n_children,
        "self_ns": self_ns(total, child, calls, n_children, overhead),
    } for (name, parent), (calls, total, child, n_children)
        in sorted(agg.items())]
