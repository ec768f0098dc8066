"""Hierarchical virtual-time profiling: call trees, flamegraphs, sampling.

The trace ledger (:mod:`repro.sim.trace`) keeps *flat* per-stage totals —
enough for conservation audits, not enough to answer the paper's
diagnosis questions ("where do the XDP cycles go", Table 5; "what did
each optimization buy", Table 2).  This module adds the missing
dimension: a :class:`Profiler` snapshots the live span *stack* on every
charge, folding it into a call tree with inclusive/exclusive virtual
nanoseconds and call counts per path, the way ``perf report`` presents
sampled stacks.

Three consumers sit on top:

* ``render_tree`` — a ``perf report``-style indented tree,
* ``collapse`` — Brendan Gregg collapsed-stack lines
  (``all;pmd-c0;dp.input;emc 1234``) ready for ``flamegraph.pl``,
* ``diff_profiles`` — per-path regression deltas between two profiles
  (batched vs reference, O1–O5 ablation pairs).

A :class:`MetricsSampler` rides the same recorder hooks: it snapshots
the counter ledger at fixed *virtual-time* intervals (thresholds on
``cpu_charged_ns``, so two identical runs sample at identical instants)
into a JSONL time-series, and feeds a bounded-memory
:class:`~repro.sim.stats.StreamingHistogram` of ns-per-packet.

Overhead discipline
===================

Both objects attach *passively* to a :class:`~repro.sim.trace
.TraceRecorder` (``rec.profiler`` / ``rec.sampler``, default ``None``).
The recorder's hot methods guard with one attribute load; with neither
attached, every ledger stays byte-identical to an unprofiled run — the
integration suite pins this down by string comparison.

Conservation
============

Every nanosecond the ledger records flows through :meth:`Profiler.leaf`,
so the root's inclusive time equals ``rec.total_ns`` equals
``rec.cpu_charged_ns`` (within float-summation tolerance)::

    with profile.profiling() as rec:
        bench.drive(stream, packets)
    print(profile.render_tree(rec.profiler.root))
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim import trace
from repro.sim.stats import StreamingHistogram
from repro.sim.trace import TraceRecorder

#: Synthetic root frame label used in collapsed-stack exports so every
#: line shares one base frame (flamegraph.pl then shows one tower).
ROOT_LABEL = "all"


class CallNode:
    """One node of the call tree.

    ``ns`` is *exclusive* (self) time: charges recorded while this node
    was the innermost open frame.  Inclusive time is derived
    (:meth:`inclusive_ns`), never stored, so there is nothing to keep
    consistent while the tree is being built.
    """

    __slots__ = ("label", "calls", "ns", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        #: Entries (for span nodes) or charges folded in (for leaves).
        self.calls = 0
        #: Exclusive virtual ns charged directly at this node.
        self.ns = 0.0
        self.children: Dict[str, "CallNode"] = {}

    def child(self, label: str) -> "CallNode":
        node = self.children.get(label)
        if node is None:
            node = self.children[label] = CallNode(label)
        return node

    def inclusive_ns(self) -> float:
        total = self.ns
        for node in self.children.values():
            total += node.inclusive_ns()
        return total

    def to_dict(self) -> Dict:
        """JSON-ready form; children sorted by label for determinism."""
        return {
            "label": self.label,
            "calls": self.calls,
            "self_ns": self.ns,
            "inclusive_ns": self.inclusive_ns(),
            "children": [
                self.children[k].to_dict() for k in sorted(self.children)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CallNode({self.label!r}, x{self.calls}, "
                f"self={self.ns:.0f} ns, "
                f"incl={self.inclusive_ns():.0f} ns, "
                f"{len(self.children)} children)")


class Profiler:
    """Folds the live span stack into a call tree.

    Attach as ``recorder.profiler``; the recorder then forwards

    * ``span(stage)`` enter/exit -> :meth:`enter`/:meth:`exit_`
      (interior nodes), and
    * every ``record`` charge -> :meth:`leaf` (leaf accumulation under
      the current frame),

    so the tree partitions exactly the ledger's conservation set.
    Hot paths also open *profiler-only* frames (PMD iterations, XDP
    program runs) by calling :meth:`enter`/:meth:`exit_` inline — those
    group the tree without adding entries to the recorder's
    ``span_totals`` ledger.
    """

    __slots__ = ("root", "_stack")

    def __init__(self) -> None:
        self.root = CallNode(ROOT_LABEL)
        self._stack: List[CallNode] = [self.root]

    # -- frame management (span enter/exit) -----------------------------
    def enter(self, label: str) -> None:
        node = self._stack[-1].child(label)
        node.calls += 1
        self._stack.append(node)

    def exit_(self) -> None:
        if len(self._stack) > 1:
            self._stack.pop()

    # -- charge accumulation --------------------------------------------
    def leaf(self, label: str, ns: float) -> None:
        node = self._stack[-1].children.get(label)
        if node is None:
            node = self._stack[-1].children[label] = CallNode(label)
        node.calls += 1
        node.ns += ns

    def reset(self) -> None:
        self.root = CallNode(ROOT_LABEL)
        self._stack = [self.root]

    @property
    def depth(self) -> int:
        return len(self._stack) - 1


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------
def render_tree(root: CallNode,
                title: str = "virtual-time call tree",
                min_share: float = 0.0) -> str:
    """A ``perf report``-style tree: share, inclusive, self, calls."""
    total = root.inclusive_ns() or 1.0
    lines = [
        f"{title} (root inclusive {root.inclusive_ns():.0f} ns)",
        f"{'share':>7}  {'inclusive ns':>14}  {'self ns':>14}  "
        f"{'calls':>8}  path",
    ]

    def walk(node: CallNode, depth: int) -> None:
        incl = node.inclusive_ns()
        share = 100.0 * incl / total
        if share < min_share:
            return
        lines.append(
            f"{share:>6.2f}%  {incl:>14.0f}  {node.ns:>14.0f}  "
            f"{node.calls:>8}  {'  ' * depth}{node.label}"
        )
        for child in sorted(node.children.values(),
                            key=lambda c: (-c.inclusive_ns(), c.label)):
            walk(child, depth + 1)

    if root.ns:
        lines.append(
            f"{100.0 * root.ns / total:>6.2f}%  {root.ns:>14.0f}  "
            f"{root.ns:>14.0f}  {root.calls:>8}  (outside any span)"
        )
    for child in sorted(root.children.values(),
                        key=lambda c: (-c.inclusive_ns(), c.label)):
        walk(child, 0)
    return "\n".join(lines)


def collapse(root: CallNode) -> str:
    """Brendan Gregg collapsed-stack export.

    One line per tree node with nonzero self time:
    ``all;frame;...;leaf <int ns>``, sorted lexicographically so two
    identical runs export byte-identical files (feed straight into
    ``flamegraph.pl``).
    """
    lines: List[str] = []

    def walk(node: CallNode, prefix: str) -> None:
        path = f"{prefix};{node.label}"
        if node.ns:
            lines.append(f"{path} {int(round(node.ns))}")
        for child in node.children.values():
            walk(child, path)

    if root.ns:
        lines.append(f"{root.label} {int(round(root.ns))}")
    for child in root.children.values():
        walk(child, root.label)
    return "\n".join(sorted(lines))


def flatten(node_dict: Dict) -> Dict[str, Tuple[int, float, float]]:
    """``to_dict`` tree -> path -> (calls, self_ns, inclusive_ns)."""
    out: Dict[str, Tuple[int, float, float]] = {}

    def walk(node: Dict, prefix: str) -> None:
        path = f"{prefix};{node['label']}" if prefix else node["label"]
        out[path] = (node["calls"], node["self_ns"], node["inclusive_ns"])
        for child in node["children"]:
            walk(child, path)

    walk(node_dict, "")
    return out


def diff_profiles(a: Dict, b: Dict,
                  label_a: str = "a", label_b: str = "b",
                  min_delta_ns: float = 0.5) -> str:
    """Per-path inclusive-time deltas between two ``to_dict`` profiles.

    The ablation reduction: profile a run per configuration (say Table
    2's O-levels, or batched vs reference classification) and diff the
    pairs — every path that got cheaper or dearer shows up with its
    inclusive delta, sorted by magnitude.
    """
    fa, fb = flatten(a), flatten(b)
    rows = []
    for path in sorted(set(fa) | set(fb)):
        incl_a = fa.get(path, (0, 0.0, 0.0))[2]
        incl_b = fb.get(path, (0, 0.0, 0.0))[2]
        delta = incl_b - incl_a
        if abs(delta) < min_delta_ns:
            continue
        pct = (100.0 * delta / incl_a) if incl_a else float("inf")
        rows.append((delta, pct, path, incl_a, incl_b))
    lines = [
        f"profile diff: {label_b} - {label_a} (inclusive ns per path)",
        f"{'delta ns':>14}  {'delta':>8}  {label_a + ' ns':>14}  "
        f"{label_b + ' ns':>14}  path",
    ]
    if not rows:
        lines.append("(no differences)")
        return "\n".join(lines)
    for delta, pct, path, incl_a, incl_b in sorted(
        rows, key=lambda r: (-abs(r[0]), r[2])
    ):
        pct_s = f"{pct:+7.1f}%" if pct != float("inf") else "    new"
        lines.append(
            f"{delta:>+14.0f}  {pct_s:>8}  {incl_a:>14.0f}  "
            f"{incl_b:>14.0f}  {path}"
        )
    return "\n".join(lines)


def profile_json(rec: TraceRecorder) -> str:
    """Machine-readable profile: tree + conservation legs, deterministic."""
    prof = rec.profiler
    if prof is None:
        raise ValueError("recorder has no profiler attached")
    return json.dumps(
        {
            "tree": prof.root.to_dict(),
            "root_inclusive_ns": prof.root.inclusive_ns(),
            "total_ns": rec.total_ns,
            "cpu_charged_ns": rec.cpu_charged_ns,
        },
        sort_keys=True,
        indent=2,
    )


# ----------------------------------------------------------------------
# Virtual-time metrics sampling.
# ----------------------------------------------------------------------
class MetricsSampler:
    """Snapshots the counter ledger at fixed virtual-time intervals.

    Attach as ``recorder.sampler``; the recorder's ``note_cpu`` hooks
    call :meth:`tick` whenever ``cpu_charged_ns`` crosses the next due
    threshold.  Because virtual time advances identically on two
    identical runs (the charge sequence is byte-identical by the
    batching equivalence discipline), the sample instants — and hence
    the exported JSONL — are deterministic.

    Each sample carries the virtual timestamp, the full counter
    snapshot, and per-virtual-second rates over the window since the
    previous sample.  The packet-rate window also feeds a bounded-memory
    ns-per-packet :class:`StreamingHistogram` (the long-run latency
    series; per-sample storage would defeat long runs).
    """

    __slots__ = ("interval_ns", "next_due_ns", "samples", "latency_hist",
                 "_prev_t", "_prev_counters")

    #: Counter whose deltas define the packets-per-window rate.
    PACKET_COUNTER = "dp.rx_packets"

    def __init__(self, interval_ns: float = 1_000_000.0,
                 rel_error: float = 0.01) -> None:
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.interval_ns = float(interval_ns)
        #: Read by the recorder's hot guard: sample when
        #: ``cpu_charged_ns >= next_due_ns``.
        self.next_due_ns = float(interval_ns)
        self.samples: List[Dict] = []
        self.latency_hist = StreamingHistogram(rel_error=rel_error)
        self._prev_t = 0.0
        self._prev_counters: Dict[str, int] = {}

    def tick(self, rec: TraceRecorder) -> None:
        """Take one sample; called with the threshold already crossed."""
        t = rec.cpu_charged_ns
        counters = dict(rec.counters)
        dt = t - self._prev_t
        rates: Dict[str, float] = {}
        if dt > 0:
            per_s = 1e9 / dt
            for name, count in counters.items():
                delta = count - self._prev_counters.get(name, 0)
                if delta:
                    rates[name] = round(delta * per_s, 3)
        d_pkts = (counters.get(self.PACKET_COUNTER, 0)
                  - self._prev_counters.get(self.PACKET_COUNTER, 0))
        if d_pkts > 0 and dt > 0:
            self.latency_hist.add(dt / d_pkts)
        self.samples.append({
            "seq": len(self.samples),
            "t_ns": t,
            "counters": counters,
            "rates": rates,
        })
        self._prev_t = t
        self._prev_counters = counters
        # Skip any intervals the crossing charge jumped over: sample
        # timestamps stay actual charge instants, never interpolations.
        self.next_due_ns = t + self.interval_ns

    def reset(self) -> None:
        self.next_due_ns = self.interval_ns
        self.samples = []
        self.latency_hist = StreamingHistogram(
            rel_error=self.latency_hist.rel_error)
        self._prev_t = 0.0
        self._prev_counters = {}

    def to_jsonl(self, extra: Optional[Dict] = None) -> str:
        """One JSON object per line, key-sorted (deterministic)."""
        lines = []
        for sample in self.samples:
            row = dict(sample)
            if extra:
                row.update(extra)
            lines.append(json.dumps(row, sort_keys=True))
        return "\n".join(lines)

    def render(self) -> str:
        """The ``appctl metrics/show`` body."""
        lines = [
            f"metrics sampler: {len(self.samples)} samples, "
            f"interval {self.interval_ns:.0f} virtual ns"
        ]
        if not self.samples:
            lines.append("(no samples yet)")
            return "\n".join(lines)
        last = self.samples[-1]
        lines.append(f"latest sample (t={last['t_ns']:.0f} ns):")
        for name in sorted(last["counters"]):
            rate = last["rates"].get(name)
            rate_s = f"{rate:>14.1f}/s" if rate is not None else f"{'-':>16}"
            lines.append(
                f"  {name:32s} {last['counters'][name]:>12d} {rate_s}"
            )
        hist = self.latency_hist
        if len(hist):
            lines.append(
                f"ns per packet (streaming, n={len(hist)}): "
                f"p50={hist.percentile(50):.0f} "
                f"p90={hist.percentile(90):.0f} "
                f"p99={hist.percentile(99):.0f} "
                f"mean={hist.mean():.0f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Attachment helpers.
# ----------------------------------------------------------------------
@contextmanager
def profiling(
    recorder: Optional[TraceRecorder] = None,
    sampler: Optional[MetricsSampler] = None,
) -> Iterator[TraceRecorder]:
    """``trace.recording()`` with a :class:`Profiler` attached.

    The profiler must observe every charge the recorder does (else the
    tree would not conserve against the ledger), hence one combined
    entry point instead of attaching mid-run.
    """
    rec = recorder if recorder is not None else TraceRecorder()
    if rec.profiler is None:
        rec.profiler = Profiler()
    if sampler is not None:
        rec.sampler = sampler
    with trace.recording(rec):
        yield rec
