"""The trace ledger: per-stage span accounting and event counters.

The cost model charges virtual nanoseconds through a single funnel —
:meth:`repro.sim.cpu.ExecContext.charge` — but until now only the *sums*
were observable (per-CPU busy time, end-to-end latency).  This module
turns the cost model into an auditable ledger, the way the delay-
attribution literature instruments real datapaths: every charge is
attributed to a named stage, every interesting event (EMC hit, upcall,
ring stall, tx kick syscall, eBPF instruction retired) bumps a counter,
and the whole ledger is deterministic so two identical runs produce
byte-identical traces.

Conservation invariant
======================

Every nanosecond the simulation charges to a CPU must appear in exactly
one span of the ledger::

    recorder.total_ns == recorder.cpu_charged_ns

``total_ns`` sums the per-stage spans recorded at the
:class:`~repro.sim.cpu.ExecContext` layer (where the stage label lives);
``cpu_charged_ns`` independently accumulates at the
:class:`~repro.sim.cpu.CpuModel` layer (where busy time is banked).  The
two meet only if no code path charges a CPU while bypassing the labelled
funnel and the ledger neither drops nor double-counts — a cross-cutting
correctness check the test suite enforces on real experiment runs.
Waits (sleeps — wall time without CPU burn) are kept in a separate
ledger and are deliberately *not* part of the invariant.

Overhead discipline
===================

Tracing defaults to off.  The hot paths guard with a single module-
attribute load (``trace.ACTIVE is None``) and make **no function call
and no allocation per packet** when disabled; a test pins this down with
``tracemalloc``.  Attach a recorder around the region of interest::

    with trace.recording() as rec:
        bench.drive(stream, packets)
    print(rec.render())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class TraceRecorder:
    """Accumulates spans (virtual ns per stage), waits and counters.

    ``spans``/``waits`` map a stage label to a ``[count, total_ns]``
    pair; ``counters`` maps an event name to an integer.  ``span()``
    opens a *nested* span: charges recorded while it is open are also
    folded into its inclusive total under the ``/``-joined path of every
    open span (e.g. ``pmd/upcall``), so a stage's inclusive cost can be
    read even when its work is spread over many leaf labels.
    """

    __slots__ = ("spans", "waits", "counters", "span_totals",
                 "cpu_charged_ns", "profiler", "sampler",
                 "_stack")

    def __init__(self) -> None:
        #: stage label -> [count, total_ns]; the conservation set.
        self.spans: Dict[str, List[float]] = {}
        #: like spans, for wall-time waits (no CPU burned).
        self.waits: Dict[str, List[float]] = {}
        #: event name -> count.
        self.counters: Dict[str, int] = {}
        #: "/"-joined span path -> [count, inclusive_ns].
        self.span_totals: Dict[str, List[float]] = {}
        #: independently accumulated at the CpuModel layer.
        self.cpu_charged_ns: float = 0.0
        #: Optional passive observers (see :mod:`repro.sim.profile`):
        #: a Profiler folds charges into a call tree, a MetricsSampler
        #: snapshots counters on virtual-time thresholds.  Both default
        #: to None; every hook below guards with one attribute load, so
        #: the ledger is byte-identical whether or not they are attached
        #: (the zero-overhead-off gate of the integration suite).
        self.profiler = None
        self.sampler = None
        self._stack: List[List[object]] = []

    # ------------------------------------------------------------------
    # Recording (called from the ExecContext/CpuModel hooks).
    # ------------------------------------------------------------------
    def record(self, stage: str, ns: float) -> None:
        """Attribute ``ns`` of charged CPU time to ``stage``."""
        entry = self.spans.get(stage)
        if entry is None:
            self.spans[stage] = [1, ns]
        else:
            entry[0] += 1
            entry[1] += ns
        for frame in self._stack:
            frame[1] += ns
        prof = self.profiler
        if prof is not None:
            prof.leaf(stage, ns)

    def record_wait(self, stage: str, ns: float) -> None:
        """Attribute ``ns`` of waited (non-CPU) wall time to ``stage``."""
        entry = self.waits.get(stage)
        if entry is None:
            self.waits[stage] = [1, ns]
        else:
            entry[0] += 1
            entry[1] += ns

    def note_cpu(self, ns: float) -> None:
        """CpuModel-side tally; the other leg of the conservation check."""
        self.cpu_charged_ns += ns
        sampler = self.sampler
        if sampler is not None and self.cpu_charged_ns >= sampler.next_due_ns:
            sampler.tick(self)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------
    # Nested spans.
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        """Group every charge inside the block under ``stage``'s path.

        Inclusive: a parent span's total contains its children's.  The
        flat ``spans`` ledger is unaffected (no double counting there).
        """
        path = "/".join([str(f[0]) for f in self._stack] + [stage])
        frame: List[object] = [path, 0.0]
        self._stack.append(frame)
        prof = self.profiler
        if prof is not None:
            prof.enter(stage)
        try:
            yield
        finally:
            if prof is not None:
                prof.exit_()
            self._stack.pop()
            entry = self.span_totals.get(path)
            if entry is None:
                self.span_totals[path] = [1, frame[1]]
            else:
                entry[0] += 1
                entry[1] += frame[1]

    # ------------------------------------------------------------------
    # Reduction.
    # ------------------------------------------------------------------
    @property
    def total_ns(self) -> float:
        """Sum of all recorded CPU spans (the conservation set)."""
        return sum(entry[1] for entry in self.spans.values())

    @property
    def total_wait_ns(self) -> float:
        return sum(entry[1] for entry in self.waits.values())

    def span_ns(self, stage: str) -> float:
        entry = self.spans.get(stage)
        return entry[1] if entry is not None else 0.0

    def span_count(self, stage: str) -> int:
        entry = self.spans.get(stage)
        return int(entry[0]) if entry is not None else 0

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def conserved(self, rel_tol: float = 1e-9) -> bool:
        """Does the span ledger balance against the CPU-side tally?"""
        a, b = self.total_ns, self.cpu_charged_ns
        return abs(a - b) <= rel_tol * max(abs(a), abs(b), 1.0)

    def reset(self) -> None:
        self.spans.clear()
        self.waits.clear()
        self.counters.clear()
        self.span_totals.clear()
        self.cpu_charged_ns = 0.0
        if self.profiler is not None:
            self.profiler.reset()
        if self.sampler is not None:
            self.sampler.reset()
        self._stack.clear()

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def ledger(self) -> str:
        """A canonical, deterministic dump of the whole ledger.

        Sorted by name, floats via ``repr`` — two identical runs must
        produce byte-identical ledgers (the determinism regression test
        compares these strings directly).
        """
        lines = []
        for stage in sorted(self.spans):
            count, ns = self.spans[stage]
            lines.append(f"span {stage} count={int(count)} ns={ns!r}")
        for stage in sorted(self.waits):
            count, ns = self.waits[stage]
            lines.append(f"wait {stage} count={int(count)} ns={ns!r}")
        for path in sorted(self.span_totals):
            count, ns = self.span_totals[path]
            lines.append(f"nested {path} count={int(count)} ns={ns!r}")
        for name in sorted(self.counters):
            lines.append(f"counter {name} {self.counters[name]}")
        lines.append(f"cpu_charged_ns={self.cpu_charged_ns!r}")
        return "\n".join(lines)

    def render(self, title: str = "per-stage virtual time") -> str:
        """A human-oriented table: stage, calls, total ns, share."""
        total = self.total_ns or 1.0
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        width = max([len(s) for s, _ in rows] or [5])
        lines = [title, f"{'stage'.ljust(width)}  {'calls':>10}  "
                        f"{'total ns':>14}  {'share':>6}"]
        for stage, (count, ns) in rows:
            lines.append(f"{stage.ljust(width)}  {int(count):>10}  "
                         f"{ns:>14.0f}  {100.0 * ns / total:>5.1f}%")
        lines.append(f"{'TOTAL'.ljust(width)}  "
                     f"{sum(int(c) for c, _ in self.spans.values()):>10}  "
                     f"{self.total_ns:>14.0f}  100.0%")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecorder({len(self.spans)} stages, "
                f"{len(self.counters)} counters, "
                f"total={self.total_ns:.0f} ns)")


#: The attached recorder, or None (tracing disabled).  Hot paths read
#: this attribute directly — keep it a plain module global.
ACTIVE: Optional[TraceRecorder] = None


def attach(recorder: TraceRecorder) -> TraceRecorder:
    """Make ``recorder`` the active ledger.  Nesting is not supported:
    attach over an existing recorder is an error (a silently swallowed
    ledger would break the conservation audit)."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a TraceRecorder is already attached")
    ACTIVE = recorder
    return recorder


def detach() -> None:
    global ACTIVE
    ACTIVE = None


@contextmanager
def recording(
    recorder: Optional[TraceRecorder] = None,
) -> Iterator[TraceRecorder]:
    """Attach a recorder (a fresh one by default) for the block."""
    rec = attach(recorder if recorder is not None else TraceRecorder())
    try:
        yield rec
    finally:
        detach()


@contextmanager
def isolated() -> Iterator[TraceRecorder]:
    """Record the block into a fresh recorder of its own.

    Any outer recorder (``python -m repro --trace degradation``) is
    shelved for the block — nesting is an error by design — and
    re-attached on the way out, exception or not."""
    outer = ACTIVE
    detach()
    try:
        with recording() as rec:
            yield rec
    finally:
        if outer is not None:
            attach(outer)


def count(name: str, n: int = 1) -> None:
    """Convenience counter bump for cold paths (checks ACTIVE itself;
    hot paths should inline the ``ACTIVE is None`` guard instead)."""
    rec = ACTIVE
    if rec is not None:
        rec.count(name, n)


@contextmanager
def span(stage: str) -> Iterator[None]:
    """Module-level nested span; a plain passthrough when disabled.

    Use on cold/medium paths (an upcall, a revalidator sweep) — the
    generator machinery is not free, so per-packet code should guard on
    ``trace.ACTIVE`` instead.
    """
    rec = ACTIVE
    if rec is None:
        yield
        return
    with rec.span(stage):
        yield
