"""CPU cores, execution contexts and time accounting.

The paper reports CPU consumption split into the categories ``top`` shows
(Table 4: system, softirq, guest, user).  We reproduce that: every piece of
substrate code runs on behalf of an :class:`ExecContext` — a simulated thread
of execution pinned to a logical CPU and running in one accounting category —
and charges virtual nanoseconds to it.  A :class:`CpuModel` aggregates busy
time per (cpu, category) so experiments can report utilisation exactly the
way the paper's Table 4 does.

Latency tracing
===============

For latency experiments a :class:`LatencyTrace` can be attached to a context
(usually with batch size 1); every charge is then also added to the trace,
with a component label, so we can report where each microsecond of a netperf
TCP_RR round trip went.

Trace ledger
============

When a :class:`~repro.sim.trace.TraceRecorder` is attached (see
:mod:`repro.sim.trace`), every charge is additionally recorded as a
per-stage span and every :meth:`CpuModel.charge` is tallied on the
CPU side, so the two ledgers can be audited against each other
(the cost-conservation invariant).  With no recorder attached the
hooks are a single ``is None`` check.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.sim import trace as _trace
from repro.sim.clock import Clock


class CpuCategory(enum.Enum):
    """Accounting buckets, mirroring the columns of the paper's Table 4."""

    USER = "user"
    SYSTEM = "system"
    SOFTIRQ = "softirq"
    GUEST = "guest"
    #: Busy-wait burn of poll-mode threads while no packets are available.
    #: ``top`` reports this as user time; we keep it separate so experiments
    #: can distinguish useful work from poll spin, then fold it into USER.
    POLL_IDLE = "poll_idle"


# Dense index per category so the per-packet accounting path can use list
# indexing instead of hashing an enum member (a measurable share of the
# wall-clock cost of ExecContext.charge).
for _i, _cat in enumerate(CpuCategory):
    _cat.idx = _i
N_CATEGORIES = len(CpuCategory)


class LatencyTrace:
    """Accumulates per-component latency along one packet's path."""

    __slots__ = ("total_ns", "components")

    def __init__(self) -> None:
        self.total_ns: float = 0.0
        self.components: Dict[str, float] = {}

    def add(self, ns: float, label: str) -> None:
        """The definition of a traced charge; ``ExecContext`` runs these
        two statements inline."""
        self.total_ns += ns
        self.components[label] = self.components.get(label, 0.0) + ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.0f}" for k, v in self.components.items())
        return f"LatencyTrace({self.total_ns:.0f} ns: {parts})"


class CpuModel:
    """A host's logical CPUs with per-(cpu, category) busy accounting."""

    def __init__(self, n_cpus: int, clock: Optional[Clock] = None) -> None:
        if n_cpus < 1:
            raise ValueError("a host needs at least one CPU")
        self.n_cpus = n_cpus
        self.clock = clock if clock is not None else Clock()
        # busy[cpu][category.idx] = ns.  A dense list, not a dict: the
        # accounting path runs once per charge, and enum hashing is the
        # single hottest Python-level operation of a forwarding run.
        # Each (cpu, category) pair keeps its own accumulator, so the
        # per-bucket float values are bit-identical to the dict scheme.
        self._busy: list[list[float]] = [
            [0.0] * N_CATEGORIES for _ in range(n_cpus)
        ]

    def charge(self, cpu: int, category: CpuCategory, ns: float) -> None:
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self._busy[cpu][category.idx] += ns
        rec = _trace.ACTIVE
        if rec is not None:
            rec.note_cpu(ns)

    def busy_ns(
        self,
        cpu: Optional[int] = None,
        category: Optional[CpuCategory] = None,
    ) -> float:
        """Total busy time, optionally filtered by cpu and/or category."""
        cpus = range(self.n_cpus) if cpu is None else (cpu,)
        total = 0.0
        for c in cpus:
            lane = self._busy[c]
            if category is None:
                total += sum(lane)
            else:
                total += lane[category.idx]
        return total

    def reset(self) -> None:
        # Zero in place: ExecContexts cache a reference to their lane.
        for lane in self._busy:
            for i in range(N_CATEGORIES):
                lane[i] = 0.0


class _CategoryScope:
    """``with ctx.as_category(cat):`` — swap the context's category on
    entry, put the previous one back on exit (exception or not).  A
    plain object, not a generator: the tx kick and the vhost-net pump
    enter one per burst."""

    __slots__ = ("ctx", "category", "prev")

    def __init__(self, ctx: "ExecContext", category: CpuCategory) -> None:
        self.ctx = ctx
        self.category = category

    def __enter__(self) -> None:
        ctx = self.ctx
        self.prev, ctx.category = ctx.category, self.category

    def __exit__(self, *exc: object) -> None:
        self.ctx.category = self.prev


class ExecContext:
    """A simulated thread of execution.

    Parameters
    ----------
    cpu_model:
        Where busy time is accounted.
    cpu:
        The logical CPU this context is pinned to (PMD threads and softirq
        lanes are pinned; that is how the paper's setups run).
    category:
        Default accounting category for charges.
    """

    def __init__(
        self,
        cpu_model: CpuModel,
        cpu: int,
        category: CpuCategory,
        name: str = "",
    ) -> None:
        if not 0 <= cpu < cpu_model.n_cpus:
            raise ValueError(f"cpu {cpu} out of range")
        self.cpu_model = cpu_model
        self.cpu = cpu
        self.category = category
        self.name = name or f"ctx-{category.value}@cpu{cpu}"
        self.local_time_ns: float = 0.0
        self.trace: Optional[LatencyTrace] = None
        #: Cached busy lane; valid because contexts are pinned and
        #: CpuModel.reset() zeroes lanes in place.
        self._lane = cpu_model._busy[cpu]

    def charge(
        self,
        ns: float,
        label: str = "work",
        category: Optional[CpuCategory] = None,
    ) -> None:
        """Consume ``ns`` of CPU time in this context.

        This is the accounting funnel for the whole simulator (it runs
        several times per packet), so the CpuModel side is inlined: the
        lane update below is exactly what :meth:`CpuModel.charge` does.
        """
        if ns <= 0:
            if ns == 0:
                return
            raise ValueError(f"negative charge: {ns}")
        if category is None:
            self._lane[self.category.idx] += ns
        else:
            self._lane[category.idx] += ns
        self.local_time_ns += ns
        if self.trace is not None:
            # LatencyTrace.add, inline: a latency run (burst size 1)
            # makes every charge with a trace attached.
            tr = self.trace
            tr.total_ns += ns
            components = tr.components
            components[label] = components.get(label, 0.0) + ns
        rec = _trace.ACTIVE
        if rec is not None:
            rec.note_cpu(ns)
            rec.record(label, ns)

    def charge_n(
        self,
        ns: float,
        n: int,
        label: str = "work",
        category: Optional[CpuCategory] = None,
    ) -> None:
        """Charge ``ns`` exactly ``n`` times (one per packet of a batch).

        Byte-identical to ``n`` separate :meth:`charge` calls: every
        accumulator (busy lane, local time, latency trace, ledger span)
        receives ``n`` individual float additions in the same order —
        batching must never collapse them into one ``n * ns`` term,
        because float addition is not associative and the trace ledger
        records per-charge span counts.
        """
        if n <= 0 or ns == 0:
            return
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        cat = category if category is not None else self.category
        idx = cat.idx
        lane = self._lane
        tr = self.trace
        rec = _trace.ACTIVE
        if tr is None and rec is None:
            local = self.local_time_ns
            for _ in range(n):
                lane[idx] += ns
                local += ns
            self.local_time_ns = local
            return
        components = tr.components if tr is not None else None
        for _ in range(n):
            lane[idx] += ns
            self.local_time_ns += ns
            if tr is not None:
                tr.total_ns += ns
                components[label] = components.get(label, 0.0) + ns
            if rec is not None:
                rec.note_cpu(ns)
                rec.record(label, ns)

    def wait(self, ns: float, label: str = "wait") -> None:
        """Pass ``ns`` of wall time without consuming CPU (sleep/block).

        The time still counts toward any latency trace: a sleeping thread
        adds to a packet's latency without burning a core.
        """
        if ns < 0:
            raise ValueError(f"negative wait: {ns}")
        self.local_time_ns += ns
        if self.trace is not None:
            tr = self.trace
            tr.total_ns += ns
            components = tr.components
            components[label] = components.get(label, 0.0) + ns
        rec = _trace.ACTIVE
        if rec is not None:
            rec.record_wait(label, ns)

    @contextmanager
    def tracing(self, trace: LatencyTrace) -> Iterator[LatencyTrace]:
        """Attach a latency trace for the duration of the block."""
        prev, self.trace = self.trace, trace
        try:
            yield trace
        finally:
            self.trace = prev

    def as_category(self, category: CpuCategory) -> "_CategoryScope":
        """Temporarily run this context in a different accounting bucket.

        Used when a userspace thread enters the kernel (USER -> SYSTEM) or
        when the kernel borrows the current CPU for softirq work.
        """
        return _CategoryScope(self, category)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecContext({self.name}, cpu={self.cpu}, "
            f"t={self.local_time_ns:.0f} ns)"
        )
