"""Deterministic multi-process scale-out of the simulator (DESIGN §17).

One CPython interpreter runs every PMD, softirq lane and experiment
cell.  Real OVS scales by adding PMD threads (§5.5); the simulator
scales by partitioning work across ``multiprocessing`` workers — with
one obligation real OVS does not have: **the merged observables must be
byte-identical to the single-process run**.  The charge-exactness
contract (same floats, in the same order, into the same accumulators)
has to hold across process boundaries.

There is one sharding mode, **unit sharding** (:func:`run_units`): an
experiment is a fixed serial sequence of *units* (fig9 cells, fig12
points, matrix cells; each builds its own world, clock, RNG streams,
recorder, conservation ledger).  A deterministic plan places units on
shards; workers run them with shard-local state; the coordinator merges
outcomes **in the serial unit order**, replaying each unit's recorded
charge stream so every float accumulator folds in exactly the order the
serial run would have used.  Float addition is not associative: merging
by adding per-shard *totals* would change the last ulps, so snapshots
carry run-length-compressed event streams instead (lean on the wire:
repeated identical charges — the common case, costs are constants —
collapse to ``(value, count)`` pairs).

Determinism guards
==================

Sharding refuses ambient cross-unit state it cannot partition: a
module-global :data:`repro.sim.faults.ACTIVE` plan (its per-point RNG
streams would interleave across units in serial but not when sharded),
an ambient telemetry session, or a metrics sampler.  Fault plans are
instead *unit-scoped*: :attr:`Unit.plan` carries a plan spec that the
worker (and the serial path, identically) installs around just that
unit, so the streams are a pure function of the unit, not of the
schedule.

Everything here is spawn-safe: workers are module-level functions fed
picklable payloads, so the suite passes under the ``fork``, ``spawn``
and ``forkserver`` start methods alike (macOS and Windows default to
``spawn``).
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
from contextlib import contextmanager, ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sim import faults as _faults
from repro.sim import trace as _trace
from repro.sim.profile import Profiler
from repro.sim.trace import TraceRecorder


class ShardError(RuntimeError):
    """A sharding contract violation (ambient state, bad plan, ...)."""


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS/Windows
        return os.cpu_count() or 1


def default_start_method() -> str:
    """``fork`` where available (cheap), else the platform default."""
    import multiprocessing as mp

    override = os.environ.get("REPRO_SHARD_START")
    if override:
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Run-length logs: the lean snapshot encoding.
# ----------------------------------------------------------------------
class RunLog:
    """Per-key run-length log of float additions.

    ``runs[key]`` is a flat ``[v0, n0, v1, n1, ...]`` list: the addition
    sequence was ``n0`` times ``v0``, then ``n1`` times ``v1``, ...
    Replaying performs every individual addition again, so the fold is
    bit-identical to the original sequence; the encoding is merely a
    compression of *consecutive equal values* (cost constants repeat,
    so ledger streams compress extremely well).
    """

    __slots__ = ("runs",)

    def __init__(self) -> None:
        self.runs: Dict[Any, List[float]] = {}

    def add(self, key: Any, value: float) -> None:
        runs = self.runs.get(key)
        if runs is None:
            self.runs[key] = [value, 1]
        elif runs[-2] == value:
            runs[-1] += 1
        else:
            runs.append(value)
            runs.append(1)

    def add_n(self, key: Any, value: float, n: int) -> None:
        runs = self.runs.get(key)
        if runs is None:
            self.runs[key] = [value, n]
        elif runs[-2] == value:
            runs[-1] += n
        else:
            runs.append(value)
            runs.append(n)


def _fold_runs(entry: List[float], runs: Sequence[float],
               collapse: bool = False) -> None:
    """Replay ``runs`` into a ``[count, total]`` ledger entry.

    ``collapse=True`` is the *mutation* used to prove the byte-identity
    gate has teeth: it folds each run as one ``n * v`` addition instead
    of ``n`` additions — numerically "the same", byte-wise not.
    """
    it = iter(runs)
    for v in it:
        n = int(next(it))
        entry[0] += n
        if collapse:
            entry[1] += n * v
        else:
            total = entry[1]
            for _ in range(n):
                total += v
            entry[1] = total


def _fold_value(value: float, runs: Sequence[float],
                collapse: bool = False) -> float:
    it = iter(runs)
    for v in it:
        n = int(next(it))
        if collapse:
            value += n * v
        else:
            for _ in range(n):
                value += v
    return value


# ----------------------------------------------------------------------
# Shard-local recording: a TraceRecorder that also logs its streams.
# ----------------------------------------------------------------------
class ShardRecorder(TraceRecorder):
    """A recorder that additionally keeps replayable event streams.

    Workers attach one per unit; its :meth:`snapshot` is shipped back
    and replayed into the coordinator's recorder so the merged ledger is
    byte-identical to a serial run.  Slower than the plain recorder —
    only attached when the outer run is being traced anyway.
    """

    __slots__ = ("span_log", "wait_log", "nested_log", "cpu_log")

    def __init__(self) -> None:
        super().__init__()
        self.span_log = RunLog()
        self.wait_log = RunLog()
        self.nested_log = RunLog()
        self.cpu_log = RunLog()

    def record(self, stage: str, ns: float) -> None:
        super().record(stage, ns)
        self.span_log.add(stage, ns)

    def record_n(self, stage: str, ns: float, n: int) -> None:
        if n <= 0:
            return
        super().record_n(stage, ns, n)
        self.span_log.add_n(stage, ns, n)

    def record_wait(self, stage: str, ns: float) -> None:
        super().record_wait(stage, ns)
        self.wait_log.add(stage, ns)

    def note_cpu(self, ns: float) -> None:
        super().note_cpu(ns)
        self.cpu_log.add("cpu", ns)

    def note_cpu_n(self, ns: float, n: int) -> None:
        super().note_cpu_n(ns, n)
        self.cpu_log.add_n("cpu", ns, n)

    @contextmanager
    def span(self, stage: str) -> Iterator[None]:
        # Reimplements TraceRecorder.span so the inclusive total written
        # at exit can be logged (the parent's contextmanager offers no
        # hook at that point).
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
            self.nested_log.add(path, frame[1])

    def snapshot(self) -> "TraceSnapshot":
        prof_enters: Dict[Tuple[str, ...], int] = {}
        prof_leaves: Dict[Tuple[str, ...], List[float]] = {}
        prof = self.profiler
        if isinstance(prof, LogProfiler):
            prof_enters = prof.enter_log
            prof_leaves = prof.leaf_log.runs
        return TraceSnapshot(
            spans=self.span_log.runs,
            waits=self.wait_log.runs,
            nested=self.nested_log.runs,
            cpu=self.cpu_log.runs.get("cpu", []),
            counters=dict(self.counters),
            batch_sizes={k: dict(v) for k, v in self.batch_sizes.items()},
            prof_enters=prof_enters,
            prof_leaves=prof_leaves,
        )


class LogProfiler(Profiler):
    """A Profiler that also logs per-node events for exact tree merge.

    Nodes are addressed by their label path from the root; interior
    entries (``enter``) are integer counts, leaf folds are run-length
    float logs — replayed per node in unit order, the merged call tree
    (and its collapsed-stack flamegraph) is byte-identical to the
    serial profiler's.
    """

    __slots__ = ("enter_log", "leaf_log", "_path")

    def __init__(self) -> None:
        super().__init__()
        self.enter_log: Dict[Tuple[str, ...], int] = {}
        self.leaf_log = RunLog()
        self._path: List[str] = []

    def enter(self, label: str) -> None:
        super().enter(label)
        self._path.append(label)
        key = tuple(self._path)
        self.enter_log[key] = self.enter_log.get(key, 0) + 1

    def exit_(self) -> None:
        super().exit_()
        if self._path:
            self._path.pop()

    def leaf(self, label: str, ns: float) -> None:
        super().leaf(label, ns)
        self.leaf_log.add(tuple(self._path) + (label,), ns)

    def leaf_n(self, label: str, ns: float, n: int) -> None:
        super().leaf_n(label, ns, n)
        self.leaf_log.add_n(tuple(self._path) + (label,), ns, n)


@dataclass
class TraceSnapshot:
    """One unit's replayable observables, lean enough to pickle cheaply.

    Float families (spans, waits, nested span totals, the CPU-side
    conservation tally, profiler leaf folds) are run-length event
    streams; counters, span counts and batch histograms are plain ints.
    ``replay_into`` folds everything into a coordinator-side recorder
    with exactly the serial run's addition sequence.
    """

    spans: Dict[str, List[float]]
    waits: Dict[str, List[float]]
    nested: Dict[str, List[float]]
    cpu: List[float]
    counters: Dict[str, int]
    batch_sizes: Dict[str, Dict[int, int]]
    prof_enters: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    prof_leaves: Dict[Tuple[str, ...], List[float]] = field(
        default_factory=dict)

    def replay_into(self, rec: TraceRecorder,
                    collapse: bool = False) -> None:
        if rec._stack:
            raise ShardError(
                "cannot merge a shard snapshot while a span is open on "
                "the target recorder (merge at a barrier, outside spans)")
        for stage, runs in self.spans.items():
            entry = rec.spans.get(stage)
            if entry is None:
                entry = rec.spans[stage] = [0, 0.0]
            _fold_runs(entry, runs, collapse=collapse)
        for stage, runs in self.waits.items():
            entry = rec.waits.get(stage)
            if entry is None:
                entry = rec.waits[stage] = [0, 0.0]
            _fold_runs(entry, runs, collapse=collapse)
        for path, runs in self.nested.items():
            entry = rec.span_totals.get(path)
            if entry is None:
                entry = rec.span_totals[path] = [0, 0.0]
            _fold_runs(entry, runs, collapse=collapse)
        rec.cpu_charged_ns = _fold_value(rec.cpu_charged_ns, self.cpu,
                                         collapse=collapse)
        for name, n in self.counters.items():
            rec.counters[name] = rec.counters.get(name, 0) + n
        for stage, hist in self.batch_sizes.items():
            out = rec.batch_sizes.setdefault(stage, {})
            for size, n in hist.items():
                out[size] = out.get(size, 0) + n
        prof = rec.profiler
        if prof is not None and (self.prof_enters or self.prof_leaves):
            if prof.depth:
                raise ShardError(
                    "cannot merge a profiler snapshot while frames are "
                    "open on the target profiler")
            self._replay_profiler(prof, collapse=collapse)

    def _replay_profiler(self, prof: Profiler, collapse: bool) -> None:
        def node_at(path: Tuple[str, ...]):
            node = prof.root
            for label in path:
                node = node.child(label)
            return node

        for path, count in self.prof_enters.items():
            node_at(path).calls += count
        for path, runs in self.prof_leaves.items():
            node = node_at(path)
            it = iter(runs)
            for v in it:
                n = int(next(it))
                node.calls += n
                if collapse:
                    node.ns += n * v
                else:
                    ns = node.ns
                    for _ in range(n):
                        ns += v
                    node.ns = ns


# ----------------------------------------------------------------------
# Units and placement.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Unit:
    """One shardable work item of an experiment.

    ``runner`` is a ``"package.module:function"`` string resolved *in
    the worker* (spawn-safe: no callables cross the process boundary);
    ``params`` are its picklable keyword arguments.  ``weight`` is a
    relative cost estimate that only steers placement — it can be
    arbitrarily wrong without affecting any observable, only the load
    balance.  ``plan`` optionally carries a unit-scoped fault-plan spec
    (``FaultPlan`` constructor kwargs) installed around just this unit,
    identically on the serial and sharded paths.  ``phase`` groups
    units between deterministic sync barriers: all units of phase k
    complete (and merge) before any unit of phase k+1 starts.
    """

    key: Any
    runner: str
    params: Dict[str, Any] = field(default_factory=dict)
    weight: float = 1.0
    plan: Optional[Dict[str, Any]] = None
    phase: str = ""


@dataclass
class ShardPlan:
    """Deterministic unit -> shard placement (LPT with stable ties).

    ``shards[s]`` lists unit indices (into the serial order) owned by
    shard ``s``.  Placement never affects merged observables — merging
    always walks the serial index order — only wall-clock balance.
    """

    n_shards: int
    shards: List[List[int]]

    @classmethod
    def from_partition(cls, partition: Sequence[int],
                       n_shards: int) -> "ShardPlan":
        """An explicit unit->shard map (property tests, manual pinning)."""
        if n_shards < 1:
            raise ShardError("need at least one shard")
        shards: List[List[int]] = [[] for _ in range(n_shards)]
        for i, s in enumerate(partition):
            if not 0 <= s < n_shards:
                raise ShardError(
                    f"unit {i} placed on shard {s}, have {n_shards}")
            shards[s].append(i)
        return cls(n_shards=n_shards, shards=shards)

    @classmethod
    def build(cls, units: Sequence[Unit], n_shards: int) -> "ShardPlan":
        if n_shards < 1:
            raise ShardError("need at least one shard")
        shards: List[List[int]] = [[] for _ in range(n_shards)]
        loads = [0.0] * n_shards
        # Longest-processing-time-first, ties broken by serial index and
        # lowest shard id: a pure function of (units, n_shards).
        order = sorted(range(len(units)),
                       key=lambda i: (-units[i].weight, i))
        for i in order:
            s = min(range(n_shards), key=lambda j: (loads[j], j))
            shards[s].append(i)
            loads[s] += units[i].weight
        for bucket in shards:
            bucket.sort()
        return cls(n_shards=n_shards, shards=shards)

    def shard_of(self, index: int) -> int:
        for s, bucket in enumerate(self.shards):
            if index in bucket:
                return s
        raise KeyError(index)


def partition_round_robin(n_items: int, n_shards: int) -> List[int]:
    """The default port->shard partition: item i on shard i % n."""
    if n_shards < 1:
        raise ShardError("need at least one shard")
    return [i % n_shards for i in range(n_items)]


# ----------------------------------------------------------------------
# The worker side (module-level: spawn-safe).
# ----------------------------------------------------------------------
def _resolve_runner(spec: str) -> Callable:
    module_name, _, func_name = spec.partition(":")
    if not func_name:
        raise ShardError(f"runner {spec!r} is not 'module:function'")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, func_name)
    except AttributeError as exc:
        raise ShardError(f"runner {spec!r} not found") from exc


@dataclass
class UnitOutcome:
    index: int
    value: Any
    snapshot: Optional[TraceSnapshot]
    wall_s: float


@dataclass
class WorkerTask:
    shard_id: int
    units: List[Tuple[int, Unit]]
    record: str  # "off" | "trace" | "profile"


@dataclass
class WorkerResult:
    shard_id: int
    outcomes: List[UnitOutcome]
    wall_s: float


def _clear_inherited_globals() -> None:
    """Forked workers inherit the parent's module globals; shard-local
    state must start clean (spawned workers start clean anyway)."""
    if _trace.ACTIVE is not None:
        _trace.detach()
    if _faults.ACTIVE is not None:
        _faults.ACTIVE = None
    try:
        from repro import telemetry as _telemetry
        if _telemetry.ACTIVE is not None:
            _telemetry.ACTIVE = None
    except ImportError:  # pragma: no cover - partial builds
        pass


def run_one_unit(unit: Unit, record: str) -> Tuple[Any,
                                                   Optional[TraceSnapshot]]:
    """Run one unit under its own recorder/plan; shared by the worker
    and (with ``record="off"`` and no ambient recorder talk) nothing
    else — the serial path runs units inline instead."""
    runner = _resolve_runner(unit.runner)
    with ExitStack() as stack:
        if unit.plan is not None:
            plan = _faults.FaultPlan(**unit.plan)
            stack.enter_context(_faults.injecting(plan))
        rec: Optional[ShardRecorder] = None
        if record != "off":
            rec = ShardRecorder()
            if record == "profile":
                rec.profiler = LogProfiler()
            stack.enter_context(_trace.recording(rec))
        value = runner(**unit.params)
    return value, (rec.snapshot() if rec is not None else None)


def _run_assigned(task: WorkerTask) -> WorkerResult:
    """Worker entry point: run this shard's units in serial-index order."""
    _clear_inherited_globals()
    started = time.perf_counter()
    outcomes: List[UnitOutcome] = []
    for index, unit in task.units:
        t0 = time.perf_counter()
        value, snapshot = run_one_unit(unit, task.record)
        outcomes.append(UnitOutcome(
            index=index, value=value, snapshot=snapshot,
            wall_s=time.perf_counter() - t0,
        ))
    return WorkerResult(shard_id=task.shard_id, outcomes=outcomes,
                        wall_s=time.perf_counter() - started)


# ----------------------------------------------------------------------
# Reporting (the data plane of ``appctl shard/show``).
# ----------------------------------------------------------------------
@dataclass
class ShardReport:
    """What a sharded run looked like, for ``appctl shard/show``.

    Wall times are real seconds (reporting only — never an observable).
    """

    n_shards: int
    start_method: str
    degenerate: bool = False
    record: str = "off"
    barriers: int = 0
    #: (unit key, shard id, weight) in serial order.
    placement: List[Tuple[Any, int, float]] = field(default_factory=list)
    shard_walls: Dict[int, float] = field(default_factory=dict)
    merge_wall_s: float = 0.0
    payload_bytes: int = 0

    def render(self) -> str:
        lines = [
            f"shards: {self.n_shards} (start method: {self.start_method}"
            f"{', degenerate: ran inline' if self.degenerate else ''})",
            f"record: {self.record}",
            f"barriers: {self.barriers}",
        ]
        if self.placement:
            by_shard: Dict[int, List[str]] = {}
            for key, shard, weight in self.placement:
                by_shard.setdefault(shard, []).append(
                    f"{key!r} (w={weight:g})")
            for shard in range(self.n_shards):
                units = by_shard.get(shard, [])
                wall = self.shard_walls.get(shard)
                suffix = f"  wall {wall:.3f}s" if wall is not None else ""
                lines.append(f"shard {shard}: {len(units)} unit"
                             f"{'s' if len(units) != 1 else ''}{suffix}")
                for u in units:
                    lines.append(f"  {u}")
        lines.append(f"merge wall: {self.merge_wall_s * 1e3:.2f} ms "
                     f"({self.payload_bytes} snapshot bytes)")
        return "\n".join(lines)


@dataclass
class ShardRun:
    """The merged result of a sharded (or degenerate serial) run."""

    values: List[Any]
    report: ShardReport

    def by_key(self, units: Sequence[Unit]) -> Dict[Any, Any]:
        return {u.key: v for u, v in zip(units, self.values)}


#: The report of the most recent sharded run, for ``appctl shard/show``
#: (mirrors how ``faults.ACTIVE`` / ``trace.ACTIVE`` expose themselves).
LAST_REPORT: Optional[ShardReport] = None


# ----------------------------------------------------------------------
# The coordinator.
# ----------------------------------------------------------------------
def _guard_ambient_state(units: Sequence[Unit], shards: int) -> None:
    if shards > 1 and _faults.ACTIVE is not None:
        raise ShardError(
            "an ambient FaultPlan is installed; its per-point RNG "
            "streams interleave across units in serial order and cannot "
            "be partitioned — scope the plan per unit (Unit.plan) "
            "instead")
    if any(u.plan is not None for u in units) and _faults.ACTIVE is not None:
        raise ShardError(
            "unit-scoped fault plans cannot nest inside an ambient "
            "FaultPlan")
    if shards > 1:
        try:
            from repro import telemetry as _telemetry
        except ImportError:  # pragma: no cover - partial builds
            _telemetry = None
        if _telemetry is not None and _telemetry.ACTIVE is not None:
            raise ShardError(
                "an ambient telemetry session is active; its exporter "
                "state is cross-unit and cannot be partitioned")
    rec = _trace.ACTIVE
    if shards > 1 and rec is not None and rec.sampler is not None:
        raise ShardError(
            "a MetricsSampler is attached; interval samples interleave "
            "units and cannot be merged byte-identically — run sampled "
            "experiments serially")


def _record_mode() -> str:
    rec = _trace.ACTIVE
    if rec is None:
        return "off"
    return "profile" if rec.profiler is not None else "trace"


def run_units(
    units: Sequence[Unit],
    shards: int = 1,
    start_method: Optional[str] = None,
    placement: Optional[Sequence[int]] = None,
    _mutate_merge: Optional[str] = None,
) -> ShardRun:
    """Run ``units`` across ``shards`` workers; merge deterministically.

    ``shards <= 1`` is the degenerate case: units run inline, in serial
    order, in this process, under whatever recorder/plan is ambient —
    byte-for-byte the pre-sharding behaviour.  With ``shards > 1``,
    units execute in worker processes with shard-local recorders and
    the coordinator replays their snapshots in serial unit order at
    each phase barrier.

    ``_mutate_merge`` exists for the gate's mutation test only:
    ``"reorder"`` replays units in reversed order, ``"collapse"`` folds
    run-length groups as single multiplications.  Both must make the
    byte-identity gate fail — proving it can.
    """
    global LAST_REPORT
    units = list(units)
    _guard_ambient_state(units, shards)
    record = _record_mode()
    # An explicit placement keeps its shard ids even if some end up
    # empty; the planner otherwise never opens more shards than units.
    n_shards = (shards if placement is not None
                else max(1, min(shards, len(units))))

    if shards <= 1:
        values: List[Any] = []
        for unit in units:
            if unit.plan is not None:
                plan = _faults.FaultPlan(**unit.plan)
                with _faults.injecting(plan):
                    values.append(_resolve_runner(unit.runner)(**unit.params))
            else:
                values.append(_resolve_runner(unit.runner)(**unit.params))
        report = ShardReport(
            n_shards=1, start_method="inline", degenerate=True,
            record=record, barriers=0,
            placement=[(u.key, 0, u.weight) for u in units],
        )
        LAST_REPORT = report
        return ShardRun(values=values, report=report)

    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    method = start_method or default_start_method()
    if placement is not None:
        if len(placement) != len(units):
            raise ShardError("placement must name one shard per unit")
        plan = ShardPlan.from_partition(placement, n_shards)
    else:
        plan = ShardPlan.build(units, n_shards)
    phases: List[str] = []
    for u in units:
        if u.phase not in phases:
            phases.append(u.phase)

    rec = _trace.ACTIVE
    values = [None] * len(units)
    report = ShardReport(
        n_shards=n_shards, start_method=method, record=record,
        placement=[(u.key, plan.shard_of(i), u.weight)
                   for i, u in enumerate(units)],
    )
    ctx = mp.get_context(method)
    merge_wall = 0.0
    payload_bytes = 0
    with ProcessPoolExecutor(max_workers=n_shards,
                             mp_context=ctx) as pool:
        for phase in phases:
            futures = []
            for shard_id, bucket in enumerate(plan.shards):
                assigned = [(i, units[i]) for i in bucket
                            if units[i].phase == phase]
                if not assigned:
                    continue
                futures.append(pool.submit(_run_assigned, WorkerTask(
                    shard_id=shard_id, units=assigned, record=record)))
            outcomes: List[UnitOutcome] = []
            for future in futures:
                result = future.result()  # the phase barrier
                report.shard_walls[result.shard_id] = (
                    report.shard_walls.get(result.shard_id, 0.0)
                    + result.wall_s)
                outcomes.extend(result.outcomes)
            report.barriers += 1
            t0 = time.perf_counter()
            outcomes.sort(key=lambda o: o.index)
            if _mutate_merge == "reorder":
                outcomes.reverse()
            for outcome in outcomes:
                values[outcome.index] = outcome.value
                if outcome.snapshot is not None:
                    payload_bytes += len(pickle.dumps(
                        outcome.snapshot, protocol=pickle.HIGHEST_PROTOCOL))
                    if rec is not None:
                        outcome.snapshot.replay_into(
                            rec, collapse=(_mutate_merge == "collapse"))
            merge_wall += time.perf_counter() - t0
    report.merge_wall_s = merge_wall
    report.payload_bytes = payload_bytes
    LAST_REPORT = report
    return ShardRun(values=values, report=report)


# ----------------------------------------------------------------------
# Conservation-ledger merge.
# ----------------------------------------------------------------------
def merge_ledgers(ledgers: Sequence) -> "Any":
    """Merge per-shard :class:`~repro.tools.conservation.PacketLedger`s.

    All counts are integers, so summation in fixed shard order is exact
    (no replay needed); the merged ledger balances iff every shard's
    does plus no packet crossed shards unaccounted.
    """
    from repro.tools.conservation import PacketLedger

    offered = forwarded = 0
    sinks: Dict[str, int] = {}
    for ledger in ledgers:
        offered += ledger.offered
        forwarded += ledger.forwarded
        for name, n in ledger.sinks.items():
            sinks[name] = sinks.get(name, 0) + n
    return PacketLedger(offered=offered, forwarded=forwarded, sinks=sinks)
