"""Process-level parallelism for independent units of work (DESIGN §17).

One CPython interpreter runs every PMD, softirq lane and experiment
cell.  What scales across processes is work that is independent by
construction: the experiments of ``python -m repro``, the cells of the
perf matrix, the ports of a fault-plan world.  :func:`run_units` takes
such work as a fixed serial sequence of *units* — each builds its own
world, clock and RNG streams and returns a picklable value — and runs it
either inline (``shards=1``) or across ``multiprocessing`` workers.  A
deterministic plan places units on workers; the coordinator puts the
values back in serial unit order, so the result is the same list either
way.

Nothing a worker records crosses the process boundary.  A unit that
wants a trace, a profile, a fault plan or a telemetry session attaches
it itself, inside the worker, and returns what it rendered (the suite
pool's runner returns an experiment's printed text).  Hence one refusal
rule: ``run_units(shards>1)`` raises :class:`ShardError` when any plane —
a trace recorder (with or without a profiler or a metrics sampler), a
fault plan or a telemetry session — is attached in the calling process,
because a worker could not record into it.  Fault plans that belong to
one unit travel as :attr:`Unit.plan`, installed around just that unit on
the inline and the worker path alike.

Everything here is spawn-safe: workers are module-level functions fed
picklable payloads, so the suite passes under the ``fork``, ``spawn``
and ``forkserver`` start methods alike (macOS and Windows default to
``spawn``).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim import faults as _faults
from repro.sim import trace as _trace


class ShardError(RuntimeError):
    """A sharding contract violation (attached plane, bad plan, ...)."""


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
# Units and placement.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Unit:
    """One independent work item.

    ``runner`` is a ``"package.module:function"`` string resolved *in
    the worker* (spawn-safe: no callables cross the process boundary);
    ``params`` are its picklable keyword arguments.  ``weight`` is a
    relative cost estimate that only steers placement — it can be
    arbitrarily wrong without affecting any result, only the load
    balance.  ``plan`` optionally carries a unit-scoped fault-plan spec
    (``FaultPlan`` constructor kwargs) installed around just this unit,
    identically on the inline and the worker path.
    """

    key: Any
    runner: str
    params: Dict[str, Any] = field(default_factory=dict)
    weight: float = 1.0
    plan: Optional[Dict[str, Any]] = None


@dataclass
class ShardPlan:
    """Deterministic unit -> shard placement (LPT with stable ties).

    ``shards[s]`` lists unit indices (into the serial order) owned by
    shard ``s``.  Placement never affects results — values come back in
    serial index order — only wall-clock balance.
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


def _clear_inherited_globals() -> None:
    """Forked workers inherit the parent's module globals; a worker's
    planes must start clean (spawned workers start clean anyway)."""
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


def run_one_unit(unit: Unit) -> Any:
    """Run one unit under its own fault plan, if it carries one; shared
    by the inline path and the workers."""
    runner = _resolve_runner(unit.runner)
    if unit.plan is None:
        return runner(**unit.params)
    if _faults.ACTIVE is not None:
        raise ShardError(
            "unit-scoped fault plans cannot nest inside an ambient "
            "FaultPlan")
    with _faults.injecting(_faults.FaultPlan(**unit.plan)):
        return runner(**unit.params)


def _run_assigned(units: List[Unit]) -> Tuple[List[Any], float]:
    """Worker entry point: run this shard's units in serial-index order;
    returns their values and the shard's wall seconds."""
    _clear_inherited_globals()
    started = time.perf_counter()
    values = [run_one_unit(unit) for unit in units]
    return values, time.perf_counter() - started


# ----------------------------------------------------------------------
# Reporting (the data plane of ``appctl shard/show``).
# ----------------------------------------------------------------------
@dataclass
class ShardReport:
    """What a sharded run looked like, for ``appctl shard/show``.

    Wall times are real seconds (reporting only — never a result).
    """

    n_shards: int
    start_method: str
    degenerate: bool = False
    barriers: int = 0
    #: (unit key, shard id, weight) in serial order.
    placement: List[Tuple[Any, int, float]] = field(default_factory=list)
    shard_walls: Dict[int, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"shards: {self.n_shards} (start method: {self.start_method}"
            f"{', degenerate: ran inline' if self.degenerate else ''})",
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
        return "\n".join(lines)


@dataclass
class ShardRun:
    """The values of a sharded (or degenerate serial) run, in serial
    unit order."""

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
def _attached_plane() -> Optional[str]:
    """The name of a plane attached in this process, if any."""
    rec = _trace.ACTIVE
    if rec is not None:
        if rec.sampler is not None:
            return "MetricsSampler"
        return "profiler" if rec.profiler is not None else "trace recorder"
    if _faults.ACTIVE is not None:
        return "FaultPlan"
    try:
        from repro import telemetry as _telemetry
    except ImportError:  # pragma: no cover - partial builds
        return None
    return "telemetry session" if _telemetry.ACTIVE is not None else None


def _guard_ambient_state() -> None:
    plane = _attached_plane()
    if plane is not None:
        raise ShardError(
            f"an ambient {plane} is attached; workers cannot record into "
            f"this process's planes — attach it inside the unit, or run "
            f"with shards=1")


def run_units(
    units: Sequence[Unit],
    shards: int = 1,
    start_method: Optional[str] = None,
    placement: Optional[Sequence[int]] = None,
) -> ShardRun:
    """Run ``units`` across ``shards`` workers; values in serial order.

    ``shards <= 1`` is the degenerate case: units run inline, in serial
    order, in this process, under whatever planes are attached.  With
    ``shards > 1`` no plane may be attached here (:class:`ShardError`
    names the one that is); units run in worker processes and only
    their return values come back.
    """
    global LAST_REPORT
    units = list(units)
    if shards <= 1:
        values = [run_one_unit(unit) for unit in units]
        report = ShardReport(
            n_shards=1, start_method="inline", degenerate=True,
            placement=[(u.key, 0, u.weight) for u in units],
        )
        LAST_REPORT = report
        return ShardRun(values=values, report=report)

    _guard_ambient_state()
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    # An explicit placement keeps its shard ids even if some end up
    # empty; the planner otherwise never opens more shards than units.
    if placement is not None:
        if len(placement) != len(units):
            raise ShardError("placement must name one shard per unit")
        plan = ShardPlan.from_partition(placement, shards)
    else:
        plan = ShardPlan.build(units, max(1, min(shards, len(units))))
    method = start_method or default_start_method()
    report = ShardReport(
        n_shards=plan.n_shards, start_method=method, barriers=1,
        placement=[(u.key, plan.shard_of(i), u.weight)
                   for i, u in enumerate(units)],
    )
    values: List[Any] = [None] * len(units)
    # A forked worker flushes its copy of any unwritten parent output.
    sys.stdout.flush()
    sys.stderr.flush()
    with ProcessPoolExecutor(max_workers=plan.n_shards,
                             mp_context=mp.get_context(method)) as pool:
        futures = {
            shard_id: pool.submit(_run_assigned,
                                  [units[i] for i in bucket])
            for shard_id, bucket in enumerate(plan.shards) if bucket
        }
        for shard_id, future in futures.items():
            shard_values, report.shard_walls[shard_id] = future.result()
            for i, value in zip(plan.shards[shard_id], shard_values):
                values[i] = value
    LAST_REPORT = report
    return ShardRun(values=values, report=report)


# ----------------------------------------------------------------------
# Conservation-ledger merge.
# ----------------------------------------------------------------------
def merge_ledgers(ledgers: Sequence) -> "Any":
    """Merge per-shard :class:`~repro.tools.conservation.PacketLedger`s.

    All counts are integers, so summation in fixed shard order is exact;
    the merged ledger balances iff every shard's does plus no packet
    crossed shards unaccounted.
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
