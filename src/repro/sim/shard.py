"""Process-level parallelism for independent units of work (DESIGN §17).

One CPython interpreter runs every PMD, softirq lane and experiment
cell.  What scales across processes is work that is independent by
construction: the experiments of ``python -m repro``, the cells of the
perf matrix, the ports of a fault-plan world.  :func:`run_units` takes
such work as a sequence of *units* — each builds its own world, clock
and RNG streams and returns a picklable value — and runs it either
inline (``shards=1``) or on a pool of worker processes that pull the
next unit as they go idle.  Values come back in the order the units
were given, so the result is the same list either way.

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
import signal
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim import faults as _faults
from repro.sim import trace as _trace


class ShardError(RuntimeError):
    """A sharding contract violation (attached plane, bad runner, a
    worker that died mid-unit, ...)."""


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - macOS/Windows
        return os.cpu_count() or 1


def default_start_method() -> str:
    """``fork`` where available (cheap), else the platform default."""
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class Unit:
    """One independent work item.

    ``runner`` is a ``"package.module:function"`` string resolved *in
    the worker* (spawn-safe: no callables cross the process boundary);
    ``params`` are its picklable keyword arguments.  ``plan`` optionally
    carries a unit-scoped fault-plan spec (``FaultPlan`` constructor
    kwargs) installed around just this unit, identically on the inline
    and the worker path.
    """

    key: Any
    runner: str
    params: Dict[str, Any] = field(default_factory=dict)
    plan: Optional[Dict[str, Any]] = None


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


#: Set in worker processes only: one slot per unit of the pool's run,
#: holding the pid of the worker running that unit (0 when none is), so
#: the coordinator can name the unit a dead worker was running.
_RUNNING = None


def _clear_inherited_globals(running=None) -> None:
    """The pool's initializer.  Forked workers inherit the parent's
    module globals; a worker's planes must start clean (spawned workers
    start clean anyway)."""
    global _RUNNING
    _RUNNING = running
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


def _run_pooled(index: int, unit: Unit) -> Any:
    """A worker's task: :func:`run_one_unit`, with the unit's slot
    stamped while it runs."""
    _RUNNING[index] = os.getpid()
    try:
        return run_one_unit(unit)
    finally:
        _RUNNING[index] = 0


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


def _dead_worker(units: List[Unit], running,
                 exits: Dict[int, Optional[int]]) -> str:
    """Which unit(s) a broken pool's dead worker was running."""
    # Once one worker dies the pool SIGTERMs the rest: the culprit is
    # the stamped worker that exited some other way.
    dead = [f"unit {units[i].key!r} died with worker {pid} "
            f"(exit code {exits[pid]})"
            for i, pid in enumerate(running)
            if pid in exits and exits[pid] not in (None, -signal.SIGTERM)]
    return ", ".join(dead) or "no unit was running"


def run_units(
    units: Sequence[Unit],
    shards: int = 1,
    start_method: Optional[str] = None,
) -> List[Any]:
    """Run ``units`` on ``shards`` workers; values in the given order.

    ``shards <= 1`` runs every unit inline, in order, in this process,
    under whatever planes are attached.  With ``shards > 1`` no plane
    may be attached here (:class:`ShardError` names the one that is);
    the units are queued in the given order, each idle worker takes the
    next one, and only their return values come back.  ``start_method``
    overrides :func:`default_start_method` (the tests' seam).
    """
    units = list(units)
    if shards <= 1:
        return [run_one_unit(unit) for unit in units]

    _guard_ambient_state()
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ctx = mp.get_context(start_method or default_start_method())
    running = ctx.RawArray("l", len(units))
    # A forked worker flushes its copy of any unwritten parent output.
    sys.stdout.flush()
    sys.stderr.flush()
    with ProcessPoolExecutor(max_workers=min(shards, len(units)),
                             mp_context=ctx,
                             initializer=_clear_inherited_globals,
                             initargs=(running,)) as pool:
        futures = [pool.submit(_run_pooled, i, unit)
                   for i, unit in enumerate(units)]
        # The pool's own process table, read for exit codes only.
        workers = pool._processes
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            pool.shutdown()
            exits = {pid: p.exitcode for pid, p in workers.items()}
            raise ShardError(f"the worker pool broke: "
                             f"{_dead_worker(units, running, exits)}"
                             ) from exc


# ----------------------------------------------------------------------
# Conservation-ledger merge.
# ----------------------------------------------------------------------
def merge_ledgers(ledgers: Sequence) -> "Any":
    """Merge per-unit :class:`~repro.tools.conservation.PacketLedger`s.

    All counts are integers, so the sum is exact in any order; the
    merged ledger balances iff every unit's does.
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
