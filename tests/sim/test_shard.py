"""Unit tests for :mod:`repro.sim.shard` (DESIGN §17).

The runner functions live at module level so every start method —
including ``spawn``, which imports this module fresh in the child — can
resolve them by name.
"""

import itertools
import multiprocessing as mp
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import telemetry
from repro.sim import faults, profile, trace
from repro.sim.profile import MetricsSampler
from repro.sim.shard import ShardError, Unit, run_one_unit, run_units
from repro.telemetry import Telemetry


# ----------------------------------------------------------------------
# Module-level unit runners (spawn-safe by construction).
# ----------------------------------------------------------------------
def unit_square(x: int) -> int:
    return x * x


def unit_pid(seed: int) -> int:
    return os.getpid()


def unit_exit(code: int) -> None:
    """A worker that dies mid-unit, without a traceback."""
    os._exit(code)


def unit_trace(seed: int, n: int = 40) -> float:
    """An order-sensitive float sum, also charged to the attached
    recorder when there is one."""
    rec = trace.ACTIVE
    total = 0.0
    for i in range(n):
        v = ((seed + 1) * 1.0000001 + i * 0.3333333) % 7.7
        total += v
        if rec is None:
            continue
        rec.record("work", v)
        rec.record("tick", 0.1)  # repeated non-dyadic: collapse-sensitive
        for _ in range(3):
            rec.record("burst", 0.3)
        if i % 5 == 0:
            rec.record_wait("wait", v / 2)
        rec.note_cpu(v)
        trace.count("unit.events")
        with rec.span("outer"):
            rec.record("inner", v * 0.5)
    return total


def unit_faulty(n: int, plan: dict) -> int:
    """Counts fault decisions under the unit's own plan, which it
    installs itself (``plan`` is the ``FaultPlan`` constructor kwargs)."""
    fired = 0
    with faults.injecting(faults.FaultPlan(**plan)) as installed:
        for _ in range(n):
            if installed.should_fire("afxdp.tx_kick_eagain"):
                fired += 1
    return fired


def _units(n, runner="tests.sim.test_shard:unit_square"):
    return [Unit(key=f"u{i}", runner=runner,
                 params=dict(x=i) if "square" in runner else dict(seed=i))
            for i in range(n)]


def _faulty_units(n, rate=0.25):
    return [Unit(key=i, runner="tests.sim.test_shard:unit_faulty",
                 params=dict(n=200, plan=dict(seed=7 + i, rules=(
                     faults.FaultRule("afxdp.tx_kick_eagain", rate=rate),))))
            for i in range(n)]


def _inline(units, order):
    """Run ``units`` inline in the execution ``order`` (a permutation of
    their indices); values back in unit order."""
    values = {i: run_one_unit(units[i]) for i in order}
    return [values[i] for i in range(len(units))]


# ----------------------------------------------------------------------
# run_units: degenerate, sharded, guards.
# ----------------------------------------------------------------------
def test_degenerate_run_is_inline_and_ordered():
    assert run_units(_units(4), shards=1) == [0, 1, 4, 9]
    pids = run_units(_units(3, runner="tests.sim.test_shard:unit_pid"),
                     shards=1)
    assert pids == [os.getpid()] * 3


def test_sharded_values_keep_serial_order():
    assert run_units(_units(5), shards=2) == [0, 1, 4, 9, 16]
    # The pool really ran: no unit ran in this process.
    pids = run_units(_units(3, runner="tests.sim.test_shard:unit_pid"),
                     shards=2)
    assert os.getpid() not in pids


def test_never_opens_more_shards_than_units(monkeypatch):
    import concurrent.futures

    opened = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            opened.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert run_units(_units(2), shards=8) == [0, 1]
    assert opened == [2]


def test_sharded_observables_byte_identical_to_serial():
    units = _units(5, runner="tests.sim.test_shard:unit_trace")
    serial = run_units(units, shards=1)
    for shards in (2, 3):
        assert run_units(units, shards=shards) == serial


def test_execution_order_never_changes_observables():
    units = _units(4, runner="tests.sim.test_shard:unit_trace")
    serial = run_units(units, shards=1)
    for order in itertools.permutations(range(4)):
        assert _inline(units, order) == serial


def test_unit_scoped_fault_plans_are_schedule_independent():
    units = _faulty_units(4)
    serial = run_units(units, shards=1)
    assert sum(serial) > 0  # the plan actually fires
    for order in itertools.permutations(range(4)):
        assert _inline(units, order) == serial
    for shards in (2, 3):
        assert run_units(units, shards=shards) == serial


def test_a_dead_worker_names_its_unit():
    units = _units(3) + [Unit(key="doomed",
                              runner="tests.sim.test_shard:unit_exit",
                              params=dict(code=3))]
    with pytest.raises(ShardError,
                       match=r"unit 'doomed' died .*exit code 3\)") as info:
        run_units(units, shards=2)
    assert isinstance(info.value.__cause__, BrokenProcessPool)


def _sampled():
    return profile.profiling(sampler=MetricsSampler())


def _faulty():
    return faults.injecting(faults.FaultPlan(seed=1, rules=(
        faults.FaultRule("afxdp.tx_kick_eagain", rate=0.5),)))


#: Every plane that can be attached in the calling process, and the
#: name the refusal gives it.
PLANES = {
    "trace recorder": trace.recording,
    "profiler": profile.profiling,
    "MetricsSampler": _sampled,
    "FaultPlan": _faulty,
    "telemetry session": lambda: telemetry.monitoring(Telemetry()),
}


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_an_attached_plane_is_refused_when_sharded(plane):
    units = _units(2, runner="tests.sim.test_shard:unit_trace")
    with PLANES[plane]():
        with pytest.raises(ShardError, match=f"ambient {plane} is attached"):
            run_units(units, shards=2)


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_an_attached_plane_runs_inline(plane):
    units = _units(2, runner="tests.sim.test_shard:unit_trace")
    with PLANES[plane]():
        assert run_units(units, shards=1) == \
            [unit_trace(**u.params) for u in units]
        rec = trace.ACTIVE
        if rec is not None:  # the inline units charged this recorder
            assert rec.spans["work"][0] == 2 * 2 * 40


def test_ambient_fault_plan_is_refused_when_sharded():
    with _faulty():
        with pytest.raises(ShardError, match="ambient FaultPlan"):
            run_units(_units(2), shards=2)
        # A unit's own plan cannot nest inside it either, even inline.
        with pytest.raises(RuntimeError, match="already installed"):
            run_units(_faulty_units(2), shards=1)


def test_attached_metrics_sampler_is_refused_when_sharded():
    with _sampled():
        with pytest.raises(ShardError, match="MetricsSampler"):
            run_units(_units(2), shards=2)


def test_bad_runner_specs_raise_shard_errors():
    with pytest.raises(ShardError, match="not 'module:function'"):
        run_units([Unit(key="k", runner="no_colon")], shards=1)
    with pytest.raises(ShardError, match="not found"):
        run_units([Unit(key="k",
                        runner="tests.sim.test_shard:missing")], shards=1)


# ----------------------------------------------------------------------
# Start methods (spawn-safety satellite).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", mp.get_all_start_methods())
def test_every_start_method_merges_byte_identically(method):
    units = _units(3, runner="tests.sim.test_shard:unit_trace")
    assert run_units(units, shards=2, start_method=method) == \
        run_units(units, shards=1)
