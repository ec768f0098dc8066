"""Unit tests for :mod:`repro.sim.shard` (DESIGN §17).

The runner functions live at module level so every start method —
including ``spawn``, which imports this module fresh in the child — can
resolve them by name.
"""

import multiprocessing as mp

import pytest

from repro import telemetry
from repro.sim import faults, profile, trace
from repro.sim.profile import MetricsSampler
from repro.sim.shard import ShardError, ShardPlan, Unit, run_units
from repro.telemetry import Telemetry


# ----------------------------------------------------------------------
# Module-level unit runners (spawn-safe by construction).
# ----------------------------------------------------------------------
def unit_square(x: int) -> int:
    return x * x


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
        rec.record_n("burst", 0.3, 3)
        if i % 5 == 0:
            rec.record_wait("wait", v / 2)
        rec.note_cpu(v)
        trace.count("unit.events")
        with rec.span("outer"):
            rec.record("inner", v * 0.5)
        rec.note_batch("rx", 1 + (i % 4))
    return total


def unit_faulty(n: int) -> int:
    """Counts fault decisions under the ambient (unit-scoped) plan."""
    plan = faults.ACTIVE
    assert plan is not None, "unit plan was not installed"
    fired = 0
    for _ in range(n):
        if plan.should_fire("afxdp.tx_kick_eagain"):
            fired += 1
    return fired


def _units(n, runner="tests.sim.test_shard:unit_square", **extra):
    return [Unit(key=f"u{i}", runner=runner,
                 params=dict(x=i) if "square" in runner
                 else dict(seed=i), weight=1.0 + (i % 3), **extra)
            for i in range(n)]


def _values(units, shards, **kw):
    return run_units(units, shards=shards, **kw).values


# ----------------------------------------------------------------------
# Placement.
# ----------------------------------------------------------------------
def test_plan_is_a_pure_function_of_units_and_shard_count():
    units = _units(7)
    assert ShardPlan.build(units, 3).shards == \
        ShardPlan.build(units, 3).shards


def test_plan_lpt_puts_the_heaviest_unit_alone():
    units = [Unit(key="heavy", runner="x:y", weight=10.0),
             Unit(key="a", runner="x:y", weight=1.0),
             Unit(key="b", runner="x:y", weight=1.0)]
    plan = ShardPlan.build(units, 2)
    assert plan.shards == [[0], [1, 2]]
    assert plan.shard_of(0) == 0 and plan.shard_of(2) == 1


def test_plan_buckets_keep_serial_order():
    plan = ShardPlan.build(_units(9), 2)
    for bucket in plan.shards:
        assert bucket == sorted(bucket)


def test_from_partition_validates():
    plan = ShardPlan.from_partition([1, 0, 1], 2)
    assert plan.shards == [[1], [0, 2]]
    with pytest.raises(ShardError):
        ShardPlan.from_partition([0, 2], 2)
    with pytest.raises(ShardError):
        ShardPlan.from_partition([], 0)
    with pytest.raises(ShardError):
        run_units(_units(3), shards=2, placement=[0, 1])  # wrong length


# ----------------------------------------------------------------------
# run_units: degenerate, sharded, guards.
# ----------------------------------------------------------------------
def test_degenerate_run_is_inline_and_ordered():
    run = run_units(_units(4), shards=1)
    assert run.values == [0, 1, 4, 9]
    assert run.report.degenerate and run.report.n_shards == 1
    assert run.report.barriers == 0
    assert run.by_key(_units(4)) == {"u0": 0, "u1": 1, "u2": 4, "u3": 9}


def test_sharded_values_keep_serial_order():
    run = run_units(_units(5), shards=2)
    assert run.values == [0, 1, 4, 9, 16]
    assert run.report.n_shards == 2
    assert not run.report.degenerate
    assert run.report.barriers == 1


def test_never_opens_more_shards_than_units():
    run = run_units(_units(2), shards=8)
    assert run.report.n_shards == 2


def test_sharded_observables_byte_identical_to_serial():
    units = _units(5, runner="tests.sim.test_shard:unit_trace")
    serial = _values(units, shards=1)
    for shards in (2, 3):
        assert _values(units, shards=shards) == serial


def test_explicit_placement_never_changes_observables():
    units = _units(4, runner="tests.sim.test_shard:unit_trace")
    serial = _values(units, shards=1)
    for placement in ([0, 1, 2, 0], [2, 2, 2, 2], [1, 0, 1, 0]):
        assert _values(units, shards=3, placement=placement) == serial


def test_unit_scoped_fault_plans_are_schedule_independent():
    units = [Unit(key=i, runner="tests.sim.test_shard:unit_faulty",
                  params=dict(n=200),
                  plan=dict(seed=7 + i, rules=(
                      faults.FaultRule("afxdp.tx_kick_eagain", rate=0.25),
                  )))
             for i in range(4)]
    serial = run_units(units, shards=1).values
    assert sum(serial) > 0  # the plan actually fires
    assert run_units(units, shards=2).values == serial
    assert run_units(units, shards=3,
                     placement=[2, 0, 2, 1]).values == serial


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
        assert _values(units, shards=1) == \
            [unit_trace(**u.params) for u in units]
        rec = trace.ACTIVE
        if rec is not None:  # the inline units charged this recorder
            assert rec.spans["work"][0] == 2 * 2 * 40


def test_ambient_fault_plan_is_refused_when_sharded():
    with _faulty():
        with pytest.raises(ShardError, match="ambient FaultPlan"):
            run_units(_units(2), shards=2)
        # Unit plans cannot nest inside it either, even inline.
        with pytest.raises(ShardError, match="cannot nest"):
            run_units(_units(2, plan=dict(seed=2)), shards=1)


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
    assert _values(units, shards=2, start_method=method) == \
        _values(units, shards=1)
