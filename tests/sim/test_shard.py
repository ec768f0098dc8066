"""Unit tests for :mod:`repro.sim.shard` (DESIGN §17).

The runner functions live at module level so every start method —
including ``spawn``, which imports this module fresh in the child — can
resolve them by name.
"""

import multiprocessing as mp

import pytest

from repro.sim import faults, profile, trace
from repro.sim.profile import collapse
from repro.sim.shard import (
    RunLog,
    ShardError,
    ShardPlan,
    ShardRecorder,
    TraceSnapshot,
    Unit,
    partition_round_robin,
    run_units,
)


# ----------------------------------------------------------------------
# Module-level unit runners (spawn-safe by construction).
# ----------------------------------------------------------------------
def unit_square(x: int) -> int:
    return x * x


def unit_trace(seed: int, n: int = 40) -> float:
    """A deterministic charge stream with order-sensitive floats."""
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


def _observe(units, shards, **kw):
    with profile.profiling() as rec:
        run = run_units(units, shards=shards, **kw)
    return run.values, rec.ledger(), dict(rec.counters), \
        collapse(rec.profiler.root), {k: dict(v)
                                      for k, v in rec.batch_sizes.items()}


# ----------------------------------------------------------------------
# RunLog / snapshot replay.
# ----------------------------------------------------------------------
def test_runlog_compresses_consecutive_equal_values():
    log = RunLog()
    for _ in range(5):
        log.add("a", 2.0)
    log.add("a", 3.0)
    log.add_n("a", 3.0, 7)
    log.add_n("b", 1.5, 2)
    assert log.runs == {"a": [2.0, 5, 3.0, 8], "b": [1.5, 2]}


def test_snapshot_replay_is_bit_identical_not_just_close():
    # 0.1 added 10 times != 1.0: replay must reproduce the exact fold.
    src = ShardRecorder()
    for _ in range(10):
        src.record("s", 0.1)
    dst = trace.TraceRecorder()
    src.snapshot().replay_into(dst)
    assert dst.spans["s"][1] == src.spans["s"][1]
    assert dst.spans["s"][1] != 1.0  # the exact ulps survive

    collapsed = trace.TraceRecorder()
    src.snapshot().replay_into(collapsed, collapse=True)
    assert collapsed.spans["s"][1] == 10 * 0.1  # the mutation differs
    assert collapsed.spans["s"][1] != dst.spans["s"][1]


def test_replay_refuses_open_spans_and_open_profiler_frames():
    snap = TraceSnapshot(spans={"s": [1.0, 1]}, waits={}, nested={},
                         cpu=[], counters={}, batch_sizes={})
    rec = trace.TraceRecorder()
    with rec.span("open"):
        with pytest.raises(ShardError):
            snap.replay_into(rec)

    psnap = TraceSnapshot(spans={}, waits={}, nested={}, cpu=[],
                          counters={}, batch_sizes={},
                          prof_enters={("pmd",): 1})
    prec = trace.TraceRecorder()
    prec.profiler = profile.Profiler()
    prec.profiler.enter("open")
    with pytest.raises(ShardError):
        psnap.replay_into(prec)


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


def test_partition_round_robin():
    assert partition_round_robin(5, 2) == [0, 1, 0, 1, 0]
    with pytest.raises(ShardError):
        partition_round_robin(3, 0)


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
    assert run.report.payload_bytes == 0  # no recorder: no snapshots


def test_never_opens_more_shards_than_units():
    run = run_units(_units(2), shards=8)
    assert run.report.n_shards == 2


def test_sharded_observables_byte_identical_to_serial():
    units = _units(5, runner="tests.sim.test_shard:unit_trace")
    serial = _observe(units, shards=1)
    for shards in (2, 3):
        assert _observe(units, shards=shards) == serial


def test_explicit_placement_never_changes_observables():
    units = _units(4, runner="tests.sim.test_shard:unit_trace")
    serial = _observe(units, shards=1)
    for placement in ([0, 1, 2, 0], [2, 2, 2, 2], [1, 0, 1, 0]):
        assert _observe(units, shards=3, placement=placement) == serial


def test_merge_mutations_change_the_ledger():
    units = _units(4, runner="tests.sim.test_shard:unit_trace")
    serial = _observe(units, shards=1)
    for mutation in ("reorder", "collapse"):
        mutated = _observe(units, shards=2, _mutate_merge=mutation)
        assert mutated[1] != serial[1], mutation  # ledger bytes differ


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


def test_ambient_fault_plan_is_refused_when_sharded():
    plan = faults.FaultPlan(seed=1, rules=(
        faults.FaultRule("afxdp.tx_kick_eagain", rate=0.5),))
    with faults.injecting(plan):
        with pytest.raises(ShardError, match="ambient FaultPlan"):
            run_units(_units(2), shards=2)
        # Unit plans cannot nest inside it either, even inline.
        with pytest.raises(ShardError, match="cannot nest"):
            run_units(_units(2, plan=dict(seed=2)), shards=1)


def test_attached_metrics_sampler_is_refused_when_sharded():
    rec = trace.TraceRecorder()
    rec.sampler = object()
    with trace.recording(rec):
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
    serial = _observe(units, shards=1)
    sharded = _observe(units, shards=2, start_method=method)
    assert sharded == serial
