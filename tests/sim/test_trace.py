"""The trace ledger: spans, counters, nesting, conservation, overhead."""

import tracemalloc

import pytest

from repro.sim import trace
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.trace import TraceRecorder


@pytest.fixture
def world():
    cpu = CpuModel(2)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    return cpu, ctx


# ----------------------------------------------------------------------
# Basic span / counter recording.
# ----------------------------------------------------------------------
def test_spans_aggregate_per_stage(world):
    _cpu, ctx = world
    with trace.recording() as rec:
        ctx.charge(100.0, label="parse")
        ctx.charge(50.0, label="parse")
        ctx.charge(7.0, label="emc")
    assert rec.span_count("parse") == 2
    assert rec.span_ns("parse") == 150.0
    assert rec.span_ns("emc") == 7.0
    assert rec.total_ns == 157.0


def test_counters_aggregate(world):
    with trace.recording() as rec:
        trace.count("emc.hit")
        trace.count("emc.hit")
        trace.count("bytes", 1500)
    assert rec.counter("emc.hit") == 2
    assert rec.counter("bytes") == 1500
    assert rec.counter("never") == 0


def test_waits_are_separate_from_spans(world):
    _cpu, ctx = world
    with trace.recording() as rec:
        ctx.charge(100.0, label="work")
        ctx.wait(1_000.0, label="irq_wakeup")
    assert rec.total_ns == 100.0
    assert rec.total_wait_ns == 1_000.0
    assert "irq_wakeup" not in rec.spans
    assert rec.conserved()  # waits never unbalance the CPU ledger


# ----------------------------------------------------------------------
# Nested spans.
# ----------------------------------------------------------------------
def test_nested_spans_fold_inclusive_totals(world):
    _cpu, ctx = world
    with trace.recording() as rec:
        with rec.span("upcall"):
            ctx.charge(30.0, label="classifier")
            with rec.span("xlate"):
                ctx.charge(12.0, label="actions")
        ctx.charge(5.0, label="emc")
    assert rec.span_totals["upcall"] == [1, 42.0]
    assert rec.span_totals["upcall/xlate"] == [1, 12.0]
    # The flat ledger is unaffected: no double counting.
    assert rec.total_ns == 47.0
    assert rec.conserved()


def test_module_level_span_passthrough_when_disabled():
    assert trace.ACTIVE is None
    with trace.span("anything"):
        pass  # must not raise, must not record


# ----------------------------------------------------------------------
# Attach / detach discipline.
# ----------------------------------------------------------------------
def test_double_attach_is_an_error():
    with trace.recording():
        with pytest.raises(RuntimeError):
            trace.attach(TraceRecorder())
    assert trace.ACTIVE is None


def test_recording_detaches_on_exception(world):
    _cpu, ctx = world
    with pytest.raises(ValueError):
        with trace.recording():
            raise ValueError("boom")
    assert trace.ACTIVE is None


def test_isolated_shelves_the_outer_recorder_and_reattaches_it():
    with trace.recording() as outer:
        with pytest.raises(ValueError):
            with trace.isolated() as inner:
                assert trace.ACTIVE is inner and inner is not outer
                trace.count("inner.only")
                raise ValueError("boom")
        assert trace.ACTIVE is outer
        assert "inner.only" not in outer.counters
    with trace.isolated() as inner:  # no outer recorder: none comes back
        assert trace.ACTIVE is inner
    assert trace.ACTIVE is None


def test_reset_clears_everything(world):
    _cpu, ctx = world
    with trace.recording() as rec:
        ctx.charge(10.0, label="a")
        trace.count("x")
        with rec.span("s"):
            ctx.charge(1.0, label="b")
    rec.reset()
    assert rec.total_ns == 0.0
    assert not rec.counters and not rec.spans and not rec.span_totals
    assert rec.cpu_charged_ns == 0.0


# ----------------------------------------------------------------------
# Conservation invariant.
# ----------------------------------------------------------------------
def test_conservation_holds_for_context_charges(world):
    _cpu, ctx = world
    with trace.recording() as rec:
        for i in range(100):
            ctx.charge(float(i), label=f"stage{i % 5}")
    assert rec.conserved()
    assert rec.total_ns == rec.cpu_charged_ns


def test_conservation_catches_funnel_bypass(world):
    cpu, ctx = world
    with trace.recording() as rec:
        ctx.charge(100.0, label="good")
        # A direct CpuModel charge bypasses the labelled funnel: the
        # CPU-side tally sees it, the span ledger does not.
        cpu.charge(0, CpuCategory.USER, 50.0)
    assert not rec.conserved()
    assert rec.cpu_charged_ns == 150.0
    assert rec.total_ns == 100.0


# ----------------------------------------------------------------------
# Deterministic ledger.
# ----------------------------------------------------------------------
def test_ledger_is_deterministic(world):
    def run() -> str:
        cpu = CpuModel(2)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        with trace.recording() as rec:
            ctx.charge(3.7, label="b")
            ctx.charge(1.1, label="a")
            trace.count("z")
            ctx.wait(4.2, label="w")
            with rec.span("outer"):
                ctx.charge(0.3, label="a")
        return rec.ledger()

    first, second = run(), run()
    assert first == second
    assert "span a count=2" in first
    assert "counter z 1" in first
    assert "cpu_charged_ns=" in first


def test_render_mentions_every_stage(world):
    _cpu, ctx = world
    with trace.recording() as rec:
        ctx.charge(90.0, label="big")
        ctx.charge(10.0, label="small")
    table = rec.render()
    assert "big" in table and "small" in table
    assert "90.0%" in table


# ----------------------------------------------------------------------
# Disabled-path overhead: no allocation attributable to the trace layer.
# ----------------------------------------------------------------------
def test_disabled_recorder_allocates_nothing(world):
    _cpu, ctx = world
    assert trace.ACTIVE is None
    for _ in range(16):  # warm any lazy caches outside the window
        ctx.charge(1.0, label="hot")
        trace.count("warm")
    tracemalloc.start()
    try:
        for _ in range(2_000):
            ctx.charge(1.0, label="hot")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(True, trace.__file__)]
    ).statistics("lineno")
    assert not stats, f"trace layer allocated while disabled: {stats}"
