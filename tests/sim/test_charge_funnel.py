"""The trace-attached charge funnel against its oracle.

``ExecContext.charge``/``charge_n``/``wait`` fold ``LatencyTrace.add``
inline when a trace is attached (a latency run makes every charge that
way).  ``LatencyTrace.add`` stays as the definition: an untraced context
plus explicit ``add`` calls must give the same floats in the same dict
order as the traced funnel, whatever the sequence, with or without a
ledger recorder listening.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import trace as ledger
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext, LatencyTrace

CATEGORIES = [None] + list(CpuCategory)
#: Amounts whose sums depend on the order of addition, plus the zero
#: that ``charge`` skips and ``wait`` does not.
AMOUNTS = st.sampled_from([0, 0.0, 0.07, 0.1, 0.2, 0.3, 0.35, 2.1, 1 / 3,
                           7, 1e9, 1e-9, 12_345.678])
LABELS = st.sampled_from(["a", "b", "c", "rx_batch", "work"])

OPS = st.lists(st.one_of(
    st.tuples(st.just("charge"), AMOUNTS, LABELS,
              st.sampled_from(CATEGORIES)),
    st.tuples(st.just("charge_n"), AMOUNTS, LABELS,
              st.sampled_from(CATEGORIES), st.integers(-1, 5)),
    st.tuples(st.just("wait"), AMOUNTS, LABELS),
), max_size=40)


def traced(ops):
    """The funnel: every op through a context with a trace attached."""
    cpu = CpuModel(2)
    ctx = ExecContext(cpu, 1, CpuCategory.USER)
    trace = LatencyTrace()
    with ctx.tracing(trace):
        for op, ns, label, *rest in ops:
            if op == "charge":
                ctx.charge(ns, label=label, category=rest[0])
            elif op == "charge_n":
                ctx.charge_n(ns, rest[1], label=label, category=rest[0])
            else:
                ctx.wait(ns, label=label)
    return trace, cpu, ctx


def oracle(ops):
    """An untraced context for the lanes; ``LatencyTrace.add`` called by
    hand where the funnel's contract says a trace sees the time."""
    cpu = CpuModel(2)
    ctx = ExecContext(cpu, 1, CpuCategory.USER)
    trace = LatencyTrace()
    for op, ns, label, *rest in ops:
        if op == "charge":
            ctx.charge(ns, label=label, category=rest[0])
            if ns != 0:
                trace.add(ns, label)
        elif op == "charge_n":
            for _ in range(rest[1]):
                ctx.charge(ns, label=label, category=rest[0])
                if ns != 0:
                    trace.add(ns, label)
        else:
            ctx.wait(ns, label=label)
            trace.add(ns, label)  # a zero wait still names its label
    return trace, cpu, ctx


def same(a, b):
    (trace_a, cpu_a, ctx_a), (trace_b, cpu_b, ctx_b) = a, b
    assert trace_a.total_ns == trace_b.total_ns
    assert list(trace_a.components.items()) \
        == list(trace_b.components.items())  # values and insertion order
    assert cpu_a._busy == cpu_b._busy
    assert ctx_a.local_time_ns == ctx_b.local_time_ns


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_traced_funnel_equals_latency_trace_add(ops):
    same(traced(ops), oracle(ops))


@settings(max_examples=50, deadline=None)
@given(OPS)
def test_traced_funnel_equals_oracle_under_a_recorder(ops):
    with ledger.recording() as rec_a:
        a = traced(ops)
    with ledger.recording() as rec_b:
        b = oracle(ops)
    same(a, b)
    assert rec_a.ledger() == rec_b.ledger()
    assert rec_a.conserved()


def test_funnel_has_teeth():
    """Order matters for these floats, so the comparison above is not
    vacuous: the same amounts in another order differ."""
    ops = [("charge", 0.1, "a", None), ("charge", 0.2, "a", None),
           ("charge", 0.3, "a", None)]
    forward, backward = traced(ops)[0], traced(ops[::-1])[0]
    assert forward.total_ns != backward.total_ns


def test_negative_amounts_still_rejected_with_a_trace():
    trace, _cpu, ctx = traced([])
    with ctx.tracing(trace):
        for call in (lambda: ctx.charge(-1), lambda: ctx.charge_n(-1, 2),
                     lambda: ctx.wait(-1)):
            with pytest.raises(ValueError):
                call()
    assert trace.total_ns == 0 and not trace.components


# ----------------------------------------------------------------------
# as_category
# ----------------------------------------------------------------------
def test_as_category_restores_on_exception():
    ctx = ExecContext(CpuModel(1), 0, CpuCategory.USER)
    with pytest.raises(RuntimeError):
        with ctx.as_category(CpuCategory.SYSTEM):
            assert ctx.category is CpuCategory.SYSTEM
            raise RuntimeError("syscall failed")
    assert ctx.category is CpuCategory.USER


def test_as_category_nests_and_unwinds_in_order():
    cpu = CpuModel(1)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    with ctx.as_category(CpuCategory.SYSTEM):
        ctx.charge(1)
        with ctx.as_category(CpuCategory.SOFTIRQ):
            ctx.charge(10)
            with ctx.as_category(CpuCategory.SOFTIRQ):  # same one again
                ctx.charge(100)
            assert ctx.category is CpuCategory.SOFTIRQ
        assert ctx.category is CpuCategory.SYSTEM
        ctx.charge(1_000)
    assert ctx.category is CpuCategory.USER
    assert cpu.busy_ns(category=CpuCategory.SYSTEM) == 1_001
    assert cpu.busy_ns(category=CpuCategory.SOFTIRQ) == 110
    assert cpu.busy_ns(category=CpuCategory.USER) == 0


def test_as_category_scope_swaps_only_while_entered():
    ctx = ExecContext(CpuModel(1), 0, CpuCategory.USER)
    scope = ctx.as_category(CpuCategory.SYSTEM)
    assert ctx.category is CpuCategory.USER  # not yet
    with scope:
        assert ctx.category is CpuCategory.SYSTEM
    assert ctx.category is CpuCategory.USER


def test_as_category_scope_is_not_a_generator():
    """One per tx kick and per vhost-net pump: a slotted object, no
    ``contextlib`` frames."""
    scope = ExecContext(CpuModel(1), 0, CpuCategory.USER).as_category(
        CpuCategory.SYSTEM)
    assert not hasattr(scope, "__dict__")
    assert type(scope).__module__ == "repro.sim.cpu"
