import pytest

from repro.sim.cpu import CpuCategory, CpuModel, ExecContext, LatencyTrace


def test_requires_at_least_one_cpu():
    with pytest.raises(ValueError):
        CpuModel(0)


def test_charge_accumulates_per_cpu_and_category():
    cpu = CpuModel(4)
    cpu.charge(0, CpuCategory.USER, 100)
    cpu.charge(0, CpuCategory.USER, 50)
    cpu.charge(1, CpuCategory.SOFTIRQ, 30)
    assert cpu.busy_ns(cpu=0, category=CpuCategory.USER) == 150
    assert cpu.busy_ns(cpu=1) == 30
    assert cpu.busy_ns() == 180
    assert cpu.busy_ns(category=CpuCategory.SOFTIRQ) == 30


def test_negative_charge_rejected():
    cpu = CpuModel(1)
    with pytest.raises(ValueError):
        cpu.charge(0, CpuCategory.USER, -1)


def test_exec_context_charges_its_category():
    cpu = CpuModel(2)
    ctx = ExecContext(cpu, cpu=1, category=CpuCategory.SOFTIRQ)
    ctx.charge(250)
    assert cpu.busy_ns(cpu=1, category=CpuCategory.SOFTIRQ) == 250
    assert ctx.local_time_ns == 250


def test_exec_context_category_override():
    cpu = CpuModel(1)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    with ctx.as_category(CpuCategory.SYSTEM):
        ctx.charge(100)
    ctx.charge(10)
    assert cpu.busy_ns(category=CpuCategory.SYSTEM) == 100
    assert cpu.busy_ns(category=CpuCategory.USER) == 10


def test_exec_context_rejects_bad_cpu():
    cpu = CpuModel(2)
    with pytest.raises(ValueError):
        ExecContext(cpu, 2, CpuCategory.USER)


def test_latency_trace_collects_components():
    cpu = CpuModel(1)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    trace = LatencyTrace()
    with ctx.tracing(trace):
        ctx.charge(100, label="parse")
        ctx.charge(40, label="parse")
        ctx.wait(1_000, label="sleep")
    ctx.charge(5)  # outside the trace
    assert trace.total_ns == 1_140
    assert trace.components == {"parse": 140, "sleep": 1_000}


def test_wait_adds_latency_without_cpu():
    cpu = CpuModel(1)
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    ctx.wait(500)
    assert cpu.busy_ns() == 0
    assert ctx.local_time_ns == 500


def test_reset_clears_accounting():
    cpu = CpuModel(1)
    cpu.charge(0, CpuCategory.USER, 10)
    cpu.reset()
    assert cpu.busy_ns() == 0
