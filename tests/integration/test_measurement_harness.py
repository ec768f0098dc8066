"""The measurement harness itself: reduce_run and SMT arithmetic."""

import pytest

from repro.experiments.common import CpuSnapshot, reduce_run
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.stats import SMT_SIBLING_EFFICIENCY, smt_effective_lanes


class TestSmtLanes:
    def test_one_lane(self):
        assert smt_effective_lanes(1, 16) == 1.0

    def test_up_to_physical_cores_linear(self):
        assert smt_effective_lanes(8, 16) == 8.0

    def test_all_hyperthreads(self):
        # 16 HT on 8 physical cores: every core paired.
        expected = 8 * 2 * SMT_SIBLING_EFFICIENCY
        assert smt_effective_lanes(16, 16) == pytest.approx(expected)

    def test_partial_pairing(self):
        # 10 busy HTs on 8 cores: 6 solo + 2 paired cores.
        expected = 6 + 2 * 2 * SMT_SIBLING_EFFICIENCY
        assert smt_effective_lanes(10, 16) == pytest.approx(expected)

    def test_bounds(self):
        with pytest.raises(ValueError):
            smt_effective_lanes(17, 16)
        with pytest.raises(ValueError):
            smt_effective_lanes(-1, 16)


class TestReduceRun:
    def test_single_lane_rate(self):
        cpu = CpuModel(4)
        before = CpuSnapshot.take(cpu)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        ctx.charge(100_000)  # 100 us for 1000 packets = 10 Mpps
        m = reduce_run(cpu, before, 1_000)
        assert m.mpps == pytest.approx(10.0)
        assert m.ns_per_packet == pytest.approx(100.0)
        assert m.n_busy_lanes == 1
        assert m.cpu_util["user"] == pytest.approx(1.0)

    def test_pipeline_bottleneck(self):
        cpu = CpuModel(4)
        before = CpuSnapshot.take(cpu)
        ExecContext(cpu, 0, CpuCategory.USER).charge(100_000)
        ExecContext(cpu, 1, CpuCategory.SOFTIRQ).charge(50_000)
        m = reduce_run(cpu, before, 1_000)
        # The slower stage limits throughput; SMT pairs cpus 0/1 though,
        # so two busy lanes on one physical core get derated.
        assert m.wall_ns == 100_000
        assert m.cpu_util["softirq"] == pytest.approx(0.5)
        assert m.cpu_util["total"] == pytest.approx(1.5)

    def test_line_rate_cap(self):
        cpu = CpuModel(2)
        before = CpuSnapshot.take(cpu)
        ExecContext(cpu, 0, CpuCategory.USER).charge(10_000)  # 100 Mpps raw
        m = reduce_run(cpu, before, 1_000, link_gbps=10, frame_len=64)
        assert m.capped_by_line
        assert m.mpps == pytest.approx(14.88, abs=0.01)

    def test_poll_idle_topup(self):
        cpu = CpuModel(4)
        before = CpuSnapshot.take(cpu)
        ExecContext(cpu, 0, CpuCategory.SOFTIRQ).charge(100_000)
        pmd = ExecContext(cpu, 2, CpuCategory.USER)
        pmd.charge(30_000)  # mostly idle-polling
        m = reduce_run(cpu, before, 1_000, pmd_cpus=(2,))
        # The PMD burns its whole window: 0.3 busy + 0.7 poll-idle.
        assert m.cpu_util["user"] == pytest.approx(1.0)
        assert m.cpu_util["total"] == pytest.approx(2.0)

    def test_poll_idle_is_reported_as_user(self):
        cpu = CpuModel(1)
        before = CpuSnapshot.take(cpu)
        ExecContext(cpu, 0, CpuCategory.USER).charge(300)
        ExecContext(cpu, 0, CpuCategory.POLL_IDLE).charge(700)
        m = reduce_run(cpu, before, 1)
        assert m.cpu_util["user"] == pytest.approx(1.0)
        assert m.cpu_util["total"] == pytest.approx(1.0)
        assert "poll_idle" not in m.cpu_util

    def test_requires_work(self):
        cpu = CpuModel(1)
        before = CpuSnapshot.take(cpu)
        with pytest.raises(RuntimeError, match="nothing was measured"):
            reduce_run(cpu, before, 10)
        with pytest.raises(ValueError):
            reduce_run(cpu, before, 0)
