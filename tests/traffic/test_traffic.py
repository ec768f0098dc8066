import pytest

from repro.net.flow import extract_flow
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext, LatencyTrace
from repro.traffic.iperf import measure_throughput
from repro.traffic.netperf import TcpRrRunner
from repro.traffic.trex import FlowSpec, TrexStream, max_lossless_mpps


class TestTrexStream:
    def test_single_flow_identical_packets(self):
        stream = TrexStream(FlowSpec(n_flows=1), frame_len=64)
        a, b = stream.next_packet(), stream.next_packet()
        assert a.data == b.data
        assert stream.distinct_flows == 1

    def test_frame_length_convention(self):
        stream = TrexStream(FlowSpec(), frame_len=64)
        assert len(stream.next_packet()) == 60  # 64 on the wire incl FCS
        big = TrexStream(FlowSpec(), frame_len=1518)
        assert len(big.next_packet()) == 1514

    def test_thousand_flows_distinct(self):
        stream = TrexStream(FlowSpec(n_flows=1000), frame_len=64)
        assert stream.distinct_flows > 950  # rng collisions possible, few

    def test_deterministic(self):
        s1 = TrexStream(FlowSpec(n_flows=100))
        s2 = TrexStream(FlowSpec(n_flows=100))
        assert [s1.next_packet().data for _ in range(50)] == [
            s2.next_packet().data for _ in range(50)
        ]

    def test_template_fast_path_matches_full_builds(self):
        """Multi-flow streams build frames by patching a template; every
        frame (bytes, offsets, checksum) must equal a from-scratch
        make_udp_packet build for the same addresses."""
        from repro.net.addresses import MacAddress, ip_to_int
        from repro.net.builder import make_udp_packet
        from repro.net.ipv4 import Ipv4Header
        from repro.sim.rng import make_rng

        spec = FlowSpec(n_flows=64)
        stream = TrexStream(spec, frame_len=64)
        rng = make_rng("trex", 64, 64, 42)
        src_base, dst_base = ip_to_int(spec.src_base), ip_to_int(spec.dst_base)
        for i, pkt in enumerate(stream._packets):
            src = src_base + rng.randrange(100_000)
            dst = dst_base + rng.randrange(100_000)
            ref = make_udp_packet(
                MacAddress.local(0xE0001), MacAddress.local(0xE0002),
                src, dst, spec.src_port, spec.dst_port,
                frame_len=64, fill_checksum=False)
            assert pkt.data == ref.data, f"flow {i} diverged"
            assert pkt.meta.l3_offset == ref.meta.l3_offset
            assert pkt.meta.l4_offset == ref.meta.l4_offset
            hdr = Ipv4Header.unpack(pkt.data, 14)
            assert (hdr.src, hdr.dst) == (src, dst)

    def test_cycles_through_flows(self):
        stream = TrexStream(FlowSpec(n_flows=3))
        keys = [extract_flow(stream.next_packet().data) for _ in range(6)]
        assert keys[0] == keys[3]
        assert len({k.five_tuple() for k in keys}) == 3

    def test_burst(self):
        stream = TrexStream(FlowSpec(n_flows=2))
        assert len(stream.burst(10)) == 10

    def test_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            FlowSpec(n_flows=0)


class TestMaxLossless:
    def test_single_lane(self):
        # 1000 packets in 100 us -> 10 Mpps, under a 25G/64B line.
        assert max_lossless_mpps([100_000], [1000], 25, 64) == pytest.approx(10.0)

    def test_lanes_aggregate(self):
        rate = max_lossless_mpps([100_000, 100_000], [1000, 1000], 25, 64)
        assert rate == pytest.approx(20.0)

    def test_line_rate_cap(self):
        rate = max_lossless_mpps([10_000], [1000], 10, 64)
        assert rate == pytest.approx(14.88, abs=0.01)

    def test_idle_lane_ignored(self):
        assert max_lossless_mpps([100_000, 0], [1000, 0], 25, 64) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_lossless_mpps([1], [1, 2], 10, 64)
        with pytest.raises(ValueError):
            max_lossless_mpps([0], [10], 10, 64)


class TestIperf:
    def test_bottleneck_core_determines_gbps(self):
        cpu = CpuModel(4)
        sender = ExecContext(cpu, 0, CpuCategory.GUEST)
        switch = ExecContext(cpu, 1, CpuCategory.USER)

        def step():
            sender.charge(100)
            switch.charge(400)  # the busy stage
            return 1000  # bytes

        result = measure_throughput(cpu, step, total_bytes=100_000)
        # 1000 B per 400 ns bottleneck = 2.5 B/ns = 20 Gbps.
        assert result.gbps == pytest.approx(20.0)
        assert not result.capped_by_link
        assert result.per_cpu_busy_ns[1] > result.per_cpu_busy_ns[0]

    def test_link_cap(self):
        cpu = CpuModel(1)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)

        def step():
            ctx.charge(1)
            return 10_000

        result = measure_throughput(cpu, step, total_bytes=50_000,
                                    link_gbps=10)
        assert result.gbps == 10
        assert result.capped_by_link

    def test_no_progress_detected(self):
        cpu = CpuModel(1)
        with pytest.raises(RuntimeError, match="no progress"):
            measure_throughput(cpu, lambda: 0, total_bytes=10)

    def test_requires_positive_budget(self):
        with pytest.raises(ValueError):
            measure_throughput(CpuModel(1), lambda: 1, total_bytes=0)


class TestNetperf:
    def test_collects_distribution(self):
        cpu = CpuModel(2)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        runner = TcpRrRunner([ctx], jitter_terms={"irq": (5_000, 0.4)})

        def txn():
            ctx.charge(20_000, label="path")

        result = runner.run(txn, n_transactions=500)
        # 20 us fixed + ~5 us median jitter.
        assert 23 < result.p50_us < 28
        assert result.p99_us > result.p90_us >= result.p50_us
        assert result.transactions_per_s == pytest.approx(
            1e6 / result.mean_us)
        assert "path" in result.component_means_us

    def test_jitter_widens_tail(self):
        cpu = CpuModel(1)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)

        def txn():
            ctx.charge(10_000)

        tight = TcpRrRunner([ctx], {"w": (2_000, 0.05)}).run(txn, 300)
        wide = TcpRrRunner([ctx], {"w": (2_000, 0.9)}).run(txn, 300)
        assert (wide.p99_us - wide.p50_us) > (tight.p99_us - tight.p50_us)

    def test_trace_detached_after_run(self):
        cpu = CpuModel(1)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        TcpRrRunner([ctx], {}).run(lambda: ctx.charge(1), 10)
        assert ctx.trace is None

    def test_run_inside_a_tracing_block_hands_the_outer_trace_back(self):
        cpu = CpuModel(1)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        bystander = ExecContext(cpu, 0, CpuCategory.USER)
        outer = LatencyTrace()
        with ctx.tracing(outer):
            ctx.charge(5, label="before")
            TcpRrRunner([ctx, bystander], {}).run(lambda: ctx.charge(1), 10)
            assert ctx.trace is outer and bystander.trace is None
            ctx.charge(7, label="after")
        assert ctx.trace is None
        # The run's own charges went to its own trace, not to ``outer``.
        assert outer.components == {"before": 5.0, "after": 7.0}

    def test_failed_transaction_restores_the_previous_trace(self):
        cpu = CpuModel(1)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        outer = LatencyTrace()

        def lost():
            raise AssertionError("request never reached the wire")

        with ctx.tracing(outer):
            with pytest.raises(AssertionError):
                TcpRrRunner([ctx], {}).run(lost, 10)
            assert ctx.trace is outer

    def test_bad_jitter_median_is_rejected(self):
        cpu = CpuModel(1)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        with pytest.raises(ValueError, match="median must be positive"):
            TcpRrRunner([ctx], {"irq": (0.0, 0.3)}).run(lambda: None, 1)
        assert ctx.trace is None

    def test_requires_transactions(self):
        with pytest.raises(ValueError):
            TcpRrRunner([], {}).run(lambda: None, 0)
