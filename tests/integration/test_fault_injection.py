"""Fault-injection integration gates.

Three contracts, in order of importance:

1. **Zero-overhead-off**: with no plan — or an installed-but-inert plan —
   every experiment trace ledger is byte-identical to a faultless build.
2. **Real mitigations per layer**: each fault point triggers the same
   degradation mechanism real OVS uses (EAGAIN backoff, copy-mode
   fallback, ``lost:`` accounting, emc-insert-inv-prob, flow limits,
   slow-path degradation), observable through counters and cost deltas —
   never a silent no-op.
3. **Packet conservation**: for *any* seeded plan, every offered packet
   is forwarded or attributed to a named drop counter (the Hypothesis
   property at the bottom).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afxdp.driver import AfxdpDriver, AfxdpOptions
from repro.afxdp.socket import TX_KICK_MAX_RETRIES, BindMode, XskSocket
from repro.afxdp.umem import Umem
from repro.afxdp.umempool import UmemPool
from repro.hosts.host import Host
from repro.kernel.kernel import Kernel
from repro.kernel.netdev import NetDevice, Wire
from repro.kernel.nic import NicFeatures, PhysicalNic
from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.ovs import dpif_netdev
from repro.ovs.appctl import OvsAppctl
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.sim import faults, trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.faults import FaultPlan, FaultRule
from tests.conftest import reference_mode

from .test_trace_determinism import _experiment_ledger


def mac(i):
    return MacAddress.local(i)


PKT = make_udp_packet(mac(1), mac(2), "10.0.0.1", "10.0.0.2", frame_len=64)


def _udp(sport=1000):
    return make_udp_packet(mac(1), mac(2), "10.0.0.1", "10.0.0.2",
                           sport, 2000, frame_len=64)


def _ctx(cpu=None, category=CpuCategory.USER):
    return ExecContext(cpu if cpu is not None else CpuModel(2), 0, category)


def _socket(bind_mode=BindMode.ZEROCOPY, prime=64):
    umem = Umem(n_frames=256, ring_size=256)
    pool = UmemPool(umem)
    sock = XskSocket(umem, pool, bind_mode=bind_mode, ring_size=256)
    if prime:
        addrs = pool.alloc(prime, _ctx())
        umem.fill_ring.produce_batch([(a, 0) for a in addrs])
    return sock


# ======================================================================
# 1. Zero-overhead-off: inert plans change nothing, byte for byte.
# ======================================================================
@pytest.mark.parametrize("experiment,packets",
                         [("fig2", 400), ("fig9", 300), ("table2", 400)])
def test_inert_plan_ledger_byte_identical(experiment, packets):
    """An installed plan with zero-rate rules must not perturb a single
    ledger byte: no stray RNG draws, no extra charges, no counters."""
    bare = _experiment_ledger(experiment, packets)
    inert = FaultPlan(seed=9, rules=[
        FaultRule(point, rate=0.0) for point in faults.FAULT_POINTS])
    with faults.injecting(inert):
        injected = _experiment_ledger(experiment, packets)
    assert bare == injected


def test_no_plan_is_the_default():
    assert faults.ACTIVE is None


# ======================================================================
# 2a. AF_XDP socket mitigations.
# ======================================================================
class TestTxKickEagain:
    def test_bounded_backoff_then_success(self):
        cpu = CpuModel(2)
        ctx = _ctx(cpu)
        sock = _socket()
        plan = FaultPlan(rules=[
            FaultRule("afxdp.tx_kick_eagain", nth=1, max_fires=2)])
        with faults.injecting(plan), trace.recording() as rec:
            sent = sock.user_tx_batch([PKT, PKT], ctx)
        assert sent == 2
        assert sock.tx_sent == 2
        assert sock.tx_dropped_kick == 0
        # Two failed attempts waited 1x then 2x the base backoff,
        # charged as wall time (not CPU).
        count, ns = rec.waits["tx_kick_backoff"]
        assert count == 2
        assert ns == DEFAULT_COSTS.tx_kick_backoff_ns * 3
        # Each EAGAIN still paid the syscall entry/exit, in SYSTEM.
        assert rec.counter("afxdp.tx_kick_eagain") == 2
        assert cpu.busy_ns(category=CpuCategory.SYSTEM) >= (
            3 * DEFAULT_COSTS.syscall_base_ns)

    def test_retry_budget_exhausted_drops_and_recycles(self):
        ctx = _ctx()
        sock = _socket()
        free_before = sock.pool.free_count
        plan = FaultPlan(rules=[FaultRule("afxdp.tx_kick_eagain", nth=1)])
        with faults.injecting(plan), trace.recording() as rec:
            sock.user_tx_batch([PKT] * 3, ctx)
        assert sock.tx_sent == 0
        assert sock.tx_dropped_kick == 3
        assert rec.counter("afxdp.tx_dropped_kick") == 3
        # One wait per retry before giving up.
        assert rec.waits["tx_kick_backoff"][0] == TX_KICK_MAX_RETRIES
        # The dropped frames came back through the completion ring: no
        # leak.
        sock.reap_completions(ctx)
        assert sock.pool.free_count == free_before


class TestRingAndUmemFaults:
    def test_fill_ring_overrun_drops_with_counter(self):
        sock = _socket()
        softirq = _ctx(category=CpuCategory.SOFTIRQ)
        plan = FaultPlan(rules=[
            FaultRule("afxdp.fill_ring_overrun", nth=2)])
        with faults.injecting(plan), trace.recording() as rec:
            delivered = sum(sock.kernel_rx(PKT, softirq) for _ in range(6))
        assert delivered == 3
        assert sock.rx_dropped_overrun == 3
        assert rec.counter("afxdp.rx_dropped_overrun") == 3
        assert sock.rx_delivered == 3

    def test_umem_exhaustion_drops_burst_then_recovers(self):
        ctx = _ctx()
        sock = _socket()
        plan = FaultPlan(rules=[
            FaultRule("afxdp.umem_exhausted", nth=1, max_fires=1)])
        with faults.injecting(plan):
            assert sock.user_tx_batch([PKT] * 4, ctx) == 0
            assert sock.tx_dropped_no_umem == 4
            assert sock.user_tx_batch([PKT] * 4, ctx) == 4
        assert sock.tx_sent == 4

    def test_comp_ring_overrun_leaks_frames_from_the_pool(self):
        ctx = _ctx()
        sock = _socket()
        free_before = sock.pool.free_count
        plan = FaultPlan(rules=[
            FaultRule("afxdp.comp_ring_overrun", nth=1, max_fires=1)])
        with faults.injecting(plan):
            assert sock.user_tx_batch([PKT] * 4, ctx) == 4
        # Packets were transmitted, but the kernel could not report the
        # frames back: they are gone until the socket is torn down.
        assert sock.tx_sent == 4
        assert sock.frames_leaked == 4
        assert sock.reap_completions(ctx) == 0
        assert sock.pool.free_count == free_before - 4

    def test_zc_fallback_switches_to_copy_mode_costs(self):
        softirq = _ctx(category=CpuCategory.SOFTIRQ)
        sock = _socket(BindMode.ZEROCOPY)
        plan = FaultPlan(rules=[
            FaultRule("afxdp.zc_fallback", nth=1, max_fires=1)])
        with faults.injecting(plan), trace.recording() as rec:
            assert sock.kernel_rx(PKT, softirq)
        assert sock.bind_mode is BindMode.COPY
        assert sock.zc_fallbacks == 1
        # The fallback packet itself (and all that follow) pays the copy.
        assert rec.counter("afxdp.copies") == 1


# ======================================================================
# 2b. eBPF / XDP degradation.
# ======================================================================
def _wired_nic(**features):
    nic = PhysicalNic("mlx0", mac(10), n_queues=1,
                      features=NicFeatures(**features))
    nic.ifindex = 1
    nic.set_up()
    peer = NetDevice("peer0", mac(11))
    peer.set_up()
    peer.set_rx_handler(lambda pkt, ctx: None)
    Wire(nic, peer, gbps=25)
    return nic


def test_verifier_reject_degrades_to_copy_mode():
    nic = _wired_nic(afxdp_zerocopy=True)
    driver = AfxdpDriver(nic)
    plan = FaultPlan(rules=[
        FaultRule("ebpf.verifier_reject", nth=1, max_fires=1)])
    with faults.injecting(plan), trace.recording() as rec:
        driver.setup()
    assert driver.verifier_rejected
    assert driver.sockets[0].bind_mode is BindMode.COPY
    assert rec.counter("ebpf.verifier_rejected") == 1


def test_map_lookup_fault_degrades_to_slow_path():
    nic = _wired_nic(afxdp_zerocopy=True)
    driver = AfxdpDriver(nic)
    driver.setup()
    softirq = _ctx(category=CpuCategory.SOFTIRQ)
    pmd = _ctx()
    plan = FaultPlan(rules=[
        FaultRule("ebpf.map_lookup_fault", nth=1, max_fires=1)])
    with faults.injecting(plan), trace.recording() as rec:
        nic.host_receive(PKT)
        nic.service_queue(0, softirq)
        faulted = driver.rx_burst(0, pmd)
        nic.host_receive(PKT)
        nic.service_queue(0, softirq)
        healthy = driver.rx_burst(0, pmd)
    # The faulted lookup returned XDP_PASS: the frame went to the kernel
    # stack (slow path), not to the XSK; the next packet flowed normally.
    assert faulted == []
    assert len(healthy) == 1
    assert nic.xdp_passes == 1
    assert rec.counter("ebpf.map_lookup_faults") == 1


# ======================================================================
# 2c. Userspace datapath: upcall shedding, storm breaker, flow limits.
# ======================================================================
@pytest.fixture
def netdev_world():
    host = Host("faults", n_cpus=2)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    p1, a1 = vs.add_sim_port("br0", "p1")
    p2, a2 = vs.add_sim_port("br0", "p2")
    of = OpenFlowConnection(vs.bridge("br0"))
    of.add_flow(0, 10, Match(in_port=p1.ofport), [OutputAction("p2")])
    ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
    return host, vs, of, p1, a1, p2, a2, ctx


def test_upcall_overload_sheds_and_counts_lost(netdev_world):
    _host, vs, _of, p1, _a1, _p2, a2, ctx = netdev_world
    dp = vs.dpif_netdev
    plan = FaultPlan(rules=[
        FaultRule("dp.upcall_overload", nth=1, max_fires=1)])
    with faults.injecting(plan), trace.recording() as rec:
        dp.process_batch([_udp()], p1.dp_port_no, ctx, ExactMatchCache())
    # The miss was shed: lost AND dropped (lost records the cause,
    # dropped the fate), nothing forwarded, no megaflow installed.
    assert dp.stats.lost == 1
    assert dp.stats.dropped == 1
    assert rec.counter("dp.upcall_lost") == 1
    assert a2.take_transmitted() == []
    assert len(dp.megaflows) == 0
    # The next packet retries the upcall and succeeds.
    with faults.injecting(FaultPlan()):
        dp.process_batch([_udp()], p1.dp_port_no, ctx, ExactMatchCache())
    assert len(a2.take_transmitted()) == 1


def test_upcall_queue_cap_bounds_a_burst(netdev_world):
    _host, vs, of, p1, _a1, _p2, a2, ctx = netdev_world
    dp = vs.dpif_netdev
    # Per-port rules so each flow needs its own upcall + megaflow (a
    # bare in_port rule would collapse into one wildcard megaflow).
    for i in range(4):
        of.add_flow(0, 20, Match(in_port=p1.ofport, tp_src=1000 + i),
                    [OutputAction("p2")])
    pkts = [_udp(sport=1000 + i) for i in range(4)]
    # Cap 2: the burst's first two misses go up, the rest are shed at
    # the full queue.
    with faults.injecting(FaultPlan(upcall_queue_cap=2)):
        dp.process_batch(pkts, p1.dp_port_no, ctx, ExactMatchCache())
    assert dp.stats.upcalls == 4
    assert dp.stats.lost == 2
    assert len(a2.take_transmitted()) == 2


def test_emc_insert_inv_prob_skips_inserts(netdev_world):
    _host, vs, _of, p1, _a1, _p2, a2, ctx = netdev_world
    dp = vs.dpif_netdev
    emc = ExactMatchCache()
    pkts = [_udp(sport=1000 + i) for i in range(32)]
    with faults.injecting(FaultPlan(seed=1, emc_insert_inv_prob=4)), \
            trace.recording() as rec:
        dp.process_batch(pkts, p1.dp_port_no, ctx, emc)
    skipped = rec.counter("dp.emc_insert_skipped")
    assert 0 < skipped < 32
    # Every packet still forwarded — the knob sheds *cache churn*, not
    # traffic.
    assert len(a2.take_transmitted()) == 32


def test_plan_flow_limit_caps_installs_but_forwards(netdev_world):
    _host, vs, _of, p1, _a1, _p2, a2, ctx = netdev_world
    dp = vs.dpif_netdev
    pkts = [_udp(sport=1000 + i) for i in range(6)]
    with faults.injecting(FaultPlan(flow_limit=0)), \
            trace.recording() as rec:
        dp.process_batch(pkts, p1.dp_port_no, ctx, ExactMatchCache())
    assert len(dp.megaflows) == 0
    assert rec.counter("dp.flow_limit_hit") == 6
    assert len(a2.take_transmitted()) == 6


def test_revalidator_tightens_then_relaxes_flow_limit(netdev_world):
    _host, vs, _of, p1, _a1, _p2, _a2, ctx = netdev_world
    dp = vs.dpif_netdev
    assert dp.flow_limit is None
    # Pressure: lost upcalls appear between revalidator passes.
    dp.stats.lost += 5
    stats = dp.revalidate()
    assert dp.flow_limit is not None
    tightened = dp.flow_limit
    assert stats["flow_limit"] == tightened
    # Calm: the limit creeps back up and eventually lifts.
    for _ in range(100):
        dp.revalidate()
        if dp.flow_limit is None:
            break
    assert dp.flow_limit is None


def test_revalidator_survives_raising_upcall_fn(netdev_world):
    _host, vs, _of, p1, _a1, _p2, _a2, ctx = netdev_world
    dp = vs.dpif_netdev
    dp.process_batch([_udp()], p1.dp_port_no, ctx, ExactMatchCache())
    assert len(dp.megaflows) == 1
    failed_before = dp.stats.failed_upcalls
    original = dp.upcall_fn

    def broken(key, c):
        raise RuntimeError("translator crashed")

    dp.upcall_fn = broken
    try:
        with trace.recording() as rec:
            stats = dp.revalidate()
    finally:
        dp.upcall_fn = original
    # The pass completed, evicted the unverifiable flow, and counted it.
    assert stats["removed_changed"] == 1
    assert dp.stats.failed_upcalls == failed_before + 1
    assert rec.counter("dp.revalidate_upcall_errors") == 1
    # The flow reinstalls on the next packet once translation works.
    dp.process_batch([_udp()], p1.dp_port_no, ctx, ExactMatchCache())
    assert len(dp.megaflows) == 1


# ======================================================================
# 2d. Kernel datapath and netlink lost accounting.
# ======================================================================
def _kernel_world():
    cpu = CpuModel(2)
    kernel = Kernel(cpu)
    kernel.load_ovs_module()
    dp = kernel.create_datapath("dp0")
    p1 = NetDevice("p1", mac(21))
    kernel.init_ns.register(p1)
    p1.set_up()
    dp.add_port(p1)
    return kernel, dp, p1, ExecContext(cpu, 0, CpuCategory.SOFTIRQ)


def test_kernel_upcall_overload_counts_lost():
    _kernel, dp, p1, ctx = _kernel_world()
    seen = []
    dp.upcall_handler = lambda up, c: seen.append(up)
    plan = FaultPlan(rules=[
        FaultRule("kernel.upcall_overload", nth=1, max_fires=1)])
    with faults.injecting(plan), trace.recording() as rec:
        p1.deliver(PKT, ctx)
        p1.deliver(PKT, ctx)
    assert dp.n_lost == 1
    assert len(seen) == 1
    assert rec.counter("kernel.upcall_lost") == 1


def test_kernel_missing_handler_counts_lost_not_noop():
    _kernel, dp, p1, ctx = _kernel_world()
    assert dp.upcall_handler is None
    p1.deliver(PKT, ctx)
    assert dp.n_lost == 1


def test_dpif_netlink_missing_upcall_fn_counts_lost():
    from repro.ovs.dpif_netlink import DpifNetlink

    cpu = CpuModel(2)
    kernel = Kernel(cpu)
    kernel.load_ovs_module()
    dpif = DpifNetlink(kernel)
    p1 = NetDevice("p1", mac(22))
    kernel.init_ns.register(p1)
    p1.set_up()
    dpif.add_port(p1)
    assert dpif.upcall_fn is None  # no handler thread registered yet
    ctx = ExecContext(cpu, 0, CpuCategory.SOFTIRQ)
    p1.deliver(PKT, ctx)
    # The kernel sent the miss up and nobody was listening: dpctl/show
    # must report it as lost, not silently succeed.
    assert dpif.dp.n_lost == 1


# ======================================================================
# 2e. Operator visibility: faults/show and truthful lost: columns.
# ======================================================================
def test_dpctl_show_lost_column_is_truthful(netdev_world):
    _host, vs, _of, p1, _a1, _p2, _a2, ctx = netdev_world
    appctl = OvsAppctl(vs)
    plan = FaultPlan(rules=[
        FaultRule("dp.upcall_overload", nth=1, max_fires=1)])
    with faults.injecting(plan):
        vs.dpif_netdev.process_batch([_udp()], p1.dp_port_no, ctx,
                                     ExactMatchCache())
    out = appctl.dpctl_show()
    assert "lost:1" in out
    assert f"missed:{vs.dpif_netdev.stats.upcalls}" in out


def test_faults_show_renders_plan_and_datapath_state(netdev_world):
    _host, vs, _of, p1, _a1, _p2, _a2, ctx = netdev_world
    appctl = OvsAppctl(vs)
    assert "(no fault plan installed)" in appctl.faults_show()
    plan = FaultPlan(seed=4, rules=[
        FaultRule("dp.upcall_overload", rate=1.0)])
    with faults.injecting(plan):
        vs.dpif_netdev.process_batch([_udp()], p1.dp_port_no, ctx,
                                     ExactMatchCache())
        out = appctl.faults_show()
    assert "seed=4" in out
    assert "dp.upcall_overload: rate=1.0 — events:1 fired:1" in out
    assert "lost:1" in out
    assert "flow-limit:" in out


def test_coverage_show_includes_fault_counters(netdev_world):
    _host, vs, _of, p1, _a1, _p2, _a2, ctx = netdev_world
    appctl = OvsAppctl(vs)
    plan = FaultPlan(rules=[FaultRule("dp.upcall_overload", nth=1,
                                      max_fires=1)])
    with faults.injecting(plan), trace.recording() as rec:
        vs.dpif_netdev.process_batch([_udp()], p1.dp_port_no, ctx,
                                     ExactMatchCache())
        out = appctl.coverage_show(rec)
    assert "fault.dp.upcall_overload" in out
    assert "dp.upcall_lost" in out


# ======================================================================
# 3. Whole-pipeline properties: equivalence and conservation.
# ======================================================================
def test_batched_and_reference_classification_agree_under_faults():
    from repro.experiments.degradation import run_degradation

    kwargs = dict(packets=160, n_flows=12, rates=(0.15,), seed=3)
    batched = [p.to_json() for p in run_degradation(**kwargs)]
    with reference_mode():
        reference = [p.to_json() for p in run_degradation(**kwargs)]
    assert batched == reference


def test_degradation_curve_is_monotone_and_deterministic():
    from repro.experiments.degradation import run_degradation

    kwargs = dict(packets=200, n_flows=16, rates=(0.0, 0.1, 0.3), seed=5)
    points = run_degradation(**kwargs)
    again = run_degradation(**kwargs)
    assert [p.to_json() for p in points] == [p.to_json() for p in again]
    delivered = [p.delivered for p in points]
    assert delivered[0] == points[0].offered  # faultless baseline
    assert sorted(delivered, reverse=True) == delivered
    assert all(p.conserved for p in points)


_PROPERTY_POINTS = (
    "afxdp.tx_kick_eagain",
    "afxdp.fill_ring_overrun",
    "afxdp.comp_ring_overrun",
    "afxdp.umem_exhausted",
    "afxdp.zc_fallback",
    "dp.upcall_overload",
    "ebpf.map_lookup_fault",
    "ebpf.verifier_reject",
    "vswitchd.crash",
)


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rates=st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5]),
                   min_size=len(_PROPERTY_POINTS),
                   max_size=len(_PROPERTY_POINTS)),
    inv_prob=st.sampled_from([1, 2, 8]),
    cap=st.sampled_from([None, 0, 2]),
    flow_limit=st.sampled_from([None, 0, 4]),
)
def test_packet_conservation_for_any_seeded_plan(
        seed, rates, inv_prob, cap, flow_limit):
    """offered == forwarded + sum(named drop counters), whatever the
    plan throws at the pipeline."""
    from repro.experiments import degradation

    plan = FaultPlan(
        seed=seed,
        rules=[FaultRule(p, rate=r)
               for p, r in zip(_PROPERTY_POINTS, rates) if r > 0.0],
        emc_insert_inv_prob=inv_prob,
        upcall_queue_cap=cap,
        flow_limit=flow_limit,
    )
    point = degradation._run_point_traced(
        plan, 0.0, packets=96, n_flows=8, link_gbps=25.0,
        options=AfxdpOptions())
    assert point.conserved, point.to_json()
