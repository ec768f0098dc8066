"""The reconciliation invariant under arbitrary seeded fault plans.

The IPFIX collector's totals (plus the ``telemetry.collector_loss``
casualties) must reconcile *exactly* against the packet-conservation
ledger — every offered frame either shows up in a flow record or in a
pre-datapath drop leg, whatever combination of tx-kick EAGAINs,
fill-ring overruns, upcall shedding, XDP map faults, daemon crashes and
export loss a plan throws at the pipeline.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.experiments.common import warmup_count
from repro.experiments.world import build_world
from repro.sim import faults, trace
from repro.sim.faults import FaultPlan, FaultRule
from repro.sim.supervisor import Supervisor
from repro.telemetry import IpfixConfig, SflowConfig, Telemetry
from repro.telemetry.drops import DropReason, reason_for_sink
from repro.traffic.trex import FlowSpec, TrexStream

#: Longer than any virtual run here: one deterministic flush at the end.
_TIMEOUT_NS = 10 ** 12
#: Offered burst size, and the NAPI budget the kernel services it with.
BURST = 32


def _reconcile_under(plan, sflow_rate=8, packets=96, n_flows=8, seed=0):
    """Drive a supervised AF_XDP P2P world under ``plan`` with telemetry
    on; return (ledger, reconciliation problems, session)."""
    with faults.injecting(plan), trace.recording():
        world = build_world("afxdp_zc", "P2P", napi_budget=BURST)
        host, nic_in = world.host, world.nic_in
        stream = TrexStream(FlowSpec(n_flows=n_flows))
        supervisor = Supervisor(host.user_ctx(host.cpu.n_cpus - 1),
                                host.clock, vs=world.vs, pmds=world.pmds)
        session = Telemetry(
            sflow=(SflowConfig(rate=sflow_rate, points=("xdp", "dpif"),
                               seed=seed) if sflow_rate else None),
            ipfix=IpfixConfig(point="dpif",
                              active_timeout_ns=_TIMEOUT_NS,
                              idle_timeout_ns=_TIMEOUT_NS),
            now_ns_fn=lambda: host.clock.now,
        )

        warmup = warmup_count(stream)
        with telemetry.monitoring(session):
            for pkt in stream.burst(warmup):
                nic_in.host_receive(pkt)
                world.pump()
            sent = 0
            while sent < packets:
                chunk = min(BURST, packets - sent)
                for pkt in stream.burst(chunk):
                    nic_in.host_receive(pkt)
                sent += chunk
                if supervisor.maybe_crash():
                    # XSKs died with the daemon: the burst drains at the
                    # failed redirect, attributed pre-datapath.
                    world.pump(daemon_up=False)
                    supervisor.finish()
                world.pump()
            session.flush_all()
            ledger = world.ledger(warmup + packets, supervisor.crash_sinks)
            problems = session.reconcile(ledger)
    return ledger, problems, session


def test_reconciles_cleanly_without_faults():
    ledger, problems, session = _reconcile_under(FaultPlan())
    assert ledger.conserved(), ledger.render()
    assert problems == []
    # Faultless: no pre-datapath losses, so IPFIX saw every frame.
    assert session.collector.flow_packets == ledger.offered


def test_crash_recovery_keeps_the_books_balanced():
    plan = FaultPlan(seed=11, rules=[
        FaultRule("vswitchd.crash", nth=3, max_fires=1)])
    ledger, problems, session = _reconcile_under(plan)
    assert ledger.conserved(), ledger.render()
    assert problems == [], problems
    # The crash actually cost something, attributed to named legs.
    assert ledger.total_dropped > 0
    assert session.collector.flow_packets < ledger.offered


def test_same_seed_yields_a_byte_identical_export_stream():
    def plan():
        return FaultPlan(seed=5, rules=[
            FaultRule("dp.upcall_overload", rate=0.2),
            FaultRule("telemetry.collector_loss", rate=0.3)])

    _, p1, s1 = _reconcile_under(plan())
    _, p2, s2 = _reconcile_under(plan())
    assert p1 == [] and p2 == []
    stream = s1.collector.stream_bytes()
    assert stream == s2.collector.stream_bytes()
    assert stream  # non-vacuous: something survived to the collector


def test_a_kernel_world_that_loses_upcalls_reconciles():
    """The kernel datapath's lost upcalls are a ledger sink the taxonomy
    names, so IPFIX at the kernel hook and the ledger agree on them."""
    plan = FaultPlan(seed=3, rules=[
        FaultRule("kernel.upcall_overload", rate=0.5)])
    with faults.injecting(plan):
        world = build_world("kernel", "P2P")
        stream = TrexStream(FlowSpec(n_flows=200))
        session = Telemetry(
            ipfix=IpfixConfig(point="kernel", active_timeout_ns=_TIMEOUT_NS,
                              idle_timeout_ns=_TIMEOUT_NS),
            now_ns_fn=lambda: world.host.clock.now)
        with telemetry.monitoring(session):
            world.drive(stream, 400)
            session.flush_all()
        ledger = world.ledger(warmup_count(stream) + 400)
    assert ledger.conserved(), ledger.render()
    assert ledger.sinks == {DropReason.KERNEL_UPCALL_LOST.value: 2}
    assert all(reason_for_sink(name) for name in ledger.sinks)
    assert session.reconcile(ledger) == []


def test_a_kernel_world_that_loses_its_output_port_reconciles():
    """Frames the kernel module drops itself (here: output to a port
    deleted under live megaflows) are counted where they die, so the
    ledger conserves and agrees with IPFIX at the kernel hook."""
    world = build_world("kernel", "P2P")
    stream = TrexStream(FlowSpec(n_flows=8))
    session = Telemetry(
        ipfix=IpfixConfig(point="kernel", active_timeout_ns=_TIMEOUT_NS,
                          idle_timeout_ns=_TIMEOUT_NS),
        now_ns_fn=lambda: world.host.clock.now)
    with telemetry.monitoring(session):
        world.drive(stream, 64)
        world.vs.dpif_netlink.del_port("ens2")
        world.drive(stream, 64)
        session.flush_all()
    ledger = world.ledger(2 * (warmup_count(stream) + 64))
    assert ledger.conserved(), ledger.render()
    assert ledger.sinks == {DropReason.KERNEL_OUTPUT_NO_PORT.value: 128}
    assert session.reconcile(ledger) == []


_POINTS = (
    "afxdp.tx_kick_eagain",
    "afxdp.fill_ring_overrun",
    "dp.upcall_overload",
    "ebpf.map_lookup_fault",
    "vswitchd.crash",
    "telemetry.collector_loss",
)


@settings(deadline=None, max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    rates=st.lists(st.sampled_from([0.0, 0.05, 0.2]),
                   min_size=len(_POINTS), max_size=len(_POINTS)),
    sflow_rate=st.sampled_from([0, 8, 1]),
)
def test_reconciliation_is_exact_under_any_seeded_plan(
        seed, rates, sflow_rate):
    plan = FaultPlan(
        seed=seed,
        rules=[FaultRule(p, rate=r)
               for p, r in zip(_POINTS, rates) if r > 0.0])
    ledger, problems, _session = _reconcile_under(
        plan, sflow_rate=sflow_rate, seed=seed % 97)
    assert ledger.conserved(), ledger.render()
    assert problems == [], problems
