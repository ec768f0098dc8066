"""The upgrade experiment end to end: determinism, the per-datapath
disruption ordering the paper's §6 argument rests on, and packet
conservation straight through a crash."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import upgrade
from repro.experiments.upgrade import run_upgrade
from repro.experiments.world import build_world
from repro.sim import faults, trace
from repro.sim.faults import FaultPlan, FaultRule
from repro.sim.supervisor import Supervisor
from repro.traffic.trex import FlowSpec, TrexStream

PACKETS = 640  # 20 bursts; the crash fires on burst 4


@pytest.fixture(scope="module")
def results():
    out = run_upgrade(packets=PACKETS, seed=0)
    return {r.scenario: r for r in out}


def test_every_scenario_crashes_once_and_conserves(results):
    assert set(results) == set(upgrade.SCENARIOS)
    for r in results.values():
        assert r.restarts == 1
        assert r.conserved
        assert r.delivered + r.lost == r.offered


def test_run_twice_is_byte_identical():
    a = [r.to_json() for r in run_upgrade(packets=PACKETS, seed=0)]
    b = [r.to_json() for r in run_upgrade(packets=PACKETS, seed=0)]
    assert a == b


def test_kernel_state_survival_beats_cold_cache_netdev(results):
    """Kernel megaflows forward through the outage; the netdev flavors
    lose everything offered while their process is gone — and pay more
    downtime (socket/umem rebind, cold caches)."""
    kernel, zc = results["kernel"], results["afxdp_zc"]
    assert kernel.lost < zc.lost
    assert kernel.lost == 0  # warm megaflows carried the whole outage
    assert kernel.downtime_ns < zc.downtime_ns
    assert zc.lost > 0
    assert zc.sinks.get("nic.xdp_redirect_failed", 0) > 0


def test_ebpf_dataplane_survives_the_control_process(results):
    assert results["ebpf"].lost == 0
    # No daemon => no ovsdb/ports/state/resync phases at all.
    assert set(results["ebpf"].phase_ns) == {"detect", "exec"}


def test_zero_copy_rebind_costs_more_than_copy_mode(results):
    zc, copy = results["afxdp_zc"], results["afxdp_copy"]
    # The zc queue-pair restart makes recovery strictly longer.
    assert zc.phase_ns["ports"] > copy.phase_ns["ports"]


def test_dpdk_discards_its_stale_hardware_rings(results):
    dpdk = results["dpdk"]
    assert dpdk.sinks.get("crash.dpdk_ring_reset", 0) > 0
    assert dpdk.downtime_ns > results["afxdp_zc"].downtime_ns


def test_seed_changes_retry_draws_not_conservation():
    a = {r.scenario: r for r in run_upgrade(
        packets=PACKETS, seed=1, scenarios=("kernel", "afxdp_zc"))}
    for r in a.values():
        assert r.conserved
        assert r.restarts == 1


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_upgrade(packets=64, scenarios=("vpp",))


# ----------------------------------------------------------------------
# Conservation through crashes with frames dead in the process's rings.
# ----------------------------------------------------------------------
def test_frames_in_flight_at_the_crash_become_named_sinks():
    """Kill the daemon while redirected frames sit unconsumed in its XSK
    rx rings: they die with the umem and must come back as the
    ``crash.xsk_rx_inflight`` sink, not silent loss."""
    stream = TrexStream(FlowSpec(n_flows=4))
    with faults.injecting(FaultPlan(seed=0)), trace.recording():
        world = build_world("afxdp_zc", "P2P", napi_budget=upgrade.BURST)
        host = world.host
        sup = Supervisor(host.user_ctx(host.cpu.n_cpus - 1), host.clock,
                         vs=world.vs, pmds=world.pmds)
        # Redirect a burst into the XSKs but let no PMD consume it.
        for pkt in stream.burst(8):
            world.nic_in.host_receive(pkt)
        while world.nic_in.pending():
            host.kernel.service_nic(world.nic_in, budget=8)
        sup.crash()
        sup.finish()
        world.pump(sup.up)
        ledger = world.ledger(8, sup.crash_sinks)
    assert sup.crash_sinks["crash.xsk_rx_inflight"] == 8
    assert ledger.conserved()


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(min_value=0, max_value=2**16),
       crash_rate=st.sampled_from([0.1, 0.3, 1.0]),
       retry_rate=st.sampled_from([0.0, 0.5, 1.0]))
def test_conservation_for_arbitrary_seeded_crash_plans(
        seed, crash_rate, retry_rate):
    """However often the plan kills the daemon (up to every burst) and
    however badly the recovery faults stretch it, every offered frame
    ends up forwarded or in a named sink."""
    from repro.experiments import degradation

    plan = FaultPlan(seed=seed, rules=[
        FaultRule("vswitchd.crash", rate=crash_rate),
        FaultRule("ovsdb.disconnect", rate=retry_rate),
        FaultRule("netlink.enobufs", rate=retry_rate),
    ])
    point = degradation._run_point_traced(
        plan, crash_rate, packets=96, n_flows=8, link_gbps=25.0)
    assert point.conserved, point.to_json()
