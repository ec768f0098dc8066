"""Smoke tests: every experiment module runs end to end at tiny scale
and returns a structurally complete result.

``TINY`` is the shared tiny-duration configuration: every smoke test
draws its scale knob from here so the whole battery stays fast and the
knobs live in one place.
"""

import importlib
import pkgutil

import pytest

from repro.experiments.fig1_loc_churn import run_fig1
from repro.experiments.fig2_single_flow import run_fig2
from repro.experiments.table2_optimizations import LADDER, run_table2
from repro.experiments.table3_ruleset import run_table3
from repro.experiments.table5_xdp_cost import run_table5

#: Shared tiny-duration scales (packets / transactions / bytes / rules).
TINY = {
    "packets": 400,
    "packets_per_queue": 200,
    "fig9_packets": 300,
    "transactions": 40,
    "tcp_bytes": 100_000,
    "rules": 6_000,
}


def test_every_experiment_module_is_smoke_covered():
    """Each runnable experiments/ module must have a smoke entry here.

    Guards against a new experiment landing without smoke coverage:
    enumerate the package and check this file mentions each module.
    """
    import repro.experiments as pkg

    with open(__file__) as f:
        source = f.read()
    for info in pkgutil.iter_modules(pkg.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        assert module is not None
        if info.name == "common":
            continue  # shared harness, exercised by every other test
        assert info.name in source, (
            f"experiments/{info.name}.py has no smoke test"
        )


def test_fault_cells_smoke():
    from repro.experiments.fault_cells import merged_fault_ledger

    ledger = merged_fault_ledger(2, seed=3, packets=TINY["fig9_packets"])
    assert ledger["offered"] > ledger["forwarded"] > 0
    assert ledger["sinks"], "the seeded fault plan never fired"


def test_fig1_smoke():
    result = run_fig1()
    assert set(result.dataset) == {2015, 2016, 2017, 2018, 2019}
    assert len(result.simulated) == 5
    assert "Figure 1" in result.render()


def test_fig2_smoke():
    result = run_fig2(packets=TINY["packets"])
    assert set(result.mpps) == {"kernel", "ebpf", "dpdk"}
    assert all(v > 0 for v in result.mpps.values())
    assert "Mpps" in result.render()


def test_table2_smoke():
    result = run_table2(packets=TINY["packets"])
    assert len(result.mpps) == len(LADDER)
    assert "Table 2" in result.render()


def test_table3_smoke_scaled():
    result = run_table3(target_rules=TINY["rules"])
    assert result.stats.n_rules == TINY["rules"]
    assert result.stats.n_tables == 40
    assert result.stats.n_match_fields == 31
    assert result.pipeline_passes >= 2
    assert "Table 3" in result.render()


def test_table5_smoke():
    result = run_table5(packets=TINY["packets"])
    assert set(result.mpps) == set("ABCD")
    assert result.mpps["A"] >= result.mpps["D"]
    assert "Table 5" in result.render()


def test_fig10_smoke():
    from repro.experiments.fig10_latency import run_fig10

    result = run_fig10(n_transactions=TINY["transactions"])
    assert set(result.results) == {"kernel", "afxdp", "dpdk"}
    for r in result.results.values():
        assert r.p50_us <= r.p90_us <= r.p99_us
    assert "Figure 10" in result.render()


def test_fig11_smoke():
    from repro.experiments.fig11_container_latency import run_fig11

    result = run_fig11(n_transactions=TINY["transactions"])
    assert result.results["dpdk"].p50_us > result.results["kernel"].p50_us
    assert "Figure 11" in result.render()


def test_fig12_smoke_one_point():
    from repro.experiments.fig12_multiqueue import Fig12Result, run_fig12

    result = run_fig12(packets_per_queue=TINY["packets_per_queue"])
    assert isinstance(result, Fig12Result)
    assert result.mpps("dpdk", 64, 1) > 0
    assert "Figure 12" in result.render()


def test_fig9_smoke_p2p_only():
    from repro.experiments.fig9_forwarding import run_fig9

    result = run_fig9(packets=TINY["fig9_packets"], scenarios=("P2P",))
    assert result.mpps("P2P", "dpdk", 1) > result.mpps("P2P", "afxdp", 1)
    assert "Figure 9" in result.render_rates()
    assert "Table 4" in result.render_table4()


def test_fig8_smoke_panel_b():
    from repro.experiments.fig8_tcp_throughput import run_fig8

    result = run_fig8(panels=("b",), total_bytes=TINY["tcp_bytes"])
    assert result.gbps[("b", "afxdp+vhost+csum+tso")] > 0
    assert "Figure 8b" in result.render("b")


def test_degradation_smoke():
    from repro.experiments.degradation import run_degradation

    points = run_degradation(packets=TINY["packets"] // 2, n_flows=16,
                             rates=(0.0, 0.2), seed=0)
    baseline, faulted = points
    assert baseline.delivered == baseline.offered
    assert not baseline.faults_fired
    assert faulted.delivered < baseline.delivered
    assert faulted.conserved and baseline.conserved


def test_upgrade_smoke():
    from repro.experiments.upgrade import run_upgrade

    results = run_upgrade(packets=TINY["packets"],
                          scenarios=("kernel", "ebpf"))
    by_name = {r.scenario: r for r in results}
    assert by_name["kernel"].restarts == 1
    assert by_name["kernel"].lost == 0  # warm megaflows carry the outage
    assert by_name["ebpf"].downtime_ns > 0
    assert all(r.conserved for r in results)


def test_observer_effect_smoke():
    from repro.experiments.observer_effect import run_observer_effect

    points = run_observer_effect(packets=TINY["packets"] // 2, n_flows=16,
                                 rates=(0, 8), datapaths=("afxdp_zc",),
                                 seed=0)
    off, sampled = points
    assert off.sampled == 0 and sampled.sampled > 0
    assert sampled.ns_per_packet > off.ns_per_packet
    assert all(p.reconciled and p.conserved for p in points)
    assert off.flow_records == sampled.flow_records == 16


def test_p2p_benches_smoke():
    """The p2p module's benchmark aliases build the world table's rows."""
    from repro.experiments.p2p import afxdp_p2p, dpdk_p2p, kernel_p2p
    from repro.traffic.trex import FlowSpec, TrexStream

    for factory in (kernel_p2p, afxdp_p2p, dpdk_p2p):
        bench = factory()
        m = bench.drive(TrexStream(FlowSpec(1)), TINY["packets"])
        assert m.mpps > 0


def test_pvp_pcp_benches_smoke():
    """The world table's PVP and PCP rows: VM and container paths
    forward."""
    from repro.experiments.world import build_world
    from repro.traffic.trex import FlowSpec, TrexStream

    pvp = build_world("afxdp_zc", "PVP")
    m = pvp.drive(TrexStream(FlowSpec(1)), TINY["packets"] // 2)
    assert m.mpps > 0
    pcp = build_world("kernel", "PCP")
    m = pcp.drive(
        TrexStream(FlowSpec(1, vary_dst=False)), TINY["packets"] // 2
    )
    assert m.mpps > 0
