"""Every experiment that builds through the world table, pinned to
digests of the tree before the table existed.

``repro.experiments.world`` replaced ten P2P/PVP/PCP factories, the
upgrade experiment's five builders, the degradation and observer-effect
worlds, the fault cells' wiring and the perf matrix's factory table.
Its contract is that no virtual number moves: each row builds its world
in the order the code it replaced did, so ifindexes, MACs, rule install
order, charges and counters all stay where they were.  The digests below
were recorded on the tree *before* the table, so this test compares the
code with what the simulator printed before, not with itself.

Each digest is the sha256 of the experiment's canonical result JSON,
followed by the trace ledger and counters of a recorder attached around
the run (the upgrade, degradation and observer-effect runs keep private
ledgers per cell, so their JSON carries the observables).  Sizes are
the smoke battery's ``TINY``.

Two pins also prove that the table's single ``afxdp_zc`` row — built
with ``force_copy_mode=False`` — is what both of its former definitions
were on the default NIC: the upgrade runs used ``None`` (auto-detect)
and the matrix used ``False``.

The recirculating experiments are pinned the same way, recorded on the
tree that still had the megaflow dp-JIT and the per-packet
``_process_one`` walk: fig8 (conntrack, recirculation and Geneve
push/pop), table3 (the NSX pipeline's recirculating passes), table5,
fig10 and fig11.  Fig. 10/11 percentiles are seeded by ``hash(config)``
and so vary with ``PYTHONHASHSEED``; their pins digest the ledger and
counters only.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.sim import trace
from tests.integration.test_experiments_smoke import TINY

#: Every supported (datapath, topology) cell of the perf matrix.
MATRIX_CELLS = (
    ("P2P", "kernel"), ("P2P", "ebpf"), ("P2P", "afxdp_copy"),
    ("P2P", "afxdp_zc"), ("P2P", "dpdk"),
    ("PVP", "kernel"), ("PVP", "afxdp_copy"), ("PVP", "afxdp_zc"),
    ("PVP", "dpdk"),
    ("PCP", "kernel"), ("PCP", "afxdp_zc"), ("PCP", "dpdk"),
)


def _keyed(mapping):
    return {"/".join(map(str, key)): value for key, value in mapping.items()}


def _fig2():
    from repro.experiments.fig2_single_flow import run_fig2

    return run_fig2(packets=TINY["packets"]).mpps


def _fig9():
    from repro.experiments.fig9_forwarding import run_fig9

    cells = run_fig9(packets=TINY["fig9_packets"]).cells
    return _keyed({k: dataclasses.asdict(m) for k, m in cells.items()})


def _fig12():
    from repro.experiments.fig12_multiqueue import run_fig12

    return _keyed(run_fig12(
        packets_per_queue=TINY["packets_per_queue"]).series)


def _table2():
    from repro.experiments.table2_optimizations import run_table2

    return run_table2(packets=TINY["packets"]).mpps


def _upgrade(seed):
    from repro.experiments.upgrade import run_upgrade

    return [r.to_json()
            for r in run_upgrade(packets=TINY["packets"], seed=seed)]


def _degradation():
    from repro.experiments.degradation import run_degradation

    return [p.to_json() for p in run_degradation(
        packets=TINY["packets"] // 2, n_flows=16, seed=0)]


def _observer_effect():
    from repro.experiments.observer_effect import run_observer_effect

    return [p.to_json() for p in run_observer_effect(
        packets=TINY["packets"] // 2, n_flows=16, seed=0)]


def _fault_ledger():
    from repro.experiments.fault_cells import merged_fault_ledger

    return merged_fault_ledger(2, seed=3, packets=TINY["fig9_packets"])


def _fig8():
    from repro.experiments.fig8_tcp_throughput import run_fig8

    return _keyed(run_fig8(total_bytes=TINY["tcp_bytes"]).gbps)


def _table3():
    from repro.experiments.table3_ruleset import run_table3

    result = run_table3(target_rules=TINY["rules"])
    return {"stats": dataclasses.asdict(result.stats),
            "pipeline_passes": result.pipeline_passes}


def _table5():
    from repro.experiments.table5_xdp_cost import run_table5

    return run_table5(packets=TINY["packets"]).mpps


def _fig10():
    from repro.experiments.fig10_latency import run_fig10

    run_fig10(n_transactions=TINY["transactions"])
    return None  # percentiles hang on hash(config): ledger only


def _fig11():
    from repro.experiments.fig11_container_latency import run_fig11

    run_fig11(n_transactions=TINY["transactions"])
    return None  # percentiles hang on hash(config): ledger only


def _matrix_cell(topology, datapath, flows):
    from repro.perfmatrix.cells import CellSpec, run_cell

    return run_cell(CellSpec(topology, datapath, 64, flows),
                    packets=TINY["packets"])


RUNS = {
    "fig2": _fig2,
    "fig9": _fig9,
    "fig12": _fig12,
    "table2": _table2,
    "upgrade-seed0": lambda: _upgrade(0),
    "upgrade-seed7": lambda: _upgrade(7),
    "degradation": _degradation,
    "observer-effect": _observer_effect,
    "fault-ledger": _fault_ledger,
    "fig8": _fig8,
    "table3": _table3,
    "table5": _table5,
    "fig10": _fig10,
    "fig11": _fig11,
}
for _topology, _datapath in MATRIX_CELLS:
    for _flows in (1, 1000):
        RUNS[f"matrix-{_topology}-{_datapath}-{_flows}f"] = (
            lambda t=_topology, d=_datapath, f=_flows: _matrix_cell(t, d, f))


def observe(name):
    """sha256 prefix of one run's result JSON + trace ledger + counters."""
    with trace.recording() as rec:
        result = RUNS[name]()
    text = "\n".join((json.dumps(result, sort_keys=True), rec.ledger(),
                      repr(sorted(rec.counters.items()))))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: name -> digest, recorded on the tree before the world table.
PINNED = {
    "degradation": "aad1cb0a1c435766",
    "fault-ledger": "9db4ffc2d998f759",
    "fig10": "3bb09a7e93304025",
    "fig11": "783591a59f0ca00e",
    "fig12": "1747ff20fd41e7ec",
    "fig2": "c04dc8b301a71c3c",
    "fig8": "bdc8968426653391",
    "fig9": "e9f407edb2c0e90a",
    "matrix-P2P-afxdp_copy-1000f": "cb050927abe8e362",
    "matrix-P2P-afxdp_copy-1f": "eb3ef5774452a06b",
    "matrix-P2P-afxdp_zc-1000f": "a7b5aa933f6400fe",
    "matrix-P2P-afxdp_zc-1f": "ed070f08bbf685c1",
    "matrix-P2P-dpdk-1000f": "a4a21f1f9c368929",
    "matrix-P2P-dpdk-1f": "c556ab6c63c57078",
    "matrix-P2P-ebpf-1000f": "0339c3bc577bb113",
    "matrix-P2P-ebpf-1f": "9c6fa6a8d856cdb5",
    "matrix-P2P-kernel-1000f": "c9edbe81f837d062",
    "matrix-P2P-kernel-1f": "7e9edb94e1732b94",
    "matrix-PCP-afxdp_zc-1000f": "8f0457af7cd3b445",
    "matrix-PCP-afxdp_zc-1f": "e3bdb6b0bf4ec6ff",
    "matrix-PCP-dpdk-1000f": "a6bd7c4611fa2db7",
    "matrix-PCP-dpdk-1f": "eae381dd492f5d72",
    "matrix-PCP-kernel-1000f": "27b9a1890c1403f1",
    "matrix-PCP-kernel-1f": "ba747d35c198e5ae",
    "matrix-PVP-afxdp_copy-1000f": "b04dc8ea2397a972",
    "matrix-PVP-afxdp_copy-1f": "f2074d126158778b",
    "matrix-PVP-afxdp_zc-1000f": "989b02700f03f689",
    "matrix-PVP-afxdp_zc-1f": "8ce844d23917d5ca",
    "matrix-PVP-dpdk-1000f": "814c140f55c90546",
    "matrix-PVP-dpdk-1f": "ffb2dcf1d152231d",
    "matrix-PVP-kernel-1000f": "d939b73ba255a27e",
    "matrix-PVP-kernel-1f": "d435826f05199b9a",
    "observer-effect": "9f9cb3ed3281ae24",
    "table2": "fcad040e06219dd6",
    "table3": "2e877dc3f51f02f7",
    "table5": "922c5f7a60e2932b",
    "upgrade-seed0": "0e7c39d5a8e6c0df",
    "upgrade-seed7": "5a7c5efddac80b7c",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_the_pinned_digest(name):
    assert observe(name) == PINNED[name]


def test_a_pvp_digest_moves_with_the_guest_forwarder_cost():
    """Teeth: the pins see a cost the PVP worlds charge per packet."""
    from repro.sim import costs

    name = "matrix-PVP-dpdk-1f"
    with costs.overridden(
            guest_fwd_ns=costs.DEFAULT_COSTS.guest_fwd_ns + 1.0):
        assert observe(name) != PINNED[name]


def test_the_fig8_digest_moves_with_the_recirculation_cost():
    """Teeth: the fig8 pin sees every recirculated pass."""
    from repro.sim import costs

    with costs.overridden(
            recirculate_ns=costs.DEFAULT_COSTS.recirculate_ns + 1.0):
        assert observe("fig8") != PINNED["fig8"]
