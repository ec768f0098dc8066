"""The world table covers every (datapath, topology) pair once.

Every pair is either built by :func:`build_world` or explained by
:func:`cell_support`; every P2P row conserves packets; the experiments
that sweep datapaths (Fig. 9, the perf matrix, the upgrade run) all
resolve through this one table; and the loop rows' bounded pump fails
loudly instead of returning with frames in flight.
"""

import pytest

from repro.experiments import fig9_forwarding, upgrade
from repro.experiments.common import warmup_count
from repro.experiments.world import (
    DATAPATHS,
    PUMP_CAP,
    TOPOLOGIES,
    UNSUPPORTED,
    GuestForwarder,
    build_world,
    cell_support,
)
from repro.perfmatrix import cells, matrix
from repro.traffic.trex import FlowSpec, TrexStream

PAIRS = [(dp, topo) for dp in DATAPATHS for topo in TOPOLOGIES]


@pytest.mark.parametrize("datapath,topology", PAIRS)
def test_every_pair_is_built_or_explained(datapath, topology):
    reason = cell_support(datapath, topology)
    if reason is not None:
        assert reason.strip()
        with pytest.raises(ValueError, match="no .* world"):
            build_world(datapath, topology)
        return
    world = build_world(datapath, topology)
    assert (world.datapath, world.topology) == (datapath, topology)
    assert world.nic_in.name == "ens1" and world.nic_out.name == "ens2"
    assert world.pmd_cpus == tuple(range(len(world.pmds)))
    if topology != "P2P":
        with pytest.raises(ValueError, match="no conservation ledger"):
            world.ledger(0)


def test_unknown_names_are_refused():
    with pytest.raises(ValueError, match="unknown datapath"):
        build_world("netmap", "P2P")
    with pytest.raises(ValueError, match="unknown topology"):
        build_world("kernel", "P2V")
    with pytest.raises(ValueError, match="unknown VM attachment"):
        build_world("afxdp_zc", "PVP", vm_attach="macvtap")


@pytest.mark.parametrize("datapath", DATAPATHS)
def test_p2p_rows_drive_and_conserve(datapath):
    world = build_world(datapath, "P2P")
    stream = TrexStream(FlowSpec(n_flows=8), frame_len=64)
    assert world.drive(stream, 64).mpps > 0
    ledger = world.ledger(warmup_count(stream) + 64)
    assert ledger.conserved(), ledger.render()
    assert ledger.forwarded == ledger.offered


def test_the_experiments_resolve_through_one_table():
    for scenario, configs in fig9_forwarding.CONFIGS.items():
        for _label, datapath in configs:
            assert cell_support(datapath, scenario) is None
    assert cells.DATAPATHS is DATAPATHS
    assert cells.TOPOLOGIES is TOPOLOGIES
    assert cells.cell_support is cell_support
    # The paper-scale grid spans the whole table: it skips exactly the
    # table's empty cells.
    skipped = {(s.datapath, s.topology) for s in matrix.FULL_GRID.specs()
               if cells.cell_support(s.datapath, s.topology) is not None}
    assert skipped == set(UNSUPPORTED)
    assert upgrade.SCENARIOS == DATAPATHS


def test_a_wedged_loop_pump_raises_instead_of_returning(monkeypatch):
    """A guest forwarder that reports progress forever: the pump gives up
    after PUMP_CAP rounds, naming the world, the cap and what is
    pending, rather than returning with frames in flight."""
    world = build_world("dpdk", "PVP")
    monkeypatch.setattr(GuestForwarder, "pump", lambda self, budget=64: 1)
    world.nic_in.host_receive(
        TrexStream(FlowSpec(n_flows=1)).next_packet())
    with pytest.raises(AssertionError,
                       match=rf"dpdk/PVP .* {PUMP_CAP} pump rounds "
                             r"\(0 pending on ens1\)"):
        world.pump()
