"""The world table covers every (datapath, topology) pair once.

Every pair is either built by :func:`build_world` or explained by
:func:`cell_support`; every P2P, PVP and PCP row conserves packets
below and past its pools and rings; every endpoint row carries its
experiment's traffic and has no ledger; the experiments that sweep
datapaths (Fig. 9, the perf matrix, the upgrade run) all resolve through
this one table; and the loop rows' bounded pump fails loudly instead of
returning with frames in flight.
"""

import functools

import pytest

from repro.experiments import fig8_tcp_throughput, fig9_forwarding, upgrade
from repro.experiments.common import warmup_count
from repro.experiments.fig10_latency import _RrPath
from repro.experiments.fig11_container_latency import _ContainerRrPath
from repro.experiments.world import (
    DATAPATHS,
    ENDPOINTS,
    PUMP_CAP,
    TOPOLOGIES,
    UNSUPPORTED,
    Endpoints,
    GuestForwarder,
    build_world,
    cell_support,
)
from repro.perfmatrix import cells, matrix
from repro.sim.cpu import CpuCategory, ExecContext
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
    # A forwarding row's only spec is its name: an Endpoints spec's
    # pipeline and offloads would be half-honoured here.
    with pytest.raises(ValueError, match="pass its name"):
        build_world(datapath, Endpoints(topology))
    world = build_world(datapath, topology)
    assert (world.datapath, world.topology) == (datapath, topology)
    assert world.nic_in.name == "ens1" and world.nic_out.name == "ens2"
    assert world.pmd_cpus == tuple(range(len(world.pmds)))


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


#: Measured packets below and past every pool and ring: 9,000 overruns
#: the 2,048-slot XSK rings, the 4,096-frame umem, the 4,096-slot NIC
#: ring and DPDK's 8,192-mbuf pool.
SIZES = (2_000, 9_000)
_MEMPOOL_STALL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="DPDK mbufs do not return to their pool: past 8,192 frames "
           "P2P loses frames into no sink and PVP/PCP wedge the pump")
FORWARDING = [
    pytest.param(dp, topo, n, marks=_MEMPOOL_STALL
                 if dp == "dpdk" and n > 8_192 else ())
    for dp, topo in PAIRS if cell_support(dp, topo) is None
    for n in SIZES]


@functools.lru_cache(maxsize=None)
def _drive(datapath, topology, packets):
    """ns per packet and the ledger of one fresh world's measured run:
    100 flows to one destination, 64 B frames."""
    world = build_world(datapath, topology)
    stream = TrexStream(FlowSpec(n_flows=100, vary_dst=False), frame_len=64)
    ns = world.drive(stream, packets).ns_per_packet
    return ns, world.ledger(warmup_count(stream) + packets)


@pytest.mark.parametrize("datapath,topology,packets", FORWARDING)
def test_every_forwarding_world_balances(datapath, topology, packets):
    """Every P2P, PVP and PCP world forwards every offered frame, and
    its cost per packet does not depend on how many it measured."""
    ns, ledger = _drive(datapath, topology, packets)
    assert ledger.conserved(), ledger.render()
    assert ledger.forwarded == ledger.offered
    assert ns == pytest.approx(_drive(datapath, topology, SIZES[0])[0],
                               rel=0.01)


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
    assert skipped == {cell for cell in UNSUPPORTED if cell[1] in TOPOLOGIES}
    assert upgrade.SCENARIOS == DATAPATHS


def test_a_wedged_loop_pump_raises_instead_of_returning(monkeypatch):
    """A guest forwarder that reports progress forever: the pump gives up
    after PUMP_CAP rounds, naming the world, the cap and what is
    pending, rather than returning with frames in flight.  The pump binds
    its stages when the world is built, so the class is patched first."""
    monkeypatch.setattr(GuestForwarder, "pump", lambda self, budget=64: 1)
    world = build_world("dpdk", "PVP")
    world.nic_in.host_receive(
        TrexStream(FlowSpec(n_flows=1)).next_packet())
    with pytest.raises(AssertionError,
                       match=rf"dpdk/PVP .* {PUMP_CAP} pump rounds "
                             r"\(0 frames pending\)"):
        world.pump()


# ----------------------------------------------------------------------
# The endpoint rows: Figs. 8, 10 and 11.
# ----------------------------------------------------------------------
ENDPOINT_PAIRS = [(dp, shape) for dp in DATAPATHS for shape in ENDPOINTS]


def handshake(world):
    """One TCP handshake from the world's client end to its server end."""
    client, server = world.ends
    ctx = getattr(client, "ctx", None) or ExecContext(
        world.host.cpu, 10, CpuCategory.USER, name="client")
    listener = server.stack.tcp_listen(server.ip, 5001)
    conn = client.stack.tcp_connect(client.ip, server.ip, 5001, ctx)
    world.pump()
    assert conn.state.value == "ESTABLISHED", world.name
    assert len(listener.accept_queue) == 1


@pytest.mark.parametrize("datapath,topology", ENDPOINT_PAIRS)
def test_every_endpoint_row_is_built_or_explained(datapath, topology):
    """Each endpoint row builds and carries its experiment's traffic: a
    TCP handshake on Fig. 8's shapes, an RR transaction on Figs. 10/11's
    (the paths accept any datapath name; "afxdp" is their label for
    ``afxdp_zc``)."""
    reason = cell_support(datapath, topology)
    if reason is not None:
        assert reason.strip()
        with pytest.raises(ValueError, match="no .* world"):
            build_world(datapath, topology)
        return
    ends = topology
    if topology == "V2V-geneve":
        # The Geneve row has no default pipeline: its experiment's
        # pipeline also decapsulates the tunnel.
        with pytest.raises(ValueError, match="needs its experiment's"):
            build_world(datapath, topology)
        ends = Endpoints(topology,
                         pipeline=fig8_tcp_throughput._geneve_pipeline)
    world = build_world(datapath, ends)
    assert (world.datapath, world.topology) == (datapath, topology)
    assert len(world.ends) == 2
    with pytest.raises(ValueError, match="no conservation ledger"):
        world.ledger(0)
    if topology != "W2V":
        handshake(world)
    if topology == "W2V":
        _RrPath(datapath).one_transaction()
    if topology == "C2C":
        _ContainerRrPath(datapath).one_transaction()
