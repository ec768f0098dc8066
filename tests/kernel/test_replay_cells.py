"""Replay cells change no observable, in every layer that keeps them.

A cell replays a lookup while its stamp holds: the XDP verdict memo's
map versions, cost-table version and program token, dpif-netdev's two
EMC slots, ``KernelFlowTable.version``.  The property drives a P2P
world over a few frames with churn between the bursts, once as it is
and once under reference mode (no cells), and compares everything the
lookups feed: egress, the EMC, megaflow, flow-table and upcall
counters, every trace counter (``ebpf.runs`` among them) and every busy
lane.  Two worlds:

* ``kernel`` — ``flow_put``, ``flow_del``, ``flow_flush`` and a cost
  override against the kernel datapath's cells;
* ``afxdp_zc`` — an XSK map write, a megaflow delete, an EMC evict or
  flush and a cost override against the XDP verdict memo and
  dpif-netdev's flow cache (an evict leaves the flow cache's cells
  stale; a flush empties it).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.world import build_world
from repro.kernel.ovs_module import KernelFlowTable
from repro.net.flow import EXACT_MASK, FlowKey, extract_flow
from repro.ovs import odp
from repro.sim import costs, trace
from repro.sim.cpu import CpuCategory
from repro.traffic.trex import FlowSpec, TrexStream
from tests.reference.memos import reference_mode

from .test_ovs_module import _captured, _udp, world  # noqa: F401

FLOWS = 4

#: A burst is drawn three times as often as any churn op: a cell
#: replays only from a flow's third sighting, so a stale cell shows only
#: after two bursts, a churn op and a third burst.
BURSTS = (st.tuples(st.just("burst"), st.integers(1, 24)),) * 3 + (
    st.tuples(st.just("costlier"), st.integers(1, 24)),)
OPS = {
    "kernel": st.lists(st.one_of(
        *BURSTS,
        st.tuples(st.just("put"), st.integers(0, FLOWS - 1),
                  st.sampled_from(("ens2", "drop", "nowhere"))),
        st.tuples(st.just("del"), st.integers(0, 7)),
        st.tuples(st.just("flush")),
    ), max_size=14),
    "afxdp_zc": st.lists(st.one_of(
        *BURSTS,
        st.tuples(st.just("xsk"), st.booleans()),
        st.tuples(st.just("mf_del"), st.integers(0, 7)),
        st.tuples(st.just("evict"), st.integers(0, FLOWS - 1)),
        st.tuples(st.just("emc_flush")),
    ), max_size=14),
}
#: What ``costlier`` overrides: costs the world's replays re-issue.
COSTLIER = {
    "kernel": ("megaflow_subtable_ns",),
    "afxdp_zc": ("ebpf_insn_ns", "emc_hit_ns"),
}
#: Drives with churn that do replay, in every layer of their world.
CHURN = {
    "kernel": [("burst", 12), ("put", 1, "drop"), ("burst", 12),
               ("del", 1), ("burst", 8), ("costlier", 8), ("flush",),
               ("burst", 12)],
    "afxdp_zc": [("burst", 12), ("burst", 12), ("xsk", True),
                 ("burst", 12), ("mf_del", 0), ("burst", 8),
                 ("evict", 1), ("costlier", 8), ("emc_flush",),
                 ("burst", 12), ("burst", 12)],
}


def _kernel_churn(bench, frames):
    """The kernel world's ops, and its observed counters and replays."""
    dp = bench.vs.dpif_netlink.dp
    in_port = dp.port_no("ens1")
    put = {"ens2": (odp.Output(dp.port_no("ens2")),), "drop": (),
           "nowhere": (odp.Output(99),)}
    installed = []  # every (key, mask) ever put, upcall installs too
    flow_put = dp.flow_put

    def recording_put(key, mask, actions):
        installed.append((key, mask))
        flow_put(key, mask, actions)

    def apply(op):
        if op[0] == "put":
            key = extract_flow(frames[op[1]], in_port=in_port)
            dp.flow_put(key, EXACT_MASK, put[op[2]])
        elif op[0] == "del":
            if installed:
                key, mask = installed[op[1] % len(installed)]
                try:
                    dp.flow_del(key, mask)
                except KeyError:
                    pass  # already gone
        else:
            dp.flow_flush()

    def observe():
        flows = dp.flows
        return ((flows.n_hit, flows.n_missed, flows.n_mask_hit,
                 dp.n_upcalls, dict(dp.dropped)),
                {"kernel": dp.cells.n_replays})

    dp.flow_put = recording_put
    return apply, observe


def _afxdp_churn(bench, frames):
    """The AF_XDP world's ops, and its observed counters and replays."""
    xdp = bench.nic_in.xdp_program_for(0)
    (xsks,) = xdp.program.maps.values()
    dpif = bench.vs.dpif_netdev
    in_port = dpif.port_no("ens1")
    megaflows = dpif.megaflows
    emcs = [pmd.emc for pmd in bench.pmds]

    def apply(op):
        if op[0] == "xsk":
            if op[1]:
                xsks.set_dev(0, 1)
            elif xsks.get_dev(0) is not None:
                xsks.delete((0).to_bytes(4, "little"))
        elif op[0] == "mf_del":
            entries = megaflows.entries()
            if entries:
                entry = entries[op[1] % len(entries)]
                megaflows.remove(entry.key, entry.mask)
        elif op[0] == "evict":
            key = extract_flow(frames[op[1]], in_port=in_port)
            for emc in emcs:
                emc.evict(key)
        else:
            for emc in emcs:
                emc.flush()

    def observe():
        return ((repr(dpif.stats), megaflows.hits, megaflows.misses,
                 len(megaflows),
                 [(emc.hits, emc.misses, emc.insertions, emc.occupancy)
                  for emc in emcs]),
                {"xdp": xdp.memo.n_replays,
                 "dpif": sum(emc.flow_cache.n_replays for emc in emcs)})

    return apply, observe


CHURNS = {"kernel": _kernel_churn, "afxdp_zc": _afxdp_churn}


def run(datapath, ops):
    """One P2P world through ``ops``: everything it observed, and each
    layer's replays."""
    bench = build_world(datapath, "P2P")
    stream = TrexStream(FlowSpec(n_flows=FLOWS), frame_len=64, seed=3)
    frames = [pkt.data for pkt in stream.burst(FLOWS)]
    apply, observe = CHURNS[datapath](bench, frames)
    inject, pump = bench.nic_in.host_receive, bench.pump

    def burst(n):
        for pkt in stream.burst(n):
            inject(pkt)
        pump()

    with trace.recording() as rec:
        for op in ops:
            if op[0] == "burst":
                burst(op[1])
            elif op[0] == "costlier":
                with costs.overridden(**{name: 17.0 * op[1]
                                         for name in COSTLIER[datapath]}):
                    burst(op[1])
            else:
                apply(op)
    cpu = bench.host.cpu
    lanes = [cpu.busy_ns(c, cat) for c in range(cpu.n_cpus)
             for cat in CpuCategory]
    counters, replays = observe()
    observed = (bench.nic_out.wire_peer.stats.rx_packets, counters,
                sorted(rec.counters.items()), rec.ledger(), lanes)
    return observed, replays


@pytest.mark.parametrize("datapath", sorted(OPS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_replays_are_invisible_under_flow_table_churn(datapath, data):
    ops = data.draw(OPS[datapath], label="ops")
    default, _replays = run(datapath, ops)
    with reference_mode():
        reference, replays = run(datapath, ops)
    assert not any(replays.values()), replays
    assert default == reference


@pytest.mark.parametrize("datapath", sorted(CHURN))
def test_the_churn_drive_replays(datapath):
    """Each world's churn drive replays in every layer it has, and is
    invisible: the property tests cells, not their absence."""
    default, replays = run(datapath, CHURN[datapath])
    assert all(replays.values()), replays
    with reference_mode():
        reference, _replays = run(datapath, CHURN[datapath])
    assert default == reference


def test_a_deleted_flow_upcalls_on_the_very_next_packet(world):  # noqa: F811
    _kernel, dp, p1, p2, v1, v2, ctx = world
    got = _captured(p2)
    upcalls = []
    dp.upcall_handler = lambda up, c: upcalls.append(up)
    key = extract_flow(_udp().data, in_port=v1.port_no)
    dp.flow_put(key, EXACT_MASK, [odp.Output(v2.port_no)])
    p1.deliver(_udp(), ctx)
    p1.deliver(_udp(), ctx)
    assert dp.cells.n_replays == 1 and len(got) == 2
    dp.flow_del(key, EXACT_MASK)
    p1.deliver(_udp(), ctx)
    assert len(upcalls) == 1 and dp.n_upcalls == 1
    assert len(got) == 2 and dp.cells.n_replays == 1


def test_the_version_moves_on_every_mutation_and_nothing_else():
    table = KernelFlowTable()
    key = FlowKey(in_port=1, nw_dst=7)
    table.insert(key, EXACT_MASK, (odp.Output(2),))
    assert table.version == 1
    table.insert(key, EXACT_MASK, (odp.Output(3),))  # a replace moves it
    assert table.version == 2

    class Ctx:
        def charge(self, ns, label="work"):
            pass

    table.lookup(key, Ctx())
    table.lookup(FlowKey(in_port=2), Ctx())
    assert table.version == 2
    with pytest.raises(TypeError):
        table.insert(key, EXACT_MASK, ("not an action",))
    assert table.version == 2
    table.remove(key, EXACT_MASK)
    assert table.version == 3
    table.flush()
    assert table.version == 4


def test_the_version_does_not_move_on_a_remove_that_raises():
    table = KernelFlowTable()
    key = FlowKey(in_port=1, nw_dst=7)
    with pytest.raises(KeyError):
        table.remove(key, EXACT_MASK)  # no such mask
    assert table.version == 0
    table.insert(key, EXACT_MASK, (odp.Output(2),))
    with pytest.raises(KeyError):
        table.remove(FlowKey(in_port=1, nw_dst=8), EXACT_MASK)  # no flow
    assert table.version == 1
    assert len(table) == 1
