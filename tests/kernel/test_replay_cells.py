"""The kernel datapath's replay cells change no observable.

A cell replays a lookup that hit while ``KernelFlowTable.version`` has
not moved.  The property test drives a kernel P2P world over a few
frames, with ``flow_put``, ``flow_del`` and ``flow_flush`` and a cost
override between the bursts, once as it is and once under reference
mode (no cells), and compares everything the lookups feed: egress, the
flow table's hit, miss and mask counters, upcalls, drops and every busy
lane.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.world import build_world
from repro.kernel.ovs_module import KernelFlowTable
from repro.net.flow import EXACT_MASK, FlowKey, extract_flow
from repro.ovs import odp
from repro.sim import costs
from repro.sim.cpu import CpuCategory
from repro.traffic.trex import FlowSpec, TrexStream
from tests.reference.memos import reference_mode

from .test_ovs_module import _captured, _udp, world  # noqa: F401

FLOWS = 4

OPS = st.lists(st.one_of(
    st.tuples(st.just("burst"), st.integers(1, 24)),
    st.tuples(st.just("put"), st.integers(0, FLOWS - 1),
              st.sampled_from(("ens2", "drop", "nowhere"))),
    st.tuples(st.just("del"), st.integers(0, 7)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("costlier"), st.integers(1, 24)),
), max_size=14)


def run(ops):
    """One kernel P2P world through ``ops``; everything it observed."""
    bench = build_world("kernel", "P2P")
    dp = bench.vs.dpif_netlink.dp
    stream = TrexStream(FlowSpec(n_flows=FLOWS), frame_len=64, seed=3)
    frames = [pkt.data for pkt in stream.burst(FLOWS)]
    in_port = dp.port_no("ens1")
    put = {"ens2": (odp.Output(dp.port_no("ens2")),), "drop": (),
           "nowhere": (odp.Output(99),)}
    installed = []  # every (key, mask) ever put, upcall installs too
    flow_put = dp.flow_put

    def recording_put(key, mask, actions):
        installed.append((key, mask))
        flow_put(key, mask, actions)

    dp.flow_put = recording_put
    inject, pump = bench.nic_in.host_receive, bench.pump
    for op in ops:
        if op[0] == "burst":
            for pkt in stream.burst(op[1]):
                inject(pkt)
            pump()
        elif op[0] == "costlier":
            with costs.overridden(megaflow_subtable_ns=17.0 * op[1]):
                for pkt in stream.burst(op[1]):
                    inject(pkt)
                pump()
        elif op[0] == "put":
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
    cpu = bench.host.cpu
    lanes = [cpu.busy_ns(c, cat) for c in range(cpu.n_cpus)
             for cat in CpuCategory]
    flows = dp.flows
    observed = (bench.nic_out.wire_peer.stats.rx_packets, flows.n_hit,
                flows.n_missed, flows.n_mask_hit, dp.n_upcalls,
                dict(dp.dropped), lanes)
    return observed, dp.n_replays


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
@example([("burst", 12), ("put", 1, "drop"), ("burst", 12), ("del", 1),
          ("burst", 8), ("costlier", 8), ("flush",), ("burst", 12)])
def test_replays_are_invisible_under_flow_table_churn(ops):
    default, _replays = run(ops)
    with reference_mode():
        reference, replays = run(ops)
    assert replays == 0
    assert default == reference


def test_the_churn_drive_replays():
    """The property's explicit example does replay: it tests cells."""
    _observed, replays = run(
        [("burst", 12), ("put", 1, "drop"), ("burst", 12), ("del", 1),
         ("burst", 8), ("costlier", 8), ("flush",), ("burst", 12)])
    assert replays > 0


def test_a_deleted_flow_upcalls_on_the_very_next_packet(world):  # noqa: F811
    _kernel, dp, p1, p2, v1, v2, ctx = world
    got = _captured(p2)
    upcalls = []
    dp.upcall_handler = lambda up, c: upcalls.append(up)
    key = extract_flow(_udp().data, in_port=v1.port_no)
    dp.flow_put(key, EXACT_MASK, [odp.Output(v2.port_no)])
    p1.deliver(_udp(), ctx)
    p1.deliver(_udp(), ctx)
    assert dp.n_replays == 1 and len(got) == 2
    dp.flow_del(key, EXACT_MASK)
    p1.deliver(_udp(), ctx)
    assert len(upcalls) == 1 and dp.n_upcalls == 1
    assert len(got) == 2 and dp.n_replays == 1


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
