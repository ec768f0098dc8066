"""NXM register semantics in translation (the NSX pipeline currency)."""

import pytest

from repro.kernel.kernel import Kernel
from repro.net.flow import FlowKey, extract_flow
from repro.ovs import odp
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.ofactions import (
    CtAction,
    GotoTable,
    OutputAction,
    SetFieldAction,
)
from repro.ovs.openflow import OpenFlowConnection
from repro.ovs.vswitchd import VSwitchd
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext

from .conftest import tcp_pkt, udp_pkt


@pytest.fixture
def world():
    cpu = CpuModel(4)
    kernel = Kernel(cpu)
    vs = VSwitchd(kernel, datapath_type="netdev")
    vs.add_bridge("br0")
    p1, a1 = vs.add_sim_port("br0", "p1")
    p2, a2 = vs.add_sim_port("br0", "p2")
    of = OpenFlowConnection(vs.bridge("br0"))
    ctx = ExecContext(cpu, 0, CpuCategory.USER)
    return vs, of, (p1, a1), (p2, a2), ctx, ExactMatchCache()


def test_flowkey_has_31_fields():
    # Table 3: "matching fields among all rules: 31".
    assert len(FlowKey._fields) == 31


def test_reg_setfield_not_emitted_to_datapath(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc = world
    of.add_flow(0, 10, Match(), [SetFieldAction("reg0", 7), GotoTable(1)])
    of.add_flow(1, 10, Match(reg0=7), [OutputAction("p2")])
    key = extract_flow(udp_pkt().data, in_port=p1.dp_port_no)
    result = vs.ofproto.translate(key)
    # Only the Output survived into datapath actions; reg0 was consumed
    # during translation.
    assert all(not isinstance(a, odp.SetField) for a in result.actions)
    assert any(isinstance(a, odp.Output) for a in result.actions)


def test_reg_match_steers_pipeline(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc = world
    of.add_flow(0, 10, Match(nw_proto=17),
                [SetFieldAction("reg1", 100), GotoTable(1)])
    of.add_flow(0, 10, Match(nw_proto=6),
                [SetFieldAction("reg1", 200), GotoTable(1)])
    of.add_flow(1, 10, Match(reg1=100), [OutputAction("p2")])
    of.add_flow(1, 10, Match(reg1=200), [])  # TCP dropped
    vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx, emc)
    vs.dpif_netdev.process_batch([tcp_pkt()], p1.dp_port_no, ctx, emc)
    assert len(a2.transmitted) == 1  # only the UDP packet


def test_regs_frozen_across_recirculation(world):
    """ct(table=N) freezes registers; the resume pass must see them."""
    vs, of, (p1, a1), (p2, a2), ctx, emc = world
    of.add_flow(0, 10, Match(),
                [SetFieldAction("reg2", 42),
                 CtAction(zone=1, commit=True, table=3)])
    of.add_flow(3, 10, Match(reg2=42), [OutputAction("p2")])
    of.add_flow(3, 1, Match(), [])  # anything without reg2: drop
    vs.dpif_netdev.process_batch([tcp_pkt(flags=0x02)],
                                 p1.dp_port_no, ctx, emc)
    assert len(a2.transmitted) == 1


def test_every_register_is_frozen_across_recirculation(world):
    """metadata and reg0-reg8, each with its own value, all come back on
    the resume pass, and the frozen state is exactly those ten."""
    vs, of, (p1, a1), (p2, a2), ctx, emc = world
    regs = {name: 0x10 + i for i, name in enumerate(
        ["metadata"] + [f"reg{i}" for i in range(9)])}
    of.add_flow(0, 10, Match(),
                [SetFieldAction(name, value) for name, value in regs.items()]
                + [CtAction(zone=1, commit=True, table=3)])
    of.add_flow(3, 10, Match(**regs), [OutputAction("p2")])
    of.add_flow(3, 1, Match(), [])
    vs.dpif_netdev.process_batch([tcp_pkt(flags=0x02)],
                                 p1.dp_port_no, ctx, emc)
    assert len(a2.transmitted) == 1
    [frozen] = vs.ofproto._recirc_ids
    assert frozen == ("br0", 3, tuple(regs.values()))


def test_different_reg_states_get_different_recirc_ids(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc = world
    bridge = vs.bridge("br0")
    rid_a = vs.ofproto.alloc_recirc_id(bridge, 3, (1,) * 10)
    rid_b = vs.ofproto.alloc_recirc_id(bridge, 3, (2,) * 10)
    rid_a2 = vs.ofproto.alloc_recirc_id(bridge, 3, (1,) * 10)
    assert rid_a != rid_b
    assert rid_a == rid_a2


def test_metadata_field_works_like_a_register(world):
    vs, of, (p1, a1), (p2, a2), ctx, emc = world
    of.add_flow(0, 10, Match(),
                [SetFieldAction("metadata", 0xDEAD), GotoTable(1)])
    of.add_flow(1, 10, Match(metadata=0xDEAD), [OutputAction("p2")])
    vs.dpif_netdev.process_batch([udp_pkt()], p1.dp_port_no, ctx, emc)
    assert len(a2.transmitted) == 1
