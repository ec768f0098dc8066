"""The sparse kernel flow table against the dense table it replaced.

``KernelFlowTable`` keys its subtables on ``MaskSpec.project(key)`` (the
non-zero mask fields only) and keeps its masks in one insertion-ordered
dict.  :class:`DenseFlowTable` below is the table it replaced, kept
verbatim: a mask list beside a mask dict, subtables keyed on the full
31-field ``apply_mask`` tuple.  Random operation sequences must leave
both with the same actions, counters and mask walk, and must charge the
same ``megaflow`` floats in the same order.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.flow
from repro.experiments.p2p import kernel_p2p
from repro.kernel.ovs_module import KernelFlowTable
from repro.net.flow import (
    EXACT_MASK,
    WILDCARD_MASK,
    FlowKey,
    apply_mask,
    mask_from_fields,
)
from repro.ovs import odp
from repro.sim.costs import DEFAULT_COSTS
from repro.traffic.trex import FlowSpec, TrexStream

from . import test_ovs_module

#: The two-port datapath world of ``test_ovs_module``, and (below) its
#: ct + recirc and tunnel pipelines, reused under ``no_dense_masks``.
world = test_ovs_module.world


class DenseFlowTable:
    def __init__(self):
        self._masks = []
        self._tables = {}
        self.n_hit = 0
        self.n_missed = 0

    def __len__(self):
        return sum(len(t) for t in self._tables.values())

    @property
    def n_masks(self):
        return len(self._masks)

    def insert(self, key, mask, actions):
        odp.validate_actions(actions)
        if mask not in self._tables:
            self._tables[mask] = {}
            self._masks.append(mask)
        self._tables[mask][apply_mask(key, mask)] = tuple(actions)

    def remove(self, key, mask):
        table = self._tables.get(mask)
        if table is None:
            raise KeyError("no such mask")
        del table[apply_mask(key, mask)]
        if not table:
            del self._tables[mask]
            self._masks.remove(mask)

    def flush(self):
        self._masks.clear()
        self._tables.clear()

    def lookup(self, key, ctx):
        costs = DEFAULT_COSTS
        probed = 0
        for mask in self._masks:
            probed += 1
            actions = self._tables[mask].get(apply_mask(key, mask))
            if actions is not None:
                ctx.charge(
                    probed * costs.megaflow_subtable_ns, label="megaflow"
                )
                self.n_hit += 1
                return actions
        ctx.charge(
            max(probed, 1) * costs.megaflow_subtable_ns, label="megaflow"
        )
        self.n_missed += 1
        return None


class ChargeLog:
    """Stands in for an ``ExecContext``: keeps every charge in order."""

    def __init__(self):
        self.charges = []

    def charge(self, ns, label="work", category=None):
        self.charges.append((ns, label))


# A small universe, so that inserts overwrite, removes find their flow
# and different masks project different keys onto the same subtable key.
KEYS = st.builds(
    FlowKey,
    in_port=st.integers(1, 3),
    eth_type=st.sampled_from((0x0800, 0x0806)),
    nw_src=st.sampled_from((0x0A000001, 0x0A000002, 0x0A800001)),
    nw_dst=st.sampled_from((0x0A000001, 0x0A0000FF, 0x0B000001, 0xC0A80001)),
    tp_dst=st.integers(0, 3),
    recirc_id=st.integers(0, 1),
)
PREFIXES = [(0xFFFFFFFF << (32 - n)) & 0xFFFFFFFF for n in (8, 16, 24, 25, 32)]
MASKS = st.one_of(
    st.sampled_from((EXACT_MASK, WILDCARD_MASK,
                     mask_from_fields(in_port=-1, recirc_id=-1))),
    st.builds(lambda bits: mask_from_fields(in_port=-1, nw_dst=bits),
              st.sampled_from(PREFIXES)),
    st.builds(lambda bit: mask_from_fields(nw_src=1 << bit),
              st.sampled_from((0, 1, 23, 31))),
    st.builds(lambda bit: mask_from_fields(tp_dst=1 << bit, eth_type=-1),
              st.integers(0, 1)),
)
OPS = st.one_of(
    st.tuples(st.just("insert"), KEYS, MASKS, st.integers(1, 9)),
    st.tuples(st.just("remove"), KEYS, MASKS),
    st.tuples(st.just("lookup"), KEYS),
    st.tuples(st.just("lookup"), KEYS),
    st.tuples(st.just("flush")),
)


def apply_op(table, ctx, op):
    """Run one op; returns what a caller can observe of it."""
    try:
        if op[0] == "insert":
            return table.insert(op[1], op[2], (odp.Output(op[3]),))
        if op[0] == "remove":
            return table.remove(op[1], op[2])
        if op[0] == "lookup":
            return table.lookup(op[1], ctx)
        return table.flush()
    except KeyError:
        return KeyError


def assert_same_state(sparse, dense):
    assert len(sparse) == len(dense)
    assert sparse.n_masks == dense.n_masks
    assert (sparse.n_hit, sparse.n_missed) == (dense.n_hit, dense.n_missed)


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=60))
def test_random_sequences_agree_with_the_dense_table(ops):
    sparse, dense = KernelFlowTable(), DenseFlowTable()
    sparse_ctx, dense_ctx = ChargeLog(), ChargeLog()
    lookups_on_no_mask = 0
    for op in ops:
        if op[0] == "lookup" and not dense.n_masks:
            lookups_on_no_mask += 1
        assert apply_op(sparse, sparse_ctx, op) == \
            apply_op(dense, dense_ctx, op), op
        assert_same_state(sparse, dense)
    # The same number of masks probed by every lookup, so the same
    # charge, float for float.  dpctl/show's ``masks: hit:`` is their
    # sum, except that a lookup on an empty table probes nothing and is
    # still charged for one subtable.
    assert sparse_ctx.charges == dense_ctx.charges
    unit = DEFAULT_COSTS.megaflow_subtable_ns
    assert sparse.n_mask_hit == sum(
        round(ns / unit) for ns, _ in dense_ctx.charges) - lookups_on_no_mask


def test_a_mask_that_empties_and_returns_is_probed_last():
    first = mask_from_fields(in_port=-1)
    second = mask_from_fields(in_port=-1, recirc_id=-1)
    key = FlowKey(in_port=1)
    for table in (KernelFlowTable(), DenseFlowTable()):
        ctx = ChargeLog()
        table.insert(key, first, (odp.Output(1),))
        table.insert(key, second, (odp.Output(2),))
        assert table.lookup(key, ctx) == (odp.Output(1),)
        table.remove(key, first)
        assert table.n_masks == 1
        table.insert(key, first, (odp.Output(3),))
        # ``second`` is now walked first and hits on the first probe.
        assert table.lookup(key, ctx) == (odp.Output(2),)
        table.remove(key, second)
        assert table.lookup(key, ctx) == (odp.Output(3),)
        assert [ns for ns, _ in ctx.charges] == \
            [DEFAULT_COSTS.megaflow_subtable_ns] * 3


def test_unknown_mask_and_unknown_key_raise_keyerror():
    table = KernelFlowTable()
    mask = mask_from_fields(in_port=-1)
    with pytest.raises(KeyError, match="no such mask"):
        table.remove(FlowKey(in_port=1), mask)
    table.insert(FlowKey(in_port=1), mask, (odp.Output(1),))
    with pytest.raises(KeyError):
        table.remove(FlowKey(in_port=2), mask)
    assert len(table) == 1 and table.n_masks == 1


# ----------------------------------------------------------------------
# src/ never goes dense again.
# ----------------------------------------------------------------------
@pytest.fixture
def no_dense_masks(monkeypatch):
    """``apply_mask`` raises, through whichever name a module holds it."""
    def dense_projection(key, mask):
        raise AssertionError("apply_mask called from src/: a 31-field "
                             "projection is back on a datapath")

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "apply_mask", None) is apply_mask:
            monkeypatch.setattr(module, "apply_mask", dense_projection)
    assert repro.net.flow.apply_mask is dense_projection


def test_no_datapath_projects_densely(no_dense_masks, world):
    bench = kernel_p2p(n_queues=10)
    delivered = []
    bench.nic_out.wire_peer.set_rx_handler(
        lambda pkt, ctx: delivered.append(pkt))
    stream = TrexStream(FlowSpec(n_flows=50), frame_len=64, seed=3)
    bench.drive(stream, 900)  # 100 warm-up packets + 900
    assert len(delivered) == 1_000
    flows = bench.host.vswitchd.dpif_netlink.dp.flows
    assert flows.n_hit + flows.n_missed == 1_000
    # The ct + recirc + tunnel pipelines, on the world of that module.
    test_ovs_module.test_ct_and_recirc_pipeline(world)
    test_ovs_module.test_tunnel_push_pop_roundtrip(world)
