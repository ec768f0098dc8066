"""Property-based invariants of the flow caches and mask machinery.

These pin down the algebra the burst classifier leans on: masking is
idempotent and order-insensitive, a MaskSpec projection induces exactly
the ``apply_mask`` equivalence classes, an inserted flow is immediately
probe-able, the EMC never exceeds its capacity, an insert at a failed
probe's positions is the insert that hashes them itself, an EMC replay
cell (recorded by a hitting probe, never by an insert) replays exactly
while the two slots it saw are unchanged, and the megaflow version
moves exactly when the cache changes.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hosts.host import Host
from repro.net.flow import (
    EXACT_MASK,
    FlowKey,
    MaskSpec,
    N_FLOW_FIELDS,
    mask_from_fields,
)
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match
from repro.ovs.megaflow import MegaflowCache, MegaflowEntry, union_masks
from repro.ovs.ofactions import OutputAction
from repro.ovs.openflow import OpenFlowConnection
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.traffic.trex import FlowSpec, TrexStream
from tests.kernel.test_flow_table_oracle import apply_mask

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

field_value = st.integers(0, 0xFFFF)

keys_st = st.builds(
    FlowKey,
    in_port=st.integers(0, 3),
    eth_type=st.sampled_from([0x0800, 0x0806]),
    nw_src=field_value,
    nw_dst=field_value,
    nw_proto=st.sampled_from([6, 17]),
    tp_src=field_value,
    tp_dst=field_value,
)

#: Per-field mask bits: wildcard, exact, or a partial (prefix-ish) mask.
mask_bits = st.sampled_from([0, -1, 0xFF00, 0x00FF, 0xF0F0])

masks_st = st.lists(
    mask_bits, min_size=N_FLOW_FIELDS, max_size=N_FLOW_FIELDS
).map(tuple)


# ---------------------------------------------------------------------------
# Mask algebra.
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(key=keys_st, mask=masks_st)
def test_apply_mask_is_idempotent(key, mask):
    once = apply_mask(key, mask)
    assert apply_mask(FlowKey(*once), mask) == once


@settings(deadline=None)
@given(key=keys_st, m1=masks_st, m2=masks_st)
def test_apply_mask_is_order_insensitive(key, m1, m2):
    a = apply_mask(FlowKey(*apply_mask(key, m1)), m2)
    b = apply_mask(FlowKey(*apply_mask(key, m2)), m1)
    assert a == b


@settings(deadline=None)
@given(k1=keys_st, k2=keys_st, mask=masks_st)
def test_maskspec_projection_matches_apply_mask_classes(k1, k2, mask):
    """project() collides exactly when apply_mask collides — the property
    that lets subtables key on projections."""
    spec = MaskSpec(mask)
    assert ((spec.project(k1) == spec.project(k2))
            == (apply_mask(k1, mask) == apply_mask(k2, mask)))


@settings(deadline=None)
@given(key=keys_st, masks=st.lists(masks_st, min_size=1, max_size=4))
def test_union_mask_is_at_least_as_specific(key, masks):
    union = union_masks(list(masks))
    for mask in masks:
        # Any field a component mask examines, the union examines too:
        # masking with the union preserves every component's projection.
        assert apply_mask(FlowKey(*apply_mask(key, union)), mask) \
            == apply_mask(key, mask)


# ---------------------------------------------------------------------------
# EMC invariants.
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(keys=st.lists(keys_st, min_size=1, max_size=64, unique=True))
def test_emc_insert_then_probe_hits(keys):
    emc = ExactMatchCache(n_entries=8)
    for i, key in enumerate(keys):
        emc.insert(key, f"entry{i}")
        assert emc.lookup(key) == f"entry{i}"


@settings(deadline=None)
@given(keys=st.lists(keys_st, min_size=1, max_size=128, unique=True))
def test_emc_occupancy_never_exceeds_capacity(keys):
    emc = ExactMatchCache(n_entries=8)
    for key in keys:
        emc.insert(key, "v")
        live = sum(1 for s in emc._slots if s is not None)
        assert emc.occupancy == live <= emc.n_entries


@settings(deadline=None)
@given(keys=st.lists(keys_st, min_size=1, max_size=48))
def test_emc_insert_at_probed_positions_matches_rehashing(keys):
    """The datapath inserts a miss at the two positions its failed
    probe returned; that must leave the same slots, occupancy and
    charges as an insert that hashes the key again."""
    sides = []
    for given_positions in (True, False):
        cpu = CpuModel(n_cpus=1)
        ctx = ExecContext(cpu, 0, CpuCategory.USER)
        emc = ExactMatchCache(n_entries=8)
        for i, key in enumerate(keys):
            entry, probed = emc.lookup_cell(key, ctx)
            if entry is None:
                emc.insert(key, f"entry{i}", ctx,
                           probed if given_positions else None)
        sides.append((emc._slots, emc.occupancy, emc.insertions,
                      (emc.hits, emc.misses), repr(cpu._busy)))
    assert sides[0] == sides[1]


# ---------------------------------------------------------------------------
# EMC replay cells: the cross-burst flow cache's validity rule.
# ---------------------------------------------------------------------------

#: A few keys and a 4-slot EMC, so every way collides with some other key.
POOL = [FlowKey(eth_type=0x0800, nw_src=i) for i in range(5)]
VALUES = ["entry0", "entry1"]

emc_ops_st = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(POOL) - 1),
              st.integers(0, len(VALUES) - 1)),
    st.tuples(st.just("evict"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("lookup"), st.integers(0, len(POOL) - 1)),
    st.just(("flush",)),
), max_size=24)


class HitSlotOnly(ExactMatchCache):
    """The tempting, wrong rule: validate only the slot that hit."""

    def replay_hit(self, cell, ctx=None):
        key, _entry, p1, s1, p2, s2 = cell
        if s1 is not None and s1[0] == key:
            return self._slots[p1] is s1
        return self._slots[p2] is s2


def replay_violations(emc_cls, ops):
    """Run ``ops``, recording every cell a hitting lookup returns (an
    insert returns none); after each op, check every cell so far against
    a fresh probe.

    Sound: a cell that replays names the entry a probe returns now.
    Complete: a cell whose two positions no later op could have written
    still replays.  (A slot refilled with an equal pair is a new object,
    so its cells stop replaying though a probe would agree: the rule is
    conservative there, at the price of one re-probe.)
    """
    emc = emc_cls(n_entries=4)
    cells = []  # [cell, neither of its positions written since]
    violations = []
    for op in ops:
        new = None
        if op[0] == "flush":
            emc.flush()
            written = set(range(emc.n_entries))
        else:
            key = POOL[op[1]]
            # A superset of what the op writes: an insert writes one of
            # its key's ways, an evict those holding the key.
            written = set(emc._positions(key))
            if op[0] == "insert":
                emc.insert(key, VALUES[op[2]])
            elif op[0] == "evict":
                emc.evict(key)
            else:
                written = set()
                entry, cell = emc.lookup_cell(key)
                if entry is not None:
                    new = cell
        for rec in cells:
            if written & {rec[0][2], rec[0][4]}:
                rec[1] = False
        if new is not None:
            cells.append([new, True])
        for cell, untouched in cells:
            replays = emc.replay_hit(cell)
            if replays and emc.peek(cell[0]) is not cell[1]:
                violations.append(("unsound", op, cell))
            if untouched and not replays:
                violations.append(("incomplete", op, cell))
    return violations


@settings(deadline=None)
@given(ops=emc_ops_st)
def test_emc_cell_replays_exactly_while_its_slots_are_unchanged(ops):
    assert replay_violations(ExactMatchCache, ops) == []


def _refill_case():
    """Keys J, K with K's first way = J's first way and K's two ways
    distinct, in a 4-slot EMC."""
    emc = ExactMatchCache(n_entries=4)
    for k in POOL:
        for j in POOL:
            pk, pj = emc._positions(k), emc._positions(j)
            if j != k and pk[0] != pk[1] and pj[0] == pk[0]:
                return j, k
    raise AssertionError("no colliding pair in the pool")


def test_refilled_first_way_invalidates_a_second_way_hit():
    """K hit in its second way while its first way was empty; the first
    way is then refilled with K itself (a new entry).  A probe now
    returns the new entry, so the old cell must not replay — and the
    hit-slot-only rule replays it."""
    j, k = _refill_case()
    for emc_cls, replays in ((ExactMatchCache, False), (HitSlotOnly, True)):
        emc = emc_cls(n_entries=4)
        emc.insert(j, "J")
        emc.insert(k, "old")      # first way taken by J: K goes second
        emc.evict(j)              # first way now empty
        entry, cell = emc.lookup_cell(k)
        assert entry == "old" and cell[3] is None
        emc.insert(k, "new")      # refills the empty first way
        assert emc.peek(k) == "new"
        assert emc.replay_hit(cell) is replays


def test_hit_slot_only_rule_fails_the_property():
    """Teeth: the same property over every sequence of up to five ops
    on the colliding pair finds counterexamples to the one-slot rule,
    and none to the real one.  Five is the shortest: J's insert, K's
    into its second way, K's hitting lookup (the cell), J's evict and
    K's re-insert into the emptied first way."""
    pair = [POOL.index(key) for key in _refill_case()]
    alphabet = ([("insert", i, v) for i in pair for v in (0, 1)]
                + [(op, i) for op in ("evict", "lookup") for i in pair]
                + [("flush",)])
    sequences = [ops for n in range(1, 6)
                 for ops in itertools.product(alphabet, repeat=n)]
    assert not any(replay_violations(ExactMatchCache, ops)
                   for ops in sequences)
    assert any(replay_violations(HitSlotOnly, ops) for ops in sequences)


def test_emc_cell_replay_charges_like_a_lookup():
    """A replayed hit charges and counts exactly what a lookup that hits
    does, the occupancy-pressure charge included."""
    keys = [FlowKey(eth_type=0x0800, nw_src=i) for i in range(100)]
    sides = []
    for _ in range(2):
        cpu = CpuModel(n_cpus=1)
        emc = ExactMatchCache(n_entries=256)
        for i, key in enumerate(keys):
            emc.insert(key, i)
        # A first, uncharged round of lookups records the hits' cells.
        cells = [cell for entry, cell in map(emc.lookup_cell, keys)
                 if entry is not None]
        sides.append((cpu, ExecContext(cpu, 0, CpuCategory.USER), emc, cells))
    (cpu, ctx, emc, cells), (live_cpu, live_ctx, live, _) = sides
    assert emc.occupancy > 64
    for cell in cells:
        if emc.replay_hit(cell, ctx):
            assert live.lookup(cell[0], live_ctx) == cell[1]
    assert (emc.hits, emc.misses) == (live.hits, live.misses)
    assert emc.hits > 50
    assert repr(cpu._busy) == repr(live_cpu._busy)


class ProbeCountingEmc(ExactMatchCache):
    """Counts the probes the datapath runs (a replayed hit runs none)."""

    probes = 0

    def lookup_cell(self, key, ctx=None):
        self.probes += 1
        return super().lookup_cell(key, ctx)


def test_a_frame_seen_once_leaves_no_cell():
    """The datapath records a replay cell when a probe *hits*: 64 frames
    seen once insert 64 EMC entries and leave no cell; seen a second
    time they probe, hit and leave one cell each; from the third time
    on they replay without a probe."""
    host = Host("cells", n_cpus=1)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    p1, _ = vs.add_sim_port("br0", "p1")
    vs.add_sim_port("br0", "p2")
    OpenFlowConnection(vs.bridge("br0")).add_flow(
        0, 10, Match(), [OutputAction("p2")])
    dpif = vs.dpif_netdev
    ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
    emc = ProbeCountingEmc()
    stream = TrexStream(FlowSpec(n_flows=64), frame_len=64, seed=5)

    dpif.process_batch(stream.burst(64), p1.dp_port_no, ctx, emc)
    assert (emc.probes, emc.misses, emc.insertions) == (64, 64, 64)
    assert emc.flow_cache == {}
    dpif.process_batch(stream.burst(64), p1.dp_port_no, ctx, emc)
    assert (emc.probes, emc.hits) == (128, 64)
    assert len(emc.flow_cache) == 64
    dpif.process_batch(stream.burst(64), p1.dp_port_no, ctx, emc)
    assert (emc.probes, emc.hits, emc.insertions) == (128, 128, 64)
    assert dpif.stats.emc_hits == 128 and dpif.stats.upcalls == 1


# ---------------------------------------------------------------------------
# Megaflow invariants.
# ---------------------------------------------------------------------------

FIELD_SUBSETS = [
    mask_from_fields(eth_type=-1, nw_dst=-1),
    mask_from_fields(eth_type=-1, nw_src=-1, nw_dst=-1),
    mask_from_fields(eth_type=-1, nw_proto=-1, tp_dst=-1),
    EXACT_MASK,
]


@settings(deadline=None)
@given(
    flows=st.lists(
        st.tuples(keys_st, st.integers(0, len(FIELD_SUBSETS) - 1)),
        min_size=1, max_size=32,
    )
)
def test_megaflow_insert_then_lookup_hits(flows):
    mf = MegaflowCache()
    for key, mask_idx in flows:
        mask = FIELD_SUBSETS[mask_idx]
        inserted = mf.insert(key, mask, ("out",))
        assert isinstance(inserted, MegaflowEntry)
        found = mf.lookup_entry(key)
        # An earlier subtable may shadow it, but *some* entry with a
        # compatible masked key must hit.
        assert found is not None
        assert (apply_mask(key, found.mask)
                == apply_mask(found.key, found.mask))


@settings(deadline=None)
@given(
    flows=st.lists(
        st.tuples(keys_st, st.integers(0, len(FIELD_SUBSETS) - 1)),
        min_size=1, max_size=24,
        # Unique per (mask, masked key): keys colliding under their mask
        # share one subtable slot and would overwrite each other.
        unique_by=lambda f: (f[1], apply_mask(f[0], FIELD_SUBSETS[f[1]])),
    )
)
def test_megaflow_version_moves_exactly_on_mutation(flows):
    mf = MegaflowCache()
    v = mf.version
    for key, mask_idx in flows:
        mf.insert(key, FIELD_SUBSETS[mask_idx], ("out",))
        assert mf.version == v + 1
        v = mf.version
        mf.lookup_entry(key)
        assert mf.version == v  # lookups never bump
    for key, mask_idx in flows:
        removed = mf.remove(key, FIELD_SUBSETS[mask_idx])
        assert removed and mf.version == v + 1
        v = mf.version
    mf.flush()
    assert mf.version == v + 1


def test_megaflow_failed_insert_keeps_version():
    """A full cache rejects the insert and must not bump the version."""
    mf = MegaflowCache(max_flows=1)
    mask = FIELD_SUBSETS[0]
    mf.insert(FlowKey(nw_dst=1, eth_type=0x0800), mask, ("a",))
    v = mf.version
    rejected = mf.insert(FlowKey(nw_dst=2, eth_type=0x0800), mask, ("b",))
    assert rejected is None
    assert mf.version == v
