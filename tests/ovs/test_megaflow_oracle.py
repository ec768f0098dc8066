"""The megaflow cache against the three-structure cache it replaced.

``MegaflowCache`` keeps its subtables in one insertion-ordered dict,
``mask -> (MaskSpec, subtable)``, which is both the probe order and the
way insert and remove find a mask's subtable.  :class:`ListedMegaflowCache`
below is the cache it replaced, kept verbatim apart from the deleted
dp-JIT closure-retirement hooks: a mask list and a parallel
``(spec, subtable)`` walk list beside a mask dict, with a linear
``_spec_for`` scan on every insert and remove.  Random operation
sequences must leave both with the same entries, in the same
``entries()`` order, the same probe counts, charges, hit/miss counters,
``n_masks`` and ``version``.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import (
    EXACT_MASK,
    WILDCARD_MASK,
    FlowKey,
    FlowMask,
    MaskSpec,
    mask_from_fields,
)
from repro.ovs import odp
from repro.ovs.megaflow import MegaflowCache, MegaflowEntry
from repro.sim import trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext


class ListedMegaflowCache:
    def __init__(self, max_flows: int = 65536) -> None:
        self.max_flows = max_flows
        self._masks: List[FlowMask] = []
        #: Parallel to ``_masks``: (spec, subtable) pairs walked in
        #: insertion order, subtables keyed by ``spec.project(key)``.
        self._walk: List[Tuple[MaskSpec, Dict[Tuple[int, ...], MegaflowEntry]]] = []
        self._tables: Dict[FlowMask, Dict[Tuple[int, ...], MegaflowEntry]] = {}
        self.hits = 0
        self.misses = 0
        #: Bumped on every successful insert/remove/flush.
        self.version = 0

    def __len__(self) -> int:
        return sum(len(t) for t in self._tables.values())

    @property
    def n_masks(self) -> int:
        return len(self._masks)

    def lookup(self, key: FlowKey, ctx: Optional[ExecContext] = None,
               now_ns: int = 0, nbytes: int = 0) -> Optional[Tuple]:
        entry = self.lookup_entry(key, ctx, now_ns=now_ns, nbytes=nbytes)
        return None if entry is None else entry.actions

    def _probe(self, key: FlowKey) -> Tuple[Optional[MegaflowEntry], int]:
        """Walk the subtables (no charges, no counters, no touch)."""
        probes = 0
        for spec, table in self._walk:
            probes += 1
            entry = table.get(spec.project(key))
            if entry is not None:
                return entry, probes
        return None, probes

    def peek(self, key: FlowKey) -> Tuple[Optional[MegaflowEntry], int]:
        """Walk the subtables without observing: no charges, counters or
        stats touch (``ofproto/trace`` uses this so a mid-run peek leaves
        every subsequent ledger byte unchanged).  Returns the entry (or
        None) and the number of subtables a real lookup would probe."""
        return self._probe(key)

    def lookup_entry(self, key: FlowKey, ctx: Optional[ExecContext] = None,
                     now_ns: int = 0, nbytes: int = 0) -> Optional[MegaflowEntry]:
        """Walk the subtables, charging and counting the probes; a hit
        touches the entry's stats."""
        entry, probes = self._probe(key)
        if ctx is not None and probes:
            ctx.charge(probes * DEFAULT_COSTS.megaflow_subtable_ns,
                       label="dpcls")
        rec = trace.ACTIVE
        if rec is not None and probes:
            rec.count("dpcls.subtable_probes", probes)
        if entry is None:
            self.misses += 1
            if rec is not None:
                rec.count("dpcls.miss")
            return None
        self.hits += 1
        if rec is not None:
            rec.count("dpcls.hit")
        entry.touch(now_ns, nbytes)
        return entry

    # ------------------------------------------------------------------
    # Mutation.
    # ------------------------------------------------------------------
    def insert(self, key: FlowKey, mask: FlowMask, value: Tuple,
               ctx: Optional[ExecContext] = None,
               now_ns: int = 0) -> Optional[MegaflowEntry]:
        """Install a flow; returns the entry, or None if the cache is full."""
        if len(self) >= self.max_flows:
            return None
        if ctx is not None:
            ctx.charge(DEFAULT_COSTS.megaflow_insert_ns, label="dpcls_insert")
        trace.count("dpcls.insert")
        table = self._tables.get(mask)
        if table is None:
            table = {}
            self._tables[mask] = table
            self._masks.append(mask)
            self._walk.append((MaskSpec(mask), table))
        spec = self._spec_for(mask)
        entry = MegaflowEntry(
            actions=tuple(value), key=key, mask=mask, last_used_ns=now_ns
        )
        table[spec.project(key)] = entry
        self.version += 1
        return entry

    def _spec_for(self, mask: FlowMask) -> MaskSpec:
        for i, m in enumerate(self._masks):
            if m == mask:
                return self._walk[i][0]
        raise KeyError(f"no subtable for mask {mask!r}")

    def entries(self) -> List[MegaflowEntry]:
        return [e for t in self._tables.values() for e in t.values()]

    def remove(self, key: FlowKey, mask: FlowMask) -> bool:
        table = self._tables.get(mask)
        if table is None:
            return False
        masked = self._spec_for(mask).project(key)
        entry = table.get(masked)
        if entry is None:
            return False
        del table[masked]
        if not table:
            del self._tables[mask]
            idx = self._masks.index(mask)
            del self._masks[idx]
            del self._walk[idx]
        self.version += 1
        return True

    def flush(self) -> None:
        self._masks.clear()
        self._walk.clear()
        self._tables.clear()
        self.version += 1


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
    nw_dst=st.sampled_from((0x0A000001, 0x0A0000FF, 0x0B000001)),
    tp_dst=st.integers(0, 3),
    recirc_id=st.integers(0, 1),
)
MASKS = st.sampled_from((
    EXACT_MASK,
    WILDCARD_MASK,
    mask_from_fields(in_port=-1, recirc_id=-1),
    mask_from_fields(in_port=-1, nw_dst=0xFFFFFF00),
    mask_from_fields(eth_type=-1, tp_dst=1),
))
OPS = st.one_of(
    st.tuples(st.just("insert"), KEYS, MASKS, st.integers(1, 9)),
    st.tuples(st.just("remove"), KEYS, MASKS),
    st.tuples(st.just("lookup"), KEYS, st.integers(0, 99)),
    st.tuples(st.just("lookup"), KEYS, st.integers(0, 99)),
    st.tuples(st.just("flush")),
)


def _shown(entry):
    """Everything a caller can observe of an entry."""
    if entry is None:
        return None
    return (entry.key, entry.mask, entry.actions, entry.n_packets,
            entry.n_bytes, entry.last_used_ns, entry.single_out)


def apply_op(cache, ctx, op, now):
    """Run one op; returns what a caller can observe of it."""
    if op[0] == "insert":
        return _shown(cache.insert(op[1], op[2], (odp.Output(op[3]),), ctx,
                                   now_ns=now))
    if op[0] == "remove":
        return cache.remove(op[1], op[2])
    if op[0] == "lookup":
        entry, probes = cache.peek(op[1])
        got = cache.lookup_entry(op[1], ctx, now_ns=now, nbytes=op[2])
        assert got is entry
        return _shown(got), probes
    return cache.flush()


def observe(cache):
    return (len(cache), cache.n_masks, cache.hits, cache.misses,
            cache.version, [_shown(e) for e in cache.entries()])


def run(cache, ops):
    """Every op's outcome and the state after it, the charges in order
    and the trace counters."""
    ctx = ChargeLog()
    with trace.recording() as rec:
        steps = [(apply_op(cache, ctx, op, now), observe(cache))
                 for now, op in enumerate(ops)]
    return steps, ctx.charges, rec.counters


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OPS, max_size=60), max_flows=st.sampled_from((4, 64)))
def test_random_sequences_agree_with_the_listed_cache(ops, max_flows):
    assert run(MegaflowCache(max_flows), ops) == \
        run(ListedMegaflowCache(max_flows), ops)


def test_a_mask_that_empties_and_returns_is_probed_last():
    first = mask_from_fields(in_port=-1)
    second = mask_from_fields(in_port=-1, recirc_id=-1)
    key = FlowKey(in_port=1)
    for cache in (MegaflowCache(), ListedMegaflowCache()):
        cache.insert(key, first, (odp.Output(1),))
        cache.insert(key, second, (odp.Output(2),))
        assert cache.peek(key)[0].actions == (odp.Output(1),)
        assert cache.remove(key, first)
        cache.insert(key, first, (odp.Output(3),))
        # ``second`` is now walked first and hits on the first probe.
        entry, probes = cache.peek(key)
        assert (entry.actions, probes) == ((odp.Output(2),), 1)
        assert [e.actions for e in cache.entries()] == [
            (odp.Output(2),), (odp.Output(3),)]
