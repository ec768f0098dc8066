"""The megaflow cache (dpcls): wildcarded datapath flows.

Second-level cache of the userspace datapath (and the only cache the
kernel datapath has).  One subtable per distinct mask; a lookup probes
subtables until it hits.  The 1000-random-IP workload of §5.2 is the
worst case precisely because installed megaflows (one per IP pair, after
translation unwildcards nw_src/nw_dst) stop fitting the EMC and every
packet pays this probe sequence.

Subtables are keyed by :class:`~repro.net.flow.MaskSpec` projections —
the key's masked fields with the wildcarded ones elided.  Two keys
collide under a projection iff they agree on ``key & mask`` field by
field (a wildcarded field is a constant zero for every key), so each
probe hashes a handful of integers instead of all 31 fields.

One insertion-ordered dict, ``mask -> (MaskSpec, subtable)``, is both
the probe order and the way insert and remove find a mask's subtable,
the shape of the kernel module's
:class:`~repro.kernel.ovs_module.KernelFlowTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import or_
from typing import Dict, List, Optional, Tuple

from repro.net.flow import FlowKey, FlowMask, MaskSpec, WILDCARD_MASK
from repro.ovs import odp
from repro.sim import trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext


@dataclass
class MegaflowEntry:
    """One cached datapath flow, with the state the revalidator needs."""

    actions: Tuple
    key: FlowKey
    mask: FlowMask
    n_packets: int = 0
    n_bytes: int = 0
    last_used_ns: int = 0
    #: When the action list is exactly one Output, its port number —
    #: the batched executor's fast path.  Derived, so excluded from
    #: comparison/repr.
    single_out: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if (len(self.actions) == 1
                and type(self.actions[0]) is odp.Output):
            self.single_out = self.actions[0].port_no

    def touch(self, now_ns: int, nbytes: int) -> None:
        self.n_packets += 1
        self.n_bytes += nbytes
        self.last_used_ns = now_ns


class MegaflowCache:
    def __init__(self, max_flows: int = 65536) -> None:
        self.max_flows = max_flows
        #: mask -> (its MaskSpec, subtable keyed on ``spec.project(key)``).
        #: Dict order is the probe order: a mask joins at the end and
        #: leaves with its last flow, so one that returns is probed last.
        self._tables: Dict[
            FlowMask,
            Tuple[MaskSpec, Dict[Tuple[int, ...], MegaflowEntry]],
        ] = {}
        self.hits = 0
        self.misses = 0
        #: Bumped on every successful insert/remove/flush.
        self.version = 0

    def __len__(self) -> int:
        return sum(len(table) for _spec, table in self._tables.values())

    @property
    def n_masks(self) -> int:
        return len(self._tables)

    def lookup(self, key: FlowKey, ctx: Optional[ExecContext] = None,
               now_ns: int = 0, nbytes: int = 0) -> Optional[Tuple]:
        entry = self.lookup_entry(key, ctx, now_ns=now_ns, nbytes=nbytes)
        return None if entry is None else entry.actions

    def _probe(self, key: FlowKey) -> Tuple[Optional[MegaflowEntry], int]:
        """Walk the subtables (no charges, no counters, no touch)."""
        probes = 0
        for spec, table in self._tables.values():
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
        subtable = self._tables.get(mask)
        if subtable is None:
            subtable = self._tables[mask] = (MaskSpec(mask), {})
        spec, table = subtable
        entry = MegaflowEntry(
            actions=tuple(value), key=key, mask=mask, last_used_ns=now_ns
        )
        table[spec.project(key)] = entry
        self.version += 1
        return entry

    def entries(self) -> List[MegaflowEntry]:
        return [e for _spec, table in self._tables.values()
                for e in table.values()]

    def remove(self, key: FlowKey, mask: FlowMask) -> bool:
        subtable = self._tables.get(mask)
        if subtable is None:
            return False
        spec, table = subtable
        if table.pop(spec.project(key), None) is None:
            return False
        if not table:
            del self._tables[mask]
        self.version += 1
        return True

    def flush(self) -> None:
        self._tables.clear()
        self.version += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def union_masks(masks: List[FlowMask]) -> FlowMask:
    """Union a set of probe masks into one megaflow mask.

    The megaflow must be at least as specific as every field any lookup
    stage examined, or the cached entry would match packets the slow
    path would have treated differently.

    A translation probes the same few subtable masks over and over, and
    OR is idempotent, so each distinct mask is ORed in once, column-wise
    in C.
    """
    if not masks:
        return WILDCARD_MASK
    distinct = iter(dict.fromkeys(masks))
    out = next(distinct)
    for mask in distinct:
        out = tuple(map(or_, out, mask))
    return out
