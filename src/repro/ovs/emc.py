"""The exact-match cache (EMC).

The first-level cache of the userspace datapath: a small, per-PMD-thread
hash table from the packet's *full* flow key (including recirculation id
and conntrack state, so each pipeline pass is its own entry) straight to
datapath actions.  This is the cache whose in-kernel equivalent the Linux
maintainers rejected (§2.1, footnote on flow mask cache) — userspace gets
to have it anyway, one of the quiet advantages of the AF_XDP design.

Sized like the real one (8192 entries, 2-way pseudo-LRU by hash).

Replay cells
============

The datapath's cross-burst flow cache, :attr:`flow_cache`, holds replay
cells (:mod:`repro.sim.replay`).  A cell is what a hitting probe saw:
``(key, entry, p1, s1, p2, s2)`` — the key, the entry the probe
returned, and the two slot positions with the slot *objects* found
there, as :meth:`lookup_cell` returns them on a hit.  A probe that
misses returns its two positions instead, and :meth:`insert` takes
them rather than hashing the key a second time.

:meth:`replay_hit` accounts a cell's hit — the charges and counters of
:meth:`lookup` returning that entry — iff both slots still hold those
same objects.  A probe is a function of the key and the contents of its
two slots, and a slot tuple is immutable and never stored twice, so
unchanged slots return the same entry.  Both slots are needed: a key
that hit in its second way is shadowed if its first way is refilled
(the same key with a new entry included).  The rule lives here and
nowhere else; ``tests/ovs/test_cache_invariants.py`` checks it against
a fresh probe over random insert/evict/flush sequences.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.flow import FlowKey
from repro.sim import trace
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext
from repro.sim.replay import ReplayCells


class ExactMatchCache:
    def __init__(self, n_entries: int = 8192) -> None:
        if n_entries <= 0 or n_entries & (n_entries - 1):
            raise ValueError("EMC size must be a power of two")
        self.n_entries = n_entries
        self._slots: list[Optional[Tuple[FlowKey, object]]] = [None] * n_entries
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.occupancy = 0
        #: token -> replay cell, owned by the datapath and checked by
        #: :meth:`replay_hit`; here for the EMC's per-PMD affinity.
        self.flow_cache = ReplayCells()

    def _positions(self, key: FlowKey) -> Tuple[int, int]:
        h = hash(key)
        mask = self.n_entries - 1
        return h & mask, (h >> 13) & mask

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def charge_lookup(self, ctx: Optional[ExecContext]) -> None:
        """The virtual-time cost of one EMC lookup (hit or miss)."""
        if ctx is not None:
            ctx.charge(DEFAULT_COSTS.emc_hit_ns, label="emc")
            if self.occupancy > 64:
                # Cache-locality model: a large flow working set spills
                # per-flow state (EMC entries, stats) out of the L1/L2,
                # so each lookup pays a fraction of an LLC miss.  This is
                # §5.2's "increased flow lookup overhead" with 1000 flows.
                pressure = self.occupancy / 2048.0
                ctx.charge(DEFAULT_COSTS.cache_miss_ns
                           * (pressure if pressure < 1.0 else 1.0),
                           label="emc_pressure")

    def lookup_cell(self, key: FlowKey, ctx: Optional[ExecContext] = None
                    ) -> Tuple[Optional[object], tuple]:
        """Charge, probe and count one lookup: ``(entry, cell)`` on a
        hit, ``(None, (p1, p2))`` on a miss — the two positions the
        probe read, for :meth:`insert`."""
        self.charge_lookup(ctx)
        p1, p2 = self._positions(key)
        slots = self._slots
        s1 = slots[p1]
        s2 = slots[p2]
        rec = trace.ACTIVE
        if s1 is not None and s1[0] == key:
            entry = s1[1]
        elif s2 is not None and s2[0] == key:
            entry = s2[1]
        else:
            self.misses += 1
            if rec is not None:
                rec.count("emc.miss")
            return None, (p1, p2)
        self.hits += 1
        if rec is not None:
            rec.count("emc.hit")
        return entry, (key, entry, p1, s1, p2, s2)

    def lookup(self, key: FlowKey, ctx: Optional[ExecContext] = None) -> Optional[object]:
        return self.lookup_cell(key, ctx)[0]

    def peek(self, key: FlowKey) -> Optional[object]:
        """Probe without observing: no charges, no hit/miss stats, no
        trace counters.  The ``ofproto/trace`` introspection path — a
        mid-run peek must leave every subsequent ledger byte unchanged."""
        for pos in self._positions(key):
            entry = self._slots[pos]
            if entry is not None and entry[0] == key:
                return entry[1]
        return None

    def replay_hit(self, cell: tuple, ctx: Optional[ExecContext] = None) -> bool:
        """Account ``cell``'s hit if its slots still hold what it saw.

        Returns False, charging nothing, when either slot changed.
        Otherwise charges and counts exactly as :meth:`lookup` returning
        ``cell[1]`` would, and returns True.
        """
        slots = self._slots
        if slots[cell[2]] is not cell[3] or slots[cell[4]] is not cell[5]:
            return False
        self.charge_lookup(ctx)
        self.hits += 1
        rec = trace.ACTIVE
        if rec is not None:
            rec.count("emc.hit")
        return True

    # ------------------------------------------------------------------
    # Mutation.
    # ------------------------------------------------------------------
    def insert(self, key: FlowKey, value: object,
               ctx: Optional[ExecContext] = None,
               positions: Optional[Tuple[int, int]] = None) -> None:
        """Insert ``key -> value``.  ``positions`` are ``key``'s two
        slots as a failed :meth:`lookup_cell` returned them; without
        them the key is hashed here."""
        if ctx is not None:
            ctx.charge(DEFAULT_COSTS.emc_insert_ns, label="emc_insert")
        trace.count("emc.insert")
        p1, p2 = positions or self._positions(key)
        slots = self._slots
        # Prefer an empty way; otherwise evict the second way.
        s1 = slots[p1]
        if s1 is None or s1[0] == key:
            target, old = p1, s1
        else:
            target, old = p2, slots[p2]
        if old is None:
            self.occupancy += 1
        slots[target] = (key, value)
        self.insertions += 1

    def evict(self, key: FlowKey) -> None:
        for pos in self._positions(key):
            entry = self._slots[pos]
            if entry is not None and entry[0] == key:
                self._slots[pos] = None
                self.occupancy -= 1

    def flush(self) -> None:
        self._slots = [None] * self.n_entries
        self.occupancy = 0
        self.flow_cache.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
