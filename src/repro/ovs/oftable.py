"""OpenFlow tables with tuple-space-search classification.

Rules with the same match *shape* (mask) live in one subtable (a hash
table keyed by the masked flow key).  Lookup probes subtables in
descending order of their best priority and stops as soon as no remaining
subtable can beat the best hit — the standard OVS classifier structure.
Each subtable probe charges ``classifier_subtable_ns``, which is what
makes the 1000-random-flow upcall storm of §5.2 expensive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.flow import FlowKey, FlowMask, MaskSpec
from repro.ovs.match import Match
from repro.ovs.ofactions import OfAction
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import ExecContext


@dataclass(slots=True)
class Rule:
    priority: int
    match: Match
    actions: Tuple[OfAction, ...]
    cookie: int = 0
    table_id: int = 0
    n_packets: int = 0
    n_bytes: int = 0


class _Subtable:
    __slots__ = ("mask", "spec", "rules", "n_at_priority", "max_priority")

    def __init__(self, spec: MaskSpec) -> None:
        self.mask = spec.mask
        self.spec = spec
        #: match key (the masked packet key, wildcarded fields elided)
        #: -> rules sorted by priority (desc).
        self.rules: Dict[Tuple[int, ...], List[Rule]] = {}
        #: priority -> rule count, so removal never rescans the buckets.
        self.n_at_priority: Dict[int, int] = {}
        self.max_priority = -1

    def insert(self, rule: Rule) -> Optional[Rule]:
        """Insert; returns a replaced rule if an identical match existed
        at the same priority (OpenFlow modify semantics)."""
        priority, key = rule.priority, rule.match.key
        bucket = self.rules.get(key)
        if bucket is None:
            self.rules[key] = [rule]
        else:
            for i, existing in enumerate(bucket):
                if existing.priority == priority and existing.match == rule.match:
                    bucket[i] = rule
                    return existing
            bucket.append(rule)
            bucket.sort(key=lambda r: -r.priority)
        self.n_at_priority[priority] = self.n_at_priority.get(priority, 0) + 1
        if priority > self.max_priority:
            self.max_priority = priority
        return None

    def remove(self, rule: Rule) -> bool:
        key = rule.match.key
        bucket = self.rules.get(key)
        if not bucket or rule not in bucket:
            return False
        bucket.remove(rule)
        if not bucket:
            del self.rules[key]
        left = self.n_at_priority[rule.priority] - 1
        if left:
            self.n_at_priority[rule.priority] = left
        else:
            del self.n_at_priority[rule.priority]
            self.max_priority = max(self.n_at_priority, default=-1)
        return True

    def lookup(self, key: FlowKey) -> Optional[Rule]:
        bucket = self.rules.get(self.spec.project(key))
        return bucket[0] if bucket else None

    def __len__(self) -> int:
        return sum(self.n_at_priority.values())


class FlowTable:
    """One OpenFlow table (the classifier)."""

    def __init__(self, table_id: int = 0) -> None:
        self.table_id = table_id
        self._subtables: Dict[FlowMask, _Subtable] = {}
        #: The probe order: ``_subtables`` stably sorted by descending
        #: ``max_priority``.  Only ``add_rules`` and ``remove_rule`` change
        #: a ``max_priority`` or the set of subtables; each drops the
        #: order and the next lookup sorts again, so an install of many
        #: rules sorts once.
        self._ordered: Optional[List[_Subtable]] = None
        self.n_lookups = 0
        self.n_matches = 0

    def __len__(self) -> int:
        return sum(len(s) for s in self._subtables.values())

    @property
    def n_subtables(self) -> int:
        return len(self._subtables)

    def add_rule(self, rule: Rule) -> Optional[Rule]:
        """Insert one rule; returns the rule it replaced, if any."""
        replaced = self.add_rules((rule,))
        return replaced[0] if replaced else None

    def add_rules(self, rules: Iterable[Rule]) -> List[Rule]:
        """Insert ``rules`` in order, as that many ``add_rule`` calls
        would; returns the rules they replaced.  The probe order is
        dropped once per batch, not once per rule."""
        self._ordered = None
        subtables = self._subtables
        table_id = self.table_id
        replaced = []
        shape = subtable = None
        for rule in rules:
            rule.table_id = table_id
            if rule.match.shape is not shape:
                shape = rule.match.shape
                subtable = subtables.get(shape.mask)
                if subtable is None:
                    subtable = subtables[shape.mask] = _Subtable(shape)
            old = subtable.insert(rule)
            if old is not None:
                replaced.append(old)
        return replaced

    def remove_rule(self, rule: Rule) -> bool:
        subtable = self._subtables.get(rule.match.mask)
        if subtable is None:
            return False
        self._ordered = None
        ok = subtable.remove(rule)
        if ok and not len(subtable):
            del self._subtables[rule.match.mask]
        return ok

    def find_strict(self, priority: int, match: Match) -> Optional[Rule]:
        """The rule with exactly this priority and match, if installed."""
        subtable = self._subtables.get(match.mask)
        if subtable is not None:
            for rule in subtable.rules.get(match.key, ()):
                if rule.priority == priority and rule.match == match:
                    return rule
        return None

    def rules(self) -> List[Rule]:
        return [
            r
            for s in self._subtables.values()
            for bucket in s.rules.values()
            for r in bucket
        ]

    def lookup(
        self,
        key: FlowKey,
        ctx: Optional[ExecContext] = None,
        probed_masks: Optional[List[FlowMask]] = None,
    ) -> Optional[Rule]:
        """Tuple-space search with priority-ordered early exit.

        ``probed_masks``, if given, accumulates every subtable mask that
        was consulted — the translation engine unions these into the
        megaflow mask so the cached entry is exactly as wildcarded as
        this lookup allows.
        """
        self.n_lookups += 1
        best: Optional[Rule] = None
        probes = 0
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = sorted(
                self._subtables.values(), key=lambda s: -s.max_priority
            )
        for subtable in ordered:
            if best is not None and best.priority >= subtable.max_priority:
                break
            probes += 1
            if probed_masks is not None:
                probed_masks.append(subtable.mask)
            candidate = subtable.lookup(key)
            if candidate is not None and (
                best is None or candidate.priority > best.priority
            ):
                best = candidate
        if ctx is not None and probes:
            ctx.charge(
                probes * DEFAULT_COSTS.classifier_subtable_ns,
                label="classifier",
            )
        if best is not None:
            self.n_matches += 1
        return best
