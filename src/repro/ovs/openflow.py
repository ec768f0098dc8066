"""OpenFlow-lite: the controller-facing flow programming interface.

NSX "transforms the NSX network policies into flow rules and uses the
OpenFlow protocol to install them into the bridges" (§4).  This module is
that interface: FlowMod add/modify/delete, flow dumps and stats, against
one bridge.  It is a local object rather than a TCP protocol codec — the
wire format is not what any experiment measures — but it enforces
OpenFlow semantics (strict vs loose delete, priority replacement).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.ovs.match import Match
from repro.ovs.ofactions import OfAction
from repro.ovs.ofproto import Bridge
from repro.ovs.oftable import Rule


class FlowModCommand(enum.Enum):
    ADD = "add"
    DELETE = "delete"
    DELETE_STRICT = "delete_strict"


@dataclass
class FlowMod:
    command: FlowModCommand
    table_id: int = 0
    priority: int = 0
    match: Match = field(default_factory=Match)
    actions: Tuple[OfAction, ...] = ()
    cookie: int = 0


class OpenFlowConnection:
    """One controller connection to one bridge."""

    def __init__(self, bridge: Bridge) -> None:
        self.bridge = bridge
        self.n_flow_mods = 0

    # -- convenience -------------------------------------------------------
    def add_flow(
        self,
        table_id: int,
        priority: int,
        match: Match,
        actions: Sequence[OfAction],
        cookie: int = 0,
    ) -> None:
        self.n_flow_mods += 1
        self.bridge.add_flow(
            table_id, Rule(priority, match, tuple(actions), cookie)
        )

    def delete_flows(self, table_id: Optional[int] = None,
                     cookie: Optional[int] = None) -> int:
        """Loose delete by table and/or cookie; returns removed count."""
        removed = 0
        tables = (
            self.bridge.tables.values()
            if table_id is None
            else [self.bridge.table(table_id)]
        )
        for table in tables:
            for rule in table.rules():
                if cookie is not None and rule.cookie != cookie:
                    continue
                table.remove_rule(rule)
                removed += 1
        self.n_flow_mods += 1
        return removed

    # -- the protocol --------------------------------------------------------
    def flow_mod(self, fm: FlowMod) -> None:
        if fm.command is FlowModCommand.ADD:
            self.add_flow(fm.table_id, fm.priority, fm.match, fm.actions,
                          fm.cookie)
            return
        self.n_flow_mods += 1
        if fm.command is FlowModCommand.DELETE_STRICT:
            table = self.bridge.table(fm.table_id)
            rule = table.find_strict(fm.priority, fm.match)
            if rule is not None:
                table.remove_rule(rule)
            return
        if fm.command is FlowModCommand.DELETE:
            table = self.bridge.table(fm.table_id)
            for rule in table.rules():
                if self._loose_subsumes(fm.match, rule.match):
                    table.remove_rule(rule)
            return
        raise ValueError(f"unknown command {fm.command}")

    @staticmethod
    def _loose_subsumes(pattern: Match, candidate: Match) -> bool:
        """OpenFlow loose delete: the pattern's constraints must be a
        subset of (and agree with) the candidate's."""
        cand = candidate.fields()
        for name, (value, mask) in pattern.fields().items():
            got = cand.get(name)
            if got is None:
                return False
            c_value, c_mask = got
            if (c_mask & mask) != mask or (c_value & mask) != value:
                return False
        return True

    # -- introspection ---------------------------------------------------------
    def dump_flows(self, table_id: Optional[int] = None) -> List[Rule]:
        if table_id is not None:
            return self.bridge.table(table_id).rules()
        return [r for t in self.bridge.tables.values() for r in t.rules()]

    def flow_count(self) -> int:
        return self.bridge.n_flows()
