"""The slow path's read side against the forms it replaced, kept verbatim.

Every upcall and every revalidation runs ``Ofproto.translate``, which
walks ``FlowTable.lookup`` (a cached priority order), ``MaskSpec.project``
(an ``itemgetter`` and ``map(and_)`` in C), ``union_masks`` (distinct
masks ORed column-wise in C) and ``_xlate_actions`` (exact-type dispatch
and positional key updates).  The functions below are those four as they
were before: a ``sorted`` per lookup, a generator per projection, a
31-step OR per probed mask, masks rebuilt by ``mask_from_fields`` per
translation, ``FlowKey._replace`` and an ``isinstance`` chain.  Random
pipelines, keys and flow-mods must get the same actions, megaflow mask,
recirculation state, rule counters and classifier charges from both, or
the same ``TranslationError``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import FlowKey, MaskSpec, N_FLOW_FIELDS, mask_from_fields
from repro.ovs import odp
from repro.ovs import ofactions as ofp
from repro.ovs.match import Match, full_field_mask
from repro.ovs.megaflow import union_masks
from repro.ovs.ofproto import (
    MAX_TRANSLATION_DEPTH, Ofproto, TranslationError, XlateResult)
from repro.ovs.oftable import Rule
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext, LatencyTrace


# ---------------------------------------------------------------------------
# The old forms, verbatim but for ``self`` where they were methods.
# ---------------------------------------------------------------------------

_REG_FIELDS = ("metadata",) + tuple(f"reg{i}" for i in range(9))


def old_project(spec, key):
    """The masked key with wildcarded (constant-zero) fields elided."""
    return tuple(key[i] & bits for i, bits in spec.fields)


def old_union_masks(masks):
    """Union a set of probe masks into one megaflow mask."""
    if not masks:
        return tuple([0] * N_FLOW_FIELDS)
    out = list(masks[0])
    for mask in masks[1:]:
        for i, bits in enumerate(mask):
            out[i] |= bits
    return tuple(out)


def old_lookup(table, key, ctx=None, probed_masks=None):
    """Tuple-space search with priority-ordered early exit."""
    table.n_lookups += 1
    best = None
    probes = 0
    ordered = sorted(
        table._subtables.values(), key=lambda s: -s.max_priority
    )
    for subtable in ordered:
        if best is not None and best.priority >= subtable.max_priority:
            break
        probes += 1
        if probed_masks is not None:
            probed_masks.append(subtable.mask)
        bucket = subtable.rules.get(old_project(subtable.spec, key))
        candidate = bucket[0] if bucket else None
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
        table.n_matches += 1
    return best


class ReferenceOfproto(Ofproto):
    """``Ofproto`` with the old translation walk."""

    def translate(self, key, ctx=None, observer=None):
        self.n_translations += 1
        probed = [
            mask_from_fields(
                in_port=full_field_mask("in_port"),
                recirc_id=full_field_mask("recirc_id"),
            )
        ]
        dp_in_port = key.in_port
        located = self._dp_ports.get(dp_in_port)
        if key.recirc_id:
            bridge_name, table_id, regs = self._resume_point(key.recirc_id)
            bridge = self.bridges[bridge_name]
            if regs:
                key = key._replace(**dict(zip(_REG_FIELDS, regs)))
            probed.append(
                mask_from_fields(
                    ct_state=full_field_mask("ct_state"),
                    ct_zone=full_field_mask("ct_zone"),
                )
            )
        else:
            if located is None:
                return XlateResult(odp.DROP, old_union_masks(probed))
            bridge, _port = located
            table_id = 0
        if located is not None:
            key = key._replace(in_port=located[1].ofport)
        actions = self._xlate_tables(
            bridge, table_id, key, probed, ctx, dp_in_port=dp_in_port,
            observer=observer,
        )
        actions = self._apply_mirrors(bridge, key, dp_in_port, actions)
        return XlateResult(tuple(actions), old_union_masks(probed))

    def _xlate_tables(self, bridge, table_id, key, probed, ctx, depth=0,
                      dp_in_port=0, observer=None):
        if depth > MAX_TRANSLATION_DEPTH:
            raise TranslationError("translation too deep (table loop?)")
        rule = old_lookup(bridge.table(table_id), key, ctx, probed)
        if observer is not None:
            observer(bridge, table_id, rule, key)
        if rule is None:
            return []
        rule.n_packets += 1
        return self._xlate_actions(bridge, rule, key, probed, ctx, depth,
                                   dp_in_port, observer=observer)

    def _xlate_actions(self, bridge, rule, key, probed, ctx, depth,
                       dp_in_port=0, observer=None):
        out = []
        for act in rule.actions:
            if isinstance(act, ofp.OutputAction):
                out.extend(
                    self._xlate_output(bridge, act.port, key, dp_in_port)
                )
            elif isinstance(act, (ofp.GotoTable, ofp.Resubmit)):
                out.extend(
                    self._xlate_tables(
                        bridge, act.table_id, key, probed, ctx, depth + 1,
                        dp_in_port, observer=observer,
                    )
                )
                if isinstance(act, ofp.GotoTable):
                    break  # goto does not return
            elif isinstance(act, ofp.SetFieldAction):
                if act.field in _REG_FIELDS:
                    key = key._replace(**{act.field: act.value})
                else:
                    out.append(odp.SetField(act.field, act.value))
                    key = key._replace(**{act.field: act.value})
            elif isinstance(act, ofp.PushVlanAction):
                out.append(odp.PushVlan(act.vid, act.pcp))
                key = key._replace(vlan_tci=act.vid | 0x1000 | (act.pcp << 13))
            elif isinstance(act, ofp.PopVlanAction):
                out.append(odp.PopVlan())
                key = key._replace(vlan_tci=0)
            elif isinstance(act, ofp.CtAction):
                out.append(
                    odp.Ct(zone=act.zone, commit=act.commit,
                           nat_dst=act.nat_dst)
                )
                if act.table is not None:
                    regs = tuple(getattr(key, f) for f in _REG_FIELDS)
                    rid = self.alloc_recirc_id(bridge, act.table, regs)
                    out.append(odp.Recirc(rid))
                    return out
            elif isinstance(act, ofp.PopTunnel):
                port = bridge.port(act.tunnel_port)
                out.append(odp.TunnelPop(port.dp_port_no))
                return out
            elif isinstance(act, ofp.MeterAction):
                out.append(odp.Meter(act.meter_id))
            elif isinstance(act, ofp.TruncAction):
                out.append(odp.Trunc(act.max_len))
            elif isinstance(act, ofp.ControllerAction):
                out.append(odp.Userspace(act.reason))
            elif isinstance(act, ofp.DropAction):
                return []
            else:
                raise TranslationError(f"cannot translate {act!r}")
        return out


# ---------------------------------------------------------------------------
# Projection and mask union.
# ---------------------------------------------------------------------------

#: Per-field bits: mostly wildcards, so masks with 0, 1 and 2 non-zero
#: fields (the ``itemgetter`` edge cases) come up often.
_bits = st.one_of(st.just(0), st.just(0), st.just(0), st.just(-1),
                  st.integers(min_value=-2**70, max_value=2**70))
_masks = st.lists(_bits, min_size=N_FLOW_FIELDS,
                  max_size=N_FLOW_FIELDS).map(tuple)
_sparse_masks = st.dictionaries(
    st.integers(0, N_FLOW_FIELDS - 1), _bits, max_size=3).map(
        lambda d: tuple(d.get(i, 0) for i in range(N_FLOW_FIELDS)))
#: Key values wider than any field and negative.
_keys = st.lists(st.integers(min_value=-2**80, max_value=2**80),
                 min_size=N_FLOW_FIELDS,
                 max_size=N_FLOW_FIELDS).map(lambda v: FlowKey(*v))


@settings(max_examples=300, deadline=None)
@given(mask=st.one_of(_sparse_masks, _masks), key=_keys)
def test_project_equals_the_generator(mask, key):
    spec = MaskSpec(mask)
    got = spec.project(key)
    assert type(got) is tuple
    assert got == old_project(spec, key)
    assert len(got) == sum(1 for bits in mask if bits)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       pool=st.lists(st.one_of(_sparse_masks, _masks), min_size=1,
                     max_size=5))
def test_union_masks_equals_the_naive_or(data, pool):
    """Over lists with repeats, as a translation's probe list has."""
    masks = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    got = union_masks(masks)
    assert type(got) is tuple and len(got) == N_FLOW_FIELDS
    assert got == old_union_masks(masks)


# ---------------------------------------------------------------------------
# Translation.
# ---------------------------------------------------------------------------

#: dp port -> OpenFlow port: the numbers differ, so the in_port mapping
#: shows in every megaflow.
_PORTS = {10: 1, 11: 2, 12: 3}
_TABLES = range(4)
_SET_FIELDS = ("eth_src", "metadata", "nw_ttl", "reg0", "reg1", "reg8",
               "tp_dst")

_action = st.one_of(
    st.builds(ofp.SetFieldAction, st.sampled_from(_SET_FIELDS),
              st.integers(0, 3)),
    st.builds(ofp.GotoTable, st.sampled_from(_TABLES)),
    st.builds(ofp.Resubmit, st.sampled_from(_TABLES)),
    st.builds(ofp.OutputAction,
              st.sampled_from(["p1", "p2", "p3", "IN_PORT", "nope"])),
    st.builds(ofp.PushVlanAction, st.integers(0, 7), st.integers(0, 7)),
    st.just(ofp.PopVlanAction()),
    st.builds(ofp.CtAction, zone=st.integers(0, 2), commit=st.booleans()),
    st.builds(ofp.MeterAction, st.integers(0, 2)),
    st.builds(ofp.TruncAction, st.integers(14, 64)),
    st.just(ofp.ControllerAction()),
    st.just(ofp.DropAction()),
)
#: ``ct(table=)`` must be the last action.
_last = st.builds(ofp.CtAction, zone=st.integers(0, 2),
                  commit=st.booleans(), table=st.sampled_from(_TABLES))


@st.composite
def _rule_spec(draw):
    names = draw(st.lists(
        st.sampled_from(["in_port", "reg0", "metadata", "nw_ttl",
                         "vlan_tci", "ct_state", "reg8"]),
        max_size=2, unique=True))
    match = {}
    for name in names:
        if name == "in_port":
            match[name] = draw(st.sampled_from(sorted(_PORTS.values())))
        elif name == "vlan_tci":
            match[name] = draw(st.sampled_from([0, 0x1003]))
        else:
            match[name] = draw(st.integers(0, 3))
    actions = draw(st.lists(_action, max_size=3))
    if draw(st.booleans()):
        actions.append(draw(_last))
    return (draw(st.sampled_from(_TABLES)), draw(st.integers(1, 4)),
            match, tuple(actions))


_key_spec = st.fixed_dictionaries({
    "in_port": st.sampled_from(sorted(_PORTS) * 2 + [99]),
    "recirc_id": st.sampled_from([0, 0, 0, 0, 1, 2, 9]),
    "nw_ttl": st.integers(0, 3),
    "vlan_tci": st.sampled_from([0, 0x1003]),
    "ct_state": st.integers(0, 3),
    "ct_zone": st.integers(0, 2),
    "reg0": st.integers(0, 3),
    "tp_dst": st.integers(0, 3),
})

@st.composite
def _ops(draw):
    """A pipeline installed up front, then flow-mods (strict deletes of
    installed rules among them) interleaved with translations."""
    rules = draw(st.lists(_rule_spec(), min_size=3, max_size=12))
    # Table 0's catch-all, so most translations get past the first table.
    catch_all = draw(st.lists(_action, min_size=1, max_size=3))
    ops = [("add", (0, 0, {}, tuple(catch_all)))]
    ops += [("add", rule) for rule in rules]
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["add", "delete", "xlate", "xlate",
                                     "xlate"]))
        if kind == "add":
            ops.append((kind, draw(_rule_spec())))
        elif kind == "delete":
            ops.append((kind, draw(st.sampled_from(rules))))
        else:
            ops.append((kind, draw(_key_spec)))
    return ops


def _switch(cls):
    ofproto = cls()
    bridge = ofproto.add_bridge("br0")
    for dp_port, ofport in _PORTS.items():
        ofproto.register_port(
            bridge, bridge.add_port(f"p{ofport}", dp_port, ofport=ofport))
    return ofproto, bridge


def _run(cls, ops):
    ofproto, bridge = _switch(cls)
    ctx = ExecContext(CpuModel(1), 0, CpuCategory.USER)
    outcomes = []
    with ctx.tracing(LatencyTrace()) as charges:
        for kind, spec in ops:
            if kind == "add":
                table, priority, match, actions = spec
                bridge.add_flow(table, Rule(priority, Match(**match),
                                            tuple(actions)))
            elif kind == "delete":
                table, priority, match, _actions = spec
                t = bridge.table(table)
                rule = t.find_strict(priority, Match(**match))
                if rule is not None:
                    t.remove_rule(rule)
            else:
                try:
                    result = ofproto.translate(FlowKey(**spec), ctx)
                    outcomes.append((result.actions, result.mask))
                except TranslationError as exc:
                    outcomes.append(str(exc))
    rules = sorted((r.table_id, r.priority, repr(r.match), r.n_packets)
                   for t in bridge.tables.values() for r in t.rules())
    lookups = [(t.n_lookups, t.n_matches) for t in bridge.tables.values()]
    return (outcomes, ofproto._recirc_ids, ofproto.n_translations, rules,
            lookups, charges.total_ns, charges.components)


@settings(max_examples=200, deadline=None)
@given(ops=_ops())
def test_translate_equals_the_old_walk(ops):
    assert _run(Ofproto, ops) == _run(ReferenceOfproto, ops)
