"""Property-based correctness of the classifier and cache hierarchy.

Two invariants the whole system rests on:

1. tuple-space search returns exactly what a brute-force highest-priority
   scan would;
2. the megaflow/EMC cache hierarchy never changes a forwarding decision —
   for any rule set and any packet, the cached datapath's actions equal a
   fresh slow-path translation.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hosts.host import Host
from repro.net.addresses import MacAddress
from repro.net.builder import make_udp_packet
from repro.net.flow import FlowKey, apply_mask, extract_flow, mask_from_fields
from repro.ovs.emc import ExactMatchCache
from repro.ovs.match import Match, full_field_mask
from repro.ovs.ofactions import GotoTable, OutputAction, SetFieldAction
from repro.ovs.oftable import FlowTable, Rule
from repro.ovs.ofproto import Bridge
from repro.ovs.openflow import FlowMod, FlowModCommand, OpenFlowConnection
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext, LatencyTrace

# ---------------------------------------------------------------------------
# 1. Classifier equivalence with a brute-force reference.
# ---------------------------------------------------------------------------

_field_strategy = st.sampled_from(
    ["nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst", "in_port"]
)


@st.composite
def _random_rule(draw, index):
    n_fields = draw(st.integers(0, 3))
    fields = {}
    for _ in range(n_fields):
        name = draw(_field_strategy)
        if name in ("nw_src", "nw_dst"):
            value = draw(st.integers(0, 3)) << 8
            mask = 0xFFFFFF00
        elif name == "in_port":
            value, mask = draw(st.integers(1, 3)), 0xFFFFFFFF
        elif name == "nw_proto":
            value, mask = draw(st.sampled_from([6, 17])), 0xFF
        else:
            value, mask = draw(st.integers(0, 3)), 0xFFFF
        fields[name] = (value, mask)
    priority = draw(st.integers(1, 5))
    return Rule(priority, Match(**fields), (OutputAction(f"p{index}"),))


@st.composite
def _rules_and_packets(draw):
    rules = [draw(_random_rule(i)) for i in range(draw(st.integers(1, 12)))]
    packets = []
    for _ in range(draw(st.integers(1, 8))):
        packets.append(dict(
            in_port=draw(st.integers(1, 3)),
            nw_src=draw(st.integers(0, 3)) << 8 | draw(st.integers(0, 1)),
            nw_dst=draw(st.integers(0, 3)) << 8,
            proto=draw(st.sampled_from([6, 17])),
            sport=draw(st.integers(0, 3)),
            dport=draw(st.integers(0, 3)),
        ))
    return rules, packets


def _brute_force(rules, key):
    best = None
    for rule in rules:
        if rule.match.matches(key) and (
            best is None or rule.priority > best.priority
        ):
            best = rule
    return best


@given(_rules_and_packets())
@settings(max_examples=60, deadline=None)
def test_tss_equals_brute_force(case):
    rules, packets = case
    table = FlowTable()
    live = []
    for rule in rules:
        replaced = table.add_rule(rule)
        if replaced is not None:
            live.remove(replaced)
        live.append(rule)
    for spec in packets:
        from repro.net.builder import make_tcp_packet

        builder = make_tcp_packet if spec["proto"] == 6 else make_udp_packet
        pkt = builder(MacAddress.local(1), MacAddress.local(2),
                      spec["nw_src"], spec["nw_dst"],
                      spec["sport"], spec["dport"])
        key = extract_flow(pkt.data, in_port=spec["in_port"])
        got = table.lookup(key)
        expected = _brute_force(live, key)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.priority == expected.priority
            # Ties between equal-priority overlapping rules are arbitrary
            # in OpenFlow; only insist on the priority.


# ---------------------------------------------------------------------------
# 1b. The sparse classifier against a dense oracle.
#
# ``Match`` stores an interned shape plus the values of its non-zero-mask
# fields, and ``_Subtable`` buckets on that short tuple.  The oracle below
# is the representation it replaced: dense 32-wide masks and values,
# ``apply_mask`` over every field, a linear scan of the subtable.  It knows
# nothing of shapes or keys - it works from the drawn constraints.
# ---------------------------------------------------------------------------

#: field -> masks a rule may use (0 = a zero-mask constraint such as
#: ``nw_src=(0, 0)``: it constrains nothing but is part of the match).
_MASKS = {
    "in_port": [0xFFFFFFFF],
    "nw_src": [0xFFFFFFFF, 0xFFFFFF00, 0xFF000000, 0],
    "nw_dst": [0xFFFFFF00, 0x0000FF00, 0],
    "nw_proto": [0xFF],
    "tp_dst": [0xFFFF, 0xFF00, 0x0001],
    "ct_state": [0x01, 0x03, 0],
    "metadata": [0xFFFFFFFFFFFFFFFF],
}
#: Few values, so rules collide, replace each other and share buckets.
_VALUES = [0, 1, 2, 0x100, 0x101, 0x0A000100, 0x0A000101, 0x0B000000]


def _full(name):
    return full_field_mask(name)


@st.composite
def _constraints(draw):
    names = draw(st.lists(st.sampled_from(sorted(_MASKS)), max_size=4,
                          unique=True))
    out = {}
    for name in names:
        mask = draw(st.sampled_from(_MASKS[name]))
        out[name] = (draw(st.sampled_from(_VALUES)) & _full(name) & mask, mask)
    return out


@st.composite
def _as_written(draw, constraints):
    """The keyword arguments for one way of writing ``constraints``: any
    keyword order, exact fields as a bare value or a (value, mask) pair."""
    kwargs = {}
    for name in draw(st.permutations(sorted(constraints))):
        value, mask = constraints[name]
        bare = mask == _full(name) and draw(st.booleans())
        kwargs[name] = value if bare else (value, mask)
    return kwargs


def _dense(constraints):
    mask = mask_from_fields(**{n: m for n, (_v, m) in constraints.items()})
    value = apply_mask(
        FlowKey(**{n: v for n, (v, _m) in constraints.items()}), mask)
    return mask, value


class _DenseOracle:
    """Tuple-space search the dense way, one list per subtable."""

    def __init__(self):
        #: dense mask -> [(priority, constraints, dense value, tag)],
        #: in insertion order (a replacement keeps its slot).
        self.subtables = {}

    def add(self, priority, constraints, tag):
        mask, value = _dense(constraints)
        rules = self.subtables.setdefault(mask, [])
        entry = (priority, constraints, value, tag)
        for i, (p, c, _v, _t) in enumerate(rules):
            if p == priority and c == constraints:
                rules[i] = entry
                return
        rules.append(entry)

    def delete_strict(self, priority, constraints):
        mask, _value = _dense(constraints)
        rules = self.subtables.get(mask, [])
        rules[:] = [r for r in rules
                    if not (r[0] == priority and r[1] == constraints)]
        if not rules:
            self.subtables.pop(mask, None)

    def __len__(self):
        return sum(len(rules) for rules in self.subtables.values())

    def lookup(self, key):
        """``(winner, probed masks in order)``."""
        def top(rules):
            return max(r[0] for r in rules)

        best, probed = None, []
        for mask, rules in sorted(self.subtables.items(),
                                  key=lambda item: -top(item[1])):
            if best is not None and best[0] >= top(rules):
                break
            probed.append(mask)
            masked = apply_mask(key, mask)
            hits = [rule for rule in rules if rule[2] == masked]
            if hits:
                hit = max(hits, key=lambda rule: rule[0])  # first of the top
                if best is None or hit[0] > best[0]:
                    best = hit
        return best, probed


@st.composite
def _op_sequences(draw):
    pool = draw(st.lists(_constraints(), min_size=1, max_size=6))
    ops = []
    for i in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["add", "add", "delete", "lookup", "lookup"]))
        if kind == "lookup":
            ops.append(("lookup", FlowKey(**{
                name: draw(st.sampled_from(_VALUES)) & _full(name)
                for name in _MASKS})))
        else:
            constraints = draw(st.sampled_from(pool))
            ops.append((kind, draw(st.integers(1, 3)), constraints,
                        draw(_as_written(constraints)), f"r{i}"))
    return ops


@given(_op_sequences())
@settings(max_examples=100, deadline=None)
def test_sparse_classifier_equals_dense_oracle(ops):
    """Same winner, same *sequence* of probed masks, same ``classifier``
    charge, after any mix of add / replace / strict delete."""
    of = OpenFlowConnection(Bridge("br0"))
    table = of.bridge.table(0)
    oracle = _DenseOracle()
    ctx = ExecContext(CpuModel(1), 0, CpuCategory.USER)
    for op in ops:
        if op[0] == "add":
            _kind, priority, constraints, kwargs, tag = op
            of.add_flow(0, priority, Match(**kwargs), [OutputAction(tag)])
            oracle.add(priority, constraints, tag)
        elif op[0] == "delete":
            _kind, priority, constraints, kwargs, _tag = op
            of.flow_mod(FlowMod(FlowModCommand.DELETE_STRICT,
                                priority=priority, match=Match(**kwargs)))
            oracle.delete_strict(priority, constraints)
        else:
            key = op[1]
            expected, expected_probed = oracle.lookup(key)
            probed = []
            with ctx.tracing(LatencyTrace()) as trace:
                got = table.lookup(key, ctx, probed_masks=probed)
            assert probed == expected_probed
            cost = len(expected_probed) * DEFAULT_COSTS.classifier_subtable_ns
            assert trace.components == ({"classifier": cost} if cost else {})
            if expected is None:
                assert got is None
            else:
                assert (got.priority, got.actions[0].port) == \
                    (expected[0], expected[3])
        assert len(table) == len(oracle)
        assert table.n_subtables == len(oracle.subtables)
        assert [s.mask for s in table._subtables.values()] == \
            list(oracle.subtables)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_match_api_is_the_dense_contract(data):
    constraints = data.draw(_constraints())
    m = Match(**data.draw(_as_written(constraints)))
    twin = Match(**data.draw(_as_written(constraints)))
    mask, value = _dense(constraints)

    assert (m.mask, m.masked_value) == (mask, value)
    assert m.fields() == constraints
    assert set(m.field_names()) == set(constraints)
    assert m.is_catchall() == (not constraints)
    # Stored sparsely: one value per field that constrains something.
    assert len(m.key) == sum(1 for _v, bits in constraints.values() if bits)

    key = FlowKey(**{name: data.draw(st.sampled_from(_VALUES)) & _full(name)
                     for name in _MASKS})
    assert m.matches(key) == (apply_mask(key, mask) == value)

    # However it was written, it is one match: equal, one hash, one shape,
    # one bucket - and it survives fields(), pickle and deepcopy.
    assert m == twin and hash(m) == hash(twin) and repr(m) == repr(twin)
    assert m.shape is twin.shape
    for copy_ in (Match(**m.fields()), pickle.loads(pickle.dumps(m)),
                  copy.deepcopy(m)):
        assert copy_ == m and copy_.shape is m.shape
    table = FlowTable()
    first = Rule(7, m, (OutputAction("first"),))
    assert table.add_rule(first) is None
    assert table.add_rule(Rule(7, twin, (OutputAction("second"),))) is first
    assert len(table) == 1

    other = data.draw(_constraints())
    assert (m == Match(**other)) == (constraints == other)


def test_match_still_rejects_bad_input_once_its_shape_is_interned():
    Match(nw_dst=(0x0A000000, 0xFFFFFF00))
    with pytest.raises(ValueError, match="nw_dst: value 0xa000001 has bits "
                                         "outside mask 0xffffff00"):
        Match(nw_dst=(0x0A000001, 0xFFFFFF00))
    Match(nw_proto=6)
    with pytest.raises(ValueError, match="nw_proto"):
        Match(nw_proto=0x100)  # wider than the field
    for _ in range(2):
        with pytest.raises(KeyError, match="frobnicator"):
            Match(nw_proto=6, frobnicator=1)


def test_zero_mask_twins_share_a_bucket_but_are_two_rules():
    plain, twin = Match(nw_proto=6), Match(nw_proto=6, nw_src=(0, 0))
    assert plain != twin
    assert (plain.mask, plain.key) == (twin.mask, twin.key)
    assert twin.fields() == {"nw_src": (0, 0), "nw_proto": (6, 0xFF)}
    table = FlowTable()
    table.add_rule(Rule(5, plain, (OutputAction("plain"),)))
    table.add_rule(Rule(5, twin, (OutputAction("twin"),)))
    assert (len(table), table.n_subtables) == (2, 1)
    assert table.find_strict(5, twin).actions[0].port == "twin"
    assert table.lookup(FlowKey(nw_proto=6)).actions[0].port == "plain"


def test_eq_hash_insert_and_lookup_never_go_dense(monkeypatch):
    """The write path and the probe work on ``(shape, key)`` alone: with
    every dense view of a match disabled they still run."""
    assert Match.__slots__ == ("shape", "key")

    def dense_view(*_args):
        raise AssertionError("dense view built on the hot path")

    a, b = Match(nw_proto=6, tp_dst=80), Match(tp_dst=80, nw_proto=6)
    for name in ("mask", "masked_value"):
        monkeypatch.setattr(Match, name, property(dense_view))
    monkeypatch.setattr(Match, "fields", dense_view)
    assert a == b and hash(a) == hash(b) and a != Match(nw_proto=6)
    table = FlowTable()
    rule = Rule(9, a, ())
    table.add_rule(rule)
    assert table.add_rule(Rule(9, b, ())) is rule
    assert table.lookup(FlowKey(nw_proto=6, tp_dst=80)) is not None
    assert table.lookup(FlowKey(nw_proto=6, tp_dst=81)) is None


# ---------------------------------------------------------------------------
# 2. Cache hierarchy never changes the decision.
# ---------------------------------------------------------------------------

@given(_rules_and_packets(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_cached_datapath_matches_slow_path(case, second_table):
    rules, packets = case
    host = Host("prop", n_cpus=2)
    vs = host.install_ovs("netdev")
    vs.add_bridge("br0")
    ports = {}
    adapters = {}
    for i in range(len(rules)):
        port, adapter = vs.add_sim_port("br0", f"p{i}")
        ports[f"p{i}"] = port
        adapters[f"p{i}"] = adapter
    src_port, _src_adapter = vs.add_sim_port("br0", "src")
    of = OpenFlowConnection(vs.bridge("br0"))
    for rule in rules:
        actions = list(rule.actions)
        if second_table:
            # Exercise multi-table translation too.
            of.add_flow(1, rule.priority, rule.match, actions)
            actions = [GotoTable(1)]
            of.add_flow(0, rule.priority, rule.match, actions)
        else:
            of.add_flow(0, rule.priority, rule.match, actions)

    ctx = ExecContext(host.cpu, 0, CpuCategory.USER)
    emc = ExactMatchCache()
    dpif = vs.dpif_netdev
    for spec in packets:
        from repro.net.builder import make_tcp_packet

        builder = make_tcp_packet if spec["proto"] == 6 else make_udp_packet
        pkt = builder(MacAddress.local(1), MacAddress.local(2),
                      spec["nw_src"], spec["nw_dst"],
                      spec["sport"], spec["dport"])
        # Send the same packet TWICE: first populates the caches, the
        # second must take the cached path to the same output.
        for _ in range(2):
            dpif.process_batch([pkt.clone()], src_port.dp_port_no, ctx, emc)
        key = extract_flow(pkt.data, in_port=src_port.dp_port_no)
        fresh = vs.ofproto.translate(key)
        expected_outputs = {
            a.port_no for a in fresh.actions
            if a.__class__.__name__ == "Output"
        }
        got_outputs = {
            name for name, adapter in adapters.items()
            if adapter.take_transmitted()
        }
        expected_names = {
            dpif.ports[p].name for p in expected_outputs if p in dpif.ports
        }
        if expected_names:
            assert got_outputs == expected_names
        else:
            assert got_outputs == set()
