import pytest

from repro.net.addresses import ip_to_int
from repro.net.flow import extract_flow
from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.oftable import FlowTable, Rule

from .conftest import udp_pkt


def key_of(pkt, **kwargs):
    return extract_flow(pkt.data, **kwargs)


class TestMatch:
    def test_exact_field_match(self):
        m = Match(nw_dst=ip_to_int("10.0.0.2"))
        assert m.matches(key_of(udp_pkt()))
        assert not m.matches(key_of(udp_pkt(dst="10.0.0.3")))

    def test_masked_match(self):
        m = Match(nw_dst=(ip_to_int("10.0.0.0"), 0xFFFFFF00))
        assert m.matches(key_of(udp_pkt(dst="10.0.0.77")))
        assert not m.matches(key_of(udp_pkt(dst="10.0.1.77")))

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Match(nw_dst=(ip_to_int("10.0.0.1"), 0xFFFFFF00))

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            Match(frobnicator=1)

    def test_catchall(self):
        m = Match()
        assert m.is_catchall()
        assert m.matches(key_of(udp_pkt()))

    def test_equality_and_hash(self):
        a = Match(nw_proto=17, tp_dst=2000)
        b = Match(tp_dst=2000, nw_proto=17)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Match(nw_proto=17)

    def test_repr_shows_masks(self):
        m = Match(nw_dst=(ip_to_int("10.0.0.0"), 0xFFFFFF00))
        assert "/" in repr(m)

    def test_multi_field(self):
        m = Match(nw_proto=17, tp_dst=2000, in_port=3)
        assert m.matches(key_of(udp_pkt(), in_port=3))
        assert not m.matches(key_of(udp_pkt(), in_port=4))


class TestFlowTable:
    def _rule(self, priority, match, port="p1"):
        return Rule(priority, match, (OutputAction(port),))

    def test_highest_priority_wins(self):
        t = FlowTable()
        low = self._rule(10, Match(), "low")
        high = self._rule(100, Match(nw_proto=17), "high")
        t.add_rule(low)
        t.add_rule(high)
        hit = t.lookup(key_of(udp_pkt()))
        assert hit is high

    def test_fallthrough_to_catchall(self):
        t = FlowTable()
        t.add_rule(self._rule(10, Match(), "default"))
        t.add_rule(self._rule(100, Match(nw_proto=6), "tcp-only"))
        hit = t.lookup(key_of(udp_pkt()))
        assert hit.actions[0].port == "default"

    def test_no_match_returns_none(self):
        t = FlowTable()
        t.add_rule(self._rule(10, Match(nw_proto=6), "tcp"))
        assert t.lookup(key_of(udp_pkt())) is None

    def test_same_match_same_priority_replaces(self):
        t = FlowTable()
        t.add_rule(self._rule(5, Match(nw_proto=17), "old"))
        t.add_rule(self._rule(5, Match(nw_proto=17), "new"))
        assert len(t) == 1
        assert t.lookup(key_of(udp_pkt())).actions[0].port == "new"

    def test_subtable_count_tracks_shapes(self):
        t = FlowTable()
        t.add_rule(self._rule(1, Match(nw_dst=1)))
        t.add_rule(self._rule(1, Match(nw_dst=2)))
        t.add_rule(self._rule(1, Match(nw_proto=17)))
        assert t.n_subtables == 2  # two distinct shapes

    def test_lookup_cost_scales_with_subtables(self, ctx, cpu):
        t = FlowTable()
        # 10 distinct shapes (different nw_dst masks): 10 subtables.
        for i in range(10):
            t.add_rule(self._rule(100, Match(nw_dst=(1 << i, 1 << i))))
        t.add_rule(self._rule(1, Match(), "default"))
        cpu.reset()
        # dst 0.0.0.0 misses every single-bit subtable, hits the catchall.
        t.lookup(key_of(udp_pkt(dst="0.0.0.0")), ctx)
        from repro.sim.costs import DEFAULT_COSTS

        assert cpu.busy_ns() == pytest.approx(
            11 * DEFAULT_COSTS.classifier_subtable_ns)

    def test_early_exit_when_best_cannot_be_beaten(self, ctx, cpu):
        t = FlowTable()
        t.add_rule(self._rule(100, Match(nw_proto=17), "first"))
        for i in range(5):
            t.add_rule(self._rule(10, Match(nw_dst=i + 1)))
        cpu.reset()
        hit = t.lookup(key_of(udp_pkt()), ctx)
        assert hit.actions[0].port == "first"
        from repro.sim.costs import DEFAULT_COSTS

        assert cpu.busy_ns() == pytest.approx(
            DEFAULT_COSTS.classifier_subtable_ns)

    def test_probed_masks_accumulate(self):
        t = FlowTable()
        t.add_rule(self._rule(100, Match(nw_proto=6), "tcp"))
        t.add_rule(self._rule(10, Match(), "default"))
        probed = []
        t.lookup(key_of(udp_pkt()), probed_masks=probed)
        assert len(probed) == 2

    def test_remove_rule(self):
        t = FlowTable()
        r = self._rule(10, Match(nw_proto=17))
        t.add_rule(r)
        assert t.remove_rule(r)
        assert len(t) == 0
        assert t.n_subtables == 0
        assert not t.remove_rule(r)

    def test_max_priority_after_removing_the_only_top_rule(self, ctx, cpu):
        """``max_priority`` is kept by a per-priority count; it must drop
        when the last rule at the top goes, or the early exit probes a
        subtable that can no longer win."""
        from repro.sim.costs import DEFAULT_COSTS

        t = FlowTable()
        top = self._rule(100, Match(nw_proto=17), "top")
        twin = self._rule(50, Match(nw_proto=6), "twin")
        t.add_rule(top)
        t.add_rule(twin)
        t.add_rule(self._rule(50, Match(nw_proto=6), "twin2"))  # replaces
        t.add_rule(self._rule(50, Match(nw_proto=1), "icmp"))
        t.add_rule(self._rule(70, Match(nw_dst=ip_to_int("10.0.0.2")), "dst"))
        [sub] = [s for s in t._subtables.values() if s.mask == top.match.mask]
        assert (sub.max_priority, len(sub)) == (100, 3)
        assert t.remove_rule(top)
        assert (sub.max_priority, len(sub)) == (50, 2)
        assert not t.remove_rule(twin)  # it was replaced, not installed
        assert (sub.max_priority, len(sub)) == (50, 2)
        # The nw_dst subtable (70) now goes first and ends the search.
        cpu.reset()
        probed = []
        hit = t.lookup(key_of(udp_pkt()), ctx, probed_masks=probed)
        assert hit.actions[0].port == "dst"
        assert probed == [Match(nw_dst=1).mask]
        assert cpu.busy_ns() == pytest.approx(
            DEFAULT_COSTS.classifier_subtable_ns)

    def test_subtable_dropped_with_its_last_rule_and_order_kept(self):
        """Subtables probe in (max priority, insertion) order.  Removing a
        subtable's last rule drops it; re-adding the shape appends it, as
        it always did, and the others keep their relative order."""
        t = FlowTable()
        shapes = [Match(nw_proto=6), Match(tp_dst=2000), Match(in_port=9)]
        rules = [self._rule(10, m, f"r{i}") for i, m in enumerate(shapes)]
        for rule in rules:
            t.add_rule(rule)

        def probe_order():
            probed = []
            # A UDP packet to port 1 on port 0 misses all three: all probed.
            assert t.lookup(key_of(udp_pkt(dport=1)), probed_masks=probed) is None
            return probed

        assert probe_order() == [m.mask for m in shapes]
        assert t.remove_rule(rules[0])
        assert t.n_subtables == 2
        assert t.find_strict(10, shapes[0]) is None
        assert probe_order() == [shapes[1].mask, shapes[2].mask]
        t.add_rule(rules[0])
        assert probe_order() == [shapes[1].mask, shapes[2].mask, shapes[0].mask]
        assert t.find_strict(10, shapes[0]) is rules[0]
        assert t.find_strict(11, shapes[0]) is None

    def test_stats(self):
        t = FlowTable()
        t.add_rule(self._rule(10, Match()))
        t.lookup(key_of(udp_pkt()))
        t.lookup(key_of(udp_pkt()))
        assert t.n_lookups == 2
        assert t.n_matches == 2
