import pytest

from repro.ovs.match import Match
from repro.ovs.ofactions import OutputAction
from repro.ovs.ofproto import Bridge
from repro.ovs.openflow import FlowMod, FlowModCommand, OpenFlowConnection
from repro.ovs.ovsdb import OvsdbError, OvsdbServer


class TestOvsdb:
    def test_insert_and_find(self):
        db = OvsdbServer()
        txn = db.transact()
        txn.insert("Bridge", name="br0")
        txn.commit()
        [row] = db.find("Bridge", name="br0")
        assert row["datapath_type"] == "system"  # default

    def test_temp_uuid_resolution(self):
        db = OvsdbServer()
        txn = db.transact()
        iface = txn.insert("Interface", name="eth0")
        port = txn.insert("Port", name="eth0", interfaces=[iface])
        mapping = txn.commit()
        [port_row] = db.find("Port", name="eth0")
        assert port_row["interfaces"] == [mapping[iface]]
        assert db.get(mapping[iface])["name"] == "eth0"

    def test_transaction_atomicity(self):
        db = OvsdbServer()
        txn = db.transact()
        txn.insert("Bridge", name="br0")
        txn.insert("NoSuchTable", name="x")
        with pytest.raises(OvsdbError):
            txn.commit()
        assert db.find("Bridge", name="br0") == []  # nothing applied

    def test_duplicate_name_rejected(self):
        db = OvsdbServer()
        t1 = db.transact()
        t1.insert("Bridge", name="br0")
        t1.commit()
        t2 = db.transact()
        t2.insert("Bridge", name="br0")
        with pytest.raises(OvsdbError, match="already exists"):
            t2.commit()

    def test_duplicate_name_in_one_transaction_rejected(self):
        db = OvsdbServer()
        txn = db.transact()
        txn.insert("Port", name="p0")
        txn.insert("Port", name="p0")
        with pytest.raises(OvsdbError, match="already exists"):
            txn.commit()
        assert db.find("Port") == []

    def test_rename_frees_the_old_name_and_takes_the_new(self):
        db = OvsdbServer()
        txn = db.transact()
        p0 = txn.insert("Port", name="p0")
        p0 = txn.commit()[p0]
        txn = db.transact()
        txn.update(p0, name="p1")
        txn.commit()
        txn = db.transact()
        again = txn.insert("Port", name="p0")
        again = txn.commit()[again]
        assert [r.uuid for r in db.find("Port", name="p0")] == [again]
        txn = db.transact()
        txn.insert("Port", name="p1")
        with pytest.raises(OvsdbError, match="already exists"):
            txn.commit()
        txn = db.transact()
        txn.update(again, name="p1")  # a rename may not take a held name
        with pytest.raises(OvsdbError, match="already exists"):
            txn.commit()
        assert db.get(again)["name"] == "p0"

    def test_insert_never_scans_committed_rows(self):
        """The duplicate-name check reads one index key: an insert into a
        database of 300 ports touches none of their rows."""
        db = OvsdbServer()
        for i in range(300):
            txn = db.transact()
            txn.insert("Port", name=f"p{i}")
            txn.commit()

        class Unscannable(dict):
            def _scan(self, *args):
                raise AssertionError("scanned every committed row")
            __iter__ = items = values = keys = _scan

        db._rows = Unscannable(db._rows)
        txn = db.transact()
        txn.insert("Port", name="p300")
        txn.commit()
        txn = db.transact()
        txn.insert("Port", name="p7")
        with pytest.raises(OvsdbError, match="already exists"):
            txn.commit()

    def test_type_validation(self):
        db = OvsdbServer()
        txn = db.transact()
        txn.insert("Interface", name="eth0", ofport="not-an-int")
        with pytest.raises(OvsdbError):
            txn.commit()

    def test_update_and_delete(self):
        db = OvsdbServer()
        txn = db.transact()
        u = txn.insert("Interface", name="eth0")
        mapping = txn.commit()
        real = mapping[u]
        txn2 = db.transact()
        txn2.update(real, type="afxdp")
        txn2.commit()
        assert db.get(real)["type"] == "afxdp"
        txn3 = db.transact()
        txn3.delete(real)
        txn3.commit()
        with pytest.raises(OvsdbError):
            db.get(real)

    def test_failed_commit_leaves_rows_untouched(self):
        """All-or-nothing with staged (not cloned) rows: earlier ops of a
        failing transaction - an update to a list column, a delete, an
        insert - leave no trace, down to row identity."""
        db = OvsdbServer()
        txn = db.transact()
        br = txn.insert("Bridge", name="br0")
        port = txn.insert("Port", name="p0")
        txn.update(br, ports=[port])
        mapping = txn.commit()
        br, port = mapping[br], mapping[port]
        before = {u: (id(r), r.table, repr(r.columns))
                  for u, r in db._rows.items()}
        ports_list = db.get(br)["ports"]

        bad = db.transact()
        new_port = bad.insert("Port", name="p1")
        bad.update(br, ports=db.get(br)["ports"] + [new_port], name="renamed")
        bad.delete(port)
        bad.update("uuid-nope", name="x")  # fails after three good ops
        with pytest.raises(OvsdbError, match="no row"):
            bad.commit()
        assert not bad.committed
        after = {u: (id(r), r.table, repr(r.columns))
                 for u, r in db._rows.items()}
        assert after == before
        assert db.get(br)["ports"] is ports_list
        assert ports_list == [port]

    def test_delete_then_reuse_name_in_one_transaction(self):
        db = OvsdbServer()
        txn = db.transact()
        old = txn.insert("Port", name="p0")
        old = txn.commit()[old]
        txn = db.transact()
        txn.delete(old)
        new = txn.insert("Port", name="p0")
        new = txn.commit()[new]
        assert [r.uuid for r in db.find("Port", name="p0")] == [new]
        txn = db.transact()
        txn.delete(new)
        txn.update(new, name="again")  # a deleted row cannot be written
        with pytest.raises(OvsdbError, match="no row"):
            txn.commit()

    def test_port_adds_copy_rows_linearly(self, monkeypatch):
        """The work of a commit is the rows it writes, not the database:
        300 ``add_tunnel_port``s build O(ports) ``Row``s (2 inserts + 1
        bridge-row copy each).  The clone-everything commit built 45,000."""
        from repro.hosts.host import Host
        from repro.ovs import ovsdb

        built = []
        real_row = ovsdb.Row

        def counting_row(*args, **kwargs):
            built.append(1)
            return real_row(*args, **kwargs)

        vs = Host("hv", n_cpus=2).install_ovs("netdev")
        vs.add_bridge("br-int")
        monkeypatch.setattr(ovsdb, "Row", counting_row)
        n_ports = 300
        for i in range(n_ports):
            vs.add_tunnel_port("br-int", f"geneve{i}", "geneve",
                               0x0A000001 + i, key=5000)
        assert len(built) == 3 * n_ports
        [bridge_row] = vs.ovsdb.find("Bridge", name="br-int")
        assert len(bridge_row["ports"]) == n_ports
        assert len(vs.ovsdb.find("Interface", type="geneve")) == n_ports

    def test_double_commit_rejected(self):
        db = OvsdbServer()
        txn = db.transact()
        txn.insert("Bridge", name="br0")
        txn.commit()
        with pytest.raises(OvsdbError):
            txn.commit()

    def test_watchers_notified(self):
        db = OvsdbServer()
        events = []
        db.watch(lambda: events.append(1))
        txn = db.transact()
        txn.insert("Bridge", name="br0")
        txn.commit()
        assert events == [1]


class TestOpenFlow:
    def _bridge(self):
        b = Bridge("br0")
        b.add_port("p1", 1)
        b.add_port("p2", 2)
        return b

    def test_add_and_dump(self):
        of = OpenFlowConnection(self._bridge())
        of.add_flow(0, 10, Match(nw_proto=17), [OutputAction("p2")])
        of.add_flow(1, 5, Match(), [OutputAction("p1")])
        assert of.flow_count() == 2
        assert len(of.dump_flows(0)) == 1
        assert len(of.dump_flows()) == 2

    def test_strict_delete(self):
        of = OpenFlowConnection(self._bridge())
        of.add_flow(0, 10, Match(nw_proto=17), [OutputAction("p2")])
        of.add_flow(0, 20, Match(nw_proto=17), [OutputAction("p1")])
        of.flow_mod(FlowMod(FlowModCommand.DELETE_STRICT, table_id=0,
                            priority=10, match=Match(nw_proto=17)))
        remaining = of.dump_flows(0)
        assert len(remaining) == 1
        assert remaining[0].priority == 20

    def test_loose_delete_subsumption(self):
        of = OpenFlowConnection(self._bridge())
        of.add_flow(0, 10, Match(nw_proto=17, tp_dst=53), [OutputAction("p2")])
        of.add_flow(0, 10, Match(nw_proto=6, tp_dst=80), [OutputAction("p2")])
        of.flow_mod(FlowMod(FlowModCommand.DELETE, table_id=0,
                            match=Match(nw_proto=17)))
        remaining = of.dump_flows(0)
        assert len(remaining) == 1
        assert remaining[0].match.fields()["nw_proto"][0] == 6

    def test_loose_delete_catchall_clears_table(self):
        of = OpenFlowConnection(self._bridge())
        of.add_flow(0, 10, Match(nw_proto=17), [OutputAction("p2")])
        of.add_flow(0, 20, Match(tp_dst=80), [OutputAction("p1")])
        of.flow_mod(FlowMod(FlowModCommand.DELETE, table_id=0, match=Match()))
        assert of.dump_flows(0) == []

    def test_delete_by_cookie(self):
        of = OpenFlowConnection(self._bridge())
        of.add_flow(0, 10, Match(nw_proto=17), [OutputAction("p2")], cookie=7)
        of.add_flow(0, 10, Match(nw_proto=6), [OutputAction("p2")], cookie=8)
        assert of.delete_flows(cookie=7) == 1
        assert of.flow_count() == 1

    def test_flow_mod_counter(self):
        of = OpenFlowConnection(self._bridge())
        of.add_flow(0, 1, Match(), [])
        of.delete_flows()
        assert of.n_flow_mods == 2

    def test_flow_mod_add_counts_once_and_validates(self):
        from repro.ovs.ofactions import CtAction

        of = OpenFlowConnection(self._bridge())
        of.flow_mod(FlowMod(FlowModCommand.ADD, table_id=3, priority=7,
                            match=Match(nw_proto=6),
                            actions=(OutputAction("p1"),), cookie=9))
        assert of.n_flow_mods == 1
        [rule] = of.dump_flows(3)
        assert (rule.priority, rule.cookie, rule.table_id) == (7, 9, 3)
        for install in (
            lambda acts: of.add_flow(0, 1, Match(), acts),
            lambda acts: of.flow_mod(
                FlowMod(FlowModCommand.ADD, actions=tuple(acts))),
        ):
            with pytest.raises(ValueError, match="last action"):
                install([CtAction(zone=1, table=2), OutputAction("p1")])

    def test_strict_delete_is_strict_where_loose_is_not(self):
        """Strict delete needs the exact match and priority - a sub- or
        superset match, another priority, or a zero-mask twin of the same
        mask all stay; loose delete takes everything the pattern covers."""
        def install():
            of = OpenFlowConnection(self._bridge())
            of.add_flow(0, 10, Match(nw_proto=17), [OutputAction("p1")])
            of.add_flow(0, 20, Match(nw_proto=17), [OutputAction("p2")])
            of.add_flow(0, 10, Match(nw_proto=17, tp_dst=53), [])
            of.add_flow(0, 10, Match(nw_proto=17, nw_src=(0, 0)), [])
            of.add_flow(0, 10, Match(nw_proto=6), [])
            return of

        def left(of):
            return sorted((r.priority, repr(r.match)) for r in of.dump_flows(0))

        of = install()
        everything = left(of)
        for priority, match in ((11, Match(nw_proto=17)),
                                (10, Match(tp_dst=53)),
                                (10, Match()),
                                (10, Match(nw_proto=17, tp_src=1))):
            of.flow_mod(FlowMod(FlowModCommand.DELETE_STRICT, priority=priority,
                                match=match))
            assert left(of) == everything
        of.flow_mod(FlowMod(FlowModCommand.DELETE_STRICT, priority=10,
                            match=Match(nw_proto=17)))
        assert left(of) == [e for e in everything
                            if e != (10, "Match(nw_proto=0x11)")]
        assert of.n_flow_mods == 5 + 5

        of = install()
        of.flow_mod(FlowMod(FlowModCommand.DELETE, match=Match(nw_proto=17)))
        assert left(of) == [(10, "Match(nw_proto=0x6)")]
