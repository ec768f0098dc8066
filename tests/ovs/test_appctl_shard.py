"""``appctl shard/show`` golden output (DESIGN §17).

Wall times in the report are real seconds, so the goldens construct
reports with pinned values; one test drives a real (degenerate and a
real 2-worker) run and checks the live ``shard.LAST_REPORT`` path.
"""

from repro.hosts.host import Host
from repro.ovs.appctl import OvsAppctl
from repro.sim import shard
from repro.sim.shard import ShardReport, Unit, run_units


def _appctl():
    host = Host("shardshow", n_cpus=2)
    return OvsAppctl(host.install_ovs("netdev"))


def _units(n):
    return [
        Unit(key=f"u{i}", runner="tests.sim.test_shard:unit_square",
             params=dict(x=i), weight=1.0 + i)
        for i in range(n)
    ]


def test_shard_show_golden_multi_worker():
    report = ShardReport(
        n_shards=2,
        start_method="fork",
        record="profile",
        barriers=1,
        placement=[("fig9:P2P:kernel", 0, 3.0),
                   ("fig9:P2P:dpdk", 1, 1.0),
                   ("fig9:P2P:ebpf", 1, 1.5)],
        shard_walls={0: 0.25, 1: 0.125},
        merge_wall_s=0.002,
        payload_bytes=4096,
    )
    out = _appctl().shard_show(report)
    assert out == "\n".join([
        "shards: 2 (start method: fork)",
        "record: profile",
        "barriers: 1",
        "shard 0: 1 unit  wall 0.250s",
        "  'fig9:P2P:kernel' (w=3)",
        "shard 1: 2 units  wall 0.125s",
        "  'fig9:P2P:dpdk' (w=1)",
        "  'fig9:P2P:ebpf' (w=1.5)",
        "merge wall: 2.00 ms (4096 snapshot bytes)",
    ])


def test_shard_show_golden_degenerate_single_shard():
    report = ShardReport(
        n_shards=1,
        start_method="inline",
        degenerate=True,
        record="off",
        barriers=0,
        placement=[("port0", 0, 1.0), ("port1", 0, 2.0)],
        shard_walls={0: 0.5},
        merge_wall_s=0.0,
        payload_bytes=0,
    )
    out = _appctl().shard_show(report)
    assert out == "\n".join([
        "shards: 1 (start method: inline, degenerate: ran inline)",
        "record: off",
        "barriers: 0",
        "shard 0: 2 units  wall 0.500s",
        "  'port0' (w=1)",
        "  'port1' (w=2)",
        "merge wall: 0.00 ms (0 snapshot bytes)",
    ])


def test_shard_show_reads_last_report_and_handles_none():
    appctl = _appctl()
    saved = shard.LAST_REPORT
    try:
        shard.LAST_REPORT = None
        assert appctl.shard_show() == "(no sharded run recorded)"
        run_units(_units(3), shards=1)
        out = appctl.shard_show()
        assert "degenerate: ran inline" in out
        assert "shard 0: 3 units" in out
        run_units(_units(3), shards=2)
        out = appctl.shard_show()
        assert out.startswith("shards: 2 (start method: ")
        assert "barriers: 1" in out
        # LPT on weights (1, 2, 3): u2 alone, u1+u0 together.
        assert "'u2' (w=3)" in out
    finally:
        shard.LAST_REPORT = saved
