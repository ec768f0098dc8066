"""The call-tree profiler and virtual-time metrics sampler."""

import json

import pytest

from repro.sim import profile
from repro.sim.cpu import CpuCategory, CpuModel, ExecContext
from repro.sim.profile import (
    CallNode,
    MetricsSampler,
    Profiler,
    collapse,
    diff_profiles,
    flatten,
    profile_json,
    render_tree,
)
from repro.sim.trace import TraceRecorder


def _ctx(cpu=None):
    cpu = cpu or CpuModel(2)
    return ExecContext(cpu, 0, CpuCategory.USER)


def _drive(rec, ctx):
    """A tiny two-span workload with a shared leaf label."""
    with rec.span("outer"):
        ctx.charge(10.0, label="emc")
        with rec.span("inner"):
            ctx.charge(5.0, label="dpcls")
            ctx.charge(5.0, label="dpcls")
        ctx.charge(2.0, label="emc")
    ctx.charge(3.0, label="stray")


# ---------------------------------------------------------------------------
# Tree construction.
# ---------------------------------------------------------------------------
def test_tree_structure_follows_span_stack():
    with profile.profiling() as rec:
        _drive(rec, _ctx())
    root = rec.profiler.root
    assert set(root.children) == {"outer", "stray"}
    outer = root.children["outer"]
    assert set(outer.children) == {"emc", "inner"}
    inner = outer.children["inner"]
    assert set(inner.children) == {"dpcls"}
    assert inner.children["dpcls"].calls == 2
    assert inner.children["dpcls"].ns == pytest.approx(10.0)
    # The two emc charges folded into one leaf under outer.
    assert outer.children["emc"].calls == 2
    assert outer.children["emc"].ns == pytest.approx(12.0)


def test_inclusive_vs_exclusive():
    with profile.profiling() as rec:
        _drive(rec, _ctx())
    root = rec.profiler.root
    outer = root.children["outer"]
    assert outer.ns == 0.0  # span nodes hold no self time
    assert outer.inclusive_ns() == pytest.approx(22.0)
    assert root.inclusive_ns() == pytest.approx(25.0)


def test_root_inclusive_conserves_against_ledger():
    with profile.profiling() as rec:
        _drive(rec, _ctx())
    root_ns = rec.profiler.root.inclusive_ns()
    assert root_ns == pytest.approx(rec.total_ns, rel=1e-9)
    assert root_ns == pytest.approx(rec.cpu_charged_ns, rel=1e-9)


def test_exit_underflow_is_guarded():
    p = Profiler()
    p.exit_()  # popping the root is refused
    assert p.depth == 0
    p.enter("a")
    assert p.depth == 1
    p.exit_()
    p.exit_()
    assert p.depth == 0


def test_reset_clears_tree_and_stack():
    p = Profiler()
    p.enter("a")
    p.leaf("x", 1.0)
    p.reset()
    assert p.depth == 0
    assert not p.root.children


# ---------------------------------------------------------------------------
# Rendering and export.
# ---------------------------------------------------------------------------
def test_render_tree_shows_shares_and_paths():
    with profile.profiling() as rec:
        _drive(rec, _ctx())
    out = render_tree(rec.profiler.root, title="t")
    assert "t (root inclusive 25 ns)" in out
    assert "outer" in out and "dpcls" in out
    assert "stray" in out


def test_collapse_is_deterministic_and_sorted():
    def run():
        with profile.profiling() as rec:
            _drive(rec, _ctx())
        return collapse(rec.profiler.root)

    a, b = run(), run()
    assert a == b
    lines = a.splitlines()
    assert lines == sorted(lines)
    assert "all;outer;inner;dpcls 10" in lines
    assert "all;outer;emc 12" in lines
    assert "all;stray 3" in lines
    # Every line is rooted at the synthetic base frame.
    assert all(line.startswith("all") for line in lines)


def test_flatten_and_diff():
    with profile.profiling() as rec_a:
        _drive(rec_a, _ctx())
    with profile.profiling() as rec_b:
        ctx = _ctx()
        _drive(rec_b, ctx)
        with rec_b.span("outer"):
            ctx.charge(100.0, label="emc")  # regression in b
    a = rec_a.profiler.root.to_dict()
    b = rec_b.profiler.root.to_dict()
    flat = flatten(a)
    assert flat["all;outer;inner;dpcls"][2] == pytest.approx(10.0)
    out = diff_profiles(a, b, "a", "b")
    # Every prefix of the regressed path carries the +100 ns delta;
    # unchanged paths (e.g. the dpcls leaf) are filtered out.
    rows = out.splitlines()[2:]
    assert any("+100" in r and "all;outer;emc" in r for r in rows)
    assert not any("dpcls" in r for r in rows)


def test_diff_reports_new_paths():
    a = Profiler().root.to_dict()
    p = Profiler()
    p.leaf("fresh", 9.0)
    out = diff_profiles(a, p.root.to_dict())
    assert "new" in out and "fresh" in out


def test_profile_json_roundtrips():
    with profile.profiling() as rec:
        _drive(rec, _ctx())
    doc = json.loads(profile_json(rec))
    assert doc["tree"]["label"] == "all"
    assert doc["root_inclusive_ns"] == pytest.approx(doc["total_ns"])
    assert doc["cpu_charged_ns"] == pytest.approx(doc["total_ns"])


def test_profile_json_requires_profiler():
    with pytest.raises(ValueError):
        profile_json(TraceRecorder())


# ---------------------------------------------------------------------------
# MetricsSampler.
# ---------------------------------------------------------------------------
def _sampled_run(interval_ns=50.0):
    sampler = MetricsSampler(interval_ns=interval_ns)
    with profile.profiling(sampler=sampler) as rec:
        ctx = _ctx()
        for i in range(20):
            rec.count("dp.rx_packets")
            ctx.charge(10.0, label="emc")
    return sampler, rec


def test_sampler_samples_at_virtual_time_thresholds():
    sampler, rec = _sampled_run(interval_ns=50.0)
    assert sampler.samples, "no samples taken"
    # 20 charges x 10 ns with a 50 ns interval -> a sample per 5 charges.
    assert len(sampler.samples) == 4
    for i, sample in enumerate(sampler.samples):
        assert sample["seq"] == i
    # Timestamps are actual charge instants, strictly increasing.
    ts = [s["t_ns"] for s in sampler.samples]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    assert ts[-1] <= rec.cpu_charged_ns


def test_sampler_is_deterministic():
    a, _ = _sampled_run()
    b, _ = _sampled_run()
    assert a.to_jsonl() == b.to_jsonl()


def test_sampler_rates_and_latency_hist():
    sampler, _rec = _sampled_run(interval_ns=50.0)
    last = sampler.samples[-1]
    assert last["counters"]["dp.rx_packets"] == 20
    # 1 packet per 10 ns -> 1e8 packets per virtual second.
    assert last["rates"]["dp.rx_packets"] == pytest.approx(1e8)
    assert len(sampler.latency_hist) == len(sampler.samples)
    assert sampler.latency_hist.percentile(50) == pytest.approx(10.0,
                                                                rel=0.02)


def test_sampler_jsonl_is_sorted_and_tagged():
    sampler, _ = _sampled_run()
    lines = sampler.to_jsonl(extra={"experiment": "unit"}).splitlines()
    assert len(lines) == len(sampler.samples)
    for line in lines:
        doc = json.loads(line)
        assert doc["experiment"] == "unit"
        assert line == json.dumps(doc, sort_keys=True)


def test_sampler_skips_missed_intervals():
    sampler = MetricsSampler(interval_ns=10.0)
    with profile.profiling(sampler=sampler):
        ctx = _ctx()
        ctx.charge(1000.0, label="big")  # jumps 100 intervals at once
        ctx.charge(5.0, label="small")
        ctx.charge(5.0, label="small")
    # One sample at the big charge, one when 10 more ns accumulate —
    # never a backlog of interpolated samples.
    assert len(sampler.samples) == 2


def test_sampler_reset():
    sampler, _ = _sampled_run()
    sampler.reset()
    assert not sampler.samples
    assert sampler.next_due_ns == sampler.interval_ns
    assert len(sampler.latency_hist) == 0


def test_sampler_render_mentions_counters():
    sampler, _ = _sampled_run()
    out = sampler.render()
    assert "dp.rx_packets" in out
    assert "ns per packet" in out
    assert MetricsSampler().render().endswith("(no samples yet)")


def test_recorder_reset_resets_attachments():
    sampler, rec = _sampled_run()
    assert rec.profiler.root.children and sampler.samples
    rec.reset()
    assert not rec.profiler.root.children
    assert not sampler.samples
