"""Tests of the benchmark itself.

Run by path (tier-1 collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
for _path in (os.path.join(REPO_ROOT, "src"), BENCH_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
BENCHMARK = spec.load_benchmark()


def run_one(workload: str, seed: int, trace: int, tmp_path) -> dict:
    """One smoke-size contract-mode run; returns the result line plus
    the DETAIL line under ``"detail"``."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--smoke",
               "--trace", str(trace), "--detail",
               "--trace-out", str(tmp_path / f"trace-{workload}.json")],
        cwd=REPO_ROOT, text=True, stdout=subprocess.PIPE, timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("DETAIL "):])
    result["printed"] = [line.split()[0] for line in lines[1:-2]]
    return result


# ----------------------------------------------------------------------
# The contract: names, schema, run time.
# ----------------------------------------------------------------------
def test_benchmark_json_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for m in BENCHMARK["end_to_end"]
             + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"]
                                 for m in BENCHMARK["end_to_end"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS)


def test_every_layer_metric_is_declared():
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    for layer in spans.BOUNDARIES:
        assert f"{layer}.wall_ns_per_op" in declared
        assert f"{layer}.calls_per_op" in declared
        assert (f"{layer}.virt_ns_per_op" in declared) \
            == (layer not in layers.NO_VIRTUAL_STAGE)
    for name, _run, _smoke in workloads.PAPER_EXPERIMENTS:
        assert f"experiments.{name}.wall_s" in declared
    assert set(spec.EXACT) <= declared


@pytest.mark.parametrize("workload", ["p2p_afxdp_hit", "rr_latency"])
def test_printed_names_are_the_declared_names(workload, tmp_path):
    untraced = run_one(workload, 3, 0, tmp_path)
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(untraced["metrics"]) == end_to_end
    assert untraced["printed"][:len(end_to_end)] == end_to_end
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    for name, m in untraced["metrics"].items():
        assert m["value"] > 0, name

    traced = run_one(workload, 3, 1, tmp_path)
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(traced["metrics"]) == per_layer
    assert traced["printed"] == per_layer
    assert traced["correct"]
    # The traced run reports the same virtual results as the timed one.
    for name, value in untraced["detail"]["exact"].items():
        assert traced["metrics"][name]["value"] == value

    doc = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    assert doc["workload"] == workload
    assert 0 < len(doc["raw_spans"]) <= spans.RAW_SPAN_CAP
    ids = {row[0] for row in doc["raw_spans"]}
    for span_id, name_idx, start, duration, parent in doc["raw_spans"]:
        assert 0 <= name_idx < len(doc["span_names"])
        assert start >= 0 and duration >= 0
        assert parent == 0 or parent in ids or parent < span_id


def test_smoke_set_finishes_in_30s(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    proc = subprocess.run(RUN + ["--smoke", "--seed", "4", "--out", str(out)],
                          cwd=REPO_ROOT, text=True, stdout=subprocess.PIPE,
                          timeout=300)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout
    assert elapsed < 30, f"smoke set took {elapsed:.1f}s"
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == sorted(workloads.WORKLOADS)
    assert doc["problems"] == []
    for field in ("nproc", "cpu_model", "python", "git_rev", "fastpath",
                  "batch_classify", "ebpf_jit", "dp_jit"):
        assert field in doc["host"]
    for name, w in doc["workloads"].items():
        assert w["failed"] == 0
        assert w["metrics"]["fail_share"]["median"] == 0
        assert w["metrics"]["wall_ops_per_s"]["bound"] \
            == spec.COMPARE_BOUNDS["wall_ops_per_s"]
    # A set compared with itself has no regression and nothing exact
    # that moved.
    lines, regressions = compare.compare(doc, doc)
    assert regressions == 0
    assert not any("unresolved" in line for line in lines)


def test_refuses_to_run_without_the_simulator(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the command
    must exit non-zero without printing a result."""
    import shutil

    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "p2p_kernel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# Determinism: the seed decides everything.
# ----------------------------------------------------------------------
def test_same_seed_same_exact_metrics_other_seed_other_inputs(tmp_path):
    first = run_one("rr_latency", 5, 0, tmp_path)["detail"]["exact"]
    again = run_one("rr_latency", 5, 0, tmp_path)["detail"]["exact"]
    other = run_one("rr_latency", 6, 0, tmp_path)["detail"]["exact"]
    assert set(first) == {"virt_ns_per_op", "virt_rr_p50_us",
                          "virt_rr_p99_us"}
    assert first == again          # bit-equal across processes
    assert first != other          # the seed reaches the jitter RNG


@pytest.mark.parametrize("cls", [workloads.P2pAfxdpHit,
                                 workloads.P2pAfxdpMiss])
def test_stream_bytes_follow_the_seed(cls):
    def stream_bytes(seed):
        w = cls(seed, smoke=True)
        w.build()
        return [p.data for p in w.stream.burst(64)]

    assert stream_bytes(1) == stream_bytes(1)
    assert stream_bytes(1) != stream_bytes(2)


def test_distinct_stream_never_repeats_a_flow():
    stream = workloads.DistinctStream(seed=9)
    flows = [p.data[26:34] for p in stream.burst(3 * stream.CHUNK)]
    assert len(set(flows)) > 0.999 * len(flows)


def test_churn_tuples_follow_the_seed():
    def tuples(seed):
        w = workloads.NsxChurn(seed, smoke=True)
        w.build()
        return [p.data[34:38] for p in w._burst(32)]

    assert tuples(1) == tuples(1)
    assert tuples(1) != tuples(2)
    assert len(set(tuples(1))) == 32


# ----------------------------------------------------------------------
# The output check.
# ----------------------------------------------------------------------
def test_output_check_catches_the_dpdk_mempool_stall():
    got = workloads.dpdk_stall_selftest()
    assert got["delivered"] == 8_192
    assert got["failed"] > 0
    # Everything that is neither delivered nor a named drop is a failure.
    assert got["failed"] <= got["offered"] - got["delivered"]


def test_egress_check_passes_a_healthy_world():
    w = workloads.P2pKernel(1, smoke=True)
    ops, failed = w.setup()
    assert (ops, failed) == (2_000 + 100, 0)   # 2 x flows warm-up first
    assert w.check.delivered == ops
    assert w.check.delivered_bytes == ops * 60  # 64 B frames less the FCS
    # Later drives find the world warm: the minimum warm-up, then bursts.
    assert w.round() == (64 + 1_000, 0)
    assert w.check.delivered == ops + 64 + 1_000


def test_rate_is_all_ops_over_all_wall_seconds():
    rounds = workloads.Rounds(rates=[100.0, 50.0], walls=[1.0, 2.0],
                              ops=200, failed=0, first_virtual={},
                              first_rss_mb=0.0)
    assert rounds.rate == 200 / 3.0


def test_warm_stream_keeps_the_bytes_and_shrinks_the_warm_up():
    from repro.experiments.common import warmup_count

    def stream():
        return workloads.P2pAfxdpHit(7, smoke=True).make_stream()

    warm = workloads.WarmStream(stream())
    assert warmup_count(stream()) == 2 * workloads.N_FLOWS
    assert warmup_count(warm) == 64
    assert [p.data for p in warm.burst(40)] \
        == [p.data for p in stream().burst(40)]


def test_full_size_workloads_must_exercise_their_layers():
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    for workload, ranges in layers.EXERCISES.items():
        assert workload in workloads.WORKLOADS
        assert set(ranges) <= declared
    healthy = {"ebpf.memo_hit_rate": 1.0, "ovs.pmd.avg_batch": 30.98}
    assert layers.exercise_problems("p2p_afxdp_hit", healthy) == []
    # Rounds so short that the drive's burst-1 warm-up dominates them.
    unbatched = dict(healthy, **{"ovs.pmd.avg_batch": 3.66})
    assert len(layers.exercise_problems("p2p_afxdp_hit", unbatched)) == 1
    assert layers.exercise_problems("rr_latency", {}) == []


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
def test_self_time_arithmetic():
    overhead = spans.Overhead(inner_ns=10.0, outer_ns=40.0)
    # 2 calls, 1000 ns in total, 300 ns of it inside 3 child spans.
    assert spans.self_ns(1000, 300, calls=2, n_children=3,
                         overhead=overhead) == 1000 - 300 - 3 * 40 - 2 * 10
    agg = {
        ("a:outer", spans.ROOT): [2, 1000, 300, 3],
        ("a:inner", "a:outer"): [3, 300, 0, 0],
        ("b:leaf", spans.ROOT): [1, 5, 0, 0],   # calibrates below zero
    }
    by_layer = spans.fold(agg, overhead, by_layer=True)
    assert by_layer["a"]["calls"] == 5
    assert by_layer["a"]["self_ns"] == (1000 - 300 - 120 - 20) + (300 - 30)
    assert by_layer["b"]["self_ns"] == 0.0
    by_span = spans.fold(agg, overhead, by_layer=False)
    assert by_span["a:inner"] == {"calls": 3, "total_ns": 300,
                                  "self_ns": 270.0}


def test_spans_nest_and_link_to_their_parents():
    tracer = spans.Tracer()
    inner = tracer.timed(lambda: sum(range(50)), "x:inner")

    def outer_fn():
        return [inner() for _ in range(3)]

    outer = tracer.timed(outer_fn, "y:outer")
    outer()
    assert tracer.current_layer() == spans.ROOT
    calls, total, child, n_children = tracer.agg[("y:outer", spans.ROOT)]
    assert (calls, n_children) == (1, 3)
    assert child == tracer.agg[("x:inner", "y:outer")][1]
    assert total >= child
    by_id = {row[0]: row for row in tracer.raw}
    outer_id = next(i for i, name, *_ in tracer.raw if name == "y:outer")
    inners = [row for row in tracer.raw if row[1] == "x:inner"]
    assert len(inners) == 3
    for _id, _name, start, end, parent in inners:
        assert parent == outer_id
        assert by_id[outer_id][2] <= start <= end <= by_id[outer_id][3]
    assert by_id[outer_id][4] == 0


def test_calibration_is_small_and_positive():
    overhead = spans.calibrate(calls=20_000)
    assert 0 < overhead.total_ns < 20_000
    assert overhead.inner_ns >= 0 and overhead.outer_ns >= 0


def _targets():
    for table in (spans.BOUNDARIES, spans.COUNTED):
        for targets in table.values():
            yield from targets


def test_every_boundary_resolves():
    for target in _targets():
        owner, attr, fn = spans.resolve(target)
        assert callable(fn), target


def test_wrappers_are_fully_restored_after_a_traced_pass():
    before = {t: spans.resolve(t)[2] for t in _targets()}
    from repro.kernel import nic, ovs_module
    from repro.net import flow

    extract_flow = flow.extract_flow
    result = layers.traced_run(workloads.P2pKernel, seed=2, seconds=0.2,
                               smoke=True)
    assert result["problems"] == [] and result["failed"] == 0
    for target, original in before.items():
        assert spans.resolve(target)[2] is original, target
    # Module-level functions are rebound in every importer, and back.
    assert flow.extract_flow is extract_flow
    assert nic.extract_flow is extract_flow
    assert ovs_module.extract_flow is extract_flow
    m = result["metrics"]
    assert m["kernel.ovs_module.calls_per_op"] > 0
    for layer in ("ebpf", "afxdp", "ovs.pmd", "ovs.dpif_netdev"):
        assert m[f"{layer}.calls_per_op"] == 0, layer


def test_wrappers_are_restored_when_the_traced_code_raises():
    from repro.traffic.trex import TrexStream

    original = TrexStream.burst
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            tracer.install()
            assert TrexStream.burst is not original
            raise RuntimeError("boom")
    assert TrexStream.burst is original


# ----------------------------------------------------------------------
# compare.py verdicts.
# ----------------------------------------------------------------------
def _row(values, better="higher", bound=0.1, exact=False):
    q1, median, q3 = spec.quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "better": better, "bound": bound,
            "exact": exact, "unit": "x"}


def test_compare_verdicts():
    steady = _row([100, 101, 99, 100])
    assert compare.verdict(steady, _row([95, 96, 94, 95]))[0] == "ok"
    assert compare.verdict(steady, _row([80, 81, 79, 80]))[0] \
        == "REGRESSION"
    # Lower is better: growing is the regression.
    rss = _row([50, 50, 51, 50], better="lower")
    assert compare.verdict(rss, _row([60, 60, 61, 60], better="lower"))[0] \
        == "REGRESSION"
    assert compare.verdict(rss, _row([40, 40, 41, 40], better="lower"))[0] \
        == "ok"
    # A spread wider than the bound cannot settle a small difference ...
    noisy = _row([100, 130, 70, 100])
    assert compare.verdict(noisy, _row([90, 120, 65, 95]))[0] \
        == "unresolved"
    # ... unless every run of B beats every run of A, or every run of
    # B is worse and the median is past the bound.
    assert compare.verdict(noisy, _row([140, 150, 135, 160]))[0] == "ok"
    assert compare.verdict(noisy, _row([60, 65, 50, 55]))[0] == "REGRESSION"
    wide = _row([100, 140, 98, 99])
    assert compare.verdict(wide, _row([97, 96, 95, 97]))[0] == "unresolved"
    # Exact metrics may not move at all.
    exact = _row([202.5, 202.5], better="lower", bound=spec.EXACT_REL_TOL,
                 exact=True)
    same = _row([202.5, 202.5], better="lower", bound=spec.EXACT_REL_TOL,
                exact=True)
    moved = _row([202.5001, 202.5001], better="lower",
                 bound=spec.EXACT_REL_TOL, exact=True)
    assert compare.verdict(exact, same)[0] == "ok"
    assert compare.verdict(exact, moved)[0] == "REGRESSION"
    # fail_share has bound 0: any failure is a regression.
    clean = _row([0.0, 0.0], better="lower", bound=0.0)
    assert compare.verdict(clean, clean)[0] == "ok"
    assert compare.verdict(clean, _row([0.0, 0.01], better="lower",
                                       bound=0.0))[0] == "REGRESSION"

