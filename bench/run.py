#!/usr/bin/env python3
"""The two-clock benchmark: one command, six workloads, both clocks.

Two ways in, one measuring procedure:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (what ``BENCHMARK.json``'s ``command`` is
    completed to).  ``--trace 0`` measures the end-to-end metrics with
    every observer and span wrapper off; ``--trace 1`` makes the traced
    passes of ``layers.py`` and reports the per-layer metrics.  Every
    metric is printed by name with its unit, the outputs are checked,
    and the last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 bench/run.py --seed N --repeats R --out FILE [--trace]``
    A result set: every workload R times, interleaved round-robin, each
    run in a fresh child process of the form above; medians, quartiles
    and sample counts per metric go to FILE (``compare.py`` reads two
    such files).  ``--smoke`` shrinks every size so the set finishes in
    well under 30 s.

``PYTHONHASHSEED`` is pinned from the seed before anything from ``src/``
is imported (fig10/fig11 seed their jitter with ``hash(config)``), by
re-executing this interpreter once; no threads are used anywhere.
Exit code 0 means every output check and exactness check held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: How many times a run builds its world; ``setup_s`` is the median.
SETUPS = 3
SMOKE_SECONDS = 1.0
DETAIL_PREFIX = "DETAIL "


def _hash_seed(seed: int) -> str:
    return str(seed % 2**32)


def _pin_interpreter(seed: int) -> None:
    """Re-exec once with the hash seed pinned: it is read at start-up."""
    want = _hash_seed(seed)
    if os.environ.get("PYTHONHASHSEED") == want:
        return
    env = dict(os.environ, PYTHONHASHSEED=want)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _add_import_paths() -> None:
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(
            f"bench/run.py: the simulator is not at {SRC_DIR}/repro; "
            f"run from a checkout of the whole repository")
    for path in (SRC_DIR, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


def _import_workloads():
    """Import everything a run needs from ``src/``; returns the module
    and the wall seconds the imports took (part of ``setup_s``)."""
    _add_import_paths()
    start = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - start


def _print_metrics(metrics: Dict[str, Dict], extra: Dict[str, float]) -> None:
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!r:>24} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name:44s} {value!r:>24}")


# ----------------------------------------------------------------------
# One run of one workload.
# ----------------------------------------------------------------------
def measure(workloads, import_s: float, name: str, seed: int,
            seconds: float, smoke: bool) -> Dict[str, object]:
    """``--trace 0``: set up SETUPS times, then time whole rounds."""
    cls = workloads.WORKLOADS[name]
    build_s: List[float] = []
    warm_virtual: List[Dict[str, float]] = []
    attempted = failed = 0
    workload = None
    for _ in range(SETUPS):
        workload = None  # drop the previous world before timing a build
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed, smoke)
        ops, bad = workload.setup()
        build_s.append(time.perf_counter() - start)
        warm_virtual.append(dict(workload.virtual))
        attempted += ops
        failed += bad
    gc.collect()
    timed = workloads.run_rounds(workload, seconds)
    attempted += timed.ops
    failed += timed.failed
    virtual = timed.first_virtual

    problems: List[str] = []
    if failed:
        problems.append(f"{failed} of {attempted} ops failed the output "
                        f"check")
    if any(v != warm_virtual[0] for v in warm_virtual[1:]):
        problems.append(f"virtual results differ between set-ups of one "
                        f"seed: {warm_virtual}")
    if not virtual:
        problems.append("the first timed round produced no virtual result")
    values = {
        "wall_ops_per_s": timed.rate,
        "setup_s": import_s + statistics.median(build_s),
        "peak_rss_mb": timed.first_rss_mb,
    }
    detail = {
        "exact": virtual,
        "fail_share": failed / attempted,
        "rounds": len(timed.rates),
        "round_rates": timed.rates,
        "measured_s": sum(timed.walls),
        "import_s": import_s,
        "build_s": build_s,
    }
    return {"values": values, "detail": detail, "attempted": attempted,
            "failed": failed, "problems": problems}


def run_one(args) -> int:
    _pin_interpreter(args.seed)
    workloads, import_s = _import_workloads()
    import spec

    benchmark = spec.load_benchmark()
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else benchmark["run_seconds"]

    extra: Dict[str, float] = {}
    if args.trace:
        import layers

        result = layers.traced_run(workloads.WORKLOADS[args.workload],
                                   args.seed, seconds, args.smoke)
        wanted = benchmark["per_layer"]
        values = {m["name"]: result["metrics"].pop(m["name"], 0.0)
                  for m in wanted}
        if result["metrics"]:
            result["problems"].append(
                f"metrics missing from BENCHMARK.json: "
                f"{sorted(result['metrics'])}")
        if result["failed"]:
            result["problems"].append(
                f"{result['failed']} of {result['attempted']} ops failed "
                f"the output check")
        trace_out = args.trace_out or os.path.join(
            BENCH_DIR, "out", f"trace-{args.workload}.json")
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        with open(trace_out, "w") as fh:
            json.dump(result["trace"], fh, separators=(",", ":"))
            fh.write("\n")
        detail = {"trace_file": os.path.relpath(trace_out, REPO_ROOT)}
    else:
        result = measure(workloads, import_s, args.workload, args.seed,
                         seconds, args.smoke)
        wanted = benchmark["end_to_end"]
        values = result["values"]
        detail = result["detail"]
        extra = dict(detail["exact"], fail_share=detail["fail_share"],
                     rounds=detail["rounds"])

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"{args.workload}  seed={args.seed}  seconds={seconds}  "
          f"trace={int(args.trace)}  "
          f"(one op = one {workloads.WORKLOADS[args.workload].op})")
    _print_metrics(metrics, extra)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.detail:
        print(DETAIL_PREFIX + json.dumps(detail))
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# A result set: every workload, several repeats, fresh children.
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: Optional[float], trace: bool,
           smoke: bool, trace_out: Optional[str]) -> Dict[str, object]:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--detail"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED=_hash_seed(seed))
    proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = next(json.loads(line[len(DETAIL_PREFIX):])
                      for line in reversed(lines)
                      if line.startswith(DETAIL_PREFIX))
    except (IndexError, ValueError, StopIteration):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload}: child exited {proc.returncode} "
                         f"without a result")
    result["detail"] = detail
    result["checks"] = [line for line in lines
                        if line.startswith("CHECK FAILED")]
    return result


def run_suite(args) -> int:
    _add_import_paths()
    import spec

    benchmark = spec.load_benchmark()
    table = spec.metric_table(benchmark)
    names = [w["name"] for w in benchmark["workloads"]]
    repeats = args.repeats or (1 if args.smoke else 3)
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out \
        else os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)

    runs: Dict[str, List[Dict]] = {n: [] for n in names}
    problems: List[str] = []
    for repeat in range(repeats):
        for name in names:  # round-robin, so drift hits all alike
            result = _child(name, args.seed, args.seconds, False,
                            args.smoke, None)
            runs[name].append(result)
            rate = result["metrics"]["wall_ops_per_s"]["value"]
            print(f"[{repeat + 1}/{repeats}] {name:16s} "
                  f"{rate:12.1f} ops/s  failed={result['failed']}")
            problems += [f"{name}: {c}" for c in result["checks"]]

    doc_workloads: Dict[str, Dict] = {}
    for spec_w in benchmark["workloads"]:
        name = spec_w["name"]
        rows: Dict[str, Dict] = {}
        series: Dict[str, List[float]] = {}
        for run in runs[name]:
            for metric, m in run["metrics"].items():
                series.setdefault(metric, []).append(m["value"])
            for metric, value in run["detail"]["exact"].items():
                series.setdefault(metric, []).append(value)
            series.setdefault("fail_share", []).append(
                run["detail"]["fail_share"])
        for metric, values in series.items():
            q1, median, q3 = spec.quartiles(values)
            exact = metric in spec.EXACT
            if exact and any(v != values[0] for v in values):
                problems.append(f"{name}: exact metric {metric} differs "
                                f"between repeats: {values}")
            rows[metric] = {
                "unit": table[metric]["unit"],
                "better": table[metric]["better"],
                "bound": (spec.EXACT_REL_TOL if exact
                          else spec.COMPARE_BOUNDS.get(
                              metric, table[metric].get("bound", 0.0))),
                "exact": exact,
                "median": median, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        doc_workloads[name] = {
            "why": spec_w["why"],
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "metrics": rows,
        }

    if args.trace:
        for name in names:
            trace_out = os.path.join(out_dir, f"trace-{name}.json")
            result = _child(name, args.seed, args.seconds, True,
                            args.smoke, trace_out)
            print(f"[trace] {name:16s} failed={result['failed']}")
            problems += [f"{name} (traced): {c}" for c in result["checks"]]
            doc_workloads[name]["per_layer"] = result["metrics"]
            doc_workloads[name]["trace_file"] = os.path.relpath(
                trace_out, out_dir)

    doc = {
        "schema": 1,
        "seed": args.seed,
        "repeats": repeats,
        "seconds": args.seconds if args.seconds is not None else (
            SMOKE_SECONDS if args.smoke else benchmark["run_seconds"]),
        "smoke": args.smoke,
        "host": spec.fingerprint(),
        "workloads": doc_workloads,
        "problems": problems,
    }
    out = args.out or os.path.join(out_dir, "results.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return 1 if problems else 0


def run_selftest() -> int:
    """The output check must notice packets that go missing."""
    workloads, _ = _import_workloads()
    got = workloads.dpdk_stall_selftest()
    ok = got["delivered"] == 8_192 and got["failed"] > 0
    print(f"dpdk_p2p: offered {got['offered']}, delivered "
          f"{got['delivered']} (expected 8192), flagged as failed "
          f"{got['failed']} -> {'ok' if ok else 'THE CHECK MISSED IT'}")
    return 0 if ok else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1),
                        help="1: the traced passes and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, 1 s runs: a functional check")
    parser.add_argument("--repeats", type=int, default=None,
                        help="result set: runs per workload (default 3)")
    parser.add_argument("--out", help="result set: the file to write")
    parser.add_argument("--trace-out", help="where the trace file goes")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true",
                        help="prove the output check catches lost packets")
    args = parser.parse_args(argv)
    if args.selftest:
        return run_selftest()
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
